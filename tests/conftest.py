import dataclasses
import math
import re
from pathlib import Path

import numpy as np

from gradagrad import Dataset, GradaGrad, HyperParams, Trace, csvio
from gradagrad.core import BRANCHES

DATASETS = Path(__file__).resolve().parent.parent / "datasets"
BLOBS = DATASETS / "blobs.libsvm"
BITS = DATASETS / "bits.libsvm"

# grid arguments (beyond --seeds and --seed) covering every optimizer on
# each problem kind and each GradaGrad grid parameter; the logistic batch
# sizes leave a ragged last batch (500 = 7*64 + 52, 600 = 35*17 + 5)
GRID_PROBLEMS = {
    "abs": ["--problem", "abs", "--dim", "2", "--x0", "1,-0.5", "--steps", "40"],
    "quadratic": ["--problem", "quadratic", "--dim", "3", "--noise-std", "0.5", "--x0", "3",
                  "--steps", "60", "--eval-every", "7"],
    "bits": ["--problem", "logistic", "--dataset", str(BITS), "--epochs", "2", "--batch-size", "64"],
    "blobs": ["--problem", "logistic", "--dataset", str(BLOBS), "--epochs", "3", "--batch-size", "17"],
}
GRID_CASES = {
    f"{optimizer}-{problem}": [*argv, "--optimizer", optimizer, "--grid-values", "0.25,1,4"]
    for optimizer in ("adagrad", "adam", "gradagrad", "gradagrad-scalar", "sgd")
    for problem, argv in GRID_PROBLEMS.items()
}
_GG_QUADRATIC = [*GRID_PROBLEMS["quadratic"], "--optimizer", "gradagrad"]
GRID_CASES.update({
    "gradagrad-rho": [*_GG_QUADRATIC, "--grid-param", "rho", "--grid-values", "0,1,2,3.3"],
    "gradagrad-beta": [*_GG_QUADRATIC, "--grid-param", "beta", "--grid-values", "0,0.3,0.6"],
    "gradagrad-g_inf": [*_GG_QUADRATIC, "--mode", "theory", "--grid-param", "g_inf", "--grid-values", "0.5,1,4"],
    # the cap binds at the first negative step
    "gradagrad-d_inf": [*_GG_QUADRATIC, "--gamma0", "1.5", "--grid-param", "d_inf", "--grid-values", "1.6,2,3"],
    "scalar-rho-adaptive": [*GRID_PROBLEMS["quadratic"], "--optimizer", "gradagrad-scalar", "--r", "adaptive",
                            "--grid-param", "rho", "--grid-values", "0,1,2"],
})


def csr_dataset(rows, dim) -> Dataset:
    """A Dataset of (label, [(index, value), ...]) rows, built as CSR arrays."""
    pairs = [pair for _, features in rows for pair in features]
    return Dataset(
        labels=np.array([label for label, _ in rows], dtype=float),
        indptr=np.cumsum([0] + [len(features) for _, features in rows], dtype=np.int64),
        indices=np.array([idx for idx, _ in pairs], dtype=np.int64),
        values=np.array([val for _, val in pairs], dtype=float),
        dim=dim,
    )


def make_fuzz_run(
    dim=10,
    steps=1000,
    seed=0,
    d_inf=50.0,
    rho=2.0,
    beta=0.0,
    mode="practical",
    g_inf=3.0,
    drift=1.0,
    scale=0.4,
):
    """Drive a diagonal stepper with a positively-correlated gradient stream.

    The drift makes consecutive gradients agree in sign, so the negative
    branch fires often; the low cap makes the capped branch fire too.
    Gradients are stream noise, not a function of x: the state-machine
    invariants hold for any gradient sequence.
    """
    rng = np.random.default_rng(seed)
    params = HyperParams(gamma0=1.0, rho=rho, beta=beta, d_inf=d_inf, g_inf=g_inf, mode=mode)
    opt = GradaGrad(rng.standard_normal(dim), params)
    trace = Trace.empty(steps, dim)
    for _ in range(steps):
        opt.step(rng.normal(drift, scale, dim), trace)
    return opt, trace


def traced_run(opt, grads) -> Trace:
    """Step a GradaGrad stepper on each gradient; the run's trace."""
    trace = Trace.empty(opt.k + len(grads), opt.gamma.size)
    for g in grads:
        opt.step(g, trace)
    return trace[len(trace) - len(grads):]


def traced_step(opt, g) -> Trace:
    """One step of a GradaGrad stepper; its trace row."""
    return traced_run(opt, [g])[0]


def write_trace_csv(path, trace):
    """Write trace as `run --trace` writes it: through csvio's trace sink, one
    chunk the length of its ring at a time."""
    with csvio.trace_sink(path, len(trace), trace.branch.shape[1]) as (ring, write):
        for start in range(0, len(trace), max(1, len(ring))):  # an empty trace's ring holds no step
            write(trace[start:start + len(ring)])


def branch_names(row) -> list[str]:
    return [BRANCHES[code] for code in row.branch]


def copy_trace(trace) -> Trace:
    return Trace(**{f.name: getattr(trace, f.name).copy() for f in dataclasses.fields(trace)})


def first_branch(trace, code) -> tuple[int, int]:
    """(step, coordinate) of the first entry after step 0 with this branch code."""
    found = np.argwhere(trace.branch[1:] == code)
    assert found.size, f"no branch {BRANCHES[code]} after step 0"
    return int(found[0, 0]) + 1, int(found[0, 1])


# spellings a trace or record field can hold that JSON and float() or int()
# read otherwise, or that only one of them reads
HOSTILE = ["-0", "-0.0", "0", "5", "9007199254740993", "1" * 400, "1e400", "-1e400", "1e-400", "-1e-400",
           "true", "false", "null", '"1.5"', "[1]", "{}", " 1.5", "1.5 ", " -0 ", "-0\t", "+1", ".5", "5.",
           "01", "00001.5", "1_0", "\u0661", "inf", "nan", "Infinity", "NaN", "0x1p3", "1E+05",
           "1.7976931348623159e308", "18446744073709551615", "18446744073709551616"]
INTEGER = re.compile(r"-?(?:0|[1-9][0-9]*)")
NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


def in_dialect(field, integer) -> bool:
    """Whether the readers' grammar takes field: a JSON integer, if integer,
    else empty, inf, -inf, nan or a JSON number that does not overflow."""
    if integer:
        return INTEGER.fullmatch(field) is not None
    return field in ("", "inf", "-inf", "nan") or NUMBER.fullmatch(field) is not None and math.isfinite(float(field))
