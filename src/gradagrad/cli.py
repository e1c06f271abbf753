"""Benchmark harness CLI: seeded runs, grid searches, and trace checks.

Subcommands: run, grid, check, trace-dump. Run records and step traces are
emitted as CSV with fixed headers (missing values are empty fields):

    run record:  step,epoch,loss,accuracy,gamma_mean,gamma_max,alpha_mean,alpha_max,ainv_mean,subopt
    step trace:  k,i,g,v_raw,v_clipped,branch,r,gamma,alpha,a

Exit codes: 0 success, 1 check/assertion failure, 2 usage/config error.
Output CSVs are byte-deterministic for a fixed seed; wall-clock timing only
appears in the stderr summary.
"""

import argparse
import csv
import itertools
import math
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import verify
from .core import BRANCHES, FLOAT_COLUMNS, SGD, Adam, AdaGrad, GradaGrad, HyperParams, ScalarGradaGrad, Trace, drive
from .data import load_dataset, normalize_labels
from .problems import AbsValue, LogisticRegression, Quadratic

RUN_HEADER = [
    "step", "epoch", "loss", "accuracy",
    "gamma_mean", "gamma_max", "alpha_mean", "alpha_max", "ainv_mean", "subopt",
]
TRACE_HEADER = ["k", "i", "g", "v_raw", "v_clipped", "branch", "r", "gamma", "alpha", "a"]
TRACE_CHUNK_ROWS = 1024  # trace CSV rows held as strings at once
CHECK_HEADER = ["name", "passed", "worst_violation", "step", "coord", "details"]

TRACE_OPTIMIZERS = ("gradagrad", "gradagrad-scalar")
# the trace checks by name; each looks its verify function up when called, so that
# wrappers patched onto verify apply
TRACE_CHECKS = {
    "errnegativity": lambda trace, d_inf: verify.check_errnegativity(trace),
    "monotone": lambda trace, d_inf: verify.check_monotone_and_cap(trace, d_inf=d_inf),
    "reparam": lambda trace, d_inf: verify.check_reparam_invariance(trace, d_inf=d_inf),
}
CHECK_NAMES = tuple(TRACE_CHECKS)
DEFAULT_GRID = "0.015625,0.03125,0.0625,0.125,0.25,0.5,1,2,4"

# config-file keys accepted for run/grid (key=value, flag spelling without --)
CONFIG_KEYS = {
    "problem", "dataset", "dim", "diag", "noise-std", "x0", "optimizer",
    "gamma0", "rho", "beta", "g-inf", "d-inf", "r", "mode", "steps", "epochs",
    "batch-size", "seed", "eval-every", "trace", "out",
    "grid-param", "grid-values", "seeds",
}


class ConfigError(Exception):
    """Bad configuration; maps to exit code 2."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return "" if math.isnan(value) else repr(value)
    return str(value)


def _write_csv(path, header, rows):
    with nullcontext(sys.stdout) if path is None else open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit value")
    return value


# ---------------------------------------------------------------------------
# construction from flags
# ---------------------------------------------------------------------------

def _build_problem(args):
    """Returns (problem, x0, batches_per_epoch_or_None)."""
    dim = args.dim if args.dim is not None else 1
    if args.problem == "abs":
        problem = AbsValue(dim)
        x0_default = np.ones(dim)
    elif args.problem == "quadratic":
        if args.diag is not None:
            diag = np.array(_parse_floats(args.diag))
        elif dim < 1:  # AbsValue's message; np.ones(dim) would raise numpy's own
            raise ConfigError(f"dim must be >= 1, got {dim}")
        else:
            diag = np.ones(dim)
        problem = Quadratic(diag, noise_std=args.noise_std)
        x0_default = np.ones(problem.dim)
    elif args.problem == "logistic":
        if args.dataset is None:
            raise ConfigError("--problem logistic requires --dataset")
        dataset = normalize_labels(load_dataset(args.dataset))
        problem = LogisticRegression(dataset, batch_size=args.batch_size)
        x0_default = np.zeros(problem.dim)
    else:  # pragma: no cover - argparse choices guard this
        raise ConfigError(f"unknown problem {args.problem!r}")

    if args.x0 is not None:
        vals = _parse_floats(args.x0)
        if not all(map(math.isfinite, vals)):
            raise ConfigError(f"--x0 must be finite, got {args.x0!r}")
        if len(vals) == 1:
            x0 = np.full(problem.dim, vals[0])
        elif len(vals) == problem.dim:
            x0 = np.array(vals)
        else:
            raise ConfigError(f"--x0 has {len(vals)} entries but the problem has dim {problem.dim}")
    else:
        x0 = x0_default
    n_batches = None
    if args.problem == "logistic":
        n_batches = math.ceil(problem.n / problem.batch_size)
    return problem, x0, n_batches


def _build_hyperparams(args) -> HyperParams:
    if args.r == "adaptive":
        r_fixed = None
    else:
        try:
            r_fixed = float(args.r)
        except ValueError:
            raise ConfigError(f"--r must be a number or 'adaptive', got {args.r!r}") from None
    return HyperParams(
        gamma0=args.gamma0, rho=args.rho, beta=args.beta,
        g_inf=args.g_inf, d_inf=args.d_inf, r_fixed=r_fixed, mode=args.mode,
    )


def _build_optimizer(runs, x0):
    """One optimizer stepping a replica from x0 for each namespace in runs,
    in lockstep; each replica's hyperparameters come from its namespace."""
    name = runs[0].optimizer
    x0 = np.tile(x0, (len(runs), 1))
    if name in ("gradagrad", "gradagrad-scalar"):
        params = [_build_hyperparams(run) for run in runs]
        return (GradaGrad if name == "gradagrad" else ScalarGradaGrad)(x0, params if len(params) > 1 else params[0])
    # --gamma0 doubles as the learning rate for the sgd/adam baselines
    rates = [run.gamma0 for run in runs]
    if name == "adagrad":
        return AdaGrad(x0, gamma=rates)
    if name == "sgd":
        return SGD(x0, lr=rates)
    if name == "adam":
        return Adam(x0, lr=rates)
    raise ConfigError(f"unknown optimizer {name!r}")  # pragma: no cover


def _resolve_steps(args, n_batches):
    if (args.steps is None) == (args.epochs is None):
        raise ConfigError("exactly one of --steps or --epochs is required")
    if args.epochs is not None:
        if n_batches is None:
            raise ConfigError("--epochs only applies to dataset problems; use --steps")
        if args.epochs < 1:
            raise ConfigError("--epochs must be >= 1")
        return args.epochs * n_batches
    if args.steps < 1:
        raise ConfigError("--steps must be >= 1")
    return args.steps


def _build_run(args):
    """(problem, x0, n_batches, steps, eval_every): a run but its optimizer and seed."""
    problem, x0, n_batches = _build_problem(args)
    steps = _resolve_steps(args, n_batches)
    eval_every = args.eval_every if args.eval_every is not None else n_batches or 100
    if eval_every < 1:
        raise ConfigError(f"--eval-every must be >= 1, got {eval_every}")
    return problem, x0, n_batches, steps, eval_every


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _eval_row(step, n_batches, problem, opt):
    loss = problem.loss_full(opt.x)
    stats = opt.stats()
    subopt = loss - problem.f_star if problem.f_star is not None else None
    return [
        step,
        step // n_batches if n_batches else None,
        loss,
        problem.accuracy(opt.x),
        *(stats.get(name) for name in RUN_HEADER[4:9]),
        subopt,
    ]


def cmd_run(args) -> int:
    problem, x0, n_batches, steps, eval_every = _build_run(args)
    opt = _build_optimizer([args], x0)
    if args.trace:
        if args.optimizer not in TRACE_OPTIMIZERS:
            raise ConfigError(f"--trace requires one of {TRACE_OPTIMIZERS}")
        if args.out is None:
            raise ConfigError("--trace requires --out (the trace path derives from it)")
    rows = []
    trace = Trace.empty(steps, opt.gamma.size) if args.trace else None
    states = [problem.init_state(args.seed)]
    wall = drive(opt, lambda x: problem.grad_sample(x, states), steps,
                 lambda k: rows.append(_eval_row(k, n_batches, problem, opt)), eval_every, trace)
    _write_csv(args.out, RUN_HEADER, [[_fmt(v) for v in row] for row in rows])
    if args.trace:
        trace_path = Path(args.out).with_suffix(".trace.csv")
        _write_csv(trace_path, TRACE_HEADER, _trace_rows(trace))
        print(f"trace written to {trace_path}", file=sys.stderr)
    final_loss = rows[-1][2]
    avg_loss = problem.loss_full(opt.averaged_iterate())
    print(
        f"run complete: steps={steps} final_loss={final_loss!r} "
        f"averaged_iterate_loss={avg_loss!r} wall={wall:.3f}s",
        file=sys.stderr,
    )
    return 0


def _trace_columns(trace: Trace, fmt) -> list[list]:
    """The trace CSV columns, row-major over (step, coordinate); fmt formats a float column."""
    steps, d = trace.branch.shape
    cols = [np.repeat(trace.k, d).tolist(), list(range(d)) * steps]
    cols += [fmt(getattr(trace, name).ravel().tolist()) for name in FLOAT_COLUMNS]
    cols.insert(5, np.take(BRANCHES, trace.branch.ravel()).tolist())
    return cols


def _trace_rows(trace: Trace):
    """The trace CSV rows, formatted column by column as _fmt formats a
    value, about TRACE_CHUNK_ROWS rows at a time."""
    steps = max(1, TRACE_CHUNK_ROWS // max(1, trace.branch.shape[1]))
    for start in range(0, len(trace), steps):
        chunk = trace[start:start + steps]
        yield from zip(*_trace_columns(chunk, lambda values: ["" if v != v else repr(v) for v in values]))


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

GRID_PARAMS = ("gamma0", "rho", "beta", "g_inf", "d_inf")
# the grid parameters each optimizer reads; g_inf only in theory mode
GRID_READS = {"gradagrad": GRID_PARAMS, "gradagrad-scalar": ("gamma0", "rho")}


def _run_seed(seed, vi, si) -> int:
    """The seed of the run of grid value vi, replicate si."""
    return int(np.random.SeedSequence([seed, vi, si]).generate_state(1, np.uint64)[0])


def _run_grid(args, param, values):
    """Run every (value, seed) of a grid as one replica, all in lockstep, and
    evaluate only what selection reads. Replica vi * seeds + si runs value
    vi with seed si. Returns (opt, kind, evals): ("accuracy", the (R,)
    accuracies at each evaluation) if the problem reports accuracy, else
    ("loss", [the (R,) final losses])."""
    # no grid parameter affects the problem
    problem, x0, _, steps, eval_every = _build_run(args)
    opt = _build_optimizer([argparse.Namespace(**{**vars(args), param: value})
                            for value in values for _ in range(args.seeds)], x0)
    states = [problem.init_state(_run_seed(args.seed, vi, si))
              for vi in range(len(values)) for si in range(args.seeds)]
    evals = {"accuracy": [], "loss": []}

    def on_eval(k):
        x = opt.x.reshape(opt.replicas, -1)
        acc = problem.accuracy(x)
        if acc is not None:
            evals["accuracy"].append(acc)
        elif k == steps:
            evals["loss"].append(problem.loss_full(x))

    drive(opt, lambda x: problem.grad_sample(x, states), steps, on_eval, eval_every)
    kind = "accuracy" if evals["accuracy"] else "loss"
    return opt, kind, evals[kind]


def _selection_metric(kind, evals) -> list[float]:
    """One score per replica: its mean accuracy over the last <=10
    evaluations, or its final loss."""
    if kind == "accuracy":
        # a last-axis mean of contiguous rows rounds as each replica's alone; a mean down axis 0 does not
        return np.ascontiguousarray(np.transpose(evals[-10:])).mean(axis=-1).tolist()
    return evals[-1].tolist()


def cmd_grid(args) -> int:
    values = _parse_floats(args.grid_values)
    if not values:
        raise ConfigError("empty grid")
    param = args.grid_param.replace("-", "_")
    if param not in GRID_PARAMS:
        raise ConfigError(f"--grid-param must be one of {GRID_PARAMS}, got {args.grid_param!r}")
    read = param in GRID_READS.get(args.optimizer, ("gamma0",))
    if not read or param == "g_inf" and args.mode == "practical":
        mode = " in --mode practical" if read else ""
        raise ConfigError(f"--grid-param {param} is not read by --optimizer {args.optimizer}{mode}")
    if args.seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    if args.trace:
        raise ConfigError("grid writes no trace; trace one value with run --trace")

    values = sorted(values)
    _, metric_kind, evals = _run_grid(args, param, values)
    scores = np.reshape(_selection_metric(metric_kind, evals), (len(values), args.seeds)).mean(axis=-1)
    table = list(zip(values, scores.tolist()))

    # max/min replace the best only on a strict >/<: exact ties keep the earlier (smaller) value
    best_idx = (max if metric_kind == "accuracy" else min)(range(len(table)), key=lambda idx: table[idx][1])

    out_rows = [
        [args.grid_param, _fmt(value), metric_kind, _fmt(score), _fmt(idx == best_idx)]
        for idx, (value, score) in enumerate(table)
    ]
    _write_csv(args.out, ["param", "value", "metric", "score", "winner"], out_rows)
    winner_value, winner_score = table[best_idx]
    print(
        f"grid complete: winner {args.grid_param}={winner_value!r} "
        f"{metric_kind}={winner_score!r} over {args.seeds} seed(s)",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# check / trace-dump
# ---------------------------------------------------------------------------

def _parse(text: np.ndarray, dtype):
    """A (columns, rows) object array of strings as dtype, empty fields as
    NaN; if some field does not parse, the index of the first row with one."""
    if dtype is float:
        text = np.where(text == "", "nan", text)
    try:
        return text.astype(dtype)  # int() or float() of each string
    except (ValueError, OverflowError):
        def parses(field):
            try:
                np.array([field], dtype=object).astype(dtype)
            except (ValueError, OverflowError):
                return False
            return True
        return int(np.argmin(np.vectorize(parses, otypes=[bool])(text).all(axis=0)))


def _read_csv(path, header, parse) -> list:
    """The arrays parse(text) returns for each run of up to TRACE_CHUNK_ROWS
    rows after a CSV's header, which must be header, each joined over the
    runs along its last axis. text is a run's (columns, rows) object array
    of fields, and parse returns (arrays, errors), errors a list of (row
    index, message). A ConfigError names the line of the first bad row: one
    with the wrong field count, or one of parse's errors (on a tie, the
    field count, then parse's order)."""

    def parsed(rows, line):
        short = next((n for n, row in enumerate(rows) if len(row) != len(header)), len(rows))
        errors = [(short, f"expected {len(header)} fields")] if short < len(rows) else []
        rows = rows[:short]
        result, more = parse(np.array(rows, dtype=object).reshape(len(rows), len(header)).T)
        if errors or more:
            row, message = min(errors + more, key=lambda e: e[0])  # ties keep the order above
            raise ConfigError(f"{path}:{line + row}: {message}")
        return result

    kind = "trace" if header == TRACE_HEADER else "run record"
    with open(path, "r", newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        found = next(reader, None)
        if found is None:
            raise ConfigError(f"{path}: empty {kind} file")
        if found != header:
            missing = [c for c in header if c not in found]
            raise ConfigError(
                f"{path}: bad {kind} header, missing columns {missing}" if missing
                else f"{path}: bad {kind} header {found}"
            )
        chunks = iter(lambda: list(itertools.islice(reader, TRACE_CHUNK_ROWS)), [])
        results = [parsed(rows, 2 + n * TRACE_CHUNK_ROWS) for n, rows in enumerate(chunks)]
    return [np.concatenate(arrays, axis=-1) for arrays in zip(*results or [parsed([], 2)])]


def _trace_fields(text):
    """Branch codes, k and i, and the float columns of trace fields; errors as _read_csv reads them."""
    ints, floats = _parse(text[:2], int), _parse(text[[2, 3, 4, 6, 7, 8, 9]], float)
    errors = [(bad, "non-numeric field") for bad in (ints, floats) if isinstance(bad, int)]
    codes = np.full(text.shape[1], -1, dtype=np.int8)
    for code, name in enumerate(BRANCHES):
        codes[text[5] == name] = code
    if (codes < 0).any():
        row = int(np.argmin(codes))
        errors.append((row, f"unknown branch {text[5][row]!r}; expected one of {list(BRANCHES)}"))
    return (codes, ints, floats), errors


def read_trace_csv(path) -> Trace:
    """Parse a trace CSV column by column, TRACE_CHUNK_ROWS rows at a time.
    Rows come in the order a run writes them: if step 0 has d rows, row n
    (from 0) holds step n // d and coordinate n % d. A row out of place, or
    a last step of fewer than d rows, is a ConfigError naming its line."""
    codes, (k, i), floats = _read_csv(path, TRACE_HEADER, _trace_fields)
    d = int(np.argmax(k != 0)) if k.any() else len(k)  # the rows of step 0
    step, coord = np.divmod(np.arange(len(k)), max(d, 1))
    (bad,) = np.nonzero((k != step) | (i != coord))
    if bad.size:
        n = bad[0]
        raise ConfigError(f"{path}:{2 + n}: expected step {step[n]}, coordinate {coord[n]}, "
                          f"got step {k[n]}, coordinate {i[n]}; a trace's rows run in (k, i) order")
    if len(k) and i[-1] != d - 1:
        raise ConfigError(f"{path}:{1 + len(k)}: the trace ends in step {k[-1]} after coordinate {i[-1]}; "
                          f"every step has one row per coordinate 0..{d - 1}")
    steps = len(k) // d if d else 0
    columns = floats.reshape(len(FLOAT_COLUMNS), steps, d)
    return Trace(k=np.arange(steps), branch=codes.reshape(steps, d), **dict(zip(FLOAT_COLUMNS, columns)))


def _record_fields(text):
    """The step and gamma_max columns of run-record fields, an empty
    gamma_max as -inf, which no cap check fails; errors as _read_csv reads them."""
    step, gamma_max = _parse(text[:1], int), _parse(np.where(text[5:6] == "", "-inf", text[5:6]), float)
    return (step, gamma_max), [(bad, "non-numeric step or gamma_max") for bad in (step, gamma_max)
                               if isinstance(bad, int)]


def _check_run_record(path, d_inf):
    """Schema-level check of a run record: steps strictly increase and every
    recorded gamma stays at or below the cap. An empty gamma_max is not
    checked, a NaN one fails, and under d_inf = inf no other one does."""
    (step,), (gamma_max,) = _read_csv(path, RUN_HEADER, _record_fields)
    viol = np.zeros(len(step))
    viol[1:] = step[1:] <= step[:-1]  # 1.0 where a step does not increase
    details = [f"step {step[n]} does not increase past {step[n - 1]}" for n in np.flatnonzero(viol)[:3]]
    if d_inf is not None:
        over = (gamma_max - d_inf) / d_inf if d_inf < math.inf else np.where(np.isnan(gamma_max), np.nan, 0.0)
        viol = np.maximum(viol, over)
    worst, location = verify._worst(viol[:, None], True, step)
    cap_note = f", gamma_max <= {d_inf:g}" if d_inf is not None else ""
    return verify.CheckReport(
        name="run_record",
        passed=worst <= 0.0,
        worst_violation=worst,
        location=location,
        details="; ".join(details) or f"steps strictly increasing{cap_note}",
    )


def cmd_check(args) -> int:
    if args.d_inf is not None and not args.d_inf > 0:  # NaN fails too; inf is allowed, a cap that never binds
        raise ConfigError(f"--d-inf must be positive, got {args.d_inf}")
    with open(args.trace, "r", newline="", encoding="utf-8") as f:
        record = next(csv.reader(f), None) == RUN_HEADER
    checks = {"record": _check_run_record} if record else TRACE_CHECKS
    names = list(checks) if args.checks == "all" else [
        tok.strip() for tok in args.checks.split(",") if tok.strip()
    ]
    if not names:
        raise ConfigError("no checks requested")
    unknown = [name for name in names if name not in checks]
    if unknown:
        raise ConfigError("run record files support only the 'record' check" if record
                          else f"unknown check {unknown[0]!r}; choose from {CHECK_NAMES} or 'all'")
    source = args.trace if record else read_trace_csv(args.trace)
    reports = [checks[name](source, args.d_inf) for name in names]
    rows = []
    for rep in reports:
        step, coord = rep.location if rep.location is not None else (None, None)
        rows.append([
            rep.name, _fmt(rep.passed), _fmt(rep.worst_violation),
            _fmt(step), _fmt(coord), rep.details,
        ])
        status = "PASS" if rep.passed else "FAIL"
        print(f"{rep.name}: {status} (worst={rep.worst_violation:g})", file=sys.stderr)
    _write_csv(args.out, CHECK_HEADER, rows)
    return 0 if all(rep.passed for rep in reports) else 1


def cmd_trace_dump(args) -> int:
    trace = read_trace_csv(args.trace)
    steps, d = trace.branch.shape
    counts = np.bincount(trace.branch.ravel(), minlength=len(BRANCHES))
    print(f"steps: {steps}  coordinates: {d}")
    print("branches: " + " ".join(f"{b}={n}" for b, n in zip(BRANCHES, counts.tolist())))
    if steps:
        gammas, alphas = trace.gamma_after, trace.alpha_after
        print(f"gamma in [{gammas.min():g}, {gammas.max():g}]  alpha in [{alphas.min():g}, {alphas.max():g}]")
    print("  ".join(TRACE_HEADER))
    n = max(0, min(args.head, steps * d))
    if n:
        cols = _trace_columns(trace[: -(-n // d)], lambda values: [format(v, ".6g") for v in values])
        cols[6] = ["" if r == "nan" else r for r in cols[6]]  # no clip ran
        print("\n".join(["  ".join(map(str, row)) for row in zip(*cols)][:n]))
    return 0


# ---------------------------------------------------------------------------
# parser / entry
# ---------------------------------------------------------------------------

def _add_run_flags(p):
    p.add_argument("--problem", choices=("abs", "quadratic", "logistic"), required=True)
    p.add_argument("--dataset", help="LIBSVM file (logistic problem)")
    p.add_argument("--dim", type=int, help="dimension for synthetic problems")
    p.add_argument("--diag", help="comma-separated quadratic diagonal (overrides --dim)")
    p.add_argument("--noise-std", type=float, default=0.0, help="gradient noise (quadratic)")
    p.add_argument("--x0", help="initial point: one value (broadcast) or comma-separated")
    p.add_argument("--optimizer", choices=("gradagrad", "gradagrad-scalar", "adagrad", "sgd", "adam"),
                   default="gradagrad")
    p.add_argument("--gamma0", type=float, default=1.0,
                   help="step-size numerator; also the sgd/adam learning rate")
    p.add_argument("--rho", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--g-inf", type=float, default=1.0)
    p.add_argument("--d-inf", type=float, default=1e10)
    p.add_argument("--r", default="1", help="scalar-variant clip: a number or 'adaptive'")
    p.add_argument("--mode", choices=("theory", "practical"), default="practical")
    p.add_argument("--steps", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--eval-every", type=int)
    p.add_argument("--trace", action="store_true", help="also write a step-trace CSV")
    p.add_argument("--out", help="run record CSV path (stdout when omitted)")
    p.add_argument("--config", help="key=value config file; flags override file values")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradagrad",
        description="Non-monotone adaptive gradient benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    _add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_grid = sub.add_parser("grid", help="grid-search one parameter over seeded runs")
    _add_run_flags(p_grid)
    p_grid.add_argument("--grid-param", default="gamma0")
    p_grid.add_argument("--grid-values", default=DEFAULT_GRID,
                        help="comma-separated values (default: powers of 2)")
    p_grid.add_argument("--seeds", type=int, default=10, help="replicates per grid point")
    p_grid.set_defaults(func=cmd_grid)

    p_check = sub.add_parser("check", help="run invariant checks on a run-record or step-trace CSV")
    p_check.add_argument("trace")
    p_check.add_argument("--checks", default="all",
                         help=f"comma-separated subset of {CHECK_NAMES} or 'all' "
                              "(run-record files support 'record')")
    p_check.add_argument("--d-inf", type=float,
                         help="gamma cap to assert; by default cap binding is "
                              "self-detected from the trace and no cap bound is asserted")
    p_check.add_argument("--out", help="check report CSV path (stdout when omitted)")
    p_check.set_defaults(func=cmd_check)

    p_dump = sub.add_parser("trace-dump", help="summarize a step-trace CSV")
    p_dump.add_argument("trace")
    p_dump.add_argument("--head", type=int, default=10, help="records to print")
    p_dump.set_defaults(func=cmd_trace_dump)

    return parser


def _load_config_flags(path) -> list[str]:
    flags = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key = key.strip().replace("_", "-")
            value = value.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            if key == "trace":
                if value.lower() in ("1", "true", "yes"):
                    flags.append("--trace")
                elif value.lower() not in ("0", "false", "no"):
                    raise ConfigError(f"{path}:{lineno}: trace must be true or false")
                continue
            flags.extend([f"--{key}", value])
    return flags


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # config values become flags ahead of the user's, so the
            # command line keeps the last word
            argv = [argv[0]] + _load_config_flags(args.config) + argv[1:]
            args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        # ValueError covers LibsvmParseError and contract violations from bad flag combinations
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
