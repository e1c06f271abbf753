"""Benchmark harness CLI: seeded runs, grid searches, and trace checks.

Subcommands: run, grid, check, trace-dump. Run records and step traces are
emitted as CSV with the fixed headers RUN_HEADER and TRACE_HEADER (missing
values are empty fields). _write_csv writes every CSV; a field is quoted only
where it holds ',', '"' or a newline, in practice a check report's details.

Exit codes: 0 success, 1 check/assertion failure, 2 usage/config error.
Output CSVs are byte-deterministic for a fixed seed; wall-clock timing only
appears in the stderr summary.
"""

import argparse
import functools
import itertools
import math
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import verify
from .core import (BRANCHES, FLOAT_COLUMNS, SGD, Adam, AdaGrad, GradaGrad, HyperParams, NonFiniteGradient,
                   ScalarGradaGrad, Trace, drive)
from .data import load_dataset, normalize_labels, open_input
from .problems import AbsValue, LogisticRegression, Quadratic

RUN_HEADER = [
    "step", "epoch", "loss", "accuracy",
    "gamma_mean", "gamma_max", "alpha_mean", "alpha_max", "ainv_mean", "subopt",
]
TRACE_HEADER = ["k", "i", "g", "v_raw", "v_clipped", "branch", "r", "gamma", "alpha", "a"]
# the trace CSV column of each of FLOAT_COLUMNS, in that order
FLOAT_FIELDS = [TRACE_HEADER.index(name.removesuffix("_after")) for name in FLOAT_COLUMNS]
TRACE_CHUNK_ROWS = 1024  # trace CSV rows held as strings at once
TRACE_FOLD_ROWS = 16 * TRACE_CHUNK_ROWS  # trace rows `check` and `trace-dump` hold as arrays at once
CHECK_HEADER = ["name", "passed", "worst_violation", "step", "coord", "details"]

GRID_PARAMS = ("gamma0", "rho", "beta", "g_inf", "d_inf")
OPTIMIZERS = {"gradagrad": GradaGrad, "gradagrad-scalar": ScalarGradaGrad, "adagrad": AdaGrad, "sgd": SGD, "adam": Adam}
RUN_CHOICES = {"optimizer": OPTIMIZERS, "problem": ("abs", "quadratic", "logistic"), "mode": ("theory", "practical")}
# the flags (by dest) that only some runs read, each with the --optimizer, --problem and --mode values (and,
# for d_inf, the checks) that read it: a run reads one if its value is in the set for each of the three the set
# names. The GradaGrad steppers, which read rho, take HyperParams and write traces.
READS = {"rho": {"gradagrad", "gradagrad-scalar"}, "trace": {"gradagrad", "gradagrad-scalar"},
         "r": {"gradagrad-scalar"}, "beta": {"gradagrad"}, "mode": {"gradagrad"}, "g_inf": {"gradagrad", "theory"},
         "d_inf": {"gradagrad", "monotone", "reparam", "record"}, "dim": {"abs", "quadratic"}, "diag": {"quadratic"},
         "noise_std": {"quadratic"}, "dataset": {"logistic"}, "batch_size": {"logistic"}, "epochs": {"logistic"}}
CHECK_NAMES = tuple(verify.TRACE_CHECKS)
DEFAULT_GRID = "0.015625,0.03125,0.0625,0.125,0.25,0.5,1,2,4"


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
    text = str(value)  # quoted where csv.writer quotes it: a lone "\r" stays bare
    return '"' + text.replace('"', '""') + '"' if "," in text or '"' in text or "\n" in text else text


def _write_csv(path, header, chunks):
    """Write header, then each chunk's rows of formatted fields in one write, to path or else stdout."""
    with nullcontext(sys.stdout) if path is None else open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for rows in chunks:
            f.write("\n".join([*map(",".join, rows), ""]))


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_r(text: str) -> float | None:
    """--r's value: a fixed clip, or None for the adaptive one."""
    try:
        return None if text == "adaptive" else float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number or 'adaptive', got {text!r}") from None


def _parse_seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an unsigned 64-bit value, got {text!r}") from None
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit value")
    return value


# ---------------------------------------------------------------------------
# construction from flags
# ---------------------------------------------------------------------------

def _build_hyperparams(args) -> HyperParams:
    return HyperParams(
        gamma0=args.gamma0, rho=args.rho, beta=args.beta,
        g_inf=args.g_inf, d_inf=args.d_inf, r_fixed=args.r, mode=args.mode,
    )


def _reads(args, dest) -> bool:
    """Whether the run that args configure reads the flag dest (see READS)."""
    readers = READS.get(dest, set())
    return all(getattr(args, name) in readers for name, values in RUN_CHOICES.items() if readers.intersection(values))


def _build_optimizer(runs, x0):
    """One optimizer stepping a replica from x0 for each namespace in runs,
    in lockstep; each replica's hyperparameters come from its namespace."""
    params = [_build_hyperparams(run) if _reads(run, "rho") else run.gamma0 for run in runs]
    return OPTIMIZERS[runs[0].optimizer](np.tile(x0, (len(runs), 1)), params if len(params) > 1 else params[0])


def _build_run(args):
    """(problem, x0, n_batches, steps, eval_every): a run but its optimizer and
    seed. A default start point is a one-value --x0. A flag of READS that the
    run does not read must keep its default (a --config key: at its line)."""
    if args.problem is None:  # argparse choices guard every other value
        raise ConfigError("--problem is required, as a flag or as a --config key")
    for dest in READS:
        if getattr(args, dest) != _flag_parser("run").get_default(dest) and not _reads(args, dest):
            mode = f" in --mode {args.mode}" if args.optimizer in READS[dest] else ""  # the mode is why
            raise ConfigError(f"{getattr(args, 'config_lines', {}).get(dest, '')}--{dest.replace('_', '-')} is not "
                              f"read by --optimizer {args.optimizer} and --problem {args.problem}{mode}")
    n_batches = None
    if args.problem == "abs":
        problem, x0 = AbsValue(args.dim), [1.0]
    elif args.problem == "quadratic":
        if args.diag is None and args.dim < 1:  # AbsValue's message; np.ones(dim) would raise numpy's own
            raise ConfigError(f"dim must be >= 1, got {args.dim}")
        diag = np.array(args.diag) if args.diag is not None else np.ones(args.dim)
        problem, x0 = Quadratic(diag, noise_std=args.noise_std), [1.0]
    else:
        if args.dataset is None:
            raise ConfigError("--problem logistic requires --dataset")
        dataset = load_dataset(args.dataset)
        if args.batch_size < 1:
            raise ConfigError(f"--batch-size must be >= 1, got {args.batch_size}")
        try:
            problem = LogisticRegression(normalize_labels(dataset), batch_size=args.batch_size)
        except ValueError as exc:  # what the file holds is unusable: name it, as a parse error does
            raise ConfigError(f"{args.dataset}: {exc}") from None
        x0, n_batches = [0.0], math.ceil(problem.n / problem.batch_size)

    x0 = args.x0 if args.x0 is not None else x0
    if not all(map(math.isfinite, x0)):
        raise ConfigError(f"--x0 must be finite, got {x0}")
    if len(x0) not in (1, problem.dim):
        raise ConfigError(f"--x0 has {len(x0)} entries but the problem has dim {problem.dim}")
    x0 = np.full(problem.dim, x0[0]) if len(x0) == 1 else np.array(x0)

    if (args.steps is None) == (args.epochs is None):
        raise ConfigError("exactly one of --steps or --epochs is required")
    flag, count = ("--steps", args.steps) if args.epochs is None else ("--epochs", args.epochs)
    if count < 1:
        raise ConfigError(f"{flag} must be >= 1")
    steps = count if args.epochs is None else count * n_batches
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
    if args.trace and args.out is None:
        raise ConfigError("--trace requires --out (the trace path derives from it)")
    rows = []
    trace = Trace.empty(steps, opt.gamma.size) if args.trace else None
    states = [problem.init_state(args.seed)]
    wall = drive(opt, lambda x: problem.grad_sample(x, states), steps,
                 lambda k: rows.append(_eval_row(k, n_batches, problem, opt)), eval_every, trace)
    _write_csv(args.out, RUN_HEADER, [(map(_fmt, row) for row in rows)])
    if args.trace:
        trace_path = Path(args.out).with_suffix(".trace.csv")
        _write_trace_csv(trace_path, trace)
        print(f"trace written to {trace_path}", file=sys.stderr)
    final_loss = rows[-1][2]
    avg_loss = problem.loss_full(opt.averaged_iterate())
    print(
        f"run complete: steps={steps} final_loss={final_loss!r} "
        f"averaged_iterate_loss={avg_loss!r} wall={wall:.3f}s",
        file=sys.stderr,
    )
    return 0


def _trace_columns(trace: Trace, fmt) -> list[list[str]]:
    """The trace CSV columns as strings, row-major over (step, coordinate);
    fmt maps the (7, rows) array of FLOAT_COLUMNS to one list of strings each."""
    steps, d = trace.branch.shape
    # object arrays repeat one string per step and per branch, not a copy per row
    k = np.array(list(map(str, trace.k.tolist())), dtype=object)
    cols = [np.repeat(k, d).tolist(), list(map(str, range(d))) * steps,
            *fmt(np.stack([getattr(trace, name).ravel() for name in FLOAT_COLUMNS]))]
    cols.insert(5, np.take(np.array(BRANCHES, dtype=object), trace.branch.ravel()).tolist())
    return cols


def _repr_fields(floats: np.ndarray) -> list[list[str]]:
    """floats formatted as _fmt formats a float, with one repr per distinct
    64-bit pattern: -0.0 stays apart from 0.0, and every NaN is empty."""
    bits, inverse = np.unique(floats.view(np.int64), return_inverse=True)
    text = np.array(["" if v != v else repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse.reshape(floats.shape)].tolist()


def _write_trace_csv(path, trace: Trace):
    """Write a trace CSV, its values formatted as _fmt formats them, about TRACE_CHUNK_ROWS rows a chunk."""
    steps = max(1, TRACE_CHUNK_ROWS // max(1, trace.branch.shape[1]))
    _write_csv(path, TRACE_HEADER, (zip(*_trace_columns(trace[start:start + steps], _repr_fields))
                                    for start in range(0, len(trace), steps)))


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def _run_seed(seed, vi, si) -> int:
    """The seed of the run of grid value vi, replicate si."""
    return int(np.random.SeedSequence([seed, vi, si]).generate_state(1, np.uint64)[0])


def _run_grid(args, param, values):
    """Run every (value, seed) of a grid as one replica, all in lockstep, and
    evaluate only what selection reads. Replica vi * seeds + si runs value
    vi with seed si. Returns (opt, kind, evals): ("accuracy", the (R,)
    accuracies at each evaluation) if the problem reports accuracy, else
    ("loss", [the (R,) final losses]). A replica whose gradient turns NaN
    or infinite steps those entries as 0 and evaluates as NaN from then on."""
    # no grid parameter affects the problem
    problem, x0, _, steps, eval_every = _build_run(args)
    opt = _build_optimizer([argparse.Namespace(**{**vars(args), param: value})
                            for value in values for _ in range(args.seeds)], x0)
    states = [problem.init_state(_run_seed(args.seed, vi, si))
              for vi in range(len(values)) for si in range(args.seeds)]
    evals = {"accuracy": [], "loss": []}
    diverged = np.zeros(opt.replicas, dtype=bool)

    def grad(x):
        g = problem.grad_sample(x, states)
        if np.count_nonzero(np.isfinite(g)) < g.size:
            bad = ~np.isfinite(g)
            diverged[bad.reshape(opt.replicas, -1).any(axis=1)] = True
            g = np.where(bad, 0.0, g)
        return g

    def on_eval(k):
        x = opt.x.reshape(opt.replicas, -1)
        acc = problem.accuracy(x)
        if acc is not None:
            evals["accuracy"].append(acc)
        elif k == steps:
            evals["loss"].append(problem.loss_full(x))

    drive(opt, grad, steps, on_eval, eval_every)
    kind = "accuracy" if evals["accuracy"] else "loss"
    if diverged.any():
        evals[kind] = [np.where(diverged, math.nan, scores) for scores in evals[kind]]
    return opt, kind, evals[kind]


def _selection_metric(kind, evals) -> list[float]:
    """One score per replica: its mean accuracy over the last <=10
    evaluations, or its final loss."""
    if kind == "accuracy":
        # a last-axis mean of contiguous rows rounds as each replica's alone; a mean down axis 0 does not
        return np.ascontiguousarray(np.transpose(evals[-10:])).mean(axis=-1).tolist()
    return evals[-1].tolist()


def cmd_grid(args) -> int:
    values = sorted(args.grid_values)
    if not values:
        raise ConfigError("empty grid")
    param = args.grid_param.replace("-", "_")
    if not _reads(args, param):
        mode = f" in --mode {args.mode}" if args.optimizer in READS[param] else ""  # the mode is why
        raise ConfigError(f"--grid-param {param} is not read by --optimizer {args.optimizer}{mode}")
    if args.seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    if args.trace:
        raise ConfigError("grid writes no trace; trace one value with run --trace")

    _, metric_kind, evals = _run_grid(args, param, values)
    scores = np.reshape(_selection_metric(metric_kind, evals), (len(values), args.seeds)).mean(axis=-1)
    table = list(zip(values, scores.tolist()))

    # max/min replace the best only on a strict >/<: exact ties keep the earlier (smaller) value;
    # a NaN score (a value that diverged) wins only if every value has one
    scored = [idx for idx, (_, score) in enumerate(table) if not math.isnan(score)] or range(len(table))
    best_idx = (max if metric_kind == "accuracy" else min)(scored, key=lambda idx: table[idx][1])

    out_rows = [[args.grid_param, value, metric_kind, score, idx == best_idx]
                for idx, (value, score) in enumerate(table)]
    _write_csv(args.out, ["param", "value", "metric", "score", "winner"], [(map(_fmt, row) for row in out_rows)])
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


def _read_csv(path, header, parse, lines=None):
    """Yield the arrays parse(text) returns for each run of up to
    TRACE_CHUNK_ROWS rows after the header, which must be header, of the CSV
    at path (or of its lines, if given); a CSV of no rows is one run. text
    is a run's (columns, rows) object array of fields, and parse returns
    (arrays, errors), errors a list of (row index, message). A ConfigError
    names the line of the first bad row: one with the wrong field count, or
    one of parse's errors (on a tie, the field count, then parse's order)."""

    def parsed(rows, line):
        (wrong,) = np.nonzero(np.fromiter(map(len, rows), int, len(rows)) != len(header))
        short = int(wrong[0]) if wrong.size else len(rows)
        errors = [(short, f"expected {len(header)} fields")] if short < len(rows) else []
        rows = rows[:short]
        fields = np.fromiter(itertools.chain.from_iterable(rows), object, len(rows) * len(header))
        result, more = parse(fields.reshape(len(rows), len(header)).T)
        if errors or more:
            row, message = min(errors + more, key=lambda e: e[0])  # ties keep the order above
            raise ConfigError(f"{path}:{line + row}: {message}")
        return result

    kind = "trace" if header == TRACE_HEADER else "run record"
    with open_input(path) if lines is None else nullcontext(lines) as f:
        first = next(f, "")
        if not first:
            raise ConfigError(f"{path}: empty {kind} file")
        found = first.rstrip("\r\n").split(",")
        if found != header:
            missing = [c for c in header if c not in found]
            raise ConfigError(
                f"{path}: bad {kind} header, missing columns {missing}" if missing
                else f"{path}: bad {kind} header {found}"
            )
        # the fields of each run of lines, in the CSV dialect this program
        # writes: unquoted fields, "\n", "\r\n" or "\r" line ends
        chunks = iter(lambda: [line.rstrip("\r\n").split(",") for line in itertools.islice(f, TRACE_CHUNK_ROWS)], [])
        # map drops each run's fields once parsed, before it reads the next run
        runs = map(parsed, chunks, itertools.count(2, TRACE_CHUNK_ROWS))
        yield next(runs, None) or parsed([], 2)
        yield from runs


def _trace_floats(text):
    """The (7, rows) FLOAT_COLUMNS of trace fields, or the index of the first
    row with a non-numeric one, as _parse parses them. A run leaves only r
    empty (where no clip ran) and writes v_clipped as v_raw's text where the
    clip does not bind, so a direct parse reads only r's empty fields as NaN
    and only the v_clipped fields that differ from v_raw's; where it rejects
    a field, _parse parses all seven columns."""
    floats = np.empty((len(FLOAT_FIELDS), text.shape[1]))
    raw, clipped, r = (FLOAT_COLUMNS.index(name) for name in ("v_raw", "v_clipped", "r"))
    try:
        for row, column in enumerate(FLOAT_FIELDS):
            if row not in (clipped, r):
                floats[row] = text[column]  # float() of each string
        given = text[FLOAT_FIELDS[r]] != ""
        floats[r] = math.nan
        floats[r, given] = text[FLOAT_FIELDS[r], given]
        differs = text[FLOAT_FIELDS[clipped]] != text[FLOAT_FIELDS[raw]]
        floats[clipped] = floats[raw]
        floats[clipped, differs] = text[FLOAT_FIELDS[clipped], differs]
    except ValueError:  # float() of a str never overflows
        return _parse(text[FLOAT_FIELDS], float)
    return floats


def _trace_fields(text):
    """Branch codes, k and i, and the float columns of trace fields; errors as _read_csv reads them."""
    ints, floats = _parse(text[:2], int), _trace_floats(text)
    errors = [(bad, "non-numeric field") for bad in (ints, floats) if isinstance(bad, int)]
    branch = text[TRACE_HEADER.index("branch")]
    codes = np.full(text.shape[1], -1, dtype=np.int8)
    for code, name in enumerate(BRANCHES):
        codes[branch == name] = code
    if (codes < 0).any():
        row = int(np.argmin(codes))
        errors.append((row, f"unknown branch {branch[row]!r}; expected one of {list(BRANCHES)}"))
    return (codes, ints, floats), errors


def _trace_chunks(path, lines=None, rows=None):
    """Yield the trace CSV at path (or its lines) as Traces of whole steps,
    each of rows (TRACE_FOLD_ROWS if None) rows or more but the last, or one
    of no rows. If step 0 has d rows, row n (from 0) must hold step n // d,
    coordinate n % d, and the last step d rows: a ConfigError names the
    first line that does not, once every line has parsed."""
    d, n, s, error, held = None, 0, 0, None, []  # step 0's rows once known, rows read, steps yielded, runs held

    def steps(count):  # the first count steps held, as one Trace
        codes, floats = (np.concatenate(column, axis=-1) for column in zip(*held))
        held[:] = [(codes[count * d:], floats[:, count * d:])]
        return Trace(k=np.arange(s, s + count), branch=codes[:count * d].reshape(count, d),
                     **dict(zip(FLOAT_COLUMNS, floats[:, :count * d].reshape(len(FLOAT_COLUMNS), count, d))))

    for codes, (k, i), floats in _read_csv(path, TRACE_HEADER, _trace_fields, lines):
        if error is None:
            d = n + int(np.argmax(k != 0)) if d is None and k.any() else d
            step, coord = np.divmod(np.arange(n, n + len(k)), max(1, n + len(k) if d is None else d))
            (bad,) = np.nonzero((k != step) | (i != coord))
            if bad.size:
                b = bad[0]
                error = ConfigError(f"{path}:{2 + n + b}: expected step {step[b]}, coordinate {coord[b]}, "
                                    f"got step {k[b]}, coordinate {i[b]}; a trace's rows run in (k, i) order")
            held.append((codes, floats))
        n += len(k)
        if error is None and d and n // d > s and n - s * d >= (rows or TRACE_FOLD_ROWS):
            yield steps(n // d - s)
            s = n // d
    if error is not None:
        raise error
    d = n if d is None else d
    if n % max(d, 1):
        raise ConfigError(f"{path}:{1 + n}: the trace ends in step {(n - 1) // d} after coordinate {(n - 1) % d}; "
                          f"every step has one row per coordinate 0..{d - 1}")
    if n > s * d or not s:
        yield steps(n // max(d, 1) - s)


def read_trace_csv(path) -> Trace:
    """The whole trace CSV at path as one Trace (see _trace_chunks)."""
    [trace] = _trace_chunks(path, rows=math.inf)
    return trace


def _record_fields(text):
    """The step and gamma_max columns of run-record fields, an empty
    gamma_max as -inf, which no cap check fails; errors as _read_csv reads them."""
    step, gamma_max = _parse(text[:1], int), _parse(np.where(text[5:6] == "", "-inf", text[5:6]), float)
    return (step, gamma_max), [(bad, "non-numeric step or gamma_max") for bad in (step, gamma_max)
                               if isinstance(bad, int)]


def _check_run_record(path, d_inf, lines=None):
    """verify.record_report of the run record at path (or its lines), read whole."""
    (step,), (gamma_max,) = map(np.hstack, zip(*_read_csv(path, RUN_HEADER, _record_fields, lines)))
    return verify.record_report(step, gamma_max, d_inf)


def cmd_check(args) -> int:
    if args.d_inf is not None and not args.d_inf > 0:  # NaN fails too; inf is allowed, a cap that never binds
        raise ConfigError(f"--d-inf must be positive, got {args.d_inf}")
    with open_input(args.trace) as f:
        first = f.readline()  # the header, sniffed here and read again below
        record = first.rstrip("\r\n").split(",") == RUN_HEADER
        checks = {"record": _check_run_record} if record else verify.TRACE_CHECKS
        names = list(checks) if args.checks == "all" else [
            tok.strip() for tok in args.checks.split(",") if tok.strip()
        ]
        if not names:
            raise ConfigError("no checks requested")
        unknown = [name for name in names if name not in checks]
        if unknown:
            raise ConfigError("run record files support only the 'record' check" if record
                              else f"unknown check {unknown[0]!r}; choose from {CHECK_NAMES} or 'all'")
        if args.d_inf is not None and not READS["d_inf"].intersection(names):
            raise ConfigError(f"--d-inf is not read by --checks {','.join(names)}")
        lines = itertools.chain([first], f)
        reports = ([_check_run_record(args.trace, args.d_inf, lines)] * len(names) if record
                   else verify.fold_trace_checks(_trace_chunks(args.trace, lines), names, args.d_inf))
    for rep in reports:
        print(f"{rep.name}: {'PASS' if rep.passed else 'FAIL'} (worst={rep.worst_violation:g})", file=sys.stderr)
    rows = [[rep.name, rep.passed, rep.worst_violation, *(rep.location or (None, None)), rep.details]
            for rep in reports]
    _write_csv(args.out, CHECK_HEADER, [(map(_fmt, row) for row in rows)])
    return 0 if all(rep.passed for rep in reports) else 1


def cmd_trace_dump(args) -> int:
    if args.head < 0:
        raise ConfigError(f"--head must be >= 0, got {args.head}")
    steps, counts, lo, hi, head = 0, 0, np.inf, -np.inf, []  # lo and hi: gamma's and alpha's bounds
    for trace in _trace_chunks(args.trace):
        steps, d, both = steps + len(trace), trace.branch.shape[1], np.stack([trace.gamma_after, trace.alpha_after])
        counts = counts + np.bincount(trace.branch.ravel(), minlength=len(BRANCHES))
        lo, hi = np.minimum(lo, both.min((1, 2), initial=np.inf)), np.maximum(hi, both.max((1, 2), initial=-np.inf))
        n = min(args.head - len(head), trace.branch.size)
        if n:
            cols = _trace_columns(trace[: -(-n // d)],
                                  lambda floats: [[format(v, ".6g") for v in col] for col in floats.tolist()])
            cols[6] = ["" if r == "nan" else r for r in cols[6]]  # no clip ran
            head += ["  ".join(row) for row in zip(*cols)][:n]
    print(f"steps: {steps}  coordinates: {d}")
    print("branches: " + " ".join(f"{b}={n}" for b, n in zip(BRANCHES, counts.tolist())))
    if steps:
        print(f"gamma in [{lo[0]:g}, {hi[0]:g}]  alpha in [{lo[1]:g}, {hi[1]:g}]")
    print("\n".join(["  ".join(TRACE_HEADER), *head]))
    return 0


# ---------------------------------------------------------------------------
# parser / entry
# ---------------------------------------------------------------------------

def _add_run_flags(p):
    p.add_argument("--problem", choices=RUN_CHOICES["problem"])
    p.add_argument("--dataset", help="LIBSVM file (logistic problem)")
    p.add_argument("--dim", type=int, default=1, help="dimension for synthetic problems")
    p.add_argument("--diag", type=_parse_floats, help="comma-separated quadratic diagonal (overrides --dim)")
    p.add_argument("--noise-std", type=float, default=0.0, help="gradient noise (quadratic)")
    p.add_argument("--x0", type=_parse_floats, help="initial point: one value (broadcast) or comma-separated")
    p.add_argument("--optimizer", choices=OPTIMIZERS, default="gradagrad")
    p.add_argument("--gamma0", type=float, default=HyperParams.gamma0,
                   help="step-size numerator; also the sgd/adam learning rate")
    p.add_argument("--rho", type=float, default=HyperParams.rho)
    p.add_argument("--beta", type=float, default=HyperParams.beta)
    p.add_argument("--g-inf", type=float, default=HyperParams.g_inf)
    p.add_argument("--d-inf", type=float, default=HyperParams.d_inf)
    p.add_argument("--r", type=_parse_r, default=HyperParams.r_fixed,
                   help="scalar-variant clip: a number or 'adaptive'")
    p.add_argument("--mode", choices=RUN_CHOICES["mode"], default=HyperParams.mode)
    p.add_argument("--steps", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--eval-every", type=int)
    p.add_argument("--trace", action="store_true", help="also write a step-trace CSV")
    p.add_argument("--out", help="run record CSV path (stdout when omitted)")
    p.add_argument("--config", help="key=value config file; flags override file values")


def _add_grid_flags(p):
    _add_run_flags(p)
    p.add_argument("--grid-param", default="gamma0",
                   choices=GRID_PARAMS + tuple(name.replace("_", "-") for name in GRID_PARAMS if "_" in name))
    p.add_argument("--grid-values", type=_parse_floats, default=DEFAULT_GRID,
                   help="comma-separated values (default: powers of 2)")
    p.add_argument("--seeds", type=int, default=10, help="replicates per grid point")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="gradagrad",
        description="Non-monotone adaptive gradient benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_run_flags(sub.add_parser("run", help="execute one configured run"))
    _add_grid_flags(sub.add_parser("grid", help="grid-search one parameter over seeded runs"))

    p_check = sub.add_parser("check", help="run invariant checks on a run-record or step-trace CSV")
    p_check.add_argument("trace")
    p_check.add_argument("--checks", default="all",
                         help=f"comma-separated subset of {CHECK_NAMES} or 'all' "
                              "(run-record files support 'record')")
    p_check.add_argument("--d-inf", type=float,
                         help="gamma cap to assert; by default cap binding is "
                              "self-detected from the trace and no cap bound is asserted")
    p_check.add_argument("--out", help="check report CSV path (stdout when omitted)")

    p_dump = sub.add_parser("trace-dump", help="summarize a step-trace CSV")
    p_dump.add_argument("trace")
    p_dump.add_argument("--head", type=int, default=10, help="records to print")

    return parser


@functools.cache
def _flag_parser(command) -> argparse.ArgumentParser:
    """A parser of a run or grid command's flags alone that raises
    argparse.ArgumentError on a value they reject, where build_parser's exits."""
    parser = argparse.ArgumentParser(prog=f"gradagrad {command}", add_help=False, exit_on_error=False)
    {"run": _add_run_flags, "grid": _add_grid_flags}[command](parser)
    return parser


def _load_config_flags(args) -> tuple[list[str], dict[str, str]]:
    """The flags that the key=value lines of the file args.config set, and
    "path:line: " of each key's last line by dest; its keys are the subcommand's
    own flags, spelt without -- and with - or _. A value the flag rejects is a
    ConfigError naming its line."""
    path, flags, where, keys = args.config, [], {}, vars(args).keys() - {"command", "config"}
    with open_input(path) as f:
        lines = list(f)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key = key.strip().replace("_", "-")
        value = value.strip()
        if key.replace("-", "_") not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        where[key.replace("-", "_")] = f"{path}:{lineno}: "
        if key == "trace":
            if value.lower() in ("1", "true", "yes"):
                flags.append("--trace")
            elif value.lower() not in ("0", "false", "no"):
                raise ConfigError(f"{path}:{lineno}: trace must be true or false")
            continue
        flag = f"--{key}={value}"  # one token, so a value such as -1,2 is not read as a flag
        try:
            _flag_parser(args.command).parse_args([flag])
        except argparse.ArgumentError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        flags.append(flag)
    return flags, where


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # config values become flags ahead of the user's, so the
            # command line keeps the last word
            flags, where = _load_config_flags(args)
            args = parser.parse_args([argv[0]] + flags + argv[1:], argparse.Namespace(config_lines=where))
        # looked up per call, not held by the cached parser, so a patched cmd_* applies
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except SystemExit as exc:  # argparse has printed a usage error (2) or --help (0)
        return exc.code
    except (ConfigError, ValueError, OSError) as exc:
        # ValueError covers LibsvmParseError and contract violations from bad flag combinations
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NonFiniteGradient) else 2  # 3: a run diverged


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
