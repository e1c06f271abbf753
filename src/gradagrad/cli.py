"""Benchmark harness CLI: seeded runs, grid searches, and trace checks.

Subcommands: run, grid, check, trace-dump. Run records, grids, check
reports and step traces are CSV in the format that csvio owns; check
applies verify's checks to what csvio reads.

Exit codes: 0 success, 1 check/assertion failure, 2 usage/config error,
3 a run diverged (its gradient turned NaN or infinite).
Output CSVs are byte-deterministic for a fixed seed; wall-clock timing only
appears in the stderr summary.
"""

import argparse
import functools
import math
import os
import sys
from contextlib import closing, nullcontext
from pathlib import Path

import numpy as np

from . import csvio, verify
from .core import BRANCHES, SGD, Adam, AdaGrad, GradaGrad, HyperParams, NonFiniteGradient, ScalarGradaGrad, drive
from .csvio import ConfigError
from .csvio import read_trace_csv  # unused here, but perfbench/tracer.py patches cli.read_trace_csv by name
from .data import load_dataset, normalize_labels, open_input
from .problems import AbsValue, LogisticRegression, Quadratic

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


def _check_read(args, dest, flag, run):
    """Raise that flag is not read by run unless the run that args configure reads dest (see READS)."""
    if not _reads(args, dest):
        mode = f" in --mode {args.mode}" if args.optimizer in READS[dest] else ""  # the mode is why
        raise ConfigError(f"{flag} is not read by {run}{mode}")


def _build_optimizer(runs, x0):
    """One optimizer stepping a replica from x0 for each namespace in runs,
    in lockstep; each replica's hyperparameters come from its namespace."""
    params = [_build_hyperparams(run) if _reads(run, "rho") else run.gamma0 for run in runs]
    return OPTIMIZERS[runs[0].optimizer](np.tile(x0, (len(runs), 1)), params if len(params) > 1 else params[0])


def _build_run(args):
    """(problem, x0, n_batches, steps, eval_every): a run but its optimizer and
    seed. A default start point is a one-value --x0. A flag of READS that the
    run does not read must not be in args.given, even at its default."""
    if args.problem is None:  # argparse choices guard every other value
        raise ConfigError("--problem is required, as a flag or as a --config key")
    given = getattr(args, "given", {})
    for dest in READS:
        if dest in given:
            _check_read(args, dest, f"{given[dest]}--{dest.replace('_', '-')}",
                        f"--optimizer {args.optimizer} and --problem {args.problem}")
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
        *(stats.get(name) for name in csvio.RUN_HEADER[4:9]),
        subopt,
    ]


def cmd_run(args) -> int:
    problem, x0, n_batches, steps, eval_every = _build_run(args)
    opt = _build_optimizer([args], x0)
    if args.trace and args.out is None:
        raise ConfigError("--trace requires --out (the trace path derives from it)")
    rows, states = [], [problem.init_state(args.seed)]
    # the trace goes, one ring of steps at a time, to a file that replaces the trace path once the record is written
    trace_path = Path(args.out).with_suffix(".trace.csv") if args.trace else None
    partial = trace_path and trace_path.with_name(f"{trace_path.name}.{os.getpid()}.tmp")
    try:
        with nullcontext((None, None)) if partial is None else csvio.trace_sink(partial, steps, opt.gamma.size) as sink:
            wall = drive(opt, lambda x: problem.grad_sample(x, states), steps,
                         lambda k: rows.append(_eval_row(k, n_batches, problem, opt)), eval_every, *sink)
            csvio.write_rows(args.out, csvio.RUN_HEADER, rows)
        if partial is not None:
            partial.replace(trace_path)
            print(f"trace written to {trace_path}", file=sys.stderr)
    except BaseException:
        if partial is not None:
            partial.unlink(missing_ok=True)
        raise
    final_loss = rows[-1][2]
    avg_loss = problem.loss_full(opt.averaged_iterate())
    print(
        f"run complete: steps={steps} final_loss={final_loss!r} "
        f"averaged_iterate_loss={avg_loss!r} wall={wall:.3f}s",
        file=sys.stderr,
    )
    return 0


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
    _check_read(args, param, f"--grid-param {param}", f"--optimizer {args.optimizer}")
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
    csvio.write_rows(args.out, csvio.GRID_HEADER, out_rows)
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

def cmd_check(args) -> int:
    if args.d_inf is not None and not args.d_inf > 0:  # NaN fails too; inf is allowed, a cap that never binds
        raise ConfigError(f"--d-inf must be positive, got {args.d_inf}")
    with closing(csvio.read_input(args.trace, (csvio.RUN_HEADER, csvio.TRACE_HEADER))) as contents:
        record = next(contents) == csvio.RUN_HEADER  # the header, read from the one handle that reads on below
        checks = ["record"] if record else CHECK_NAMES
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
        reports = ([verify.record_report(*next(contents), args.d_inf)] * len(names) if record
                   else verify.fold_trace_checks(contents, names, args.d_inf))
    for rep in reports:
        print(f"{rep.name}: {'PASS' if rep.passed else 'FAIL'} (worst={rep.worst_violation:g})", file=sys.stderr)
    rows = [[rep.name, rep.passed, rep.worst_violation, *(rep.location or (None, None)), rep.details]
            for rep in reports]
    csvio.write_rows(args.out, csvio.CHECK_HEADER, rows)
    return 0 if all(rep.passed for rep in reports) else 1


def cmd_trace_dump(args) -> int:
    if args.head < 0:
        raise ConfigError(f"--head must be >= 0, got {args.head}")
    steps, counts, lo, hi, head = 0, 0, np.inf, -np.inf, []  # lo and hi: gamma's and alpha's bounds
    for trace in csvio.trace_chunks(args.trace):
        steps, d, both = steps + len(trace), trace.branch.shape[1], np.stack([trace.gamma_after, trace.alpha_after])
        counts = counts + np.bincount(trace.branch.ravel(), minlength=len(BRANCHES))
        lo, hi = np.minimum(lo, both.min((1, 2), initial=np.inf)), np.maximum(hi, both.max((1, 2), initial=-np.inf))
        n = min(args.head - len(head), trace.branch.size)
        if n:
            cols = csvio.trace_columns(trace[: -(-n // d)],
                                       lambda floats: [[format(v, ".6g") for v in col] for col in floats.tolist()])
            head += ["  ".join(row) for row in zip(*cols)][:n]
    print(f"steps: {steps}  coordinates: {d}")
    print("branches: " + " ".join(f"{b}={n}" for b, n in zip(BRANCHES, counts.tolist())))
    if steps:
        print(f"gamma in [{lo[0]:g}, {hi[0]:g}]  alpha in [{lo[1]:g}, {hi[1]:g}]")
    print("\n".join(["  ".join(csvio.TRACE_HEADER), *head]))
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
        if key == "trace":  # the last line wins, as for every key
            flags = [flag for flag in flags if flag != "--trace"]
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
        if hasattr(args, "config"):  # run and grid: args.given maps each flag given to "" or its config line
            unset, parse = object(), _flag_parser(args.command).parse_args  # over unset, argv sets only its flags
            given = vars(parse(argv[1:], argparse.Namespace(**dict.fromkeys(vars(args), unset))))
            flags, where = _load_config_flags(args) if args.config else ([], {})
            if flags:  # config values become flags ahead of the user's, so the command line keeps the last word
                args = parser.parse_args([argv[0]] + flags + argv[1:])
            args.given = {**{dest: "" for dest, value in given.items() if value is not unset}, **where}
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
