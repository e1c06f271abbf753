"""Spans around the gradagrad callables the CLI reaches, and per-layer metrics.

The tracer replaces each callable with a wrapper that records a span (name,
start, end, parent) and, for some layers, a work count. Spans stay in memory
until the pass ends. Span names are "<layer>.<callable>". A layer's self
time is its spans' time minus the time of their child spans, so the self
times of all layers add up to the time of the root ``cli.main`` spans.
"""

import functools
import inspect
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# per-layer metric -> unit; tail metrics come with their percentile and sample count
PER_LAYER_UNITS = {
    "data.load_calls": "count", "data.lines_parsed": "count", "data.load_s": "s",
    "data.normalize_s": "s", "data.batch_calls": "count", "data.batch_s": "s",
    "problems.build_s": "s", "problems.grad_calls": "count", "problems.grad_s": "s",
    "problems.grad_us_p50": "us", "problems.grad_us_tail": "us",
    "problems.grad_us_tail_pct": "pct", "problems.grad_us_tail_n": "count",
    "problems.eval_calls": "count", "problems.eval_s": "s",
    "core.step_calls": "count", "core.coord_steps": "count", "core.step_s": "s",
    "core.step_us_p50": "us", "core.step_us_tail": "us",
    "core.step_us_tail_pct": "pct", "core.step_us_tail_n": "count",
    "core.ns_per_coord_step": "ns", "core.stats_s": "s",
    "cli.self_s": "s", "cli.trace_read_s": "s", "cli.trace_rows_read": "count",
    "cli.bytes_written": "count",
    "verify.check_s": "s", "verify.errnegativity_s": "s", "verify.monotone_and_cap_s": "s",
    "verify.reparam_invariance_s": "s", "verify.coord_steps_checked": "count",
    "verify.ns_per_coord_step": "ns",
    "bench.trace_overhead_s": "s", "bench.traced_wall_s": "s", "bench.untraced_wall_s": "s",
    "bench.traced_passes": "count", "bench.untraced_passes": "count",
}

# Counts that must repeat exactly across passes of one seed.
EXACT_COUNTS = (
    "data.load_calls", "data.lines_parsed", "problems.grad_calls", "core.step_calls",
    "core.coord_steps", "cli.trace_rows_read", "cli.bytes_written", "verify.coord_steps_checked",
)


@dataclass(slots=True)
class Span:
    name: str
    start: float = 0.0
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 for a root


class Tracer:
    """Patches callables with span-recording wrappers and restores them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def wrap(self, name, fn, count=None):
        """fn wrapped to record a span called name; count(counts, args, result)
        adds the call's work to the counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, parent=self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def patch(self, owner, attr, name, count=None):
        """Replace owner.attr, which owner must define itself, with a traced wrapper."""
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets):
        """Patch every (owner, attr, name, count) target; restore them on exit,
        also when patching or the body raises."""
        try:
            for target in targets:
                self.patch(*target)
            yield self
        finally:
            self.restore()


def _count_lines(counts, args, dataset):
    counts["data.lines_parsed"] += len(dataset)


def _count_coord_steps(counts, args, result):
    counts["core.coord_steps"] += len(args[1])  # args = (optimizer, g)


def _count_rows_read(counts, args, traces):
    counts["cli.trace_rows_read"] += sum(len(tr.branch) for tr in traces)


def _count_checked(counts, args, result):
    counts["verify.coord_steps_checked"] += sum(len(tr.branch) for tr in args[0])


def _classes(module, base):
    return [obj for obj in vars(module).values()
            if inspect.isclass(obj) and issubclass(obj, base) and obj.__module__ == module.__name__]


def program_targets():
    """(owner, attr, span name, count) for every public callable the CLI reaches."""
    from gradagrad import cli, core, data, problems, verify

    targets = [
        (cli, "main", "cli.main", None),
        (cli, "load_dataset", "data.load", _count_lines),
        (cli, "normalize_labels", "data.normalize", None),
        (data.MinibatchStream, "next_batch", "data.batch", None),
        (cli, "read_trace_csv", "cli.trace_read", _count_rows_read),
    ]
    problem_methods = {"__init__": "problems.build", "grad_sample": "problems.grad",
                       "loss_full": "problems.eval", "accuracy": "problems.eval"}
    for cls in _classes(problems, problems.Problem):
        targets += [(cls, attr, name, None) for attr, name in problem_methods.items() if attr in vars(cls)]
    for cls in _classes(core, core.Optimizer):
        if "step" in vars(cls):
            targets.append((cls, "step", "core.step", _count_coord_steps))
        if "stats" in vars(cls):
            targets.append((cls, "stats", "core.stats", None))
    for attr, fn in vars(verify).items():
        if attr.startswith("check_") and inspect.isfunction(fn):
            targets.append((verify, attr, "verify." + attr.removeprefix("check_"), _count_checked))
    return targets


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, child)]


def pass_metrics(spans: list[Span], counts: Counter) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and the per-call self times
    (in seconds) of the spans that get percentiles."""
    by_name: dict[str, list[float]] = defaultdict(list)
    for span, t in zip(spans, self_times(spans)):
        by_name[span.name].append(t)

    def total(*names):
        return sum(sum(by_name[n]) for n in names)

    checks = [n for n in by_name if n.startswith("verify.")]
    m = {
        "data.load_calls": len(by_name["data.load"]),
        "data.lines_parsed": counts["data.lines_parsed"],
        "data.load_s": total("data.load"),
        "data.normalize_s": total("data.normalize"),
        "data.batch_calls": len(by_name["data.batch"]),
        "data.batch_s": total("data.batch"),
        "problems.build_s": total("problems.build"),
        "problems.grad_calls": len(by_name["problems.grad"]),
        "problems.grad_s": total("problems.grad"),
        "problems.eval_calls": len(by_name["problems.eval"]),
        "problems.eval_s": total("problems.eval"),
        "core.step_calls": len(by_name["core.step"]),
        "core.coord_steps": counts["core.coord_steps"],
        "core.step_s": total("core.step"),
        "core.stats_s": total("core.stats"),
        "cli.self_s": total("cli.main"),
        "cli.trace_read_s": total("cli.trace_read"),
        "cli.trace_rows_read": counts["cli.trace_rows_read"],
        "verify.check_s": total(*checks),
        "verify.errnegativity_s": total("verify.errnegativity"),
        "verify.monotone_and_cap_s": total("verify.monotone_and_cap"),
        "verify.reparam_invariance_s": total("verify.reparam_invariance"),
        "verify.coord_steps_checked": counts["verify.coord_steps_checked"],
    }
    m["core.ns_per_coord_step"] = _per(m["core.step_s"] * 1e9, m["core.coord_steps"])
    m["verify.ns_per_coord_step"] = _per(m["verify.check_s"] * 1e9, m["verify.coord_steps_checked"])
    samples = {"problems.grad": by_name["problems.grad"], "core.step": by_name["core.step"]}
    return m, samples


def _per(amount, count):
    return amount / count if count else 0.0


TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 50.0)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct * len(ordered) / 100) - 1)]


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile that leaves
    at least 10 samples beyond it; the median when the sample is too small."""
    n = len(values)
    if n == 0:
        return 0.0, 50.0, 0
    pct = next((p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10), 50.0)
    return percentile(values, pct), pct, n
