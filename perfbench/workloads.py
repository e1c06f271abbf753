"""The benchmark's workloads: seeded inputs and the gradagrad commands of one pass.

A pass is a closed loop: one client issues its commands back to back, in
process, through ``gradagrad.cli.main``. Every command is checked: a non-zero
exit, an exception, an output CSV whose SHA-256 differs from the reference
digest, or a failed semantic check counts the command as failed.

Every command runs with the pass's work directory as its current directory
and names its files relatively, so the output bytes do not depend on where
the checkout lives.
"""

import csv
import hashlib
import io
import json
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

DEFAULT_SEED = 0
# Never used while tuning a change; claims are re-checked on it.
HELDOUT_SEED = 99


def load_program():
    """Import gradagrad from this checkout's ``src/`` and return its cli module.

    Raises ImportError when the checkout has no sources, or when the import
    would resolve to a copy of gradagrad outside the checkout.
    """
    if not (SRC / "gradagrad" / "__init__.py").is_file():
        raise ImportError(f"no gradagrad sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from gradagrad import cli

    if Path(cli.__file__).resolve().parent != SRC / "gradagrad":
        raise ImportError(f"gradagrad was imported from {cli.__file__}, not from {SRC}")
    return cli


@dataclass
class Op:
    """One CLI command of a pass.

    kind is "run" for commands that train (run, grid) and "check" for
    commands that read outputs back (check, trace-dump). outputs are the
    CSVs the command writes; check(stdout) returns an error or None.
    """

    kind: str
    argv: list[str]
    outputs: tuple[str, ...] = ()
    check: Callable[[str], str | None] | None = None


def _read_csv(name):
    with open(name, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _check_report_passes(path, names):
    """A check that the report at path has exactly the rows names, all passed."""
    def check(stdout):
        rows = _read_csv(path)
        got = sorted(row.get("name") for row in rows)
        if got != sorted(names):
            return f"check report rows {got}, expected {sorted(names)}"
        failed = [row["name"] for row in rows if row.get("passed") != "true"]
        return f"check rows failed: {failed}" if failed else None
    return check


@dataclass
class WideRun:
    """Diagonal GradaGrad on a d=1e4 noisy quadratic: the stepper kernel dominates."""

    dim: int = 10_000
    steps: int = 5
    tail_passes: int = 40  # traced passes pooled for *_us_tail; 200 step calls: p95

    def prepare(self, work: Path, seed: int) -> int:
        return self.dim * self.steps

    def ops(self, seed: int) -> Iterator[Op]:
        yield Op("run", [
            "run", "--problem", "quadratic", "--dim", str(self.dim), "--noise-std", "1",
            "--x0", "3", "--optimizer", "gradagrad", "--steps", str(self.steps),
            "--seed", str(seed), "--out", "wide.csv",
        ], outputs=("wide.csv",))
        yield Op("check", ["check", "wide.csv", "--checks", "record", "--d-inf", "1e10",
                           "--out", "wide_check.csv"],
                 outputs=("wide_check.csv",), check=_check_report_passes("wide_check.csv", ["run_record"]))


def write_bits(path: Path, seed: int, n: int, dim: int, active: int = 7, flip: float = 0.08) -> int:
    """A seeded LIBSVM file shaped like datasets/bits.libsvm: n rows with
    `active` binary features out of `dim`, labels {0, 1} from a planted sign
    rule with a `flip` share flipped. Returns the largest feature index."""
    rng = np.random.default_rng([seed, dim])
    w_star = rng.choice([-1.0, 1.0], size=dim)
    cols = np.sort(np.argsort(rng.random((n, dim)), axis=1)[:, :active], axis=1)
    y = np.sign(w_star[cols].sum(axis=1))  # an odd count of +-1 terms is never 0
    flips = rng.random(n) < flip
    y[flips] = -y[flips]
    with open(path, "w", encoding="utf-8") as f:
        for label, row in zip((y + 1) / 2, cols):
            f.write("%g " % label + " ".join(f"{j + 1}:1" for j in row) + "\n")
    return int(cols.max()) + 1


@dataclass
class LogisticGrid:
    """The README's AdaGrad tuning grid on a bits-like dataset, then one run
    at the winning gamma0 and a check of its record."""

    n: int = 200
    dim: int = 40
    batch_size: int = 32
    epochs: int = 10
    seeds: int = 2
    grid_values: int = 9  # the CLI's default power-of-2 gamma0 grid
    tail_passes: int = 8  # traced passes pooled for *_us_tail; 10640 step and grad calls: p99.9

    def prepare(self, work: Path, seed: int) -> int:
        dim = write_bits(work / "bits.libsvm", seed, self.n, self.dim)
        steps = self.epochs * -(-self.n // self.batch_size)
        return (self.grid_values * self.seeds + 1) * steps * dim

    def ops(self, seed: int) -> Iterator[Op]:
        common = ["--problem", "logistic", "--dataset", "bits.libsvm", "--optimizer", "adagrad",
                  "--batch-size", str(self.batch_size), "--epochs", str(self.epochs),
                  "--seed", str(seed)]
        yield Op("run", ["grid", *common, "--seeds", str(self.seeds), "--out", "grid.csv"],
                 outputs=("grid.csv",), check=self._check_grid)
        rows = _read_csv("grid.csv") if Path("grid.csv").is_file() else []
        winners = [row.get("value") for row in rows if row.get("winner") == "true"]
        if len(winners) != 1:
            return  # the grid command was already counted as failed
        yield Op("run", ["run", *common, "--gamma0", winners[0], "--out", "winner.csv"],
                 outputs=("winner.csv",))
        yield Op("check", ["check", "winner.csv", "--checks", "record", "--out", "winner_check.csv"],
                 outputs=("winner_check.csv",),
                 check=_check_report_passes("winner_check.csv", ["run_record"]))

    def _check_grid(self, stdout):
        rows = _read_csv("grid.csv")
        winners = sum(row.get("winner") == "true" for row in rows)
        if len(rows) != self.grid_values or winners != 1:
            return f"grid has {len(rows)} rows and {winners} winners"
        return None


BRANCHES_RE = re.compile(r"^branches: init=(\d+) capped=(\d+) positive=(\d+) negative=(\d+)$", re.M)


def _all_branches_fire(stdout):
    found = BRANCHES_RE.search(stdout)
    if found is None:
        return "trace-dump printed no branch counts"
    if not all(int(count) > 0 for count in found.groups()):
        return f"not every branch fired: {found.group(0)}"
    return None


@dataclass
class TraceVerify:
    """A traced run with the cap at 3, then `check` and `trace-dump` of its trace.

    x0=3 and gamma0=1.5 make the cap fire within 120 steps (on seeds 0-39,
    99, 2**63 and 2**64-1 in a check made while writing this), so all four
    branches fire; from x0=1 and gamma0=1 some seeds never reach the cap in
    1000 steps. 120 steps keep each command near 0.1 s, short enough for
    the speed probes around it to see the machine state it ran in (see
    end_to_end in worker.py).
    """

    dim: int = 100
    steps: int = 120
    tail_passes: int = 10  # traced passes pooled for *_us_tail; 1200 step calls: p99

    def prepare(self, work: Path, seed: int) -> int:
        return self.dim * self.steps

    def ops(self, seed: int) -> Iterator[Op]:
        yield Op("run", [
            "run", "--problem", "quadratic", "--dim", str(self.dim), "--noise-std", "1",
            "--x0", "3", "--gamma0", "1.5", "--d-inf", "3", "--optimizer", "gradagrad",
            "--steps", str(self.steps), "--seed", str(seed), "--trace", "--out", "tv.csv",
        ], outputs=("tv.csv", "tv.trace.csv"))
        yield Op("check", ["check", "tv.trace.csv", "--d-inf", "3", "--out", "tv_check.csv"],
                 outputs=("tv_check.csv",),
                 check=_check_report_passes(
                     "tv_check.csv", ["errnegativity", "monotone_and_cap", "reparam_invariance"]))
        yield Op("check", ["trace-dump", "tv.trace.csv"], check=_all_branches_fire)


WORKLOADS = {"wide-run": WideRun(), "logistic-grid": LogisticGrid(), "trace-verify": TraceVerify()}


def load_golden() -> dict:
    """{workload: {seed: {csv name: sha256}}}, recorded by record_golden.py."""
    with open(GOLDEN_PATH, encoding="utf-8") as f:
        return json.load(f)


def sha256(name) -> str:
    with open(name, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


@dataclass
class PassResult:
    op_s: list[tuple[str, float]] = field(default_factory=list)  # (Op.kind, seconds) per command
    probe_s: list[float] = field(default_factory=list)  # speed probe before each command and after the last
    attempted: int = 0
    failed: int = 0
    bytes_written: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(t for _, t in self.op_s)


def run_pass(cli, workload, seed: int, reference: dict, frozen: bool, probe=None) -> PassResult:
    """Run one pass in the current directory; only the commands are timed.

    reference maps CSV name to SHA-256. When frozen is False, a CSV missing
    from it is added, so the first pass of a seed without golden digests
    sets the digests the later passes must repeat. probe, if given, is
    called before each command and after the last; it returns seconds.
    """
    res = PassResult()
    if probe is not None:
        res.probe_s.append(probe())
    for op in workload.ops(seed):
        res.attempted += 1
        for name in op.outputs:  # a stale file must not pass for this command's output
            Path(name).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(op.argv)
        except Exception as exc:  # a traceback is a failed command, not a failed benchmark
            error = f"raised {exc!r}"
        res.op_s.append((op.kind, time.perf_counter() - t0))
        if probe is not None:
            res.probe_s.append(probe())
        stdout = out.getvalue()
        res.bytes_written += len(stdout.encode())
        if error is None and rc != 0:
            error = f"exit {rc}: {err.getvalue().strip()[-200:]}"
        for name in op.outputs:
            if error is not None:
                break
            if not Path(name).is_file():
                error = f"{name} was not written"
                break
            res.bytes_written += Path(name).stat().st_size
            digest = sha256(name)
            expected = reference.get(name) if frozen else reference.setdefault(name, digest)
            if digest != expected:
                error = f"{name} sha256 {digest[:12]} != reference {str(expected)[:12]}"
        if error is None and op.check is not None:
            error = op.check(stdout)
        if error is not None:
            res.failed += 1
            res.errors.append(f"{op.argv[0]}: {error}")
    return res
