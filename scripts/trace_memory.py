"""Peak memory of `check` and `trace-dump` on a large trace.

Writes the trace of `run --problem quadratic --dim 1000 --noise-std 1
--steps STEPS --trace` into a temporary directory, then runs `check` and
`trace-dump --head 0` on it, each in a child process of its own that
reports its peak resident set (ru_maxrss, KiB on Linux). Both commands read
a trace one chunk at a time, so their peak does not grow with the trace;
a reader that holds the whole trace goes past LIMIT_MIB at these sizes.
Exits 1 if either command fails or peaks above LIMIT_MIB.

Run from a checkout: PYTHONPATH=src python scripts/trace_memory.py
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

STEPS = 300  # 41 MB of trace; a whole-trace reader peaks near 80 MiB here
LIMIT_MIB = 60.0

# a child runs one command, with its output discarded, then prints its exit
# code and its own peak resident set
CHILD = """
import contextlib, os, resource, sys
from gradagrad import cli
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    code = cli.main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def peak_mib(argv) -> tuple[int, float]:
    """(exit code, peak resident MiB) of the gradagrad command argv in a child process."""
    result = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, check=True)
    code, kib = result.stdout.split()
    return int(code), int(kib) / 1024


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "wide.csv"
        trace = str(out.with_suffix(".trace.csv"))
        code, _ = peak_mib(["run", "--problem", "quadratic", "--dim", "1000", "--noise-std", "1",
                            "--steps", str(STEPS), "--trace", "--out", str(out)])
        if code != 0:
            print(f"run --trace exited {code}", file=sys.stderr)
            return 1
        print(f"trace: d=1000, {STEPS} steps, {os.path.getsize(trace) / 1e6:.1f} MB")
        failed = False
        for argv in (["check", trace], ["trace-dump", trace, "--head", "0"]):
            code, mib = peak_mib(argv)
            over = mib > LIMIT_MIB
            failed |= over or code != 0
            print(f"{argv[0]:10s} exit {code}  peak {mib:6.1f} MiB  (limit {LIMIT_MIB:g}){'  OVER' if over else ''}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
