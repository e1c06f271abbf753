"""Peak memory of `run --trace`, `check` and `trace-dump` on a large trace.

Runs `run --problem quadratic --dim 1000 --noise-std 1 --steps STEPS
--trace` into a temporary directory, then `check` and `trace-dump --head 0`
on its trace, and `check` on a copy of the trace with "\r\n" line ends,
which the reader parses a block at a time as it does the original, each in
a child process of its own that reports its peak resident set (ru_maxrss,
KiB on Linux) and its wall seconds (the command alone, not the child's
start). `run` writes its trace one ring of steps at a time, and the others
read it one chunk at a time, so no peak grows with the trace; a writer or
reader that holds the whole trace goes past LIMIT_MIB at these sizes. Exits
1 if a command fails or peaks above LIMIT_MIB. It also prints the wall
ratio of `check` on the copy to `check` on the original, which gates
nothing: one run of each is noisy.

Run from a checkout: PYTHONPATH=src python scripts/trace_memory.py
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

STEPS = 300  # 41 MB of trace; a whole-trace writer peaks near 54 MiB here, a whole-trace reader near 80 MiB
LIMIT_MIB = 45.0

# a child runs one command, with its output discarded, then prints its exit
# code, its own peak resident set and the command's wall seconds
CHILD = """
import contextlib, os, resource, sys, time
from gradagrad import cli
start = time.perf_counter()
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    code = cli.main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, time.perf_counter() - start)
"""


def peak_mib(argv) -> tuple[int, float, float]:
    """(exit code, peak resident MiB, wall seconds) of the gradagrad command argv in a child process."""
    result = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, check=True)
    code, kib, seconds = result.stdout.split()
    return int(code), int(kib) / 1024, float(seconds)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "wide.csv"
        trace = str(out.with_suffix(".trace.csv"))
        failed = False
        crlf = str(Path(tmp) / "wide-crlf.trace.csv")
        walls = {}
        for argv in (["run", "--problem", "quadratic", "--dim", "1000", "--noise-std", "1", "--steps", str(STEPS),
                      "--trace", "--out", str(out)], ["check", trace], ["trace-dump", trace, "--head", "0"],
                     ["check", crlf]):
            code, mib, seconds = peak_mib(argv)
            over = mib > LIMIT_MIB
            failed |= over or code != 0
            name = f"{argv[0]}{' crlf' if argv[1] == crlf else ''}"
            walls[name] = seconds
            print(f"{name:10s} exit {code}  peak {mib:6.1f} MiB  (limit {LIMIT_MIB:g})  wall {seconds:6.2f} s"
                  f"{'  OVER' if over else ''}")
            if argv[0] == "run":
                if code != 0:
                    return 1
                print(f"trace: d=1000, {STEPS} steps, {os.path.getsize(trace) / 1e6:.1f} MB")
                with open(trace, "rb") as src, open(crlf, "wb") as dst:
                    for line in src:
                        dst.write(line.replace(b"\n", b"\r\n"))
        print(f"check crlf / check wall: {walls['check crlf'] / walls['check']:.2f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
