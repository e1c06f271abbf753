"""gradagrad benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload wide-run --seed 0 --seconds 35 --trace 0

Run from the root of a checkout. The workload runs in a worker process with
one BLAS thread. The set-up (interpreter start, imports, input generation)
is timed in SETUPS worker processes that stop after it, each between two
starts of a reference process, and setup_s is their median at the reference
start-up speed (see README.md). Then one more worker runs one untimed
warm-up pass and timed passes for --seconds.

With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
per-layer ones. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Inputs and outputs go to
.perfbench_work/ in the checkout, which is removed at the end.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import PER_LAYER_UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUPS = 7
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "coord_steps_per_s": "1/s",
    "run_s": "s", "check_s": "s", "peak_rss_mb": "MiB",
}
# A worker is killed when it runs this long past its measuring time.
WORKER_GRACE_S = 120
# A process start that runs no benchmark or gradagrad code, and its fastest
# time on the machine the baseline was measured on (see README.md).
REFERENCE_START = ["-c", "import numpy"]
REFERENCE_START_S = 0.10


def steady_env() -> dict:
    env = dict(os.environ)
    env.update({
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1",
    })
    return env


def reference_start() -> float:
    """Seconds to start the reference process and let it end."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *REFERENCE_START], env=steady_env())
    # a watchdog, not wait(timeout=...), which polls in steps of up to 50 ms
    watchdog = threading.Timer(WORKER_GRACE_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    if code != 0:
        raise RuntimeError(f"reference start exited with code {code}")
    return time.perf_counter() - t0


def run_worker(argv, timeout_s: float) -> tuple[float, str]:
    """Start a worker; return (seconds until it printed READY, its later output)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], stdout=subprocess.PIPE,
                            env=steady_env(), text=True)
    watchdog = threading.Timer(timeout_s, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker {' '.join(argv[:2])} exited with code {code}")
    return setup_s, rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be an unsigned 64-bit value")
    if not (ROOT / "src" / "gradagrad" / "__init__.py").is_file():
        print(f"perfbench: no gradagrad sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work"
    shutil.rmtree(work, ignore_errors=True)
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        before = reference_start()
        for i in range(SETUPS):
            seconds, _ = run_worker([*base, "--work", str(work / f"setup{i}"), "--setup-only"], WORKER_GRACE_S)
            after = reference_start()
            setups.append(seconds / statistics.fmean((before, after)) * REFERENCE_START_S)
            before = after
        _, rest = run_worker([*base, "--work", str(work / "main")], args.seconds + WORKER_GRACE_S)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = json.loads(rest.strip().splitlines()[-1].removeprefix("RESULT "))

    metrics = result["metrics"]
    if args.trace:
        units = PER_LAYER_UNITS
    else:
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS
    attempted, failed = result["attempted"], result["failed"]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"timed_passes={result['timed_passes']} setups={SETUPS} attempted={attempted} "
          f"failed={failed} error_rate={failed / attempted:.6g}")
    for error in result["errors"]:
        print(f"  failed: {error}")
    for name, unit in units.items():
        print(f"  {name:<30} {metrics[name]:>16.6g} {unit}")
    print("machine " + json.dumps(result["machine"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
