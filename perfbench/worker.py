"""One workload in one process, started by run.py.

Prints "READY" once imports and input generation are done, then, unless
--setup-only, runs one untimed warm-up pass and the timed passes, and prints
"RESULT <json>". The BLAS thread variables must be set before this starts.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracer
import workloads

MIN_PASSES = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def repeat(fn, budget_s: float, min_times: int) -> list:
    """Call fn at least min_times and until budget_s has passed; return the results."""
    results = []
    start = time.perf_counter()
    while len(results) < min_times or time.perf_counter() - start < budget_s:
        results.append(fn())
    return results


# The speed probe's fastest time on the machine the baseline was measured on
# (a shared 2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6).
REFERENCE_PROBE_S = 1.35e-3


def speed_probe() -> float:
    """Seconds for a fixed mix of the workloads' kinds of work: interpreter
    arithmetic, numpy calls on 40-element arrays, and float formatting and
    parsing. It takes about 1.5 ms and touches nothing of gradagrad."""
    t0 = time.perf_counter()
    x, g, acc = np.zeros(40), np.linspace(-1.0, 1.0, 40), 0.0
    for _ in range(100):
        x -= 0.01 * g / np.sqrt(g * g + 1.0)
        acc += float(x @ g)
        acc += sum(float(v) for v in ",".join(f"{v:.17g}" for v in x[:8]).split(","))
    return time.perf_counter() - t0


def end_to_end(passes, coord_steps: int) -> dict:
    """Pass times at the reference machine speed, median over the passes.

    On a shared machine, neighbour load slows everything in this process by
    up to 2x, in stretches from a fraction of a second to minutes. Each
    command's time is scaled by the speed probes just before and after it,
    which cancels the slowdown of the moment.
    """
    def part(kind):
        return REFERENCE_PROBE_S * statistics.median(
            sum(t / statistics.fmean(p.probe_s[i:i + 2]) for i, (k, t) in enumerate(p.op_s) if k == kind)
            for p in passes)

    run_s, check_s = part("run"), part("check")
    return {
        "wall_s": run_s + check_s,
        "coord_steps_per_s": coord_steps / (run_s + check_s),
        "run_s": run_s,
        "check_s": check_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(traced, untraced_passes, coord_steps: int, tail_passes: int) -> dict:
    """Metrics of the traced pass with the (low) median wall time, so that its
    layer self times add up to bench.traced_wall_s; tails pool the first
    tail_passes traced passes, so their sample count and percentile do not
    depend on how many passes fit in the run. Exits non-zero if an exact
    count varies across passes."""
    per_pass = [m for m, _, _ in traced]
    for name in tracer.EXACT_COUNTS:
        values = {m[name] for m in per_pass}
        if len(values) != 1:
            sys.exit(f"perfbench: count {name} differs across passes of one seed: {sorted(values)}")
    if per_pass[0]["core.coord_steps"] != coord_steps:
        sys.exit(f"perfbench: traced core.coord_steps {per_pass[0]['core.coord_steps']} "
                 f"!= the workload's {coord_steps}")
    metrics, _, res = sorted(traced, key=lambda t: t[2].wall_s)[(len(traced) - 1) // 2]
    out = dict(metrics)
    for key in ("problems.grad", "core.step"):
        samples = [t * 1e6 for _, s, _ in traced[:tail_passes] for t in s[key]]
        value, pct, n = tracer.tail(samples)
        out[f"{key}_us_p50"] = tracer.percentile(samples, 50) if samples else 0.0
        out[f"{key}_us_tail"], out[f"{key}_us_tail_pct"], out[f"{key}_us_tail_n"] = value, pct, n
    untraced_wall = statistics.median_low(p.wall_s for p in untraced_passes)
    out.update({
        "bench.traced_wall_s": res.wall_s,
        "bench.untraced_wall_s": untraced_wall,
        "bench.trace_overhead_s": res.wall_s - untraced_wall,
        "bench.traced_passes": len(traced),
        "bench.untraced_passes": len(untraced_passes),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True, help="empty directory for inputs and outputs")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = workloads.load_program()
    workload = workloads.WORKLOADS[args.workload]
    args.work.mkdir(parents=True)
    os.chdir(args.work)
    coord_steps = workload.prepare(Path("."), args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    golden = workloads.load_golden().get(args.workload, {}).get(str(args.seed))
    reference = dict(golden or {})
    passes = []

    def run_one():
        gc.collect()
        res = workloads.run_pass(cli, workload, args.seed, reference, frozen=golden is not None, probe=speed_probe)
        passes.append(res)
        return res

    run_one()  # warm-up, untimed; sets the reference digests for a seed without golden ones
    if args.trace:
        t = tracer.Tracer()
        targets = tracer.program_targets()

        def run_pair():
            # untraced and traced passes alternate, so that a stretch of
            # machine load slows both alike and the overhead stays visible
            untraced = run_one()
            t.reset()
            with t.installed(targets):
                res = run_one()
            m, samples = tracer.pass_metrics(t.spans, t.counts)
            m["cli.bytes_written"] = res.bytes_written
            return untraced, (m, samples, res)

        pairs = repeat(run_pair, args.seconds, workload.tail_passes)
        untraced, traced = zip(*pairs)
        metrics = per_layer(traced, untraced, coord_steps, workload.tail_passes)
    else:
        metrics = end_to_end(repeat(run_one, args.seconds, MIN_PASSES), coord_steps)

    result = {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "errors": [e for p in passes for e in p.errors][:10],
        "timed_passes": len(passes) - 1,
        "metrics": metrics,
        "machine": machine_info(),
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
