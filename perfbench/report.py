"""Run the benchmark on several workloads and seeds and summarize each metric.

    python3 perfbench/report.py --seeds 0,99
    python3 perfbench/report.py --seeds 1,2,3,4,5,6,7,8,9,10 --workloads trace-verify
    python3 perfbench/report.py --seeds 0 --trace 1

For every workload and metric it prints the median over the seeds, the
quartiles, and the spread (interquartile range over the median) next to
the metric's bound in BENCHMARK.json. With --trace 1 it also prints each
layer's self time and their sum against the traced pass wall time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

LAYER_SELF_TIMES = {
    "data": ("data.load_s", "data.normalize_s", "data.batch_s"),
    "problems": ("problems.build_s", "problems.grad_s", "problems.eval_s"),
    "core": ("core.step_s", "core.stats_s"),
    "cli": ("cli.self_s", "cli.trace_read_s"),
    "verify": ("verify.check_s",),
}


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as the benchmark's acceptance computes them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0,99", help="comma-separated workload seeds")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}

    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in seeds]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"\n{workload}: seeds {seeds}, error_rate {failed}/{attempted}, "
              f"correct {all(r['correct'] for r in runs)}")
        print(f"  {'metric':<30} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, rel = spread(values)
            bound = bounds[name]
            flag = ""
            if bound is not None and rel > bound / 3:
                flag = "  > bound/3"
                ok = False
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:<30} {unit:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {rel:>8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
        if args.trace:
            for r, seed in zip(runs, seeds):
                m = {k: v["value"] for k, v in r["metrics"].items()}
                layers = {layer: sum(m[n] for n in names) for layer, names in LAYER_SELF_TIMES.items()}
                shares = "  ".join(f"{layer}={t:.4f}" for layer, t in layers.items())
                print(f"  seed {seed} self s: {shares}  sum={sum(layers.values()):.4f} "
                      f"traced_wall={m['bench.traced_wall_s']:.4f} overhead={m['bench.trace_overhead_s']:.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
