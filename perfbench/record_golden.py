"""Record the SHA-256 of every CSV each workload writes, for the default and
the held-out seed, into golden.json.

    python3 perfbench/record_golden.py

Run it only on a commit whose outputs are known to be right: the benchmark
counts every later output that differs from these digests as a failure.
"""

import json
import os
import shutil
import sys

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy is imported

import workloads  # noqa: E402


def main() -> int:
    cli = workloads.load_program()
    work = workloads.ROOT / ".perfbench_work" / "golden"
    golden = {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            for seed in (workloads.DEFAULT_SEED, workloads.HELDOUT_SEED):
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                os.chdir(work)
                workload.prepare(work, seed)
                digests = {}
                res = workloads.run_pass(cli, workload, seed, digests, frozen=False)
                if res.failed:
                    print(f"{name} seed {seed}: {res.errors}", file=sys.stderr)
                    return 1
                golden.setdefault(name, {})[str(seed)] = digests
    finally:
        os.chdir(workloads.ROOT)
        shutil.rmtree(work.parent, ignore_errors=True)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as f:
        json.dump(golden, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
