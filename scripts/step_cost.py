"""Per-step cost of the adaptive steppers, from one coordinate to 10^4.

Prints one table: the minimum over N timed calls of `.step`, in
microseconds, for GradaGrad, ScalarGradaGrad (fixed r = 1 and adaptive
r) and AdaGrad, at d in {1, 5, 100, 10^4} coordinates and R in {1, 18}
replicas, untraced and traced. Their replicas share one HyperParams or
gamma. The "per-replica" rows, at R = 18 only, give each replica its own
gamma0, rho, beta and d_inf, so that none of them is shared and a
stepper holds each as a column repeated over each replica's d entries.
Each stepper runs on a noisy quadratic (diagonal 1, noise 1, x0 = 3,
seed 0), whose gradient is drawn outside the timed region, so the clip
and the negative branch take their share of steps. A cell that the
checked-out version cannot run prints "-": R > 1 before the steppers
took replica stacks, and any trace on AdaGrad.

Traced cells write a two-row trace in turn, so a traced step does all the
trace work of a full run at a fraction of its memory.

Run from a checkout: PYTHONPATH=src python scripts/step_cost.py
"""

import time

import numpy as np

from gradagrad import AdaGrad, GradaGrad, HyperParams, ScalarGradaGrad, Trace

DIMS = (1, 5, 100, 10_000)
REPLICAS = (1, 18)
WARMUP = 5
MIN_CALLS, MAX_CALLS, BUDGET_S = 20, 1000, 0.25  # per cell: stop after MAX_CALLS, or BUDGET_S past MIN_CALLS

STEPPERS = {
    "GradaGrad": lambda x0: GradaGrad(x0, HyperParams()),
    "ScalarGradaGrad r=1": lambda x0: ScalarGradaGrad(x0, HyperParams(r_fixed=1.0)),
    "ScalarGradaGrad r=adaptive": lambda x0: ScalarGradaGrad(x0, HyperParams(r_fixed=None)),
    "AdaGrad": lambda x0: AdaGrad(x0, 1.0),
}


def per_replica(x0, **shared) -> list[HyperParams]:
    """One HyperParams per replica of the (R, d) stack x0, no two alike."""
    return [HyperParams(gamma0=1.0 + r / 64, rho=2.0 - r / 64, beta=r / 64, d_inf=1e10 + r, **shared)
            for r in range(len(x0))]


# rows at R = 18 alone: a lone replica shares every value with itself
PER_REPLICA_STEPPERS = {
    "GradaGrad per-replica": lambda x0: GradaGrad(x0, per_replica(x0)),
    "ScalarGradaGrad r=1 per-replica": lambda x0: ScalarGradaGrad(x0, per_replica(x0, r_fixed=1.0)),
}


class RingTrace(Trace):
    """A Trace whose rows are reused in turn: step k writes row k % rows."""

    def record(self, k, **columns):
        super().record(k % len(self), **columns)


def step_us(make, dim: int, replicas: int, traced: bool) -> float | None:
    """The fastest of up to MAX_CALLS timed `.step` calls, in microseconds;
    None if the stepper does not take this shape or a trace."""
    x0 = np.full((replicas, dim) if replicas > 1 else dim, 3.0)
    try:
        opt = make(x0)
    except ValueError:
        if replicas == 1:
            raise
        return None  # a version before replica stacks
    if traced and isinstance(opt, AdaGrad):
        return None
    trace_arg = (RingTrace.empty(2, opt.gamma.size),) if traced else ()
    rng = np.random.default_rng(0)
    best, spent, calls = float("inf"), 0.0, 0
    while calls < MAX_CALLS + WARMUP and (calls < MIN_CALLS + WARMUP or spent < BUDGET_S):
        g = opt.x + rng.standard_normal(opt.x.size)
        t0 = time.perf_counter()
        opt.step(g, *trace_arg)
        dt = time.perf_counter() - t0
        calls += 1
        if calls > WARMUP:
            best, spent = min(best, dt), spent + dt
    return best * 1e6


def main():
    print(f"{'stepper':<33}{'d':>7}{'R':>4}{'untraced_us':>13}{'traced_us':>11}")
    rows = [*((name, make, REPLICAS) for name, make in STEPPERS.items()),
            *((name, make, REPLICAS[1:]) for name, make in PER_REPLICA_STEPPERS.items())]
    for name, make, replica_counts in rows:
        for dim in DIMS:
            for replicas in replica_counts:
                cells = [step_us(make, dim, replicas, traced) for traced in (False, True)]
                shown = ["-" if us is None else f"{us:.1f}" for us in cells]
                print(f"{name:<33}{dim:>7}{replicas:>4}{shown[0]:>13}{shown[1]:>11}")


if __name__ == "__main__":
    main()
