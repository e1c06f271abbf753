"""Frozen sequential run loops for the differential test of gradagrad.drive.

These are check_convergence_trend and record_run as gradagrad.verify ran
them with their own loops, before both stepped through gradagrad.drive:
the trend check built one single-replica optimizer per seed from a (d,)
x0 and stepped the seeds one after another. Do not edit them to follow the
package.
"""

import numpy as np

from gradagrad.core import GradaGrad, Trace
from gradagrad.verify import CheckReport, RunHistory


def check_convergence_trend(
    problem,
    optimizer_factory,
    x0,
    n_small: int,
    factor: int = 4,
    n_seeds: int = 10,
    threshold: float = 0.75,
    seed0: int = 0,
) -> CheckReport:
    """Averaged-iterate error ratio e(factor*n) / e(n) over seeded runs.

    The 1/sqrt(n) rate predicts a ratio of 1/sqrt(factor); the default
    threshold 0.75 at factor 4 leaves room for constants and transients.
    The threshold is recorded in the report. Runs that are already
    converged at n (error below 1e-14) pass vacuously.
    """
    if problem.f_star is None:
        raise ValueError("trend check needs a problem with known optimal value")
    errs_small = []
    errs_big = []
    for s in range(n_seeds):
        opt = optimizer_factory(np.asarray(x0, dtype=float))
        state = problem.init_state(seed0 + s)
        f_small = None
        for _ in range(factor * n_small):
            opt.step(problem.grad_sample(opt.x, [state]))
            if opt.k == n_small:
                f_small = problem.loss_full(opt.averaged_iterate())
        errs_small.append(f_small - problem.f_star)
        errs_big.append(problem.loss_full(opt.averaged_iterate()) - problem.f_star)
    e_small = float(np.mean(errs_small))
    e_big = float(np.mean(errs_big))
    if e_small < 1e-14:
        return CheckReport(
            name="convergence_trend",
            passed=True,
            worst_violation=0.0,
            details=f"vacuous pass: e({n_small}) = {e_small:g} already converged",
        )
    ratio = e_big / e_small
    return CheckReport(
        name="convergence_trend",
        passed=ratio <= threshold,
        worst_violation=ratio,
        details=(
            f"e({n_small})={e_small:g} e({factor * n_small})={e_big:g} "
            f"ratio={ratio:g} threshold={threshold:g} seeds={n_seeds}"
        ),
    )


def record_run(opt: GradaGrad, grad_fn, steps: int) -> RunHistory:
    """Step a diagonal optimizer `steps` times, recording everything the
    identity checks need. grad_fn maps the current iterate to a gradient."""
    trace = Trace.empty(opt.k + steps, opt.dim)  # the stepper writes row opt.k
    x, z, m = np.empty((steps + 1, opt.dim)), np.empty((steps + 1, opt.dim)), np.empty((steps, opt.dim))
    x[0], z[0] = opt.x, opt.z
    for t in range(steps):
        opt.step(grad_fn(opt.x), trace)
        x[t + 1], z[t + 1], m[t] = opt.x, opt.z, opt.m_prev
    return RunHistory(x=x, z=z, m=m, trace=trace[opt.k - steps:], beta=opt.params.beta)
