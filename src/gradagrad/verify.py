"""Executable checks for the optimizer's identities, inequalities and rates.

Checks are pure functions over traces, runs, or gradient sequences; they
never mutate optimizer state. Each returns a CheckReport whose passed flag
is equivalent to worst_violation <= the check's tolerance.

Trace-based checks take a run's Trace from step 0 on, since several
identities relate step k to step k-1, and evaluate each identity on all
rows at once, over shifted slices of the columns. A NaN among the values a
check reads fails it at the first such (step, coordinate).
"""

from dataclasses import dataclass

import numpy as np

from .core import BRANCH_NEGATIVE, BRANCHES, AdaGrad, GradaGrad, HyperParams, Trace, drive

TOL_IDENTITY = 1e-12
TOL_MOMENTUM = 1e-10
TOL_FINITE_DIFF = 1e-5


@dataclass
class CheckReport:
    name: str
    passed: bool
    worst_violation: float
    location: tuple[int, int] | None = None  # (step, coordinate)
    details: str = ""


def _worst(viol, checked, steps):
    """(worst, location) of viol over its checked entries: the largest
    positive value at its first row-major position, the first NaN (which no
    tolerance passes) if there is one, and (0.0, None) if neither. Row t of
    viol is step steps[t]."""
    viol = np.where(checked, viol, 0.0)
    if viol.size == 0:
        return 0.0, None
    flat = int(np.argmax(viol))  # the first NaN, if any
    worst = float(viol.flat[flat])
    if worst <= 0.0:
        return 0.0, None
    t, i = np.unravel_index(flat, viol.shape)
    return worst, (int(steps[t]), int(i))


def _negative_after_first(trace: Trace) -> np.ndarray:
    """Negative-branch mask of rows 1..n-1; the identities relate a negative
    step to the one before it, so row 0 must not hold one."""
    neg = trace.branch == BRANCH_NEGATIVE
    if neg[:1].any():
        raise ValueError("negative branch in the first trace: traces must start at step 0")
    return neg[1:]


def _report(name, worst, tol, location, details=""):
    worst = float(worst)
    return CheckReport(
        name=name,
        passed=worst <= tol,
        worst_violation=worst,
        location=location,
        details=details or f"tolerance {tol:g}",
    )


def check_errnegativity(trace: Trace) -> CheckReport:
    """Restricted-increase inequality on every negative-branch step:

        g^2 / A_{k+1} - rho * g * m_prev / A_k <= 0

    evaluated from trace values alone: rho * g * m_prev = g^2 - v_raw, so
    rho need not be known. Meaningful for traces produced with the adaptive
    clip; a fixed clip r need not satisfy the inequality.
    Vacuously passes when no negative branch occurred.
    """
    neg = _negative_after_first(trace)
    g_sq = np.float_power(trace.g[1:], 2.0)  # pow, not g * g: rounds as tests/reference_verify.py
    with np.errstate(divide="ignore", invalid="ignore"):
        term_new = g_sq / trace.a_after[1:]
        term_old = (g_sq - trace.v_raw[1:]) / trace.a_after[:-1]
        scaled = (term_new - term_old) / np.maximum(1.0, np.maximum(abs(term_new), abs(term_old)))
    worst, location = _worst(scaled, neg, trace.k[1:])
    details = f"{np.count_nonzero(neg)} negative-branch coordinate-steps, tolerance {TOL_IDENTITY:g}"
    return _report("errnegativity", worst, TOL_IDENTITY, location, details)


def alpha_identity_sides(gs) -> tuple[float, float]:
    """Both sides of the rho=1 accumulator identity:

        g_0^2 + sum_k (g_k^2 - g_k g_{k-1})
          = g_0^2/2 + g_n^2/2 + sum_k (g_{k+1} - g_k)^2 / 2
    """
    gs = np.asarray(gs, dtype=float)
    if gs.size == 0:
        raise ValueError("need at least one gradient")
    lhs = gs[0] ** 2 + float(np.sum(gs[1:] ** 2 - gs[1:] * gs[:-1]))
    rhs = 0.5 * gs[0] ** 2 + 0.5 * gs[-1] ** 2 + 0.5 * float(np.sum(np.diff(gs) ** 2))
    return lhs, rhs


def check_alpha_identity_rho1(gs) -> CheckReport:
    """rho=1 identity check; requires every increment g_k^2 - g_k g_{k-1}
    to be nonnegative (otherwise the no-reparameterization precondition
    fails and the identity is not asserted)."""
    gs = np.asarray(gs, dtype=float)
    v = gs[1:] ** 2 - gs[1:] * gs[:-1]
    if np.any(v < 0):
        k_bad = int(np.argmax(v < 0)) + 1
        return CheckReport(
            name="alpha_identity_rho1",
            passed=True,
            worst_violation=0.0,
            location=(k_bad, 0),
            details=f"precondition not met: increment at k={k_bad} is negative; identity not asserted",
        )
    lhs, rhs = alpha_identity_sides(gs)
    worst = abs(lhs - rhs) / (1.0 + abs(lhs))
    return _report(
        "alpha_identity_rho1", worst, TOL_IDENTITY, None, f"lhs={lhs!r} rhs={rhs!r}"
    )


def check_adagrad_equivalence(problem, steps: int, gamma: float, x0=None) -> CheckReport:
    """With rho=0 (practical mode, beta=0, unconstrained) the diagonal
    stepper accumulates exactly g^2 and never rescales gamma, so its
    trajectory must match AdaGrad's coordinate-for-coordinate."""
    if x0 is None:
        x0 = np.ones(problem.dim)
    gg = GradaGrad(x0, HyperParams(gamma0=gamma, rho=0.0, beta=0.0, mode="practical"))
    ag = AdaGrad(x0, gamma=gamma)
    dev = np.empty((steps, gg.dim))
    for k in range(steps):
        gg.step(problem.grad_full(gg.x))
        ag.step(problem.grad_full(ag.x))
        dev[k] = np.abs(gg.x - ag.x) / np.maximum(1.0, np.maximum(np.abs(gg.x), np.abs(ag.x)))
    worst, location = _worst(dev, True, range(steps))
    return _report("adagrad_equivalence", worst, TOL_IDENTITY, location, f"{steps} steps")


def check_finite_diff(problem, point, h: float = 1e-6) -> CheckReport:
    """Central-difference validation of the exact gradient at a point.

    Skipped (vacuous pass) when the objective is not smooth within 2h of
    the point, e.g. at a kink of the absolute-value objective.
    """
    point = np.asarray(point, dtype=float)
    if not problem.smooth_at(point, 2.0 * h):
        return CheckReport(
            name="finite_diff",
            passed=True,
            worst_violation=0.0,
            details="skipped: objective not smooth at the evaluation point",
        )
    grad = problem.grad_full(point)
    fd = [(problem.loss_full(point + e) - problem.loss_full(point - e)) / (2.0 * h)
          for e in h * np.eye(point.size)]
    rel = np.abs(np.array(fd) - grad) / np.maximum(1.0, np.abs(grad))
    worst, location = _worst(rel[None], True, [0])
    return _report("finite_diff", worst, TOL_FINITE_DIFF, location, f"h={h:g}")


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

    The runs are the replicas of optimizer_factory(an (n_seeds, d) stack of
    x0); replica s draws from problem.init_state(seed0 + s). The 1/sqrt(n)
    rate predicts a ratio of 1/sqrt(factor); the default threshold 0.75 at
    factor 4 leaves room for constants and transients. The threshold is
    recorded in the report. Runs that are already converged at n (error
    below 1e-14) pass vacuously.
    """
    if problem.f_star is None:
        raise ValueError("trend check needs a problem with known optimal value")
    if n_small < 1 or n_seeds < 1 or factor < 2:
        raise ValueError("need n_small >= 1, n_seeds >= 1 and factor >= 2, "
                         f"got n_small={n_small}, n_seeds={n_seeds}, factor={factor}")
    opt = optimizer_factory(np.tile(np.asarray(x0, dtype=float), (n_seeds, 1)))
    states = [problem.init_state(seed0 + s) for s in range(n_seeds)]
    errs = {}  # k -> the (n_seeds,) suboptimalities of the averaged iterates after k steps

    def on_eval(k):
        if k in (n_small, factor * n_small):
            errs[k] = problem.loss_full(opt.averaged_iterate().reshape(n_seeds, -1)) - problem.f_star

    drive(opt, lambda x: problem.grad_sample(x, states), factor * n_small, on_eval, n_small)
    e_small, e_big = (float(np.mean(errs[k])) for k in (n_small, factor * n_small))
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


def check_monotone_and_cap(
    trace: Trace, d_inf: float | None = None, gamma0: float | None = None
) -> CheckReport:
    """alpha and gamma never decrease, gamma stays at or below the cap, and
    state changes match the branch taken (alpha moves only on init/capped/
    positive branches, gamma only on negative ones). Row 0 is compared with
    gamma0 (itself when gamma0 is None) and zero alpha."""
    gamma, alpha = trace.gamma_after, trace.alpha_after
    first = gamma[:1] if gamma0 is None else np.full_like(gamma[:1], gamma0)
    gamma_prev = np.concatenate([first, gamma[:-1]])
    alpha_prev = np.concatenate([np.zeros_like(alpha[:1]), alpha[:-1]])
    viol = np.maximum(
        (alpha_prev - alpha) / np.maximum(1.0, abs(alpha_prev)),
        (gamma_prev - gamma) / np.maximum(1.0, abs(gamma_prev)),
    )
    if d_inf is not None and d_inf < np.inf:  # an infinite cap never binds
        viol = np.maximum(viol, (gamma - d_inf) / d_inf)
    neg = trace.branch == BRANCH_NEGATIVE
    change = np.where(neg, alpha - alpha_prev, gamma - gamma_prev)  # must be 0
    moved = np.where(neg, alpha != alpha_prev, gamma != gamma_prev)
    viol = np.where(moved, np.maximum(viol, abs(change)), viol)
    worst, location = _worst(viol, True, trace.k)
    details = [
        f"alpha changed on a negative branch at k={trace.k[t]} i={i}" if neg[t, i]
        else f"gamma changed on a {BRANCHES[trace.branch[t, i]]} branch at k={trace.k[t]} i={i}"
        for t, i in np.argwhere(moved)[:3]
    ]
    return _report("monotone_and_cap", worst, 0.0, location, "; ".join(details))


def check_reparam_invariance(trace: Trace, d_inf: float | None = None) -> CheckReport:
    """On every negative-branch step where the cap did not bind,

        gamma_{k+1} / sqrt(alpha_k - v_clipped) = gamma_k / sqrt(alpha_k)

    i.e. the rescale leaves the step size unchanged before v is absorbed.

    With d_inf given, capped steps are those with gamma at or above it;
    without it, a binding cap is self-detected as gamma landing materially
    below the uncapped rescale value (only an under-growth could hide
    there, and that direction is covered by the monotonicity check).
    """
    neg = _negative_after_first(trace)
    gamma_prev, gamma = trace.gamma_after[:-1], trace.gamma_after[1:]
    alpha = trace.alpha_after[1:]  # unchanged on the negative branch
    v = trace.v_clipped[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        if d_inf is not None:
            capped = gamma >= d_inf  # the cap bound; the identity is intentionally broken
        else:
            capped = gamma < gamma_prev * np.sqrt(1.0 - v / alpha) * (1.0 - 1e-9)
        lhs = gamma / np.sqrt(alpha - v)
        rhs = gamma_prev / np.sqrt(alpha)
        rel = abs(lhs - rhs) / np.maximum(abs(lhs), abs(rhs))
    checked = neg & ~capped
    worst, location = _worst(rel, checked, trace.k[1:])
    details = f"{np.count_nonzero(checked)} uncapped negative steps"
    return _report("reparam_invariance", worst, TOL_IDENTITY, location, details)


@dataclass
class RunHistory:
    """Full history of a diagonal run: iterates x and auxiliary iterates z
    from x0 on, (steps + 1, d); directions m, (steps, d); the trace; and
    beta, (d,), the momentum each entry of x stepped with."""

    x: np.ndarray
    z: np.ndarray
    m: np.ndarray
    trace: Trace
    beta: np.ndarray


def record_run(opt: GradaGrad, grad_fn, steps: int) -> RunHistory:
    """Step a diagonal optimizer `steps` times, recording everything the
    identity checks need. grad_fn maps the current iterate to a gradient."""
    trace = Trace.empty(opt.k + steps, opt.dim)  # the stepper writes row opt.k
    x, z, m = (np.empty((steps + 1, opt.dim)) for _ in range(3))  # row k: the state after k steps

    def on_eval(k):
        x[k], z[k], m[k] = opt.x, opt.z, opt.m_prev

    drive(opt, grad_fn, steps, on_eval, trace=trace)
    return RunHistory(x=x, z=z, m=m[1:], trace=trace[opt.k - steps:], beta=opt._beta)


def check_momentum_identities(run: RunHistory) -> CheckReport:
    """The two coupling identities of the momentum form:

        z_k = x_k / (1 - beta) - beta * x_{k-1} / (1 - beta)   (k >= 1)
        m_k = A_{k+1} * (x_k - x_{k+1})                         (every k)
    """
    beta, x = run.beta, run.x
    z_expected = x[1:] / (1.0 - beta) - beta * x[:-1] / (1.0 - beta)
    rel_z = abs(run.z[1:] - z_expected) / np.maximum(1.0, abs(z_expected))  # steps 1..n
    expected = run.trace.a_after * (x[:-1] - x[1:])
    rel_m = abs(run.m - expected) / np.maximum(1.0, abs(expected))  # steps 0..n-1
    # z rows first: a tie keeps the z-identity's location
    steps = [*range(1, len(x)), *range(len(run.m))]
    worst, location = _worst(np.concatenate([rel_z, rel_m]), True, steps)
    details = (f"z-identity worst {rel_z.max(initial=0.0):g}, "
               f"direction-identity worst {rel_m.max(initial=0.0):g}")
    return _report("momentum_identities", worst, TOL_MOMENTUM, location, details)
