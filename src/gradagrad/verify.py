"""Executable checks for the optimizer's identities, inequalities and rates.

Checks are functions over traces, runs, or gradient sequences; only
check_momentum_identities steps an optimizer it is given. Each returns a
CheckReport whose passed flag is equivalent to worst_violation <= the
check's tolerance.

Trace-based checks take a run's Trace from step 0 on, since several
identities relate step k to step k-1, and evaluate each identity on all
rows at once, over shifted slices of the columns. A NaN among the values a
check reads fails it at the first such (step, coordinate). With a Fold, a
trace check takes a trace one chunk of steps at a time, in bounded memory:
`check` calls the sink trace_checks with each chunk that csvio reads.
"""

from dataclasses import dataclass

import numpy as np

from .core import BRANCH_NEGATIVE, BRANCHES, AdaGrad, GradaGrad, HyperParams, Trace, drive

TOL_IDENTITY = 1e-12
TOL_MOMENTUM = 1e-10
TOL_FINITE_DIFF = 1e-5
# a trace check evaluates its identity on every value of a trace, an edited
# one's inf or 1e300 too; the NaN or inf that gives fails the check, so the
# floating-point warnings would only repeat the report
_QUIET = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}


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


@dataclass
class Fold:
    """A trace check's state over the chunks of a trace passed to it in turn:
    the last step seen, the worst violation and its location as _worst finds
    them over all, and the count and first three notes of its details."""

    last: Trace | None = None
    worst: float = 0.0
    location: tuple[int, int] | None = None
    count: int = 0
    notes: tuple[str, ...] = ()

    def previous(self, trace: Trace, name: str, first: np.ndarray) -> np.ndarray:
        """trace's column name one step back: first stands before step 0."""
        last = first if self.last is None else getattr(self.last, name)
        return np.concatenate([last, getattr(trace, name)[:-1]])

    def add(self, trace, viol, checked, count=0, notes=()):
        """Fold in the chunk trace: _worst(viol, checked, trace.k), count and notes."""
        self.keep(*_worst(viol, checked, trace.k))
        self.count, self.notes = self.count + count, (self.notes + tuple(notes))[:3]
        self.last = trace[[-1]] if len(trace) else self.last  # a copy: drive refills its ring after each chunk

    def keep(self, worst, location):
        """Take (worst, location), found after those kept so far, if worst is
        a NaN or a larger value, as np.argmax picks over both."""
        if not np.isnan(self.worst) and not worst <= self.worst:
            self.worst, self.location = worst, location


class NegativeStart(ValueError):
    """A negative branch at coordinate coord of the first step a trace check reads."""

    def __init__(self, coord: int):
        super().__init__("negative branch in the first trace: traces must start at step 0")
        self.coord = coord


def _negative(trace: Trace, fold: Fold) -> np.ndarray:
    """Negative-branch mask of trace; the identities relate a negative step
    to the one before it, so step 0 must not hold one."""
    neg = trace.branch == BRANCH_NEGATIVE
    if fold.last is None and neg[:1].any():
        raise NegativeStart(int(np.argmax(neg[0])))
    return neg


def _report(name, worst, tol, location=None, details=""):
    worst = float(worst)
    return CheckReport(
        name=name,
        passed=worst <= tol,
        worst_violation=worst,
        location=location,
        details=details or f"tolerance {tol:g}",
    )


def check_errnegativity(trace: Trace, fold: Fold | None = None) -> CheckReport:
    """Restricted-increase inequality on every negative-branch step:

        g^2 / A_{k+1} - rho * g * m_prev / A_k <= 0

    evaluated from trace values alone: rho * g * m_prev = g^2 - v_raw, so
    rho need not be known. Meaningful for traces produced with the adaptive
    clip; a fixed clip r need not satisfy the inequality.
    Vacuously passes when no negative branch occurred.
    """
    fold = fold or Fold()
    neg = _negative(trace, fold)
    with np.errstate(**_QUIET):
        g_sq = np.float_power(trace.g, 2.0)  # pow, not g * g: rounds as tests/reference_verify.py
        term_new = g_sq / trace.a_after
        term_old = (g_sq - trace.v_raw) / fold.previous(trace, "a_after", trace.a_after[:1])
        scaled = (term_new - term_old) / np.maximum(1.0, np.maximum(abs(term_new), abs(term_old)))
    fold.add(trace, scaled, neg, np.count_nonzero(neg))
    details = f"{fold.count} negative-branch coordinate-steps, tolerance {TOL_IDENTITY:g}"
    return _report("errnegativity", fold.worst, TOL_IDENTITY, fold.location, details)


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
        return _report("alpha_identity_rho1", 0.0, np.inf, (k_bad, 0),
                       f"precondition not met: increment at k={k_bad} is negative; identity not asserted")
    lhs, rhs = alpha_identity_sides(gs)
    worst = abs(lhs - rhs) / (1.0 + abs(lhs))
    return _report(
        "alpha_identity_rho1", worst, TOL_IDENTITY, None, f"lhs={lhs!r} rhs={rhs!r}"
    )


def check_adagrad_equivalence(problem, steps: int, gamma: float, x0=None) -> CheckReport:
    """With rho=0 (practical mode, beta=0, unconstrained) the diagonal
    stepper accumulates exactly g^2 and never rescales gamma, so its
    trajectory must match AdaGrad's coordinate-for-coordinate. The two step
    in turn, holding only their iterates; step k compares them after k + 1."""
    x0 = np.ones(problem.dim) if x0 is None else x0
    gg = GradaGrad(x0, HyperParams(gamma0=gamma, rho=0.0, beta=0.0, mode="practical"))
    ag, fold = AdaGrad(x0, gamma=gamma), Fold()
    for k in range(steps):
        for opt in (gg, ag):
            drive(opt, problem.grad_full, 1)
        dev = np.abs(gg.x - ag.x) / np.maximum(1.0, np.maximum(np.abs(gg.x), np.abs(ag.x)))
        fold.keep(*_worst(dev[None], True, [k]))
    return _report("adagrad_equivalence", fold.worst, TOL_IDENTITY, fold.location, f"{steps} steps")


def check_finite_diff(problem, point, h: float = 1e-6) -> CheckReport:
    """Central-difference validation of the exact gradient at a point.

    Skipped (vacuous pass) when the objective is not smooth within 2h of
    the point, e.g. at a kink of the absolute-value objective.
    """
    point = np.asarray(point, dtype=float)
    if not problem.smooth_at(point, 2.0 * h):
        return _report("finite_diff", 0.0, np.inf, details="skipped: objective not smooth at the evaluation point")
    grad, fd, e = problem.grad_full(point), np.empty(point.size), h * np.zeros(point.size)
    for i in range(point.size):  # e is row i of h * np.eye(point.size) while e[i] is h: (d,), not (d, d)
        e[i] = h
        fd[i] = (problem.loss_full(point + e) - problem.loss_full(point - e)) / (2.0 * h)
        e[i] = h * 0.0
    rel = np.abs(fd - grad) / np.maximum(1.0, np.abs(grad))
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
        return _report("convergence_trend", 0.0, np.inf,
                       details=f"vacuous pass: e({n_small}) = {e_small:g} already converged")
    ratio = e_big / e_small
    return _report("convergence_trend", ratio, threshold, details=(
        f"e({n_small})={e_small:g} e({factor * n_small})={e_big:g} "
        f"ratio={ratio:g} threshold={threshold:g} seeds={n_seeds}"
    ))


def check_monotone_and_cap(
    trace: Trace, d_inf: float | None = None, gamma0: float | None = None, fold: Fold | None = None
) -> CheckReport:
    """alpha and gamma never decrease, gamma stays at or below the cap, and
    state changes match the branch taken (alpha moves only on init/capped/
    positive branches, gamma only on negative ones). Step 0 is compared with
    gamma0 (itself when gamma0 is None) and zero alpha."""
    fold = fold or Fold()
    gamma, alpha = trace.gamma_after, trace.alpha_after
    gamma_prev = fold.previous(trace, "gamma_after", gamma[:1] if gamma0 is None else np.full_like(gamma[:1], gamma0))
    alpha_prev = fold.previous(trace, "alpha_after", np.zeros_like(alpha[:1]))
    neg = trace.branch == BRANCH_NEGATIVE
    with np.errstate(**_QUIET):
        viol = np.maximum(
            (alpha_prev - alpha) / np.maximum(1.0, abs(alpha_prev)),
            (gamma_prev - gamma) / np.maximum(1.0, abs(gamma_prev)),
        )
        if d_inf is not None and d_inf < np.inf:  # an infinite cap never binds
            viol = np.maximum(viol, (gamma - d_inf) / d_inf)
        change = np.where(neg, alpha - alpha_prev, gamma - gamma_prev)  # must be 0
    moved = np.where(neg, alpha != alpha_prev, gamma != gamma_prev)
    viol = np.where(moved, np.maximum(viol, abs(change)), viol)
    fold.add(trace, viol, True, notes=[
        f"alpha changed on a negative branch at k={trace.k[t]} i={i}" if neg[t, i]
        else f"gamma changed on a {BRANCHES[trace.branch[t, i]]} branch at k={trace.k[t]} i={i}"
        for t, i in np.argwhere(moved)[:3]
    ])
    return _report("monotone_and_cap", fold.worst, 0.0, fold.location, "; ".join(fold.notes))


def check_reparam_invariance(trace: Trace, d_inf: float | None = None, fold: Fold | None = None) -> CheckReport:
    """On every negative-branch step where the cap did not bind,

        gamma_{k+1} / sqrt(alpha_k - v_clipped) = gamma_k / sqrt(alpha_k)

    i.e. the rescale leaves the step size unchanged before v is absorbed.

    With d_inf given, capped steps are those with gamma at or above it;
    without it, a binding cap is self-detected as gamma landing materially
    below the uncapped rescale value (only an under-growth could hide
    there, and that direction is covered by the monotonicity check).
    """
    fold = fold or Fold()
    neg = _negative(trace, fold)
    gamma_prev, gamma = fold.previous(trace, "gamma_after", trace.gamma_after[:1]), trace.gamma_after
    alpha = trace.alpha_after  # unchanged on the negative branch
    v = trace.v_clipped
    with np.errstate(**_QUIET):
        if d_inf is not None:
            capped = gamma >= d_inf  # the cap bound; the identity is intentionally broken
        else:
            capped = gamma < gamma_prev * np.sqrt(1.0 - v / alpha) * (1.0 - 1e-9)
        lhs = gamma / np.sqrt(alpha - v)
        rhs = gamma_prev / np.sqrt(alpha)
        rel = abs(lhs - rhs) / np.maximum(abs(lhs), abs(rhs))
    checked = neg & ~capped
    fold.add(trace, rel, checked, np.count_nonzero(checked))
    details = f"{fold.count} uncapped negative steps"
    return _report("reparam_invariance", fold.worst, TOL_IDENTITY, fold.location, details)


# the trace checks by their `check` names; each looks its function up when
# called, so that wrappers patched onto this module apply
TRACE_CHECKS = {
    "errnegativity": lambda trace, fold, d_inf: check_errnegativity(trace, fold=fold),
    "monotone": lambda trace, fold, d_inf: check_monotone_and_cap(trace, d_inf=d_inf, fold=fold),
    "reparam": lambda trace, fold, d_inf: check_reparam_invariance(trace, d_inf=d_inf, fold=fold),
}


def trace_checks(names, d_inf=None):
    """A sink for a trace's chunks: called with each chunk of whole steps, in
    order from step 0, it returns the TRACE_CHECKS reports of names over the
    chunks so far."""
    folds = [Fold() for _ in names]
    return lambda chunk: [TRACE_CHECKS[name](chunk, fold, d_inf) for name, fold in zip(names, folds)]


def record_report(step, gamma_max, d_inf) -> CheckReport:
    """The run-record check over a record's step and gamma_max columns:
    steps strictly increase and, unless d_inf is None, every gamma_max stays
    at or below the cap d_inf. A NaN gamma_max fails, and under d_inf = inf
    no other one does."""
    viol = np.zeros(len(step))
    viol[1:] = step[1:] <= step[:-1]  # 1.0 where a step does not increase
    details = [f"step {step[n]} does not increase past {step[n - 1]}" for n in np.flatnonzero(viol)[:3]]
    if d_inf is not None:
        over = (gamma_max - d_inf) / d_inf if d_inf < np.inf else np.where(np.isnan(gamma_max), np.nan, 0.0)
        viol = np.maximum(viol, over)
    worst, location = _worst(viol[:, None], True, step)
    cap_note = f", gamma_max <= {d_inf:g}" if d_inf is not None else ""
    return _report("run_record", worst, 0.0, location, "; ".join(details) or f"steps strictly increasing{cap_note}")


def check_momentum_identities(opt: GradaGrad, grad_fn, steps: int) -> CheckReport:
    """Step the diagonal opt `steps` times on grad_fn, which maps the
    iterate to a gradient, and check the two coupling identities of the
    momentum form after each step, with k counting this call's steps:

        z_k = x_k / (1 - beta) - beta * x_{k-1} / (1 - beta)   (k >= 1)
        m_k = A_{k+1} * (x_k - x_{k+1})                         (every k)

    A is the a_after column of drive's one-step ring; x, z and m come from
    opt, and only x_{k-1} is kept from one step to the next."""
    if not isinstance(opt, GradaGrad):
        raise ValueError(f"the momentum identities need a diagonal GradaGrad, got {type(opt).__name__}")
    z_fold, m_fold = Fold(), Fold()
    start, beta, x_prev = opt.k, opt._beta, opt.x[None].copy()

    def on_trace(ring):
        nonlocal x_prev
        k, x = int(ring.k[0]) - start, opt.x[None]  # ring holds step k, from x_prev to x
        z_expected = x / (1.0 - beta) - beta * x_prev / (1.0 - beta)
        z_fold.keep(*_worst(abs(opt.z - z_expected) / np.maximum(1.0, abs(z_expected)), True, [k + 1]))
        expected = ring.a_after * (x_prev - x)
        m_fold.keep(*_worst(abs(opt.m_prev - expected) / np.maximum(1.0, abs(expected)), True, [k]))
        x_prev = x.copy()

    drive(opt, grad_fn, steps, trace=Trace.empty(1, opt.dim), on_trace=on_trace)
    details = f"z-identity worst {z_fold.worst:g}, direction-identity worst {m_fold.worst:g}"
    z_fold.keep(m_fold.worst, m_fold.location)  # after z: a tie keeps the z-identity's location
    return _report("momentum_identities", z_fold.worst, TOL_MOMENTUM, z_fold.location, details)
