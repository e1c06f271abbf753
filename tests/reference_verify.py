"""Frozen reference trace checks for the differential test of gradagrad.verify.

These are the per-(step, coordinate) loops that gradagrad.verify ran before
its checks moved onto the columns of one Trace. They run on Trace row views,
which expose the fields the loops read (k, g, v_raw, v_clipped, branch,
gamma_after, alpha_after, a_after); branch now holds codes, so the one
message that prints a branch looks its name up in BRANCHES. RunHistory keeps
its list-of-arrays form; from_columns builds it from the package's
RunHistory. Do not edit them to follow the package.
"""

from dataclasses import dataclass

import numpy as np

from gradagrad.core import BRANCH_NEGATIVE, BRANCHES
from gradagrad.verify import TOL_IDENTITY, TOL_MOMENTUM, CheckReport


def _report(name, worst, tol, location, details=""):
    worst = float(worst)
    return CheckReport(
        name=name,
        passed=worst <= tol,
        worst_violation=worst,
        location=location,
        details=details or f"tolerance {tol:g}",
    )


def check_errnegativity(traces, rho: float | None = None) -> CheckReport:
    """Restricted-increase inequality on every negative-branch step:

        g^2 / A_{k+1} - rho * g * m_prev / A_k <= 0

    evaluated from trace values alone: rho * g * m_prev = g^2 - v_raw, so
    the rho argument is informational only. Meaningful for traces produced
    with the adaptive clip; a fixed clip r need not satisfy the inequality.
    Vacuously passes when no negative branch occurred.
    """
    worst = 0.0
    location = None
    count = 0
    for t, tr in enumerate(traces):
        for i, branch in enumerate(tr.branch):
            if branch != BRANCH_NEGATIVE:
                continue
            if t == 0:
                raise ValueError("negative branch in the first trace: traces must start at step 0")
            count += 1
            prev = traces[t - 1]
            g_sq = tr.g[i] ** 2
            term_new = g_sq / tr.a_after[i]
            term_old = (g_sq - tr.v_raw[i]) / prev.a_after[i]
            scaled = (term_new - term_old) / max(1.0, abs(term_new), abs(term_old))
            if scaled > worst:
                worst = scaled
                location = (tr.k, i)
    return _report(
        "errnegativity",
        worst,
        TOL_IDENTITY,
        location,
        f"{count} negative-branch coordinate-steps, tolerance {TOL_IDENTITY:g}",
    )


def check_monotone_and_cap(
    traces, d_inf: float | None = None, gamma0: float | None = None
) -> CheckReport:
    """alpha and gamma never decrease, gamma stays at or below the cap, and
    state changes match the branch taken (alpha moves only on init/capped/
    positive branches, gamma only on negative ones)."""
    worst = 0.0
    location = None
    details = []
    for t, tr in enumerate(traces):
        if t == 0:
            gamma_prev = (
                np.full_like(tr.gamma_after, gamma0) if gamma0 is not None else tr.gamma_after
            )
            alpha_prev = np.zeros_like(tr.alpha_after)
        else:
            gamma_prev = traces[t - 1].gamma_after
            alpha_prev = traces[t - 1].alpha_after
        for i, branch in enumerate(tr.branch):
            viol = max(
                (alpha_prev[i] - tr.alpha_after[i]) / max(1.0, abs(alpha_prev[i])),
                (gamma_prev[i] - tr.gamma_after[i]) / max(1.0, abs(gamma_prev[i])),
            )
            if d_inf is not None:
                viol = max(viol, (tr.gamma_after[i] - d_inf) / d_inf)
            if branch == BRANCH_NEGATIVE:
                if tr.alpha_after[i] != alpha_prev[i]:
                    viol = max(viol, abs(tr.alpha_after[i] - alpha_prev[i]))
                    details.append(f"alpha changed on a negative branch at k={tr.k} i={i}")
            elif tr.gamma_after[i] != gamma_prev[i]:
                viol = max(viol, abs(tr.gamma_after[i] - gamma_prev[i]))
                details.append(f"gamma changed on a {BRANCHES[branch]} branch at k={tr.k} i={i}")
            if viol > worst:
                worst = viol
                location = (tr.k, i)
    return _report("monotone_and_cap", worst, 0.0, location, "; ".join(details[:3]))


def check_reparam_invariance(traces, d_inf: float | None = None) -> CheckReport:
    """On every negative-branch step where the cap did not bind,

        gamma_{k+1} / sqrt(alpha_k - v_clipped) = gamma_k / sqrt(alpha_k)

    i.e. the rescale leaves the step size unchanged before v is absorbed.

    With d_inf given, capped steps are those with gamma at or above it;
    without it, a binding cap is self-detected as gamma landing materially
    below the uncapped rescale value (only an under-growth could hide
    there, and that direction is covered by the monotonicity check).
    """
    worst = 0.0
    location = None
    count = 0
    for t, tr in enumerate(traces):
        for i, branch in enumerate(tr.branch):
            if branch != BRANCH_NEGATIVE:
                continue
            if t == 0:
                raise ValueError("negative branch in the first trace: traces must start at step 0")
            gamma_prev = traces[t - 1].gamma_after[i]
            alpha = tr.alpha_after[i]  # unchanged on the negative branch
            if d_inf is not None:
                if tr.gamma_after[i] >= d_inf:
                    continue  # cap bound; the identity is intentionally broken
            else:
                uncapped = gamma_prev * np.sqrt(1.0 - tr.v_clipped[i] / alpha)
                if tr.gamma_after[i] < uncapped * (1.0 - 1e-9):
                    continue
            count += 1
            lhs = tr.gamma_after[i] / np.sqrt(alpha - tr.v_clipped[i])
            rhs = gamma_prev / np.sqrt(alpha)
            rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
            if rel > worst:
                worst = rel
                location = (tr.k, i)
    return _report(
        "reparam_invariance", worst, TOL_IDENTITY, location, f"{count} uncapped negative steps"
    )


@dataclass
class RunHistory:
    """Full iterate/auxiliary/direction history of a diagonal run."""

    xs: list[np.ndarray]
    zs: list[np.ndarray]
    ms: list[np.ndarray]
    traces: object  # a Trace, indexed by step
    beta: float


def check_momentum_identities(run: RunHistory) -> CheckReport:
    """The two coupling identities of the momentum form:

        z_k = x_k / (1 - beta) - beta * x_{k-1} / (1 - beta)   (k >= 1)
        m_k = A_{k+1} * (x_k - x_{k+1})                         (every k)
    """
    beta = run.beta
    worst_z = 0.0
    location = None
    for k in range(1, len(run.xs)):
        z_expected = run.xs[k] / (1.0 - beta) - beta * run.xs[k - 1] / (1.0 - beta)
        rel = np.abs(run.zs[k] - z_expected) / np.maximum(1.0, np.abs(z_expected))
        i = int(np.argmax(rel))
        if rel[i] > worst_z:
            worst_z = float(rel[i])
            location = (k, i)
    worst_m = 0.0
    for k, m in enumerate(run.ms):
        expected = run.traces[k].a_after * (run.xs[k] - run.xs[k + 1])
        rel = np.abs(m - expected) / np.maximum(1.0, np.abs(expected))
        i = int(np.argmax(rel))
        if rel[i] > worst_m:
            worst_m = float(rel[i])
            if worst_m > worst_z:
                location = (k, i)
    worst = max(worst_z, worst_m)
    return _report(
        "momentum_identities",
        worst,
        TOL_MOMENTUM,
        location,
        f"z-identity worst {worst_z:g}, direction-identity worst {worst_m:g}",
    )


def from_columns(run) -> RunHistory:
    """The list form of a gradagrad.verify.RunHistory."""
    return RunHistory(xs=list(run.x), zs=list(run.z), ms=list(run.m), traces=run.trace, beta=run.beta)
