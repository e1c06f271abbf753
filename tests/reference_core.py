"""Frozen reference steppers for the differential test of the GradaGrad kernel.

These are the per-coordinate diagonal loop and the Python-float scalar step
that `gradagrad.core` used before both steppers moved onto one elementwise
array kernel. They are kept as they were, helpers included (only docstrings
trimmed), as the oracle the kernel must match bit for bit; do not edit them
to follow the package. They return the per-step record and branch strings
the package used then (StepTrace, kept here); the package's Trace stores
branch codes, whose names are gradagrad.core.BRANCHES.
"""

import math
from dataclasses import dataclass

import numpy as np

from gradagrad.core import Domain, HyperParams, Optimizer, project

BRANCH_INIT = "init"
BRANCH_CAPPED = "capped"
BRANCH_POSITIVE = "positive"
BRANCH_NEGATIVE = "negative"


@dataclass
class StepTrace:
    """One step's per-coordinate record."""

    k: int
    g: np.ndarray
    v_raw: np.ndarray
    v_clipped: np.ndarray
    branch: list[str]
    r: np.ndarray
    gamma_after: np.ndarray
    alpha_after: np.ndarray
    a_after: np.ndarray
    f_sample: float | None = None


class CoordState:
    """One coordinate's numerator/accumulator pair."""

    def __init__(self, gamma: float, alpha: float):
        self.gamma = gamma
        self.alpha = alpha


def compute_v_scalar(g, g_prev, rho: float) -> float:
    g = np.asarray(g, dtype=float)
    g_prev = np.asarray(g_prev, dtype=float)
    if g.shape != g_prev.shape:
        raise ValueError(f"shape mismatch: {g.shape} vs {g_prev.shape}")
    return float(g @ g - rho * (g @ g_prev))


def compute_v_coord(g_i, m_prev_i, rho, k, gamma_i, params: HyperParams):
    if k == 0:
        v = params.g_inf ** 2 if params.mode == "theory" else g_i * g_i
        return v, BRANCH_INIT
    if gamma_i >= params.d_inf:
        return g_i * g_i, BRANCH_CAPPED
    v = g_i * g_i - rho * g_i * m_prev_i
    return v, (BRANCH_NEGATIVE if v < 0 else BRANCH_POSITIVE)


def clip_negative_v(v, g_i, m_prev_i, rho, alpha_i, r_fixed=None):
    if v >= 0:
        raise ValueError(f"clip applies to negative v only, got {v}")
    if alpha_i <= 0:
        raise ValueError(f"negative v with alpha = {alpha_i}")
    if r_fixed is not None:
        r = float(r_fixed)
    else:
        r = (rho * m_prev_i / g_i) ** 2 - 1.0
    return max(v, -r * alpha_i), r


def apply_reparam(gamma, alpha, v):
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if v > 0:
        raise ValueError(f"reparameterization applies to v <= 0, got {v}")
    return gamma * math.sqrt(1.0 - v / alpha)


def accumulate_positive(alpha, v):
    if v < 0:
        raise ValueError(f"negative v must be clipped and reparameterized, got {v}")
    return alpha + v


def preconditioner_entry(coord: CoordState) -> float:
    if coord.alpha <= 0:
        raise ValueError("unbootstrapped coordinate: alpha is zero")
    return math.sqrt(coord.alpha) / coord.gamma


class ReferenceScalarGradaGrad(Optimizer):
    def __init__(self, x0, params: HyperParams | None = None):
        super().__init__(x0)
        self.params = params if params is not None else HyperParams()
        self.coord = CoordState(gamma=self.params.gamma0, alpha=0.0)
        self.g_prev = np.zeros_like(self.x)

    def step(self, g) -> StepTrace:
        g = self._check_grad(g)
        p = self.params
        k = self.k
        v = compute_v_scalar(g, self.g_prev, p.rho)
        if v >= 0:
            self.coord.alpha = accumulate_positive(self.coord.alpha, v)
            v_clip, r, branch = v, math.nan, BRANCH_POSITIVE
        else:
            v_clip, r = clip_negative_v(
                v, float(g @ g), float(g @ self.g_prev), p.rho, self.coord.alpha, p.r_fixed
            )
            self.coord.gamma = apply_reparam(self.coord.gamma, self.coord.alpha, v_clip)
            branch = BRANCH_NEGATIVE
        if self.coord.alpha > 0:
            x_new = self.x - (self.coord.gamma / math.sqrt(self.coord.alpha)) * g
            a = preconditioner_entry(self.coord)
        else:
            x_new = self.x.copy()
            a = 0.0
        self.g_prev = g.copy()
        self._commit(x_new)
        return StepTrace(
            k=k,
            g=np.array([float(np.linalg.norm(g))]),
            v_raw=np.array([v]),
            v_clipped=np.array([v_clip]),
            branch=[branch],
            r=np.array([r]),
            gamma_after=np.array([self.coord.gamma]),
            alpha_after=np.array([self.coord.alpha]),
            a_after=np.array([a]),
        )

    def stats(self) -> dict:
        c = self.coord
        ainv = c.gamma / math.sqrt(c.alpha) if c.alpha > 0 else None
        return {
            "gamma_mean": c.gamma,
            "gamma_max": c.gamma,
            "alpha_mean": c.alpha,
            "alpha_max": c.alpha,
            "ainv_mean": ainv,
        }


class ReferenceGradaGrad(Optimizer):
    def __init__(self, x0, params: HyperParams | None = None, domain: Domain | None = None):
        super().__init__(x0)
        self.params = params if params is not None else HyperParams()
        self.domain = domain if domain is not None else Domain()
        if self.domain.kind == "box" and self.domain.lower.shape != self.x.shape:
            raise ValueError("domain bounds must match the iterate dimension")
        self.z = self.x.copy()
        self.m_prev = np.zeros_like(self.x)
        self.gamma = np.full(self.dim, self.params.gamma0, dtype=float)
        self.alpha = np.zeros(self.dim, dtype=float)

    def step(self, g) -> StepTrace:
        g = self._check_grad(g)
        p = self.params
        k = self.k
        d = self.dim
        v_raw = np.empty(d)
        v_clip = np.empty(d)
        r_arr = np.full(d, math.nan)
        branches = []
        for i in range(d):
            v, branch = compute_v_coord(g[i], self.m_prev[i], p.rho, k, self.gamma[i], p)
            v_raw[i] = v
            if branch == BRANCH_NEGATIVE:
                vc, r = clip_negative_v(v, g[i], self.m_prev[i], p.rho, self.alpha[i], None)
                self.gamma[i] = min(apply_reparam(self.gamma[i], self.alpha[i], vc), p.d_inf)
                v_clip[i] = vc
                r_arr[i] = r
            else:
                self.alpha[i] = accumulate_positive(self.alpha[i], v)
                v_clip[i] = v
            branches.append(branch)

        a = np.zeros(d)
        ainv = np.zeros(d)
        live = self.alpha > 0
        root = np.sqrt(self.alpha[live])
        a[live] = root / self.gamma[live]
        ainv[live] = self.gamma[live] / root

        z_new = project(self.z - ainv * g, self.domain)
        x_new = p.beta * self.x + (1.0 - p.beta) * z_new
        m = a * (self.x - x_new)

        trace = StepTrace(
            k=k,
            g=g.copy(),
            v_raw=v_raw,
            v_clipped=v_clip,
            branch=branches,
            r=r_arr,
            gamma_after=self.gamma.copy(),
            alpha_after=self.alpha.copy(),
            a_after=a,
        )
        self.z = z_new
        self.m_prev = m
        self._commit(x_new)
        return trace

    def stats(self) -> dict:
        live = self.alpha > 0
        if self.k > 0 and np.any(live):
            ainv = np.zeros(self.dim)
            ainv[live] = self.gamma[live] / np.sqrt(self.alpha[live])
            ainv_mean = float(np.mean(ainv))
        else:
            ainv_mean = None
        return {
            "gamma_mean": float(np.mean(self.gamma)),
            "gamma_max": float(np.max(self.gamma)),
            "alpha_mean": float(np.mean(self.alpha)),
            "alpha_max": float(np.max(self.alpha)),
            "ainv_mean": ainv_mean,
        }
