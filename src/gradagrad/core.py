"""Non-monotone adaptive gradient steppers and baselines.

GradaGrad keeps an AdaGrad-style update x <- x - (gamma / sqrt(alpha)) * g,
but each accumulator increment is v = g^2 - rho * g * m_prev instead of g^2.
Positive v is added to alpha as usual; negative v is absorbed by rescaling
the numerator, gamma <- gamma * sqrt(1 - v / alpha), which leaves alpha
unchanged and *grows* the effective step size. The clip v >= -r * alpha
bounds that growth so the per-step gradient error never increases.

The update is elementwise, so one array kernel, _gradagrad_update, applies
it to every gamma/alpha pair at once. Both variants call it: GradaGrad
(per-coordinate gamma/alpha with momentum and box projection, always
adaptive r) on length-d arrays, and ScalarGradaGrad (one gamma/alpha pair
scaling the whole gradient, fixed or adaptive r) on length-1 arrays. Each
variant only forms v and the clip ratio t. AdaGrad, SGD and Adam baselines
share the single-step interface step(g), which drive() runs on an oracle.
GradaGrad, ScalarGradaGrad and AdaGrad keep the step sizes gamma /
sqrt(alpha) their last step applied as ainv, and one stats() reads the run
record's columns from that state.

Every stepper also runs R replicas in lockstep: x0 is then an (R, d) stack,
the state is one flat (R*d,) vector with replica r in [r*d, (r+1)*d), and
step(g) takes the R gradients as one flat (R*d,) vector. Each replica may
have its own hyperparameters (one HyperParams, gamma or lr per replica).
A value that every replica shares is held once, as a 0-d array that each
elementwise operation reads as it would a repeat; one that differs is held
as a column repeated over each replica's d entries. Every operation is
elementwise or a stacked matmul of one row per replica, so each replica
steps exactly as it would alone.

A run's trace is one columnar Trace of (steps, width) arrays, with width d
for the diagonal stepper and 1 for the scalar one. The GradaGrad steppers
take it as step(g, trace) and fill the row of step k in place (a whole run,
or a ring of steps through drive); untraced steps do no trace work.
r = t^2 - 1 is exact (libm pow) wherever it is read: on every negative
coordinate of a traced step, and where the clip can bind on an untraced
one (_gradagrad_update gives the slack argument).

All state is double precision; numerators much below 1e-6 lose adaptivity
in single precision.
"""

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

# branch codes of Trace.branch, and their names indexed by code
BRANCH_INIT, BRANCH_CAPPED, BRANCH_POSITIVE, BRANCH_NEGATIVE = range(4)
BRANCHES = ("init", "capped", "positive", "negative")


@dataclass
class HyperParams:
    """Tunables shared by the GradaGrad steppers; all finite, but d_inf may be +inf.

    gamma0   initial step-size numerator, > 0
    rho      adaptivity constant weighting the consecutive-gradient inner
             product, >= 0; 2.0 is the recommended default
    beta     classical momentum in [0, 1), diagonal variant only
    g_inf    element-wise gradient bound; g_inf^2 seeds the accumulator at
             step 0 in theory mode
    d_inf    cap on gamma (diagonal variant); the default 1e10 is
             effectively uncapped for practical use
    r_fixed  fixed clip parameter for the scalar variant (default 1.0, a
             plain tunable with no principled value); None opts into the
             adaptive clip. The diagonal variant always clips adaptively.
    mode     "theory" seeds alpha with g_inf^2 at step 0; "practical" uses
             the observed first gradient instead
    """

    gamma0: float = 1.0
    rho: float = 2.0
    beta: float = 0.0
    g_inf: float = 1.0
    d_inf: float = 1e10
    r_fixed: float | None = 1.0
    mode: str = "practical"

    def __post_init__(self):
        for name in ("gamma0", "rho", "beta", "g_inf", "d_inf", "r_fixed"):
            value = getattr(self, name)  # NaN passes every comparison below, so reject it first
            if value is not None and not (math.isfinite(value) or (name == "d_inf" and value == math.inf)):
                raise ValueError(f"{name} must be finite{' (or +inf)' if name == 'd_inf' else ''}, got {value}")
        if self.gamma0 <= 0:
            raise ValueError(f"gamma0 must be positive, got {self.gamma0}")
        if self.rho < 0:
            raise ValueError(f"rho must be nonnegative, got {self.rho}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if self.g_inf <= 0:
            raise ValueError(f"g_inf must be positive, got {self.g_inf}")
        if self.d_inf <= 0:
            raise ValueError(f"d_inf must be positive, got {self.d_inf}")
        if self.r_fixed is not None and self.r_fixed < 0:
            raise ValueError(f"r_fixed must be nonnegative, got {self.r_fixed}")
        if self.mode not in ("theory", "practical"):
            raise ValueError(f"mode must be 'theory' or 'practical', got {self.mode!r}")
        if self.mode == "theory" and self.gamma0 > self.d_inf:
            # gamma only grows, so a cap below the start would never be reachable
            raise ValueError(
                f"theory mode needs gamma0 <= d_inf, got {self.gamma0} > {self.d_inf}"
            )


@dataclass
class Domain:
    """Feasible set: unconstrained (default) or an axis-aligned box."""

    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        if (self.lower is None) != (self.upper is None):
            raise ValueError("box domain needs both lower and upper bounds")
        if self.lower is not None:
            self.lower = np.asarray(self.lower, dtype=float)
            self.upper = np.asarray(self.upper, dtype=float)
            if self.lower.shape != self.upper.shape:
                raise ValueError("box bounds must have matching shapes")
            if not np.all(self.lower < self.upper):
                raise ValueError("box bounds must satisfy lower < upper element-wise")

    @property
    def kind(self) -> str:
        return "unconstrained" if self.lower is None else "box"

    @classmethod
    def box(cls, lower, upper) -> "Domain":
        return cls(lower=lower, upper=upper)


# the float columns of a Trace, in trace CSV order
FLOAT_COLUMNS = ("g", "v_raw", "v_clipped", "r", "gamma_after", "alpha_after", "a_after")


@dataclass(eq=False)
class Trace:
    """Per-step, per-coordinate record of a run, one array per column.

    Every column has one row per step: k is (steps,), and the others are
    (steps, width), with branch holding int8 codes (names in BRANCHES).
    trace[t] is a row view and trace[t:] a sub-trace; both slice every
    column, so iteration yields row views. The scalar variant is 1 wide,
    and its g column holds the gradient norm, the whole-vector analogue of
    a coordinate entry; only g^2 and v enter the checks, so the formulas
    coincide. r is NaN where no clip happened.
    """

    k: np.ndarray
    g: np.ndarray
    v_raw: np.ndarray
    v_clipped: np.ndarray
    branch: np.ndarray
    r: np.ndarray
    gamma_after: np.ndarray
    alpha_after: np.ndarray
    a_after: np.ndarray

    @classmethod
    def empty(cls, steps: int, width: int) -> "Trace":
        """A trace of `steps` rows for a stepper to fill, k = 0, 1, 2, ..."""
        cols = {name: np.full((steps, width), math.nan) for name in FLOAT_COLUMNS}
        return cls(k=np.arange(steps), branch=np.zeros((steps, width), dtype=np.int8), **cols)

    def __len__(self) -> int:
        return len(self.k)

    def __getitem__(self, index) -> "Trace":
        return Trace(**{f.name: getattr(self, f.name)[index] for f in fields(self)})

    def record(self, k: int, **columns):
        """Write the named columns of step k, at row k - self.k[0]."""
        row = k - self.k[0]
        for name, value in columns.items():
            getattr(self, name)[row] = value


def project(point, domain: Domain) -> np.ndarray:
    """Euclidean projection onto the domain (identity, or box clamp)."""
    p = np.asarray(point, dtype=float)
    if domain.kind == "unconstrained":
        return p
    if p.shape != domain.lower.shape:
        raise ValueError(f"dimension mismatch: point {p.shape}, box {domain.lower.shape}")
    return np.clip(p, domain.lower, domain.upper)


def _t_squared(t, alpha, v):
    """t^2, rounded as libm pow rounds it where the clip at -(t^2 - 1) * alpha
    can bind on v (see _gradagrad_update)."""
    sq = t * t
    j = (~((1.0 - sq * (1.0 - 2.0**-30)) * alpha < v)).nonzero()[0]
    if j.size:
        sq[j] = np.float_power(t.take(j), 2.0)
    return sq


def _gradagrad_update(v, t_at, gamma, alpha, r_fixed, d_inf, traced):
    """Apply the GradaGrad accumulator update to every gamma/alpha pair.

    Where v >= 0 (or NaN), alpha += v. Where v < 0, v is clipped at
    -r * alpha with r = r_fixed, or r = t^2 - 1 when r_fixed is None (the
    largest r for which the per-step gradient error stays nonpositive), and
    absorbed as gamma = min(gamma * sqrt(1 - v / alpha), d_inf); alpha
    stays, and the step size gamma / sqrt(alpha) is that of the implied
    accumulator alpha - v. d_inf is a column like gamma, a 0-d array that
    caps every entry, or None for no cap.
    gamma and alpha are updated in place; t_at(i) gives t at the indices i
    where v < 0. Returns (v_clipped, r), r NaN where v >= 0, if traced, else
    (None, None).

    Two rounding rules keep runs bit-identical to tests/reference_core.py,
    and seeded CSVs stable. Callers compute t, since rho*m/g and rho*g*m/g^2
    round differently. And r is exact (libm pow) wherever it is read:
    float_power calls pow as `**` does on scalars, while t*t, t**2 and
    np.square on arrays multiply and differ from it by up to 1 ulp (1 draw
    in 1000). A trace reads r on every v < 0. An untraced step reads it only
    through the clip, and takes pow only where, with sq = t*t, the test
    (1 - sq * (1 - 2^-30)) * alpha < v fails, as it does for NaN t and
    alpha = 0. Where it passes, both clips leave v: pow(t, 2) and sq are
    each at least sq * (1 - 2^-30) as rounded (they are at most 1 ulp
    apart), and rounding is monotone, so each bound -(t^2 - 1) * alpha, as
    rounded, lies at or below the test's left side, subnormal and infinite
    values included.
    """
    i = (v < 0).nonzero()[0]
    inc = np.maximum(v, 0.0)
    v_clip, r = (v.copy(), np.full(v.shape, math.nan)) if traced else (None, None)
    if i.size:
        alpha_i, v_i = alpha.take(i), v.take(i)  # take: faster than [i]
        r_i = r_fixed if r_fixed is not None else (
            np.float_power(t_at(i), 2.0) if traced else _t_squared(t_at(i), alpha_i, v_i)) - 1.0
        v_clip_i = np.maximum(v_i, -r_i * alpha_i)
        gamma_i = gamma.take(i) * np.sqrt(1.0 - v_clip_i / alpha_i)
        gamma[i] = gamma_i if d_inf is None else np.minimum(gamma_i, d_inf.take(i) if d_inf.ndim else d_inf)
        inc[i] = np.maximum(v_clip_i, 0.0)  # 0 unless the adaptive r is negative
        if traced:
            v_clip[i], r[i] = v_clip_i, r_i
    alpha += inc
    return v_clip, r


def _step_sizes(gamma, alpha, with_a):
    """(gamma / sqrt(alpha), sqrt(alpha) / gamma if with_a else None, live),
    both 0 where alpha is not positive (an entry that has accumulated nothing
    takes a zero step), with live that mask alpha > 0, or None if all are."""
    root = np.sqrt(alpha)
    if alpha.min(initial=math.inf) > 0:  # NaN fails
        return gamma / root, root / gamma if with_a else None, None
    live = alpha > 0
    return (np.divide(gamma, root, out=np.zeros(alpha.shape), where=live),
            np.divide(root, gamma, out=np.zeros(alpha.shape), where=live) if with_a else None, live)


# ---------------------------------------------------------------------------
# steppers
# ---------------------------------------------------------------------------

class NonFiniteGradient(ValueError):
    """A gradient entry is NaN or infinite, as when a run diverges."""


class Optimizer:
    """Base single-step optimizer: owns the iterate, the step counter, and
    the running average over all iterates (x0 included).

    x0 is one (d,) start point, or an (R, d) stack of R replicas that step
    in lockstep. Either way x is one flat (R*d,) vector, and dim is R*d.
    """

    def __init__(self, x0):
        x = np.atleast_1d(np.asarray(x0, dtype=float))
        if x.ndim > 2 or x.ndim == 2 and len(x) == 0:
            raise ValueError(f"x0 must be a (d,) point or an (R, d) stack with R >= 1, got shape {x.shape}")
        self.replicas = 1 if x.ndim == 1 else x.shape[0]
        self.x = x.flatten()
        self.k = 0
        self._x_sum = self.x.copy()

    @property
    def dim(self) -> int:
        return self.x.size

    def step(self, g):
        raise NotImplementedError

    def averaged_iterate(self) -> np.ndarray:
        """Arithmetic mean of x0 ... x_k; requires at least one step."""
        if self.k == 0:
            raise ValueError("no steps taken yet")
        return self._x_sum / (self.k + 1)

    def stats(self) -> dict:
        """Step-size statistics for run records, read from the gamma, alpha
        and ainv state of the adaptive steppers; ainv_mean is None until some
        alpha > 0. With R > 1 replicas they pool all of them. SGD and Adam
        override this with their own keys."""
        return {
            "gamma_mean": float(np.mean(self.gamma)),
            "gamma_max": float(np.max(self.gamma)),
            "alpha_mean": float(np.mean(self.alpha)),
            "alpha_max": float(np.max(self.alpha)),
            "ainv_mean": float(np.mean(self.ainv)) if np.any(self.alpha > 0) else None,
        }

    def _check_grad(self, g) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        if g.shape != self.x.shape:
            raise ValueError(f"gradient shape {g.shape} does not match iterate {self.x.shape}")
        if np.count_nonzero(np.isfinite(g)) < g.size:  # faster than .all()
            j = (~np.isfinite(g)).nonzero()[0][0]
            replica, entry = divmod(int(j), self.dim // self.replicas)
            where = f"entry {entry}" if self.replicas == 1 else f"entry {entry} of replica {replica}"
            raise NonFiniteGradient(f"step {self.k}: gradient {where} is {g[j]}; gradients must be finite")
        return g

    def _per_replica(self, name: str, value) -> np.ndarray:
        """A rate shared by every replica, or a sequence of one per replica,
        as an (R,) array; each must be positive and finite."""
        values = list(value) if np.ndim(value) else [value] * self.replicas
        if len(values) != self.replicas:
            raise ValueError(f"{name} needs one value per replica ({self.replicas}), got {len(values)}")
        for v in values:
            if not 0 < v < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {v}")
        return np.array(values, dtype=float)

    def _column(self, values) -> np.ndarray:
        """(R,) per-replica values, each repeated over its replica's entries of x."""
        return np.asarray(values).repeat(self.dim // self.replicas)

    def _shared(self, values: np.ndarray) -> np.ndarray:
        """(R,) per-replica float hyperparameters: one 0-d array if all are
        the same bits (-0.0 is not 0.0), else their _column."""
        return np.array(values[0]) if len({v.hex() for v in values.tolist()}) == 1 else self._column(values)

    def _commit(self, x_new: np.ndarray):
        self.x = x_new
        self.k += 1
        self._x_sum += x_new


def _replica_params(params: HyperParams | Sequence[HyperParams], replicas: int) -> list[HyperParams]:
    """One HyperParams per replica, from one shared by all or a sequence of
    one per replica; the replicas must share mode and r_fixed."""
    if isinstance(params, HyperParams):
        return [params] * replicas
    params = list(params)
    if len(params) != replicas:
        raise ValueError(f"params needs one HyperParams per replica ({replicas}), got {len(params)}")
    if len({(p.mode, p.r_fixed) for p in params}) > 1:
        raise ValueError("replicas must share mode and r_fixed")
    return params


class ScalarGradaGrad(Optimizer):
    """Scalar-step-size GradaGrad: one gamma/alpha pair for the whole vector.

        v = ||g||^2 - rho * <g, g_prev>
        v >= 0:  alpha += v
        v <  0:  v = max(v, -r * alpha);  gamma *= sqrt(1 - v / alpha)
        x <- x - (gamma / sqrt(alpha)) * g

    This is the GradaGrad kernel on a length-1 gamma/alpha pair (length R
    for R replicas, one pair each), with no cap (d_inf = inf) and no init
    branch. r is params.r_fixed, or t^2 - 1 with t = rho * <g, g_prev> /
    ||g||^2 when r_fixed is None: ||g||^2 and <g, g_prev> play the roles of
    g_i^2 and g_i * m_prev_i. A zero gradient before anything has
    accumulated leaves the state untouched (zero-step rule).
    """

    def __init__(self, x0, params: HyperParams | Sequence[HyperParams] | None = None):
        super().__init__(x0)
        self.params = params if params is not None else HyperParams()
        each = _replica_params(self.params, self.replicas)
        self._rho = np.array([p.rho for p in each])
        self._r_fixed = each[0].r_fixed
        self.gamma = np.array([p.gamma0 for p in each], dtype=float)
        self.alpha = np.zeros(self.replicas)
        self.ainv = np.zeros(self.replicas)
        self.g_prev = np.zeros_like(self.x)

    def step(self, g, trace: Trace | None = None) -> None:
        g = self._check_grad(g)
        # stacked (1, d) @ (d, 1) matmuls round as each replica's row @ row; einsum does not
        rows = g.reshape(self.replicas, 1, -1)
        gsq = (rows @ g.reshape(self.replicas, -1, 1))[:, 0, 0]
        cross = (rows @ self.g_prev.reshape(self.replicas, -1, 1))[:, 0, 0]
        rho_cross = self._rho * cross
        v = gsq - rho_cross
        v_clip, r = _gradagrad_update(v, lambda i: rho_cross.take(i) / gsq.take(i), self.gamma, self.alpha,
                                      self._r_fixed, None, trace is not None)
        self.ainv, a, live = _step_sizes(self.gamma, self.alpha, trace is not None)
        x_new = self.x - self._column(self.ainv) * g
        if live is not None:
            # where alpha is 0, x stays: x - 0 * g would turn an x of -0.0 into +0.0 where g is -0.0 or below
            x_new = np.where(self._column(live), x_new, self.x)
        if trace is not None:
            trace.record(  # g: the norm, as np.linalg.norm takes it
                self.k, g=np.sqrt(gsq), v_raw=v, v_clipped=v_clip,
                branch=np.where(v < 0, BRANCH_NEGATIVE, BRANCH_POSITIVE), r=r,
                gamma_after=self.gamma, alpha_after=self.alpha, a_after=a,
            )
        self.g_prev = g.copy()
        self._commit(x_new)


class GradaGrad(Optimizer):
    """Diagonal GradaGrad with momentum and projection.

    Per coordinate i at step k, the increment is

        k == 0            -> v = g_inf^2 (theory mode) or g_i^2
        gamma_i >= d_inf  -> v = g_i^2   (cap reached: plain accumulation)
        otherwise         -> v = g_i^2 - rho * g_i * m_prev_i

    and the GradaGrad kernel applies it to all coordinates at once:

        v >= 0:  alpha_i += v
        v <  0:  v = max(v, -r * alpha_i), r = (rho * m_prev_i / g_i)^2 - 1
                 gamma_i = min(gamma_i * sqrt(1 - v / alpha_i), d_inf)

    Then, with A = sqrt(alpha) / gamma element-wise:

        z <- proj(z - g / A);  x <- beta * x + (1 - beta) * z
        m <- A * (x_old - x)

    m feeds the next step's v. With beta = 0 on an unconstrained domain,
    z tracks x exactly and m equals g. With R replicas, params may hold one
    HyperParams per replica, and a box domain bounds each replica's d
    coordinates.
    """

    def __init__(self, x0, params: HyperParams | Sequence[HyperParams] | None = None,
                 domain: Domain | None = None):
        super().__init__(x0)
        self.params = params if params is not None else HyperParams()
        self.domain = domain if domain is not None else Domain()
        self._domain = self.domain
        if self.domain.kind == "box":
            if self.domain.lower.shape != (self.dim // self.replicas,):
                raise ValueError("domain bounds must match the iterate dimension")
            self._domain = Domain.box(np.tile(self.domain.lower, self.replicas),
                                      np.tile(self.domain.upper, self.replicas))
        each = _replica_params(self.params, self.replicas)

        def values(name):
            return np.array([getattr(p, name) for p in each], dtype=float)

        rho, self._beta, self._d_inf = map(self._shared, (values("rho"), values("beta"), values("d_inf")))
        self._rho, self._rho_at = rho, rho.take if rho.ndim else lambda i: rho  # rho at indices i (not via self: a cycle)
        self._z_weight = self._shared(1.0 - values("beta"))  # of z in x <- beta * x + (1 - beta) * z
        self._v_init = np.float_power(self._column(values("g_inf")), 2.0) if each[0].mode == "theory" else None  # libm pow, as g_inf ** 2 rounds
        self.z = self.x.copy()
        self.m_prev = np.zeros_like(self.x)
        self.gamma = self._column(values("gamma0"))
        self.alpha = np.zeros(self.dim, dtype=float)
        self.ainv = np.zeros(self.dim, dtype=float)

    def step(self, g, trace: Trace | None = None) -> None:
        g = self._check_grad(g)
        k = self.k
        gsq = g * g
        if k == 0:
            v_raw = self._v_init if self._v_init is not None else gsq
        else:
            capped = self.gamma >= self._d_inf  # not ==: min() meets the cap up to rounding
            v_raw = gsq - self._rho * g * self.m_prev
            if capped.any():
                v_raw = np.where(capped, gsq, v_raw)
        v_clip, r = _gradagrad_update(v_raw, lambda i: self._rho_at(i) * self.m_prev.take(i) / g.take(i),
                                      self.gamma, self.alpha, None, self._d_inf, trace is not None)
        self.ainv, a, _ = _step_sizes(self.gamma, self.alpha, True)

        z_new = project(self.z - self.ainv * g, self._domain)
        x_new = self._beta * self.x + self._z_weight * z_new
        m = a * (self.x - x_new)

        if trace is not None:
            trace.record(
                k, g=g, v_raw=v_raw, v_clipped=v_clip,
                branch=BRANCH_INIT if k == 0 else BRANCH_POSITIVE + (v_raw < 0) - capped, r=r,
                gamma_after=self.gamma, alpha_after=self.alpha, a_after=a,
            )
        self.z = z_new
        self.m_prev = m
        self._commit(x_new)


class AdaGrad(Optimizer):
    """Diagonal AdaGrad: x_i -= gamma / sqrt(alpha_i) * g_i, with alpha_i =
    sum_t g_{i,t}^2 (GradaGrad's accumulator at rho = 0).

    No epsilon is added to the denominator; coordinates whose accumulated
    sum is zero take a zero step instead. gamma is one number, or one per
    replica; self.gamma holds the (R,) values.
    """

    def __init__(self, x0, gamma: float | Sequence[float] = 1.0):
        super().__init__(x0)
        self.gamma = self._per_replica("gamma", gamma)
        self._gamma = self._shared(self.gamma)
        self.alpha = np.zeros(self.dim, dtype=float)
        self.ainv = np.zeros(self.dim, dtype=float)

    def step(self, g) -> None:
        g = self._check_grad(g)
        self.alpha += g * g
        self.ainv = _step_sizes(self._gamma, self.alpha, False)[0]
        self._commit(self.x - self.ainv * g)


class SGD(Optimizer):
    """Plain stochastic gradient descent with a constant step size, one
    number or one per replica; self.lr holds the (R,) values."""

    def __init__(self, x0, lr: float | Sequence[float] = 0.01):
        super().__init__(x0)
        self.lr = self._per_replica("lr", lr)
        self._lr = self._shared(self.lr)

    def step(self, g) -> None:
        g = self._check_grad(g)
        self._commit(self.x - self._lr * g)

    def stats(self) -> dict:
        return {"ainv_mean": float(np.mean(self.lr))}


class Adam(Optimizer):
    """Adam with bias-corrected first and second moments; lr is one number
    or one per replica (self.lr holds the (R,) values), the betas and eps
    are shared."""

    def __init__(self, x0, lr: float | Sequence[float] = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        super().__init__(x0)
        self.lr = self._per_replica("lr", lr)
        self._lr = self._shared(self.lr)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got ({beta1}, {beta2})")
        if not 0 < eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {eps}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.m = np.zeros(self.dim, dtype=float)
        self.v = np.zeros(self.dim, dtype=float)

    def step(self, g) -> None:
        g = self._check_grad(g)
        t = self.k + 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * g * g
        m_hat = self.m / (1.0 - self.beta1 ** t)
        v_hat = self.v / (1.0 - self.beta2 ** t)
        self._commit(self.x - self._lr * m_hat / (np.sqrt(v_hat) + self.eps))

    def stats(self) -> dict:
        if self.k == 0:
            return {"ainv_mean": None}
        v_hat = self.v / (1.0 - self.beta2 ** self.k)
        return {"ainv_mean": float(np.mean(self._lr / (np.sqrt(v_hat) + self.eps)))}


def drive(opt: Optimizer, grad, steps: int, on_eval=None, eval_every: int = 1,
          trace: Trace | None = None, on_trace=None) -> float:
    """Step opt `steps` times on grad, which maps the flat iterate opt.x to
    the flat gradient, and call on_eval(k) after k of these steps at k = 0,
    every eval_every steps and the last step. Fill trace if given (only the
    GradaGrad steppers take one), its k first moved to start at opt.k; with
    on_trace, trace is a ring whose filled rows go to on_trace when it is
    full and after the last step, its k then moved on by len(trace).
    on_trace is a sink of a trace's chunks: a function called with each
    chunk of whole steps in order, whose return value drive ignores. Returns
    the wall seconds of the steps and of the evaluations after k = 0,
    without on_trace's."""
    if eval_every < 1:
        raise ValueError(f"eval_every must be >= 1, got {eval_every}")
    if trace is not None:
        if not isinstance(opt, (GradaGrad, ScalarGradaGrad)):
            raise ValueError(f"{type(opt).__name__} fills no trace; GradaGrad and ScalarGradaGrad do")
        if len(trace) < (steps if on_trace is None else min(steps, 1)):
            kind = "trace" if on_trace is None else "trace ring"
            raise ValueError(f"a {kind} of {len(trace)} rows is too short for {steps} steps")
        trace.k = np.arange(opt.k, opt.k + len(trace))
    elif on_trace is not None:
        raise ValueError("on_trace needs a trace ring to fill")
    trace_arg = () if trace is None else (trace,)
    on_eval = on_eval or (lambda k: None)
    on_eval(0)
    t0 = time.perf_counter()
    for k in range(1, steps + 1):
        opt.step(grad(opt.x), *trace_arg)
        if on_trace is not None and (k % len(trace) == 0 or k == steps):
            t = time.perf_counter()
            on_trace(trace[:(k - 1) % len(trace) + 1])
            trace.k += len(trace)
            t0 += time.perf_counter() - t
        if k % eval_every == 0 or k == steps:
            on_eval(k)
    return time.perf_counter() - t0
