"""Differential test: both steppers against the frozen per-coordinate reference.

The corpus varies every input that changes how the kernel rounds: rho
values whose products are inexact (1.7, 3.3) next to exact ones (0, 1, 2),
theory and practical initialization, momentum, box projection, a binding
cap, zero gradient entries, and all three scalar clip settings. Scale jumps
in the gradient stream make the adaptive clip bind. Every value must match
bit for bit, NaN where the reference has NaN; branch codes must name the
reference's branch strings.
"""

import itertools
import math

import numpy as np
import pytest

from gradagrad import Domain, GradaGrad, HyperParams, ScalarGradaGrad
from conftest import branch_names, traced_run
from gradagrad.core import _gradagrad_update
from reference_core import ReferenceGradaGrad, ReferenceScalarGradaGrad

RHOS = (0.0, 1.0, 1.7, 2.0, 3.3)
TRACE_FIELDS = ("g", "v_raw", "v_clipped", "r", "gamma_after", "alpha_after", "a_after")
DIM = 6
STEPS = 120


def _gradients(seed, dim, steps):
    """Drifting gradients with zero entries, a whole zero step, and ramps.

    A ramp grows the gradient by 1.5-1.9x per step; that is when g^2
    outruns alpha and the adaptive clip binds.
    """
    rng = np.random.default_rng(seed)
    drift = rng.choice([-1.0, 1.0], dim) * rng.uniform(0.3, 1.5, dim)
    level, ramp = 1.0, 0
    out = []
    for k in range(steps):
        if ramp == 0 and rng.random() < 0.15:
            ramp = 5
        if ramp:
            level *= rng.uniform(1.5, 1.9)
            ramp -= 1
        g = level * rng.normal(drift, 0.3)
        g[rng.random(dim) < 0.15] = 0.0
        if k in (0, 7):
            g[: dim // 2] = 0.0
        if k == 40:
            g[:] = 0.0
        out.append(g)
    return out


def _assert_bit_identical(a, b, where):
    assert np.array_equal(a, b, equal_nan=True), where
    assert np.array_equal(np.signbit(a), np.signbit(b)), where  # 0.0 vs -0.0


def _assert_same_run(new, ref, new_trace, ref_traces):
    for tn, tr in zip(new_trace, ref_traces, strict=True):
        assert tn.k == tr.k
        assert branch_names(tn) == tr.branch, tn.k
        for field in TRACE_FIELDS:
            _assert_bit_identical(getattr(tn, field), getattr(tr, field), (tn.k, field))
    _assert_bit_identical(new.x, ref.x, "x")
    assert new.stats() == ref.stats()


DIAGONAL_CORPUS = list(itertools.product(
    RHOS, ("theory", "practical"), (0.0, 0.6), ("unconstrained", "box"), (3.0, 1e10)
))


@pytest.mark.parametrize("rho,mode,beta,domain,d_inf", DIAGONAL_CORPUS)
def test_diagonal_matches_reference(rho, mode, beta, domain, d_inf):
    seed = DIAGONAL_CORPUS.index((rho, mode, beta, domain, d_inf))
    params = HyperParams(gamma0=1.0, rho=rho, beta=beta, d_inf=d_inf, g_inf=1.3, mode=mode)
    box = Domain.box(-np.ones(DIM), np.ones(DIM)) if domain == "box" else None
    x0 = np.random.default_rng(seed).uniform(-0.9, 0.9, DIM)
    new, ref = GradaGrad(x0, params, box), ReferenceGradaGrad(x0, params, box)
    grads = _gradients(seed, DIM, STEPS)
    _assert_same_run(new, ref, traced_run(new, grads), [ref.step(g) for g in grads])
    for field in ("z", "m_prev", "gamma", "alpha"):
        _assert_bit_identical(getattr(new, field), getattr(ref, field), field)


SCALAR_CORPUS = list(itertools.product(RHOS, (1.0, None, 0.25)))


@pytest.mark.parametrize("rho,r_fixed", SCALAR_CORPUS)
def test_scalar_matches_reference(rho, r_fixed):
    seed = 1_000 + SCALAR_CORPUS.index((rho, r_fixed))
    params = HyperParams(gamma0=0.7, rho=rho, r_fixed=r_fixed)
    x0 = np.random.default_rng(seed).uniform(-0.9, 0.9, DIM)
    new, ref = ScalarGradaGrad(x0, params), ReferenceScalarGradaGrad(x0, params)
    grads = _gradients(seed, DIM, STEPS)
    _assert_same_run(new, ref, traced_run(new, grads), [ref.step(g) for g in grads])
    _assert_bit_identical(new.g_prev, ref.g_prev, "g_prev")
    assert (new.gamma[0], new.alpha[0]) == (ref.coord.gamma, ref.coord.alpha)


def test_corpus_exercises_every_branch_and_a_binding_clip():
    """The corpus is only a test if it reaches the cases that round."""
    seen = set()
    diagonal_binds = 0
    for rho, mode, beta, domain, d_inf in DIAGONAL_CORPUS:
        seed = DIAGONAL_CORPUS.index((rho, mode, beta, domain, d_inf))
        params = HyperParams(rho=rho, beta=beta, d_inf=d_inf, g_inf=1.3, mode=mode)
        opt = ReferenceGradaGrad(np.random.default_rng(seed).uniform(-0.9, 0.9, DIM), params)
        for g in _gradients(seed, DIM, STEPS):
            tr = opt.step(g)
            seen.update(tr.branch)
            diagonal_binds += int(np.sum(tr.v_clipped > tr.v_raw))
    scalar_binds = 0
    for rho, r_fixed in SCALAR_CORPUS:
        seed = 1_000 + SCALAR_CORPUS.index((rho, r_fixed))
        opt = ReferenceScalarGradaGrad(np.zeros(DIM), HyperParams(rho=rho, r_fixed=r_fixed))
        scalar_binds += sum(
            int(tr.v_clipped[0] > tr.v_raw[0]) for tr in map(opt.step, _gradients(seed, DIM, STEPS))
        )
    assert seen == {"init", "capped", "positive", "negative"}
    assert diagonal_binds > 500 and scalar_binds > 100, (diagonal_binds, scalar_binds)


def test_kernel_squares_t_like_scalar_pow():
    """r = t^2 - 1 must round like `t ** 2` on scalars, which calls libm pow.

    An array multiply differs in the last bit on about 1 in 1000 draws, too
    rarely for the run corpus above to be sure of catching it.
    """
    t = np.random.default_rng(7).uniform(1.0, 10.0, 200_000)
    v = -np.ones_like(t)
    _, r = _gradagrad_update(v, t.__getitem__, np.ones_like(t), np.ones_like(t), None, np.full_like(t, math.inf), True)
    np.testing.assert_array_equal(r, [x ** 2 - 1.0 for x in t.tolist()])
