"""Differential test of untraced steps against the frozen per-coordinate reference.

An untraced step skips the trace-only work (the r column, the v_clipped
copy, the step size a of the scalar stepper) and takes libm pow only where
the clip can bind, so it runs a path that the traced differential tests in
test_differential.py never reach. This steps the same corpus without a
trace and compares every piece of state bit for bit; the clip-can-bind
test decides every negative coordinate, binding clips included.
"""

import numpy as np
import pytest

from gradagrad import Domain, GradaGrad, HyperParams, ScalarGradaGrad
from reference_core import ReferenceGradaGrad, ReferenceScalarGradaGrad
from test_differential import DIAGONAL_CORPUS, DIM, SCALAR_CORPUS, STEPS, _assert_bit_identical, _gradients


@pytest.mark.parametrize("rho,mode,beta,domain,d_inf", DIAGONAL_CORPUS)
def test_untraced_diagonal_matches_reference(rho, mode, beta, domain, d_inf):
    seed = DIAGONAL_CORPUS.index((rho, mode, beta, domain, d_inf))
    params = HyperParams(gamma0=1.0, rho=rho, beta=beta, d_inf=d_inf, g_inf=1.3, mode=mode)
    box = Domain.box(-np.ones(DIM), np.ones(DIM)) if domain == "box" else None
    x0 = np.random.default_rng(seed).uniform(-0.9, 0.9, DIM)
    new, ref = GradaGrad(x0, params, box), ReferenceGradaGrad(x0, params, box)
    for g in _gradients(seed, DIM, STEPS):
        new.step(g)
        ref.step(g)
    for field in ("x", "z", "m_prev", "gamma", "alpha"):
        _assert_bit_identical(getattr(new, field), getattr(ref, field), field)
    assert new.stats() == ref.stats()


@pytest.mark.parametrize("rho,r_fixed", SCALAR_CORPUS)
def test_untraced_scalar_matches_reference(rho, r_fixed):
    seed = 1_000 + SCALAR_CORPUS.index((rho, r_fixed))
    params = HyperParams(gamma0=0.7, rho=rho, r_fixed=r_fixed)
    x0 = np.random.default_rng(seed).uniform(-0.9, 0.9, DIM)
    new, ref = ScalarGradaGrad(x0, params), ReferenceScalarGradaGrad(x0, params)
    for g in _gradients(seed, DIM, STEPS):
        new.step(g)
        ref.step(g)
    _assert_bit_identical(new.x, ref.x, "x")
    _assert_bit_identical(new.g_prev, ref.g_prev, "g_prev")
    _assert_bit_identical(new.gamma, np.array([ref.coord.gamma]), "gamma")
    _assert_bit_identical(new.alpha, np.array([ref.coord.alpha]), "alpha")
    assert new.stats() == ref.stats()


def test_untraced_scalar_zero_step_keeps_signed_zero():
    """Before anything accumulates, alpha is 0 and the scalar stepper leaves
    x as it is, -0.0 included, where x - 0 * g would give +0.0."""
    x0 = np.array([-0.0, 1.0])
    new, ref = ScalarGradaGrad(x0, HyperParams()), ReferenceScalarGradaGrad(x0, HyperParams())
    for k, g in enumerate(([-0.0, 0.0], [-0.0, 0.0], [-1.0, 0.5])):
        new.step(np.array(g))
        ref.step(np.array(g))
        _assert_bit_identical(new.x, ref.x, k)
        assert np.signbit(new.x[0]) == (k < 2), k
