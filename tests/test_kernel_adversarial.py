"""Adversarial inputs for the untraced clip test of the GradaGrad kernel.

An untraced step squares t with libm pow only where the clip
max(v, -(t^2 - 1) * alpha) can bind, and with t*t elsewhere
(core._t_squared). These cases sit where that test could pick wrongly:
t a few ulps above 1, where r = t^2 - 1 loses most of its bits; the draws
where pow(t, 2) and t*t differ; v one ulp either side of the binding
bound; alpha = 0 or inf; subnormal and overflowing products; and
t = +-inf or NaN. On each, the untraced clip, gamma and alpha must equal
the result of pow on every entry bit for bit.
"""

import math

import numpy as np

from gradagrad.core import _gradagrad_update, _t_squared


def _draws():
    """The 200k t draws of test_kernel_squares_t_like_scalar_pow."""
    return np.random.default_rng(7).uniform(1.0, 10.0, 200_000)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def _cases():
    """(t, alpha, v) arrays: every t against every alpha, with v one ulp
    below, at and one ulp above the clip bound -(pow(t, 2) - 1) * alpha,
    plus v = -1 and v = -1e-300."""
    draws = _draws()
    t = np.concatenate([
        1.0 + np.arange(64) * 2.0**-52,  # t = 1 + k ulp
        1.0 - np.arange(1, 9) * 2.0**-53,  # t just below 1: r < 0
        draws[np.float_power(draws, 2.0) != draws * draws],
        [1.5, -1.5, 3.0, 1e154, 1e200, math.inf, -math.inf, math.nan],
    ])
    alpha = np.array([1.0, 3.7e-5, 2.5e7, 2.0**-1000, 2.0**-1060, 1e300, math.inf, 0.0])
    t, alpha = (a.ravel() for a in np.meshgrid(t, alpha))
    with np.errstate(all="ignore"):
        bound = -(np.float_power(t, 2.0) - 1.0) * alpha
    v = np.concatenate([np.nextafter(bound, -math.inf), bound, np.nextafter(bound, math.inf),
                        np.full_like(t, -1.0), np.full_like(t, -1e-300)])
    return np.tile(t, 5), np.tile(alpha, 5), v


def test_pow_and_multiply_differ_by_at_most_one_ulp():
    """The assumption the slack rests on, over the draws where they differ."""
    t = _draws()
    exact, product = np.float_power(t, 2.0), t * t
    assert np.abs(_bits(exact) - _bits(product)).max() == 1
    assert np.count_nonzero(exact != product) > 50


def test_untraced_clip_equals_pow_everywhere():
    t, alpha, v = _cases()
    with np.errstate(all="ignore"):
        fast = np.maximum(v, -(_t_squared(t, alpha, v) - 1.0) * alpha)
        exact = np.maximum(v, -(np.float_power(t, 2.0) - 1.0) * alpha)
    np.testing.assert_array_equal(_bits(fast), _bits(exact))


def test_untraced_kernel_matches_traced_kernel():
    """gamma and alpha of an untraced update equal the traced (all-pow)
    update's, and so does the clip, on the negative entries; alpha grows by
    max(v_clipped, 0), which is positive where t < 1 makes r negative."""
    t, alpha, v = _cases()
    neg = v < 0
    gamma = np.random.default_rng(0).uniform(0.5, 2.0, t.size)
    d_inf = np.where(np.arange(t.size) % 3 == 0, 4.0, math.inf)
    (gamma_u, alpha_u), (gamma_t, alpha_t) = [(gamma.copy(), alpha.copy()) for _ in range(2)]
    with np.errstate(all="ignore"):
        untraced = _gradagrad_update(v, t.take, gamma_u, alpha_u, None, d_inf, False)
        v_clip, _ = _gradagrad_update(v, t.take, gamma_t, alpha_t, None, d_inf, True)
        fast = np.maximum(v, -(_t_squared(t, alpha, v) - 1.0) * alpha)
        grown = alpha + np.maximum(v_clip, 0.0)
    assert untraced == (None, None)
    np.testing.assert_array_equal(_bits(gamma_u), _bits(gamma_t))
    np.testing.assert_array_equal(_bits(alpha_u), _bits(alpha_t))
    np.testing.assert_array_equal(_bits(alpha_u), _bits(grown))
    np.testing.assert_array_equal(_bits(fast[neg]), _bits(v_clip[neg]))
    assert np.count_nonzero(v_clip[neg] > v[neg]) > 1000  # the clip binds on many cases
