"""R replicas stepped in lockstep as one flat (R*d,) state.

Each stepper and oracle must treat every replica exactly as it would treat
it alone: the stacked state, trace and gradients are compared bit for bit
with R separate single-replica runs.
"""

import math

import numpy as np
import pytest

from conftest import BITS, BLOBS
from gradagrad import (SGD, AbsValue, Adam, AdaGrad, Domain, GradaGrad, HyperParams, LogisticRegression,
                       Quadratic, ScalarGradaGrad, Trace, load_dataset, normalize_labels)

R, D, STEPS = 4, 3, 80
STATE = ("x", "_x_sum", "k", "gamma", "alpha", "ainv", "lr", "z", "m_prev", "g_prev", "m", "v")


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def gradient_stream(seed, width):
    """Drifting gradients, so the negative branch fires, with exact zeros
    (a whole zero first step for replica 0) and occasional spikes."""
    rng = np.random.default_rng(seed)
    grads = rng.normal(0.6, 0.8, (STEPS, R, width))
    grads[rng.random((STEPS, R, width)) < 0.1] = 0.0
    grads[0, 0] = 0.0
    grads[rng.random((STEPS, R, width)) < 0.02] *= 50.0
    return grads


def stepper_cases():
    gg = [HyperParams(gamma0=g0, rho=rho, beta=beta, d_inf=d_inf, g_inf=g_inf, mode=mode)
          for mode in ("practical", "theory")
          for g0, rho, beta, d_inf, g_inf in ((1.0, 2.0, 0.0, 1e10, 1.0), (0.5, 1.0, 0.6, 1.2, 3.0),
                                              (2.0, 3.3, 0.3, 2.5, 0.5), (1.0, 0.0, 0.0, 1e10, 2.0))]
    # rho and beta shared, d_inf per replica: 0-d and repeated columns meet in one step
    mixed = [HyperParams(gamma0=g0, rho=1.5, beta=0.4, d_inf=d_inf) for g0, d_inf in ((1.0, 1e10), (0.5, 1.2), (2.0, 2.5), (1.0, 1.1))]
    box = Domain.box(-np.ones(D), 2 * np.ones(D))
    scalar = [[HyperParams(gamma0=g0, rho=rho, r_fixed=r) for g0, rho in ((1.0, 2.0), (0.3, 1.0), (2.0, 3.3), (1.0, 0.0))]
              for r in (1.0, None, 0.25)]
    return {
        "gradagrad-practical": (lambda x0, i: GradaGrad(x0, gg[:R] if i is None else gg[i]), True),
        "gradagrad-theory": (lambda x0, i: GradaGrad(x0, gg[R:] if i is None else gg[R + i]), True),
        "gradagrad-box": (lambda x0, i: GradaGrad(x0, gg[:R] if i is None else gg[i], box), True),
        "gradagrad-mixed": (lambda x0, i: GradaGrad(x0, mixed if i is None else mixed[i]), True),
        **{f"scalar-r{n}": (lambda x0, i, p=p: ScalarGradaGrad(x0, p if i is None else p[i]), True)
           for n, p in enumerate(scalar)},
        "adagrad": (lambda x0, i: AdaGrad(x0, gamma=[0.1, 1.0, 3.0, 0.5] if i is None else [0.1, 1.0, 3.0, 0.5][i]), False),
        "sgd": (lambda x0, i: SGD(x0, lr=[0.1, 0.01, 0.3, 0.05] if i is None else [0.1, 0.01, 0.3, 0.05][i]), False),
        "adam": (lambda x0, i: Adam(x0, lr=[0.1, 0.01, 0.3, 0.05] if i is None else [0.1, 0.01, 0.3, 0.05][i]), False),
    }


CASES = stepper_cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stacked_steppers_match_separate_runs(name):
    make, traced = CASES[name]
    x0 = np.random.default_rng(1).normal(0.5, 1.0, (R, D))
    stacked = make(x0, None)
    alone = [make(x0[i], i) for i in range(R)]
    assert stacked.replicas == R and stacked.x.shape == (R * D,)
    trace_arg = ()
    if traced:
        width = stacked.gamma.size // R
        trace_arg = (Trace.empty(STEPS, R * width),)
        traces = [Trace.empty(STEPS, width) for _ in range(R)]
    for k, g in enumerate(gradient_stream(2, D)):
        stacked.step(g.ravel(), *trace_arg)
        for i, opt in enumerate(alone):
            opt.step(g[i], *((traces[i],) if traced else ()))
        for attr in STATE:
            if hasattr(stacked, attr):
                got = np.reshape(getattr(stacked, attr), (R, -1)) if attr != "k" else [stacked.k] * R
                for i, opt in enumerate(alone):
                    np.testing.assert_array_equal(bits(got[i]), bits(getattr(opt, attr)), err_msg=f"{attr} {i} k={k}")
    if traced:
        np.testing.assert_array_equal(trace_arg[0].k, traces[0].k)
        np.testing.assert_array_equal(trace_arg[0].branch, np.concatenate([t.branch for t in traces], axis=1))
        for col in ("g", "v_raw", "v_clipped", "r", "gamma_after", "alpha_after", "a_after"):
            np.testing.assert_array_equal(
                bits(getattr(trace_arg[0], col)), bits(np.concatenate([getattr(t, col) for t in traces], axis=1)))
        # the run exercised every branch the stepper has
        codes = set(np.unique(trace_arg[0].branch).tolist())
        assert codes == ({2, 3} if name.startswith("scalar") else {0, 1, 2, 3})


def test_binding_cap_fires_in_a_stacked_run():
    params = [HyperParams(gamma0=1.0, d_inf=d) for d in (1.05, 1e10)]
    opt = GradaGrad(np.zeros((2, D)), params)
    trace = Trace.empty(STEPS, 2 * D)
    for g in gradient_stream(3, D)[:, :2]:
        opt.step(g.ravel(), trace)
    capped = trace.branch == 1
    assert capped[:, :D].any() and not capped[:, D:].any()
    assert opt.gamma[:D].max() <= 1.05


def test_r1_stack_equals_a_plain_point():
    a, b = GradaGrad(np.ones((1, D))), GradaGrad(np.ones(D))
    for g in gradient_stream(4, D)[:, 0]:
        a.step(g)
        b.step(g)
    assert a.replicas == b.replicas == 1
    np.testing.assert_array_equal(bits(a.x), bits(b.x))


class TestValidation:
    @pytest.mark.parametrize("make,message", [
        (lambda: AdaGrad(np.zeros((2, D)), gamma=[1.0, 0.0]), "gamma must be positive and finite, got 0.0"),
        (lambda: SGD(np.zeros((3, D)), lr=[1.0, math.nan, -1.0]), "lr must be positive and finite, got nan"),
        (lambda: Adam(np.zeros((2, D)), lr=[math.inf, 1.0]), "lr must be positive and finite, got inf"),
        (lambda: AdaGrad(np.zeros((2, D)), gamma=[1.0, 2.0, 3.0]), r"one value per replica \(2\), got 3"),
        (lambda: GradaGrad(np.zeros((2, D)), [HyperParams()]), r"one HyperParams per replica \(2\), got 1"),
        (lambda: GradaGrad(np.zeros((2, D)), [HyperParams(), HyperParams(mode="theory")]), "share mode"),
        (lambda: ScalarGradaGrad(np.zeros((2, D)), [HyperParams(), HyperParams(r_fixed=None)]), "r_fixed"),
        (lambda: GradaGrad(np.zeros((2, D)), domain=Domain.box(-np.ones(D + 1), np.ones(D + 1))), "dimension"),
        (lambda: SGD(np.zeros((2, 2, D))), "stack"),
        (lambda: SGD(np.zeros((0, D))), "stack"),
    ])
    def test_rejects(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_flat_gradient_required(self):
        opt = AdaGrad(np.zeros((2, D)))
        with pytest.raises(ValueError, match="does not match"):
            opt.step(np.ones((2, D)))

    def test_shared_rate_broadcasts(self):
        opt = SGD(np.zeros((3, D)), lr=0.5)
        np.testing.assert_array_equal(opt.lr, [0.5, 0.5, 0.5])


def _problems():
    rng = np.random.default_rng(5)
    return {
        "abs": AbsValue(D),
        "quadratic": Quadratic([1.0, 0.3, 2.0], noise_std=0.7),
        "bits": LogisticRegression(normalize_labels(load_dataset(BITS)), batch_size=64),
        "blobs": LogisticRegression(normalize_labels(load_dataset(BLOBS)), batch_size=17),
        "wide-noiseless": Quadratic(rng.uniform(0.5, 2.0, 37)),
    }


@pytest.mark.parametrize("name", ["abs", "quadratic", "bits", "blobs", "wide-noiseless"])
def test_stacked_oracle_matches_each_replica(name):
    problem = _problems()[name]
    rng = np.random.default_rng(6)
    W = rng.normal(0.0, 1.0, (R, problem.dim)) * np.array([[1e-3], [1.0], [30.0], [0.0]])
    stacked = [problem.init_state(s) for s in range(R)]
    alone = [problem.init_state(s) for s in range(R)]
    for _ in range(45):  # past an epoch end of both datasets, ragged batches included
        g = problem.grad_sample(W.ravel(), stacked)
        for i in range(R):
            np.testing.assert_array_equal(bits(g.reshape(R, -1)[i]), bits(problem.grad_sample(W[i], [alone[i]])))
    np.testing.assert_array_equal(bits(problem.loss_full(W)), bits([problem.loss_full(w) for w in W]))
    acc = problem.accuracy(W)
    if acc is None:
        assert problem.accuracy(W[0]) is None
    else:
        np.testing.assert_array_equal(bits(acc), bits([problem.accuracy(w) for w in W]))


@pytest.mark.parametrize("path", [BITS, BLOBS], ids=["bits", "blobs"])
def test_stacked_accuracy_fuzz(path):
    """accuracy reads each replica's margins from a stacked matmul; they must
    be exactly X @ w, or signs near 0 flip. Each replica is made orthogonal
    to one example, whose margin is then rounding noise around 0 (a single
    (R, d) @ (d, n) product flips about one such sign in ten)."""
    problem = LogisticRegression(normalize_labels(load_dataset(path)), batch_size=32)
    rng = np.random.default_rng(7)
    for _ in range(100):
        r = int(rng.integers(1, 20))
        W = rng.standard_normal((r, problem.dim)) * rng.choice([1e-8, 1e-3, 1.0, 30.0], size=(r, 1))
        rows = problem.X[rng.integers(0, problem.n, r)]
        W -= ((W * rows).sum(axis=1) / (rows * rows).sum(axis=1))[:, None] * rows
        np.testing.assert_array_equal(problem.accuracy(W), [problem.accuracy(w) for w in W])
