"""Stacked forms against the per-replica loops of reference_replicas.py.

loss_full, the scalar stepper's dot products and the grid scores each take
one array expression over all R replicas. Only some such expressions round
as R separate computations do: a stacked matmul of (1, d) @ (d, 1) rows and
a last-axis reduction over contiguous rows do; np.einsum, the gemv
(x * x) @ diag and a mean down axis 0 do not. These fuzzes hold the
program's forms bit-equal to the loops over R = 1..11, d = 1..1e5, signed
zeros and magnitudes near 1e+-150.
"""

import numpy as np
import pytest

import reference_replicas as ref
from gradagrad import AbsValue, Dataset, HyperParams, LogisticRegression, Quadratic, ScalarGradaGrad, Trace, cli

# block and unroll edges of the reductions (8, 16, 128), up to 1e5
DIMS = (1, 2, 3, 7, 8, 9, 16, 17, 31, 100, 127, 129, 1000, 4097, 10_000, 100_000)


def bits(values) -> np.ndarray:
    """Values as int64 bit patterns: zero signs count."""
    return np.asarray(values, dtype=float).view(np.int64)


def stack(rng, r, d) -> np.ndarray:
    """An (r, d) stack whose rows have magnitudes from 1e-150 to 1e150 and
    entries spread over three decades below them, with +0 and -0 entries."""
    scale = 10.0 ** rng.choice([-150.0, -8.0, 0.0, 3.0, 150.0], size=(r, 1))
    x = rng.standard_normal((r, d)) * scale * 10.0 ** rng.uniform(-3.0, 0.0, (r, d))
    x[rng.random((r, d)) < 0.1] = 0.0
    x[rng.random((r, d)) < 0.1] = -0.0
    return x


def dense_logistic(rng, n, d) -> LogisticRegression:
    """A logistic problem over n random sparse examples of d features."""
    X = rng.standard_normal((n, d)) * (rng.random((n, d)) < rng.uniform(0.05, 1.0))
    rows, cols = np.nonzero(X)
    dataset = Dataset(labels=rng.choice([-1.0, 1.0], n), indptr=np.r_[0, np.cumsum(np.count_nonzero(X, axis=1))],
                      indices=cols + 1, values=X[rows, cols], dim=d)
    return LogisticRegression(dataset, batch_size=1)


@pytest.mark.parametrize("d", DIMS)
def test_abs_and_quadratic_losses(d):
    rng = np.random.default_rng(d)
    quadratic = Quadratic(10.0 ** rng.uniform(-1.0, 1.0, d))
    for r in range(1, 12):
        x = stack(rng, r, d)
        np.testing.assert_array_equal(bits(AbsValue(d).loss_full(x)), bits(ref.abs_loss(x)))
        np.testing.assert_array_equal(bits(quadratic.loss_full(x)), bits(ref.quadratic_loss(quadratic, x)))
    for one in (AbsValue(d).loss_full(x[0]), quadratic.loss_full(x[0])):
        assert type(one) is float  # run prints it with !r


@pytest.mark.parametrize("d", DIMS)
def test_logistic_loss(d):
    rng = np.random.default_rng([d, 1])
    problem = dense_logistic(rng, int(rng.integers(1, 40)) if d <= 1000 else 3, d)
    for r in range(1, 12):
        w = stack(rng, r, d)
        np.testing.assert_array_equal(bits(problem.loss_full(w)), bits(ref.logistic_loss(problem, w)))
    assert type(problem.loss_full(w[0])) is float and type(problem.accuracy(w[0])) is float


@pytest.mark.parametrize("d", DIMS)
def test_scalar_dot_products(d):
    """Step 0 has g_prev = 0, so v_raw = ||g||^2; step 1 steps on a slightly
    perturbed copy of g at rho = 1, so v_raw = ||g||^2 - <g, g_prev> is a
    small difference that shows an ulp of either product."""
    rng = np.random.default_rng([d, 2])
    for r in range(1, 12):
        g0 = stack(rng, r, d)
        grads = [g0.ravel(), (g0 * (1.0 + 1e-3 * rng.standard_normal((r, d)))).ravel()]
        opt = ScalarGradaGrad(np.zeros((r, d)), HyperParams(rho=1.0, r_fixed=None))
        trace = Trace.empty(2, r)
        g_prev = np.zeros(r * d)
        for k, g in enumerate(grads):
            opt.step(g, trace)
            gsq, cross, norm = ref.scalar_products(g, g_prev, r)
            np.testing.assert_array_equal(bits(trace.v_raw[k]), bits(gsq - cross))
            np.testing.assert_array_equal(bits(trace.g[k]), bits(norm))
            g_prev = g


def scores_sample(rng, shape) -> np.ndarray:
    """Accuracy-like fractions, or floats of any magnitude."""
    if rng.random() < 0.5:
        return rng.integers(0, 201, shape) / 200.0
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-150.0, 150.0, shape)


@pytest.mark.parametrize("n_evals", range(1, 14))
def test_replica_scores(n_evals):
    rng = np.random.default_rng(n_evals)
    for r in range(1, 12):
        for _ in range(10):
            evals = list(scores_sample(rng, (n_evals, r)))
            np.testing.assert_array_equal(bits(cli._selection_metric("accuracy", evals)),
                                          bits(ref.replica_scores(evals)))


@pytest.mark.parametrize("seeds", range(1, 12))
def test_value_scores(seeds, tmp_path, monkeypatch):
    """cmd_grid averages each value's seeds; its run is replaced by random evaluations."""
    rng = np.random.default_rng(seeds)
    out = tmp_path / "grid.csv"
    for n_values in range(1, 6):
        for kind in ("accuracy", "loss"):
            evals = list(scores_sample(rng, (int(rng.integers(1, 14)), n_values * seeds)))
            monkeypatch.setattr(cli, "_run_grid", lambda args, param, values: (None, kind, evals))
            assert cli.main(["grid", "--problem", "abs", "--steps", "1", "--seeds", str(seeds),
                             "--grid-values", ",".join(map(str, range(1, n_values + 1))), "--out", str(out)]) == 0
            with open(out, encoding="utf-8") as f:
                got = [float(line.split(",")[3]) for line in f.read().splitlines()[1:]]
            replica = ref.replica_scores(evals) if kind == "accuracy" else evals[-1].tolist()
            np.testing.assert_array_equal(bits(got), bits(ref.value_scores(replica, seeds)))
