import math

import numpy as np
import pytest

from conftest import BITS, BLOBS, csr_dataset
from gradagrad import (
    AbsValue,
    LogisticRegression,
    Quadratic,
    load_dataset,
    normalize_labels,
)
from reference_data import minibatch_iter


class TestAbsValue:
    @pytest.mark.parametrize("x,loss,grad", [(2.0, 2.0, 1.0), (0.0, 0.0, 0.0), (-3.0, 3.0, -1.0)])
    def test_pointwise(self, x, loss, grad):
        problem = AbsValue(1)
        assert problem.loss_full([x]) == loss
        np.testing.assert_array_equal(problem.grad_full([x]), [grad])

    def test_multidim_sum(self):
        problem = AbsValue(3)
        assert problem.loss_full([1.0, -2.0, 0.0]) == 3.0

    def test_deterministic_oracle(self):
        problem = AbsValue(2)
        rng = problem.init_state(0)
        np.testing.assert_array_equal(problem.grad_sample([1.0, -1.0], [rng]), [1.0, -1.0])

    def test_smooth_at(self):
        problem = AbsValue(1)
        assert problem.smooth_at([0.5], 1e-6)
        assert not problem.smooth_at([0.0], 1e-6)


class TestQuadratic:
    def test_pointwise(self):
        problem = Quadratic([2.0])
        assert problem.loss_full([3.0]) == 9.0
        np.testing.assert_array_equal(problem.grad_full([3.0]), [6.0])

    def test_minimizer_fixed_point(self):
        problem = Quadratic([1.0, 4.0])
        np.testing.assert_array_equal(problem.grad_full([0.0, 0.0]), [0.0, 0.0])

    def test_rejects_bad_diag(self):
        with pytest.raises(ValueError):
            Quadratic([1.0, 0.0])
        with pytest.raises(ValueError):
            Quadratic([1.0], noise_std=-1.0)
        for diag in ([float("nan"), 1.0], [1.0, float("inf")]):
            with pytest.raises(ValueError, match="finite"):
                Quadratic(diag)
        for noise_std in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                Quadratic([1.0], noise_std=noise_std)

    def test_rejects_empty_diag(self):
        with pytest.raises(ValueError, match="dim must be >= 1, got 0"):
            Quadratic([])

    def test_noise_std_monte_carlo(self):
        # empirical std of the sampled gradient over 1e5 draws within 3%
        sigma = 0.7
        problem = Quadratic([1.0], noise_std=sigma)
        rng = problem.init_state(0)
        x = np.array([2.0])
        draws = np.array([problem.grad_sample(x, [rng])[0] for _ in range(100_000)])
        assert abs(draws.std() - sigma) / sigma < 0.03
        assert draws.mean() == pytest.approx(2.0, abs=0.02)

    def test_noise_deterministic_given_state(self):
        problem = Quadratic([1.0, 1.0], noise_std=1.0)
        a = [problem.grad_sample([1.0, 1.0], [problem.init_state(5)]) for _ in range(1)]
        b = [problem.grad_sample([1.0, 1.0], [problem.init_state(5)]) for _ in range(1)]
        np.testing.assert_array_equal(a[0], b[0])

    def test_convex_midpoint(self):
        problem = Quadratic([0.5, 3.0])
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.standard_normal((2, 2)) * 3
            mid = problem.loss_full((a + b) / 2)
            assert mid <= (problem.loss_full(a) + problem.loss_full(b)) / 2 + 1e-12


def _tiny_dataset():
    return csr_dataset(
        [(1.0, [(1, 2.0), (2, -1.0)]), (-1.0, [(2, 1.5)]), (1.0, [(1, -0.5), (3, 1.0)])], dim=3
    )


class TestLogisticRegression:
    def test_loss_at_zero_is_log2(self):
        problem = LogisticRegression(_tiny_dataset(), batch_size=2)
        assert problem.loss_full(np.zeros(3)) == pytest.approx(math.log(2.0))

    def test_gradient_at_zero_closed_form(self):
        # sigma(0) = 1/2, so each sample contributes -y_j x_j / 2
        ds = _tiny_dataset()
        problem = LogisticRegression(ds, batch_size=3)
        X, y = ds.to_dense(), ds.labels
        expected = -(X * y[:, None]).mean(axis=0) / 2.0
        np.testing.assert_allclose(problem.grad_full(np.zeros(3)), expected, rtol=1e-12)

    def test_minibatch_means_compose_to_full_gradient(self):
        ds = normalize_labels(load_dataset(BITS))
        problem = LogisticRegression(ds, batch_size=64)
        rng = np.random.default_rng(0)
        w = rng.standard_normal(problem.dim)
        batches = minibatch_iter(problem.n, 64, epoch_seed=3)
        weighted = sum(len(b) * problem._grad_rows(w, b) for b in batches) / problem.n
        full = problem.grad_full(w)
        np.testing.assert_allclose(weighted, full, rtol=1e-10, atol=1e-14)

    def test_grad_sample_walks_epoch_batches(self):
        problem = LogisticRegression(_tiny_dataset(), batch_size=2)
        state = problem.init_state(7)
        g1 = problem.grad_sample(np.zeros(3), [state])
        g2 = problem.grad_sample(np.zeros(3), [state])
        state2 = problem.init_state(7)
        np.testing.assert_array_equal(g1, problem.grad_sample(np.zeros(3), [state2]))
        np.testing.assert_array_equal(g2, problem.grad_sample(np.zeros(3), [state2]))

    def test_accuracy_range_and_loss_nonnegative(self):
        ds = normalize_labels(load_dataset(BLOBS))
        problem = LogisticRegression(ds, batch_size=32)
        rng = np.random.default_rng(2)
        for _ in range(5):
            w = rng.standard_normal(problem.dim) * 2
            assert 0.0 <= problem.accuracy(w) <= 1.0
            assert problem.loss_full(w) >= 0.0

    def test_stable_for_large_margins(self):
        problem = LogisticRegression(_tiny_dataset(), batch_size=3)
        w = np.array([1e4, -1e4, 1e4])
        assert np.isfinite(problem.loss_full(w))
        assert np.all(np.isfinite(problem.grad_full(w)))

    def test_convex_midpoint(self):
        problem = LogisticRegression(_tiny_dataset(), batch_size=3)
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.standard_normal((2, 3)) * 2
            mid = problem.loss_full((a + b) / 2)
            assert mid <= (problem.loss_full(a) + problem.loss_full(b)) / 2 + 1e-12

    def test_rejects_empty_or_unnormalized(self):
        with pytest.raises(ValueError, match="empty"):
            LogisticRegression(csr_dataset([], dim=0), batch_size=1)
        with pytest.raises(ValueError, match="dataset has no features"):
            LogisticRegression(csr_dataset([(1.0, []), (-1.0, [])], dim=0), batch_size=1)
        bad = csr_dataset([(2.0, [(1, 1.0)])], dim=1)
        with pytest.raises(ValueError, match="labels"):
            LogisticRegression(bad, batch_size=1)
        with pytest.raises(ValueError, match="batch_size"):
            LogisticRegression(_tiny_dataset(), batch_size=0)
