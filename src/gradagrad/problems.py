"""Convex test objectives with seeded stochastic gradient oracles.

Every problem exposes an exact full loss, an exact full (sub)gradient, and
a stochastic gradient oracle that is deterministic given (x, seed-state).
Seed-states come from init_state(seed): a numpy Generator for noise
problems, a MinibatchStream for the dataset problem.
"""

import numpy as np

from .data import Dataset, MinibatchStream


class Problem:
    """Objective oracle interface; subclasses set dim and f_star (or None)."""

    dim: int
    f_star: float | None = None

    def loss_full(self, x) -> float:
        raise NotImplementedError

    def grad_full(self, x) -> np.ndarray:
        raise NotImplementedError

    def grad_sample(self, x, state) -> np.ndarray:
        # deterministic problems: the stochastic oracle is the exact gradient
        return self.grad_full(x)

    def init_state(self, seed):
        return np.random.default_rng(seed)

    def accuracy(self, x) -> float | None:
        return None

    def smooth_at(self, x, radius: float) -> bool:
        return True


class AbsValue(Problem):
    """f(x) = sum_i |x_i| with the minimum-norm subgradient sign(x).

    The subgradient is 0 at kinks, so an iterate landing exactly on the
    optimum stays there. f* = 0.
    """

    def __init__(self, dim: int = 1):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.f_star = 0.0

    def loss_full(self, x) -> float:
        return float(np.sum(np.abs(np.asarray(x, dtype=float))))

    def grad_full(self, x) -> np.ndarray:
        return np.sign(np.asarray(x, dtype=float))

    def smooth_at(self, x, radius: float) -> bool:
        return bool(np.all(np.abs(np.asarray(x, dtype=float)) > radius))


class Quadratic(Problem):
    """f(x) = 0.5 * sum_i d_i x_i^2 with d_i > 0; f* = 0 at the origin.

    The stochastic oracle adds seeded per-coordinate Gaussian noise of the
    configured standard deviation to the exact gradient.
    """

    def __init__(self, diag, noise_std: float = 0.0):
        diag = np.atleast_1d(np.asarray(diag, dtype=float))
        if not np.all((diag > 0) & (diag < np.inf)):  # NaN fails both
            raise ValueError("all diagonal entries must be positive and finite")
        if not 0 <= noise_std < np.inf:
            raise ValueError(f"noise_std must be nonnegative and finite, got {noise_std}")
        self.diag = diag
        self.noise_std = float(noise_std)
        self.dim = diag.size
        self.f_star = 0.0

    def loss_full(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return 0.5 * float(self.diag @ (x * x))

    def grad_full(self, x) -> np.ndarray:
        return self.diag * np.asarray(x, dtype=float)

    def grad_sample(self, x, state) -> np.ndarray:
        g = self.grad_full(x)
        if self.noise_std == 0.0:
            return g
        return g + self.noise_std * state.standard_normal(self.dim)


class LogisticRegression(Problem):
    """Binary logistic loss over a +/-1 labelled dataset.

    f(w) = mean_j log(1 + exp(-y_j <w, x_j>)). The stochastic oracle
    averages the gradient over the next minibatch of a seeded per-epoch
    shuffle (without replacement, reshuffled every epoch). No
    regularization, no feature scaling.
    """

    def __init__(self, dataset: Dataset, batch_size: int):
        if len(dataset) == 0:
            raise ValueError("dataset is empty")
        bad = sorted(set(dataset.labels.tolist()) - {-1.0, 1.0})
        if bad:
            raise ValueError(f"labels must be -1 or +1 after normalization, found {bad}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.X = dataset.to_dense()
        self.y = dataset.labels
        self.batch_size = int(batch_size)
        self.dim = dataset.dim
        self.n = len(dataset)

    def init_state(self, seed) -> MinibatchStream:
        return MinibatchStream(self.n, self.batch_size, seed)

    def _grad_rows(self, w, rows) -> np.ndarray:
        Xb = self.X[rows]
        yb = self.y[rows]
        margins = yb * (Xb @ w)
        # sigma(-m) = 1 / (1 + e^m) = e^-m / (1 + e^-m), from one e^-|m| that never overflows
        e = np.exp(-np.abs(margins))
        weights = np.where(margins >= 0, e, 1.0) / (1.0 + e)
        return -(Xb * (yb * weights)[:, None]).mean(axis=0)

    def grad_sample(self, w, state: MinibatchStream) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        return self._grad_rows(w, state.next_batch())

    def grad_full(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        return self._grad_rows(w, slice(None))

    def loss_full(self, w) -> float:
        w = np.asarray(w, dtype=float)
        margins = self.y * (self.X @ w)
        return float(np.mean(np.logaddexp(0.0, -margins)))

    def accuracy(self, w) -> float:
        w = np.asarray(w, dtype=float)
        return float(np.mean(np.sign(self.X @ w) == self.y))
