"""Convex test objectives with seeded stochastic gradient oracles.

Every problem exposes an exact full loss, an exact full (sub)gradient, and
a stochastic gradient oracle that is deterministic given (x, seed-states).
Seed-states come from init_state(seed): a numpy Generator for noise
problems, a MinibatchStream for the dataset problem.

The oracle serves R replicas stepped in lockstep at once: grad_sample takes
their flat (R*d,) iterate and R seed-states, and returns their flat (R*d,)
gradients, each replica drawing from its own state (R = 1 for a plain run).
loss_full and accuracy map one (d,) iterate to a number, and an (R, d)
stack to an (R,) array, with each replica's value equal to the one it
would get alone.
"""

import numpy as np

from .data import Dataset, MinibatchStream


def _one_or_stack(values: np.ndarray) -> float | np.ndarray:
    """A last-axis reduction's result: a Python float for one iterate (which
    repr prints as a plain number), the (R,) array for a stack."""
    return float(values) if values.ndim == 0 else values


class Problem:
    """Objective oracle interface; subclasses set dim and f_star (or None)."""

    dim: int
    f_star: float | None = None

    def loss_full(self, x) -> float:
        raise NotImplementedError

    def grad_full(self, x) -> np.ndarray:
        raise NotImplementedError

    def grad_sample(self, x, states) -> np.ndarray:
        # deterministic problems with an elementwise gradient: the stochastic
        # oracle is the exact gradient, of the whole stack at once
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

    def loss_full(self, x) -> float | np.ndarray:
        return _one_or_stack(np.sum(np.abs(np.asarray(x, dtype=float)), axis=-1))

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
        if diag.size < 1:
            raise ValueError(f"dim must be >= 1, got {diag.size}")
        if not np.all((diag > 0) & (diag < np.inf)):  # NaN fails both
            raise ValueError("all diagonal entries must be positive and finite")
        if not 0 <= noise_std < np.inf:
            raise ValueError(f"noise_std must be nonnegative and finite, got {noise_std}")
        self.diag = diag
        self.noise_std = float(noise_std)
        self.dim = diag.size
        self.f_star = 0.0

    def loss_full(self, x) -> float | np.ndarray:
        x = np.asarray(x, dtype=float)
        # stacked (1, d) @ (d, 1) matmuls round as each row's diag @ (x * x); the gemv does not
        return _one_or_stack(0.5 * ((x * x)[..., None, :] @ self.diag[:, None])[..., 0, 0])

    def grad_full(self, x) -> np.ndarray:
        return self.diag * np.asarray(x, dtype=float)

    def grad_sample(self, x, states) -> np.ndarray:
        g = self.diag * np.asarray(x, dtype=float).reshape(len(states), self.dim)
        if self.noise_std != 0.0:
            noise = np.empty_like(g)
            for state, row in zip(states, noise):  # each replica's draws, as standard_normal(dim) returns them
                state.standard_normal(out=row)
            noise *= self.noise_std
            g += noise
        return g.ravel()


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
        if dataset.dim == 0:
            raise ValueError("dataset has no features")
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
        """The mean gradient of one iterate w (d,) over rows (B,), or of R
        replicas w (R, d) each over its own rows (R, B)."""
        Xb = self.X.take(rows, axis=0)  # a copy: the weights are multiplied into it below
        yb = self.y.take(rows)
        # a stacked matmul computes each replica's margins as Xb[r] @ w[r] does; einsum rounds differently
        margins = yb * (Xb @ w[..., None])[..., 0]
        # sigma(-m) = 1 / (1 + e^m) = e^-m / (1 + e^-m), from one e^-|m| that never overflows
        e = np.exp(-np.abs(margins))
        weights = np.where(margins >= 0, e, 1.0) / (1.0 + e)
        Xb *= (yb * weights)[..., None]
        g = np.add.reduce(Xb, axis=-2)  # .mean(axis=-2)'s sum and division, in place
        g /= Xb.shape[-2]
        return -g

    def grad_sample(self, w, states: list[MinibatchStream]) -> np.ndarray:
        rows = np.array([state.next_batch() for state in states])  # lockstep: equal batch sizes
        w = np.asarray(w, dtype=float).reshape(len(states), self.dim)
        return self._grad_rows(w, rows).ravel()

    def grad_full(self, w) -> np.ndarray:
        return self._grad_rows(np.asarray(w, dtype=float), np.arange(self.n))

    def loss_full(self, w) -> float | np.ndarray:
        margins = self.y * (self.X @ np.asarray(w, dtype=float)[..., None])[..., 0]  # as in accuracy
        return _one_or_stack(np.mean(np.logaddexp(0.0, -margins), axis=-1))

    def accuracy(self, w) -> float | np.ndarray:
        w = np.asarray(w, dtype=float)
        hits = np.sign((self.X @ w[..., None])[..., 0]) == self.y  # per replica, as X @ w[r]
        return _one_or_stack(np.mean(hits, axis=-1))
