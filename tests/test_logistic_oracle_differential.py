"""LogisticRegression's gradient oracle against the .mean(axis=-2) form it
replaced (tests/reference_logistic.py), bit for bit, and with the dataset
left as it was.

The oracle multiplies the weights into its gathered copy of the rows, so a
gather that returned a view of X (as X[slice(None)] does) would overwrite
the dataset: every call here checks X and y after it. The cases cover one
iterate and stacks of replicas, ragged last batches, and iterates at 0,
tiny, moderate and huge scales, where weights underflow to 0 and
gradient entries are signed zeros.
"""

import numpy as np
import pytest

import reference_logistic
from conftest import csr_dataset
from gradagrad import LogisticRegression

SCALES = [0.0, 1e-320, 1e-160, 1e-3, 1.0, 1e3, 1e150, 1e300]


def _problem(rng, n, d, batch_size):
    """A +-1 labelled problem whose features mix magnitudes, signs and -0.0."""
    rows = []
    for _ in range(n):
        idx = np.flatnonzero(rng.random(d) < 0.6) + 1
        vals = rng.choice([1.0, -1.0, 0.5, -0.0, 3e-7, -2e5], size=idx.size) * rng.random(idx.size)
        rows.append((float(rng.choice([-1.0, 1.0])), list(zip(idx.tolist(), vals.tolist()))))
    return LogisticRegression(csr_dataset(rows, d), batch_size)


def _iterate(rng, shape, scale) -> np.ndarray:
    w = rng.standard_normal(shape) * scale
    w[rng.random(shape) < 0.2] = -0.0
    return w


def bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


class Untouched:
    """Asserts on exit that the problem's X and y kept their bytes."""

    def __init__(self, problem):
        self.problem = problem

    def __enter__(self):
        self.before = bits(self.problem.X), bits(self.problem.y)

    def __exit__(self, *exc):
        assert (bits(self.problem.X), bits(self.problem.y)) == self.before


@pytest.mark.parametrize("n,d", [(1, 1), (7, 3), (33, 40), (200, 129)])
@pytest.mark.parametrize("scale", SCALES)
def test_grad_full_matches_reference(n, d, scale):
    rng = np.random.default_rng([n, d, SCALES.index(scale)])
    problem = _problem(rng, n, d, batch_size=1)
    for _ in range(3):
        w = _iterate(rng, d, scale)
        want = reference_logistic.grad_rows(problem.X, problem.y, w, slice(None))
        with Untouched(problem):
            got = problem.grad_full(w)
        assert bits(got) == bits(want)


@pytest.mark.parametrize("replicas", [None, 1, 2, 5, 18])
@pytest.mark.parametrize("batch", [1, 3, 32, 57])
@pytest.mark.parametrize("scale", SCALES)
def test_grad_rows_matches_reference(replicas, batch, scale):
    """None is one (d,) iterate over (B,) rows; R an (R, d) stack over (R, B)."""
    rng = np.random.default_rng([batch, replicas or 0, SCALES.index(scale)])
    problem = _problem(rng, 57, 40, batch_size=1)
    lead = () if replicas is None else (replicas,)
    w = _iterate(rng, (*lead, problem.dim), scale)
    rows = rng.integers(0, problem.n, size=(*lead, batch))
    want = reference_logistic.grad_rows(problem.X, problem.y, w, rows)
    with Untouched(problem):
        got = problem._grad_rows(w, rows)
    assert got.shape == want.shape and bits(got) == bits(want)


@pytest.mark.parametrize("replicas", [1, 3, 18])
@pytest.mark.parametrize("scale", [0.0, 1.0, 1e3, 1e300])
def test_grad_sample_matches_reference_over_ragged_epochs(replicas, scale):
    """n = 10 in batches of 4: every third batch is a ragged one of 2."""
    rng = np.random.default_rng([replicas, SCALES.index(scale)])
    problem = _problem(rng, 10, 6, batch_size=4)
    states = [problem.init_state(seed) for seed in range(replicas)]
    twins = [problem.init_state(seed) for seed in range(replicas)]
    sizes = set()
    for _ in range(9):  # three epochs
        w = _iterate(rng, replicas * problem.dim, scale)
        rows = np.array([twin.next_batch() for twin in twins])
        sizes.add(rows.shape[1])
        want = reference_logistic.grad_rows(problem.X, problem.y, w.reshape(replicas, -1), rows).ravel()
        with Untouched(problem):
            got = problem.grad_sample(w, states)
        assert bits(got) == bits(want)
    assert sizes == {4, 2}


def test_underflowed_weights_give_signed_zeros_as_the_reference_does():
    """Both margins are >= 2e3, so every weight underflows to 0 and every
    gradient entry is -0.0."""
    problem = LogisticRegression(csr_dataset([(1.0, [(1, 1.0), (2, -1.0)]), (-1.0, [(1, -1.0), (3, -3.0)])], 3),
                                 batch_size=2)
    w = np.array([1e3, -1e3, 1e3])
    with Untouched(problem):
        got = problem.grad_full(w)
    assert np.all((got == 0) & np.signbit(got))
    assert bits(got) == bits(reference_logistic.grad_rows(problem.X, problem.y, w, slice(None)))
