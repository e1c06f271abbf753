"""Differential test: the run-based checks on gradagrad.drive against the
frozen sequential loops in reference_runs.py.

check_convergence_trend now steps its seeds as the replicas of one
optimizer, so its reports must equal the seed-by-seed loop's bit for bit,
for every stepper on a noise, a deterministic and a minibatch oracle.
"""

import numpy as np
import pytest

import reference_runs as ref
from conftest import BITS
from gradagrad import (
    SGD,
    AdaGrad,
    Adam,
    AbsValue,
    GradaGrad,
    HyperParams,
    LogisticRegression,
    Quadratic,
    ScalarGradaGrad,
    check_convergence_trend,
    load_dataset,
    normalize_labels,
)

FACTORIES = {
    "gradagrad": lambda x0: GradaGrad(x0, HyperParams(gamma0=0.5, rho=2.0)),
    "gradagrad-scalar": lambda x0: ScalarGradaGrad(x0, HyperParams(gamma0=0.5, rho=2.0, r_fixed=None)),
    "adagrad": lambda x0: AdaGrad(x0, gamma=0.5),
    "sgd": lambda x0: SGD(x0, lr=0.05),
    "adam": lambda x0: Adam(x0, lr=0.05),
}


def _problem(name):
    """(problem, x0, n_small) of a small trend-check run."""
    if name == "quadratic":
        return Quadratic([1.0, 0.5, 2.0], noise_std=0.5), 3.0 * np.ones(3), 40
    if name == "abs":
        return AbsValue(2), np.array([1.0, -0.7]), 30
    problem = LogisticRegression(normalize_labels(load_dataset(BITS)), batch_size=16)
    problem.f_star = 0.0  # a lower bound: the trend check needs some known floor
    return problem, np.zeros(problem.dim), 20


@pytest.mark.parametrize("n_seeds", [1, 3])
@pytest.mark.parametrize("problem_name", ["quadratic", "abs", "bits"])
@pytest.mark.parametrize("optimizer", list(FACTORIES))
def test_trend_reports_match_sequential_loop(optimizer, problem_name, n_seeds):
    problem, x0, n_small = _problem(problem_name)
    args = dict(x0=x0, n_small=n_small, factor=4, n_seeds=n_seeds, seed0=7)
    new = check_convergence_trend(problem, FACTORIES[optimizer], **args)
    old = ref.check_convergence_trend(problem, FACTORIES[optimizer], **args)
    assert (new.name, new.passed, new.location, new.details) == (old.name, old.passed, old.location, old.details)
    assert new.worst_violation.hex() == old.worst_violation.hex()
