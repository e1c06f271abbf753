"""The lockstep grid against the sequential grid loop of reference_grid.py.

Every replica of `gradagrad grid` must end in the bit-identical state of its
sequential run (x, gamma, alpha, ainv and the rest of the optimizer state),
and see the bit-identical selection value at every evaluation.
"""

import numpy as np
import pytest

from conftest import BITS, GRID_CASES
from gradagrad import cli
from reference_grid import selection_metric, sequential_grid

STATE = ("x", "_x_sum", "gamma", "alpha", "ainv", "lr", "z", "m_prev", "g_prev", "m", "v")

CASES = {
    **GRID_CASES,
    # R = 1
    "single-replica": [*GRID_CASES["gradagrad-bits"][:-1], "0.5"],
    # equal values get their own seeds
    "duplicate-values": [*GRID_CASES["adagrad-quadratic"][:-1], "1,1"],
}


def bits(values) -> np.ndarray:
    """Values as int64 bit patterns: NaN payloads and zero signs count."""
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("seeds", [1, 2])
def test_lockstep_grid_matches_sequential_runs(name, seeds):
    argv = [*CASES[name], "--seeds", str(seeds), "--seed", "11"]
    args = cli.build_parser().parse_args(["grid", *argv])
    values = sorted(args.grid_values)
    opt, kind, evals = cli._run_grid(args, args.grid_param.replace("-", "_"), values)
    runs = sequential_grid(argv)
    assert opt.replicas == len(runs) == len(values) * seeds
    scores = cli._selection_metric(kind, evals)
    for r, (ref, rows) in enumerate(runs):
        assert opt.k == ref.k
        for attr in STATE:
            if hasattr(ref, attr):
                got = getattr(opt, attr).reshape(opt.replicas, -1)[r]
                np.testing.assert_array_equal(bits(got), bits(getattr(ref, attr)), err_msg=f"{attr}, replica {r}")
        ref_kind, ref_score = selection_metric(rows)
        assert kind == ref_kind
        if kind == "accuracy":
            expected, got = [row[3] for row in rows], [acc[r] for acc in evals]
        else:
            expected, got = [rows[-1][2]], [evals[-1][r]]
        np.testing.assert_array_equal(bits(got), bits(expected))
        assert bits(scores[r]) == bits(ref_score)


def test_ragged_last_batch_is_covered():
    args = cli.build_parser().parse_args(["grid", *CASES["adagrad-bits"]])
    assert args.dataset == str(BITS) and args.batch_size == 64
    problem, *_ = cli._build_run(args)
    assert problem.n % args.batch_size == 52


def test_selection_scores_each_replica_as_the_sequential_loop():
    rng = np.random.default_rng(3)
    for n_evals in (1, 4, 10, 13):
        evals = list(rng.random((n_evals, 30)))
        scores = cli._selection_metric("accuracy", evals)
        for r in range(30):
            rows = [[k, None, 0.0, acc[r]] for k, acc in enumerate(evals)]
            assert bits(scores[r]) == bits(selection_metric(rows)[1])
    assert cli._selection_metric("loss", [np.array([0.5, 2.0])]) == [0.5, 2.0]
