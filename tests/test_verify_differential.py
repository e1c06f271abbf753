"""Differential test: the columnar trace checks against the frozen loops.

Every report field must match: passed, worst_violation bit for bit,
location and details, also where a check folds over chunks of 1, 2 or 7
steps. The corpus is the make_fuzz_run family (a binding
cap, momentum, theory mode), scalar traces, the corrupted traces of
test_verify.py, and random finite corruptions that move values, flip
branch codes and break the cap, so failing reports and their tie-breaking
are compared too.
"""

import itertools
import math

import numpy as np
import pytest

import reference_runs
import reference_verify as ref
from conftest import copy_trace, first_branch, make_fuzz_run, traced_run
from gradagrad import (
    Domain,
    GradaGrad,
    HyperParams,
    ScalarGradaGrad,
    check_errnegativity,
    check_momentum_identities,
    check_monotone_and_cap,
    check_reparam_invariance,
)
from gradagrad.core import BRANCH_NEGATIVE, BRANCH_POSITIVE, BRANCHES
from gradagrad.verify import Fold


def _assert_same_report(new, old):
    assert new.name == old.name
    assert new.passed == old.passed, (new, old)
    assert math.copysign(1.0, new.worst_violation) == math.copysign(1.0, old.worst_violation)
    assert new.worst_violation.hex() == old.worst_violation.hex(), (new, old)
    assert new.location == old.location, (new, old)
    assert new.details == old.details, (new, old)


def _folded(check, trace, steps, **kwargs):
    """check's report on trace folded over chunks of steps steps, None for the whole trace at once."""
    if steps is None:
        return check(trace, **kwargs)
    fold = Fold()
    for start in range(0, len(trace), steps):
        report = check(trace[start:start + steps], fold=fold, **kwargs)
    return report


def _assert_same_checks(trace, d_inf=None, gamma0=None):
    """All three trace checks, new against frozen, with and without the
    optional arguments, on the whole trace and folded over chunks of 1, 2
    and 7 steps."""
    cases = [(check_errnegativity, ref.check_errnegativity, {})]
    for cap in {None, d_inf}:
        cases += [(check_monotone_and_cap, ref.check_monotone_and_cap, {"d_inf": cap, "gamma0": start})
                  for start in {None, gamma0}]
        cases.append((check_reparam_invariance, ref.check_reparam_invariance, {"d_inf": cap}))
    for check, frozen, kwargs in cases:
        old = frozen(trace, **kwargs)
        for steps in (None, 1, 2, 7):
            _assert_same_report(_folded(check, trace, steps, **kwargs), old)


FUZZ_CORPUS = list(itertools.product(
    (3.0, 50.0, 1e10), (0.0, 0.8), ("practical", "theory"), (1.5, 2.0, 3.0)
))


@pytest.mark.parametrize("d_inf,beta,mode,rho", FUZZ_CORPUS)
def test_fuzz_runs_match_reference(d_inf, beta, mode, rho):
    seed = FUZZ_CORPUS.index((d_inf, beta, mode, rho))
    _, trace = make_fuzz_run(dim=7, steps=300, seed=seed, d_inf=d_inf, beta=beta, mode=mode, rho=rho)
    _assert_same_checks(trace, d_inf=d_inf, gamma0=1.0)


@pytest.mark.parametrize("r_fixed", (1.0, None, 0.25))
def test_scalar_traces_match_reference(r_fixed):
    rng = np.random.default_rng(31)
    opt = ScalarGradaGrad(np.zeros(3), HyperParams(gamma0=0.7, rho=2.0, r_fixed=r_fixed))
    trace = traced_run(opt, [rng.normal(1.0, 0.4, 3) for _ in range(400)])
    assert np.any(trace.branch == BRANCH_NEGATIVE)
    _assert_same_checks(trace, gamma0=0.7)


def _corrupted_cases():
    """The corrupted traces of test_verify.py, as (trace, d_inf)."""
    _, trace = make_fuzz_run(steps=600, seed=1)
    t, i = first_branch(trace, BRANCH_NEGATIVE)
    bad = copy_trace(trace)
    bad.gamma_after[t, i] *= 2.0
    bad.a_after[t, i] = math.sqrt(bad.alpha_after[t, i]) / bad.gamma_after[t, i]
    yield bad, 50.0

    _, trace = make_fuzz_run(steps=300, seed=4)
    bad = copy_trace(trace)
    bad.alpha_after[100, 0] = bad.alpha_after[99, 0] - 1.0
    yield bad, 50.0
    bad = copy_trace(trace)
    t, i = first_branch(trace, BRANCH_POSITIVE)
    bad.gamma_after[t, i] += 0.5
    yield bad, 50.0

    _, trace = make_fuzz_run(steps=300, seed=4, d_inf=30.0)
    yield trace, 1.0  # gamma exceeds the pretend cap

    _, trace = make_fuzz_run(steps=600, seed=6)
    t, i = first_branch(trace, BRANCH_NEGATIVE)
    bad = copy_trace(trace)
    bad.gamma_after[t, i] *= 1.0 + 1e-6
    yield bad, 50.0


@pytest.mark.parametrize("case", range(5))
def test_corrupted_traces_match_reference(case):
    trace, d_inf = list(_corrupted_cases())[case]
    _assert_same_checks(trace, d_inf=d_inf, gamma0=1.0)


@pytest.mark.parametrize("seed", range(12))
def test_random_corruptions_match_reference(seed):
    rng = np.random.default_rng(500 + seed)
    _, trace = make_fuzz_run(dim=5, steps=120, seed=seed, d_inf=float(rng.choice([3.0, 50.0])))
    bad = copy_trace(trace)
    n = 6
    t, i = rng.integers(1, len(bad), n), rng.integers(0, 5, n)
    bad.gamma_after[t[:2], i[:2]] *= rng.uniform(0.5, 1.5, 2)
    bad.alpha_after[t[2:4], i[2:4]] *= rng.uniform(0.5, 1.5, 2)
    bad.branch[t[4:], i[4:]] = rng.integers(0, len(BRANCHES), 2)
    bad.branch[0] = np.where(bad.branch[0] == BRANCH_NEGATIVE, BRANCH_POSITIVE, bad.branch[0])
    _assert_same_checks(bad, d_inf=2.5, gamma0=1.0)


class _Edited(GradaGrad):
    """A GradaGrad that, given edit = (after, name, i, scale), adds scale to
    entry i of its attribute name (x, z or m_prev) right after the step that
    brings k to after, so that both sides of a comparison see one broken run."""

    def __init__(self, x0, params, domain, edit=None):
        super().__init__(x0, params, domain)
        self.edit = edit

    def step(self, g, trace=None):
        super().step(g, trace)
        if self.edit is not None and self.k == self.edit[0]:
            _, name, i, scale = self.edit
            getattr(self, name)[i] += scale


@pytest.mark.parametrize("pre_steps", [0, 5])
@pytest.mark.parametrize("beta,box", [(0.0, False), (0.9, False), (0.7, True)])
def test_momentum_identities_match_reference(beta, box, pre_steps):
    """The streaming check against the frozen check of the history the
    frozen loop reference_runs.record_run records, for an identical
    optimizer and gradient stream, unedited and with one edit at one step."""
    domain = Domain.box([-0.4] * 3, [0.4] * 3) if box else None
    params = HyperParams(gamma0=0.5, rho=2.0, beta=beta)
    where = np.random.default_rng(8)
    edits = [(pre_steps + int(where.integers(1, 50)), name, int(where.integers(0, 3)), scale)
             for name, scale in (("z", 1e-6), ("m_prev", 1e-6), ("z", 1e-16), ("x", 1e-3))]
    for steps, edit in [(200, None), *((50, edit) for edit in edits)]:
        reports = []
        for check in (check_momentum_identities, lambda opt, grad, steps: ref.check_momentum_identities(
                ref.from_columns(reference_runs.record_run(opt, grad, steps)))):
            rng = np.random.default_rng(12)
            opt = _Edited(rng.uniform(-0.3, 0.3, 3), params, domain, edit)
            for _ in range(pre_steps):
                opt.step(rng.normal(0.8, 0.5, 3))
            reports.append(check(opt, lambda x: rng.normal(0.8, 0.5, 3), steps))
        _assert_same_report(*reports)
        assert reports[0].passed == (edit is None or edit[3] < 1e-10), edit


def test_first_row_is_compared_with_zero_alpha():
    """Row 0 has no predecessor; monotone_and_cap compares it with gamma0 and
    zero alpha, which only a corrupted first row can violate."""
    _, trace = make_fuzz_run(dim=4, steps=50, seed=3)
    bad = copy_trace(trace)
    bad.alpha_after[0, 1] = -1.0
    bad.branch[0, 2] = BRANCH_NEGATIVE
    for gamma0 in (None, 1.0, 0.5):
        _assert_same_report(
            check_monotone_and_cap(bad, d_inf=50.0, gamma0=gamma0),
            ref.check_monotone_and_cap(bad, d_inf=50.0, gamma0=gamma0),
        )


def test_errnegativity_squares_g_like_the_loop():
    """The loop squared g with `**` on numpy scalars (libm pow); g * g differs
    in the last bit for these g. Each sits in a two-step trace whose negative
    step violates the inequality, so the worst violation depends on g^2."""
    draws = np.random.default_rng(3).uniform(0.5, 2.0, 200_000).tolist()
    gs = [g for g in draws if g * g != g ** 2][:60]
    assert len(gs) == 60
    for g in gs:
        pair = copy_trace(make_fuzz_run(dim=1, steps=2, seed=0)[1])
        pair.g[1], pair.v_raw[1], pair.a_after[:, 0] = g, -g * g, (1.3, 0.1)
        pair.branch[1] = BRANCH_NEGATIVE
        _assert_same_report(check_errnegativity(pair), ref.check_errnegativity(pair))
