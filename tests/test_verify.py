import math
import tracemalloc

import numpy as np
import pytest

from conftest import make_fuzz_run
from gradagrad import (
    AbsValue,
    AdaGrad,
    GradaGrad,
    HyperParams,
    LogisticRegression,
    Quadratic,
    ScalarGradaGrad,
    Trace,
    alpha_identity_sides,
    check_adagrad_equivalence,
    check_alpha_identity_rho1,
    check_convergence_trend,
    check_errnegativity,
    check_finite_diff,
    check_momentum_identities,
    check_monotone_and_cap,
    check_reparam_invariance,
    drive,
    load_dataset,
    normalize_labels,
)
from conftest import BITS, copy_trace, first_branch, traced_run
from gradagrad.core import BRANCH_NEGATIVE, BRANCH_POSITIVE


def _first_negative(trace):
    return first_branch(trace, BRANCH_NEGATIVE)


class TestErrnegativity:
    def test_fuzz_run_passes(self):
        _, trace = make_fuzz_run(steps=600, seed=1)
        report = check_errnegativity(trace)
        assert report.passed
        assert "negative-branch" in report.details

    def test_equality_case_from_clip_example(self):
        # hand-built pair: alpha=0.2, gamma 1 -> 2 after absorbing v_clipped=-0.6;
        # the clip binds, so the inequality holds with equality
        pair = Trace(
            k=np.array([0, 1]), g=np.array([[math.sqrt(0.2)], [1.0]]),
            v_raw=np.array([[0.2], [-1.0]]), v_clipped=np.array([[0.2], [-0.6]]),
            branch=np.array([[0], [BRANCH_NEGATIVE]], dtype=np.int8),
            r=np.array([[math.nan], [3.0]]), gamma_after=np.array([[1.0], [2.0]]),
            alpha_after=np.array([[0.2], [0.2]]),
            a_after=np.array([[math.sqrt(0.2)], [math.sqrt(0.2) / 2.0]]),
        )
        report = check_errnegativity(pair)
        assert report.passed
        assert abs(report.worst_violation) <= 1e-12

    def test_vacuous_pass_without_negative_branches(self):
        opt = GradaGrad([1.0, 1.0], HyperParams(rho=0.0))
        report = check_errnegativity(traced_run(opt, [[1.0, -1.0]] * 20))
        assert report.passed and report.worst_violation == 0.0

    def test_inflated_gamma_fails(self):
        _, trace = make_fuzz_run(steps=600, seed=1)
        t, i = _first_negative(trace)
        corrupted = copy_trace(trace)
        corrupted.gamma_after[t, i] *= 2.0
        corrupted.a_after[t, i] = math.sqrt(corrupted.alpha_after[t, i]) / corrupted.gamma_after[t, i]
        report = check_errnegativity(corrupted)
        assert not report.passed and report.location == (t, i)

    def test_requires_full_run(self):
        _, trace = make_fuzz_run(steps=200, seed=1)
        t, _ = _first_negative(trace)
        with pytest.raises(ValueError, match="step 0"):
            check_errnegativity(trace[t:])


class TestAlphaIdentity:
    def test_hand_fixture(self):
        lhs, rhs = alpha_identity_sides([1.0, -1.0, 1.0])
        assert lhs == 5.0 and rhs == 5.0
        assert check_alpha_identity_rho1([1.0, -1.0, 1.0]).passed

    def test_single_element(self):
        lhs, rhs = alpha_identity_sides([3.0])
        assert lhs == 9.0 and rhs == 9.0

    def test_zero_increment_allowed(self):
        lhs, rhs = alpha_identity_sides([1.0, 1.0])
        assert lhs == 1.0 and rhs == 1.0
        assert check_alpha_identity_rho1([1.0, 1.0]).passed

    def test_precondition_reported_not_failed(self):
        report = check_alpha_identity_rho1([1.0, 0.5])  # increment 0.25 - 0.5 < 0
        assert report.passed
        assert "precondition" in report.details

    def test_random_filtered_sequences(self):
        rng = np.random.default_rng(0)
        found = 0
        while found < 30:
            gs = rng.standard_normal(6)
            if np.any(gs[1:] ** 2 - gs[1:] * gs[:-1] < 0):
                continue
            found += 1
            report = check_alpha_identity_rho1(gs)
            assert report.passed and "precondition" not in report.details


class TestAdagradEquivalence:
    def test_quadratic_100_steps(self):
        report = check_adagrad_equivalence(Quadratic([2.0, 0.5, 1.0]), 100, gamma=1.0)
        assert report.passed

    def test_zero_steps_trivially_pass(self):
        report = check_adagrad_equivalence(Quadratic([1.0]), 0, gamma=1.0)
        assert report.passed and report.worst_violation == 0.0 and report.location is None

    def test_rho2_sanity_inversion(self):
        # with rho=2 on a deterministic quadratic, consecutive gradients
        # correlate and the trajectories must separate
        problem = Quadratic([1.0, 3.0])
        x0 = 2.0 * np.ones(2)
        gg = GradaGrad(x0, HyperParams(gamma0=1.0, rho=2.0))
        ag = AdaGrad(x0, gamma=1.0)
        worst = 0.0
        for _ in range(100):
            gg.step(problem.grad_full(gg.x))
            ag.step(problem.grad_full(ag.x))
            worst = max(worst, float(np.max(np.abs(gg.x - ag.x))))
        assert worst > 1e-12


    def test_holds_two_iterates_not_the_runs(self):
        """At d=1000 and 1000 steps the check holds each stepper's iterate,
        not a (2, steps + 1, d) history of them, which peaks near 46 MiB here."""
        problem = Quadratic(np.linspace(0.5, 2.0, 1000))
        tracemalloc.start()
        try:
            report = check_adagrad_equivalence(problem, 1000, gamma=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.details == "1000 steps"
        assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestFiniteDiff:
    def test_quadratic_tight(self):
        report = check_finite_diff(Quadratic([2.0]), [3.0])
        assert report.passed
        assert report.worst_violation <= 1e-9

    def test_logistic_at_zero(self):
        ds = normalize_labels(load_dataset(BITS))
        problem = LogisticRegression(ds, batch_size=4)
        report = check_finite_diff(problem, np.zeros(problem.dim))
        assert report.passed
        X, y = problem.X, problem.y
        np.testing.assert_allclose(
            problem.grad_full(np.zeros(problem.dim)),
            -(X * y[:, None]).mean(axis=0) / 2.0,
            rtol=1e-12,
        )

    def test_perturbs_one_coordinate_at_a_time(self):
        """At d=2000 the check holds one perturbation vector, not h * eye(d), which peaks near 31 MiB here."""
        problem = Quadratic(np.linspace(0.5, 2.0, 2000))
        tracemalloc.start()
        try:
            report = check_finite_diff(problem, np.linspace(-1.0, 1.0, 2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_abs_kink_skipped(self):
        report = check_finite_diff(AbsValue(1), [0.0])
        assert report.passed
        assert "skipped" in report.details


class TestConvergenceTrend:
    def test_deterministic_quadratic_far_from_optimum(self):
        report = check_convergence_trend(
            Quadratic([1.0, 2.0]),
            lambda x0: GradaGrad(x0, HyperParams(gamma0=1.0, rho=2.0)),
            x0=5.0 * np.ones(2),
            n_small=300,
            n_seeds=2,
        )
        assert report.passed
        assert report.worst_violation < 0.75
        assert "threshold" in report.details

    def test_zero_gradient_vacuous_pass(self):
        report = check_convergence_trend(
            Quadratic([1.0]),
            lambda x0: GradaGrad(x0, HyperParams()),
            x0=np.zeros(1),
            n_small=50,
            n_seeds=2,
        )
        assert report.passed
        assert "vacuous" in report.details

    def test_vacuous_pass_holds_under_any_threshold(self):
        report = check_convergence_trend(
            Quadratic([1.0]), lambda x0: GradaGrad(x0), x0=np.zeros(1), n_small=5, n_seeds=2, threshold=-1.0,
        )
        assert report.passed and report.worst_violation == 0.0
        assert "vacuous" in report.details

    def test_requires_known_optimum(self):
        problem = Quadratic([1.0])
        problem.f_star = None
        with pytest.raises(ValueError):
            check_convergence_trend(problem, lambda x0: GradaGrad(x0), x0=np.ones(1), n_small=10)

    @pytest.mark.parametrize("bad", [{"n_small": 0}, {"n_seeds": 0}, {"factor": 1}])
    def test_rejects_degenerate_runs(self, bad):
        args = {"n_small": 10, "n_seeds": 2, "factor": 4, **bad}
        with pytest.raises(ValueError, match="n_small >= 1, n_seeds >= 1 and factor >= 2"):
            check_convergence_trend(Quadratic([1.0]), lambda x0: GradaGrad(x0), x0=np.ones(1), **args)

    def test_factory_gets_one_replica_per_seed(self):
        shapes = []

        def factory(x0):
            shapes.append(x0.shape)
            return GradaGrad(x0)

        check_convergence_trend(Quadratic([1.0, 2.0], noise_std=0.1), factory, x0=np.ones(2), n_small=5, n_seeds=3)
        assert shapes == [(3, 2)]


class TestMonotoneAndCap:
    def test_fuzz_run_passes(self):
        _, trace = make_fuzz_run(steps=600, seed=4, d_inf=30.0)
        report = check_monotone_and_cap(trace, d_inf=30.0, gamma0=1.0)
        assert report.passed

    def test_decreased_alpha_fails(self):
        _, trace = make_fuzz_run(steps=300, seed=4)
        corrupted = copy_trace(trace)
        corrupted.alpha_after[100, 0] = corrupted.alpha_after[99, 0] - 1.0
        report = check_monotone_and_cap(corrupted, d_inf=50.0)
        assert not report.passed

    def test_gamma_change_on_positive_branch_fails(self):
        _, trace = make_fuzz_run(steps=300, seed=4)
        corrupted = copy_trace(trace)
        t, i = first_branch(trace, BRANCH_POSITIVE)
        corrupted.gamma_after[t, i] += 0.5
        report = check_monotone_and_cap(corrupted, d_inf=50.0)
        assert not report.passed
        assert report.details.startswith(f"gamma changed on a positive branch at k={t} i={i}")

    def test_cap_violation_detected(self):
        _, trace = make_fuzz_run(steps=300, seed=4, d_inf=30.0)
        report = check_monotone_and_cap(trace, d_inf=1.0)
        assert not report.passed  # gamma exceeded the pretend cap


class TestReparamInvariance:
    def test_fuzz_run_passes(self):
        _, trace = make_fuzz_run(steps=600, seed=6)
        report = check_reparam_invariance(trace, d_inf=50.0)
        assert report.passed
        assert "uncapped negative steps" in report.details

    def test_capped_steps_are_excluded(self):
        # with a low cap many negative steps bind it; the identity only
        # applies to the uncapped ones and the run still passes
        _, trace = make_fuzz_run(steps=600, seed=6, d_inf=3.0)
        report = check_reparam_invariance(trace, d_inf=3.0)
        assert report.passed

    def test_cap_binding_self_detected_without_d_inf(self):
        _, trace = make_fuzz_run(steps=600, seed=6, d_inf=3.0)
        report = check_reparam_invariance(trace)
        assert report.passed
        with_cap = check_reparam_invariance(trace, d_inf=3.0)
        assert report.details == with_cap.details  # same steps excluded

    def test_corrupted_gamma_fails(self):
        _, trace = make_fuzz_run(steps=600, seed=6)
        t, i = _first_negative(trace)
        corrupted = copy_trace(trace)
        corrupted.gamma_after[t, i] *= 1.0 + 1e-6
        assert not check_reparam_invariance(corrupted, d_inf=50.0).passed


@pytest.mark.parametrize("column", ["g", "v_raw", "v_clipped", "gamma_after", "alpha_after", "a_after"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, 1e300, -1e300, 5e-324])
def test_extreme_trace_values_raise_no_warning(column, value):
    # the suite turns warnings into errors: a check must report such a trace, not warn
    _, trace = make_fuzz_run(dim=3, steps=60, d_inf=3.0)
    getattr(trace, column)[20, 1], getattr(trace, column)[21, 1] = value, -value
    for cap in (None, 3.0):
        for report in (check_monotone_and_cap(trace, d_inf=cap), check_reparam_invariance(trace, d_inf=cap),
                       check_errnegativity(trace)):
            assert math.isfinite(report.worst_violation) or not report.passed


class TestMomentumIdentities:
    def test_with_momentum(self):
        rng = np.random.default_rng(8)
        opt = GradaGrad(rng.standard_normal(3), HyperParams(gamma0=0.5, rho=2.0, beta=0.9))
        report = check_momentum_identities(opt, lambda x: rng.normal(0.8, 0.5, 3), steps=200)
        assert report.passed and opt.k == 200

    def test_without_momentum_direction_is_gradient(self):
        problem = Quadratic([1.0, 2.0])
        opt = GradaGrad(np.ones(2), HyperParams(rho=2.0, beta=0.0))
        assert check_momentum_identities(opt, problem.grad_full, 50).passed
        opt = GradaGrad(np.ones(2), HyperParams(rho=2.0, beta=0.0))
        xs, ms = [], []  # the iterate and the direction after k steps
        drive(opt, problem.grad_full, 50, lambda k: (xs.append(opt.x.copy()), ms.append(opt.m_prev.copy())))
        for k in range(50):
            np.testing.assert_allclose(ms[k + 1], problem.grad_full(xs[k]), rtol=1e-12, atol=1e-300)

    def test_projected_run_keeps_identities(self):
        from gradagrad import Domain

        rng = np.random.default_rng(9)
        opt = GradaGrad(
            np.zeros(2),
            HyperParams(gamma0=1.0, rho=2.0, beta=0.7),
            Domain.box([-0.4, -0.4], [0.4, 0.4]),
        )
        assert check_momentum_identities(opt, lambda x: rng.normal(1.0, 0.3, 2), steps=150).passed

    def test_replicas_with_their_own_beta(self):
        params = [HyperParams(beta=0.5), HyperParams(beta=0.0)]
        assert check_momentum_identities(GradaGrad(np.ones((2, 3)), params), lambda x: 2 * x, 40).passed

        def history(opt):
            """x, z and m after each of 40 steps on 2 * x, as one (41, 3, dim) array."""
            rows = []
            drive(opt, lambda x: 2 * x, 40, lambda k: rows.append([opt.x.copy(), opt.z.copy(), opt.m_prev.copy()]))
            return np.array(rows)

        run = history(GradaGrad(np.ones((2, 3)), params))
        for r, p in enumerate(params):
            np.testing.assert_array_equal(run[:, :, 3 * r:3 * r + 3], history(GradaGrad(np.ones(3), p)))

    @pytest.mark.parametrize("stepper", [ScalarGradaGrad, AdaGrad], ids=lambda stepper: stepper.__name__)
    def test_rejects_a_stepper_without_momentum(self, stepper):
        opt = stepper(np.zeros(3))
        with pytest.raises(ValueError, match=f"need a diagonal GradaGrad, got {stepper.__name__}"):
            check_momentum_identities(opt, lambda x: x - 1.0, 5)
        assert opt.k == 0

    @pytest.mark.parametrize("steps", [250, 1000])
    def test_holds_one_step_of_the_run(self, steps):
        """At d=1000 the check's memory does not grow with the steps: it holds
        one ring row and one previous x, not the run's x, z and m."""
        rng = np.random.default_rng(2)
        opt = GradaGrad(rng.uniform(-1.0, 1.0, 1000), HyperParams(gamma0=0.5, beta=0.5))
        tracemalloc.start()
        try:
            report = check_momentum_identities(opt, lambda x: 0.5 * x + rng.normal(0.8, 0.5, 1000), steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and opt.k == steps
        assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"
