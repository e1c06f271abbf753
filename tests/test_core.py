import math

import numpy as np
import pytest

from conftest import branch_names, copy_trace, make_fuzz_run, traced_step
from gradagrad import (
    SGD,
    AdaGrad,
    Adam,
    Domain,
    GradaGrad,
    HyperParams,
    NonFiniteGradient,
    ScalarGradaGrad,
    Trace,
    drive,
    project,
)
from gradagrad import core
from gradagrad.core import BRANCH_NEGATIVE, FLOAT_COLUMNS


class TestHyperParams:
    def test_defaults_valid(self):
        p = HyperParams()
        assert p.gamma0 == 1.0 and p.rho == 2.0 and p.r_fixed == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gamma0=0.0),
            dict(rho=-0.1),
            dict(beta=1.0),
            dict(beta=-0.2),
            dict(g_inf=0.0),
            dict(d_inf=0.0),
            dict(r_fixed=-1.0),
            dict(mode="other"),
            dict(gamma0=math.nan),
            dict(rho=math.nan),
            dict(beta=math.nan),
            dict(g_inf=math.nan),
            dict(d_inf=math.nan),
            dict(r_fixed=math.nan),
            dict(gamma0=math.inf),
            dict(rho=math.inf),
            dict(g_inf=math.inf),
            dict(r_fixed=math.inf),
            dict(d_inf=-math.inf),
            dict(gamma0=-math.inf),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            HyperParams(**kwargs)

    def test_infinite_cap_allowed(self):
        assert HyperParams(d_inf=math.inf).d_inf == math.inf

    def test_theory_mode_needs_reachable_cap(self):
        with pytest.raises(ValueError):
            HyperParams(mode="theory", gamma0=2.0, d_inf=1.0)
        HyperParams(mode="theory", gamma0=1.0, d_inf=1.0)  # equal is fine


def _past_init(rho=2.0, alpha=None, m_prev=None, **kwargs):
    """A one-coordinate diagonal stepper after its init step on g = 1, so
    alpha = 1 and m_prev = 1 unless set by hand."""
    opt = GradaGrad([0.0], HyperParams(rho=rho, **kwargs))
    opt.step([1.0])
    if alpha is not None:
        opt.alpha[0] = alpha
    if m_prev is not None:
        opt.m_prev[0] = m_prev
    return opt


class TestComputeVScalar:
    """The scalar increment v = ||g||^2 - rho * <g, g_prev>, through step."""

    def test_first_step_convention(self):
        # g_prev = 0 forces v = ||g||^2
        assert traced_step(ScalarGradaGrad([0.0]), [3.0]).v_raw[0] == 9.0

    def test_direct_substitution(self):
        opt = ScalarGradaGrad([0.0, 0.0], HyperParams(rho=2.0))
        opt.step([1.0, 1.0])
        assert traced_step(opt, [1.0, 1.0]).v_raw[0] == -2.0

    def test_orthogonal_gradients(self):
        opt = ScalarGradaGrad([0.0, 0.0], HyperParams(rho=1.0))
        opt.step([1.0, 1.0])
        assert traced_step(opt, [1.0, -1.0]).v_raw[0] == 2.0

    def test_dimension_mismatch(self):
        opt = ScalarGradaGrad([0.0, 0.0])
        with pytest.raises(ValueError):
            opt.step([1.0, 2.0, 3.0])


class TestComputeVCoord:
    """Per-coordinate increment and branch, through GradaGrad.step."""

    def test_theory_init(self):
        opt = GradaGrad([0.0], HyperParams(mode="theory", g_inf=4.0))
        tr = traced_step(opt, [0.5])
        assert (tr.v_raw[0], branch_names(tr)) == (16.0, ["init"])
        assert opt.alpha[0] == 16.0

    def test_practical_init(self):
        tr = traced_step(GradaGrad([0.0], HyperParams(mode="practical")), [3.0])
        assert (tr.v_raw[0], branch_names(tr)) == (9.0, ["init"])

    def test_capped(self):
        # m_prev = 100 would make v hugely negative below the cap
        for gamma in (5.0, 5.0 + 1e-9):  # the cap comparison is >=, not equality
            opt = _past_init(d_inf=5.0, m_prev=100.0)
            opt.gamma[0] = gamma
            tr = traced_step(opt, [3.0])
            assert (tr.v_raw[0], branch_names(tr)) == (9.0, ["capped"])
            assert (opt.gamma[0], opt.alpha[0]) == (gamma, 10.0)
        opt = _past_init(d_inf=5.0, m_prev=100.0)
        opt.gamma[0] = 5.0 - 1e-9
        assert branch_names(traced_step(opt, [3.0])) == ["negative"]

    def test_negative(self):
        tr = traced_step(_past_init(), [1.0])  # v = 1 - 2 * 1 * 1
        assert (tr.v_raw[0], branch_names(tr)) == (-1.0, ["negative"])

    def test_zero_ties_to_positive(self):
        opt = _past_init()
        tr = traced_step(opt, [2.0])  # v = 4 - 2 * 2 * 1
        assert (tr.v_raw[0], branch_names(tr)) == (0.0, ["positive"])
        assert np.isnan(tr.r[0]) and tr.v_clipped[0] == 0.0
        assert (opt.gamma[0], opt.alpha[0]) == (1.0, 1.0)


class TestClipNegativeV:
    """The clip v >= -r * alpha on negative steps, through step."""

    def test_adaptive_clip_binds(self):
        opt = _past_init(alpha=0.2)
        tr = traced_step(opt, [1.0])  # v = -1, r = (2 * 1 / 1)^2 - 1 = 3
        assert tr.r[0] == 3.0
        assert tr.v_clipped[0] == pytest.approx(-0.6)
        assert opt.gamma[0] == pytest.approx(2.0)
        # preconditioner ratio after reparam equals the critical ratio exactly
        ratio = 1.0 / math.sqrt(1.0 - tr.v_clipped[0] / 0.2)
        h = 1.0 ** 2 / (2.0 * 1.0 * 1.0)
        assert ratio == pytest.approx(h, rel=1e-12)

    def test_adaptive_clip_loose(self):
        opt = _past_init(alpha=0.5)
        tr = traced_step(opt, [1.0])
        assert (tr.v_clipped[0], tr.r[0]) == (-1.0, 3.0)
        # ratio stays above the critical one: growth was already safe
        assert 1.0 / math.sqrt(1.0 - tr.v_clipped[0] / 0.5) >= 0.5

    def test_fixed_r(self):
        opt = ScalarGradaGrad([0.0], HyperParams(rho=1.5, r_fixed=0.25))
        opt.step([1.0])  # alpha = 1
        tr = traced_step(opt, [1.0])  # v = 1 - 1.5 = -0.5, clipped at -0.25 * 1
        assert (tr.v_raw[0], tr.v_clipped[0], tr.r[0]) == (-0.5, -0.25, 0.25)
        assert branch_names(tr) == ["negative"]
        assert opt.gamma[0] == math.sqrt(1.25) and opt.alpha[0] == 1.0

    def test_zero_alpha_is_contract_violation(self):
        # a negative step never meets alpha = 0: m_prev is zero on a
        # coordinate until its alpha is positive, so v = g^2 there
        opt = GradaGrad([0.0, 0.0, 0.0], HyperParams(rho=3.0))
        rng = np.random.default_rng(4)
        negatives = 0
        for k in range(200):
            g = rng.normal(1.0, 0.5, 3)
            g[rng.random(3) < (0.9 if k < 20 else 0.2)] = 0.0
            alpha_before = opt.alpha.copy()
            tr = traced_step(opt, g)
            neg = tr.branch == BRANCH_NEGATIVE
            negatives += int(neg.sum())
            assert np.all(alpha_before[neg] > 0)
        assert negatives > 20

    def test_nonnegative_v_rejected(self):
        # nonnegative v is never clipped: r stays NaN and v passes through
        _, trace = make_fuzz_run(steps=200, seed=6)
        keep = trace.v_raw >= 0
        assert np.all(np.isnan(trace.r[keep]))
        np.testing.assert_array_equal(trace.v_clipped[keep], trace.v_raw[keep])


class TestApplyReparam:
    """Absorbing a clipped negative v into gamma, through step."""

    def test_direct(self):
        opt = _past_init(alpha=0.5)
        opt.step([1.0])  # v = -1 does not bind at -r * alpha = -1.5
        assert opt.gamma[0] == pytest.approx(math.sqrt(3.0))

    def test_identity_at_zero(self):
        opt = _past_init(gamma0=2.5, alpha=7.0)
        opt.step([2.0])  # v = 0
        assert (opt.gamma[0], opt.alpha[0]) == (2.5, 7.0)

    def test_continues_clip_example(self):
        opt = _past_init(alpha=0.2)
        tr = traced_step(opt, [1.0])
        gamma_new = opt.gamma[0]
        assert gamma_new == pytest.approx(2.0)
        # the implied accumulator keeps the step size unchanged
        implied = gamma_new / math.sqrt(0.2 - tr.v_clipped[0])
        assert implied == pytest.approx(1.0 / math.sqrt(0.2), rel=1e-12)

    def test_bad_alpha(self):
        # an unbootstrapped coordinate (alpha = 0) is never rescaled
        opt = GradaGrad([0.0, 0.0], HyperParams(gamma0=0.7, rho=2.0))
        for _ in range(5):
            opt.step([0.0, 1.0])
        assert (opt.gamma[0], opt.alpha[0]) == (0.7, 0.0)
        assert opt.gamma[1] > 0.7

    def test_positive_v_rejected(self):
        # gamma moves only on negative steps, alpha only on the others
        _, trace = make_fuzz_run(steps=200, seed=6)
        neg = trace.branch[1:] == BRANCH_NEGATIVE
        gamma, alpha = trace.gamma_after, trace.alpha_after
        np.testing.assert_array_equal(gamma[1:][~neg], gamma[:-1][~neg])
        np.testing.assert_array_equal(alpha[1:][neg], alpha[:-1][neg])


class TestAccumulatePositive:
    """alpha += v on nonnegative steps, through step."""

    @pytest.mark.parametrize("alpha,v,expected", [(0.0, 9.0, 9.0), (5.0, 0.0, 5.0), (1.0, 2.0, 3.0)])
    def test_values(self, alpha, v, expected):
        # with rho = 1 and g = 2, v = 4 - 2 * m_prev
        opt = _past_init(rho=1.0, alpha=alpha, m_prev=(4.0 - v) / 2.0)
        tr = traced_step(opt, [2.0])
        assert (tr.v_raw[0], branch_names(tr)) == (v, ["positive"])
        assert opt.alpha[0] == expected

    def test_negative_rejected(self):
        # a negative v never enters alpha
        opt = _past_init()
        tr = traced_step(opt, [1.0])
        assert tr.v_raw[0] < 0 and opt.alpha[0] == 1.0


class TestPreconditionerEntry:
    """The recorded preconditioner entry a = sqrt(alpha) / gamma."""

    @pytest.mark.parametrize(
        "alpha,gamma,expected", [(4.0, 2.0, 1.0), (9.0, 1.0, 3.0), (2.0, math.sqrt(2.0), 1.0)]
    )
    def test_values(self, alpha, gamma, expected):
        opt = GradaGrad([0.0], HyperParams(gamma0=gamma))
        g = math.sqrt(alpha)
        tr = traced_step(opt, [g])
        assert tr.a_after[0] == pytest.approx(expected)
        assert opt.x[0] == pytest.approx(-g / expected)

    def test_unbootstrapped(self):
        opt = GradaGrad([1.0, 1.0])
        tr = traced_step(opt, [0.0, 2.0])
        assert tr.a_after[0] == 0.0 and opt.x[0] == 1.0  # zero step, no division by zero
        assert tr.a_after[1] == 2.0


class TestProject:
    def test_box_clamp(self):
        box = Domain.box([-1.0, -1.0], [1.0, 1.0])
        np.testing.assert_array_equal(project([5.0, -5.0], box), [1.0, -1.0])

    def test_unconstrained_identity(self):
        p = np.array([3.0, -7.0, 0.0])
        np.testing.assert_array_equal(project(p, Domain()), p)

    def test_interior_fixed_point_and_idempotence(self):
        box = Domain.box([0.0], [1.0])
        np.testing.assert_array_equal(project([0.5], box), [0.5])
        once = project([3.0], box)
        np.testing.assert_array_equal(project(once, box), once)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project([1.0, 2.0], Domain.box([0.0], [1.0]))

    def test_bad_box(self):
        with pytest.raises(ValueError):
            Domain.box([1.0], [1.0])


class TestScalarStepper:
    def test_hand_trace(self):
        opt = ScalarGradaGrad([0.0], HyperParams(gamma0=1.0, rho=2.0, r_fixed=1.0))
        tr0 = traced_step(opt, [3.0])
        assert tr0.v_raw[0] == 9.0
        assert opt.alpha[0] == 9.0
        assert opt.gamma[0] == 1.0
        assert tr0.a_after[0] == 3.0
        np.testing.assert_allclose(opt.x, [-1.0])

        tr1 = traced_step(opt, [3.0])
        assert tr1.v_raw[0] == -9.0
        assert tr1.v_clipped[0] == -9.0  # -r*alpha = -9 exactly
        assert branch_names(tr1) == ["negative"]
        assert opt.gamma[0] == pytest.approx(math.sqrt(2.0))
        assert opt.alpha[0] == 9.0
        assert tr1.a_after[0] == pytest.approx(3.0 / math.sqrt(2.0))
        np.testing.assert_allclose(opt.x, [-1.0 - math.sqrt(2.0)])

    def test_zero_gradient_midrun_changes_nothing(self):
        opt = ScalarGradaGrad([0.0], HyperParams(rho=2.0, r_fixed=1.0))
        opt.step([3.0])
        x_before = opt.x.copy()
        gamma, alpha = opt.gamma[0], opt.alpha[0]
        tr = traced_step(opt, [0.0])
        assert tr.v_raw[0] == 0.0 and branch_names(tr) == ["positive"]
        assert (opt.gamma[0], opt.alpha[0]) == (gamma, alpha)
        np.testing.assert_array_equal(opt.x, x_before)

    def test_zero_gradient_start_is_zero_step(self):
        opt = ScalarGradaGrad([2.0])
        tr = traced_step(opt, [0.0])
        assert opt.alpha[0] == 0.0
        assert tr.a_after[0] == 0.0
        np.testing.assert_array_equal(opt.x, [2.0])
        # a later real gradient bootstraps normally
        opt.step([1.0])
        assert opt.alpha[0] == 1.0

    def test_adaptive_r_opt_in(self):
        params = HyperParams(gamma0=1.0, rho=2.0, r_fixed=None)
        opt = ScalarGradaGrad([0.0], params)
        opt.step([3.0])
        tr = traced_step(opt, [3.0])
        # v = -9 with alpha = 9; adaptive r = (rho*<g,g_prev>/||g||^2)^2 - 1 = 3
        assert tr.r[0] == pytest.approx(3.0)
        assert tr.v_clipped[0] == -9.0  # -r*alpha = -27 does not bind
        assert opt.gamma[0] == pytest.approx(math.sqrt(2.0))

    def test_trace_records_gradient_norm(self):
        opt = ScalarGradaGrad([0.0, 0.0])
        tr = traced_step(opt, [3.0, 4.0])
        assert tr.g[0] == pytest.approx(5.0)


class TestDiagonalStepper:
    def test_theory_mode_first_step(self):
        params = HyperParams(gamma0=1.0, rho=2.0, beta=0.0, g_inf=1.0, mode="theory")
        opt = GradaGrad([0.0, 0.0], params)
        tr = traced_step(opt, [1.0, 0.0])
        np.testing.assert_array_equal(tr.v_raw, [1.0, 1.0])
        np.testing.assert_array_equal(opt.alpha, [1.0, 1.0])
        np.testing.assert_array_equal(tr.a_after, [1.0, 1.0])
        np.testing.assert_array_equal(opt.z, [-1.0, 0.0])
        np.testing.assert_array_equal(opt.x, [-1.0, 0.0])
        np.testing.assert_array_equal(opt.m_prev, [1.0, 0.0])
        assert branch_names(tr) == ["init", "init"]

    def test_direction_equals_gradient_without_momentum(self):
        rng = np.random.default_rng(3)
        opt = GradaGrad(rng.standard_normal(4), HyperParams(rho=2.0))
        for _ in range(50):
            g = rng.standard_normal(4)
            opt.step(g)
            np.testing.assert_allclose(opt.m_prev, g, rtol=1e-12, atol=0.0)

    def test_z_tracks_x_without_momentum_unconstrained(self):
        rng = np.random.default_rng(14)
        opt = GradaGrad(rng.standard_normal(3), HyperParams(rho=2.0, beta=0.0))
        np.testing.assert_array_equal(opt.z, opt.x)
        for _ in range(80):
            opt.step(rng.normal(0.5, 0.5, 3))
            np.testing.assert_allclose(opt.z, opt.x, rtol=0.0, atol=0.0)

    def test_capped_coordinate_accumulates_squares(self):
        params = HyperParams(gamma0=1.0, rho=2.0, d_inf=1.2)
        opt = GradaGrad([0.0], params)
        opt.step([1.0])           # init: alpha=1
        tr1 = traced_step(opt, [1.0])     # v=-1, gamma -> min(sqrt(2), 1.2) = 1.2 (cap binds)
        assert branch_names(tr1) == ["negative"]
        assert opt.gamma[0] == 1.2
        tr2 = traced_step(opt, [2.0])
        assert branch_names(tr2) == ["capped"]
        assert tr2.v_raw[0] == 4.0
        assert opt.alpha[0] == 5.0
        assert opt.gamma[0] == 1.2

    def test_box_projection_keeps_z_feasible(self):
        params = HyperParams(gamma0=1.0, rho=0.0, beta=0.5)
        domain = Domain.box([-0.5], [0.5])
        opt = GradaGrad([0.0], params, domain)
        for g in ([1.0], [1.0], [-2.0], [3.0]):
            opt.step(g)
            assert -0.5 <= opt.z[0] <= 0.5

    def test_practical_zero_first_gradient_bootstraps_later(self):
        opt = GradaGrad([1.0, 1.0], HyperParams(rho=2.0))
        opt.step([0.0, 2.0])
        np.testing.assert_array_equal(opt.alpha, [0.0, 4.0])
        np.testing.assert_array_equal(opt.x, [1.0, 0.0])  # dead coordinate unmoved
        opt.step([1.0, 0.0])
        assert opt.alpha[0] == 1.0  # m_prev was 0 there, so v = g^2

    def test_gradient_shape_check(self):
        opt = GradaGrad([0.0, 0.0])
        with pytest.raises(ValueError):
            opt.step([1.0])


class TestBaselines:
    def test_adagrad_accumulation(self):
        opt = AdaGrad([0.0], gamma=1.0)
        opt.step([1.0])
        assert opt.stats()["ainv_mean"] == pytest.approx(1.0)
        opt.step([1.0])
        assert opt.stats()["ainv_mean"] == pytest.approx(1.0 / math.sqrt(2.0))

    def test_adagrad_two_grads(self):
        opt = AdaGrad([0.0], gamma=1.0)
        opt.step([3.0])
        opt.step([4.0])
        assert opt.alpha[0] == 25.0  # denominator sqrt(25) = 5
        assert opt.ainv[0] == 1.0 / 5.0  # the step size the second step applied

    def test_adagrad_zero_gradient_never_moves(self):
        opt = AdaGrad([1.5, -2.0])
        for _ in range(10):
            opt.step([0.0, 0.0])
        np.testing.assert_array_equal(opt.x, [1.5, -2.0])

    def test_sgd(self):
        opt = SGD([1.0], lr=0.5)
        opt.step([2.0])
        np.testing.assert_array_equal(opt.x, [0.0])

    def test_adam_zero_gradient_never_moves(self):
        opt = Adam([1.0, 2.0], lr=0.1)
        for _ in range(5):
            opt.step([0.0, 0.0])
        np.testing.assert_array_equal(opt.x, [1.0, 2.0])

    @pytest.mark.parametrize("g", [0.01, 1.0, 100.0])
    def test_adam_first_step_magnitude_is_lr(self, g):
        opt = Adam([0.0], lr=0.1)
        opt.step([g])
        assert abs(opt.x[0]) == pytest.approx(0.1, rel=1e-5)


    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    @pytest.mark.parametrize("make", [
        lambda v: AdaGrad([0.0], gamma=v),
        lambda v: SGD([0.0], lr=v),
        lambda v: Adam([0.0], lr=v),
        lambda v: Adam([0.0], eps=v),
    ], ids=["adagrad-gamma", "sgd-lr", "adam-lr", "adam-eps"])
    def test_rejects_nonpositive_or_nonfinite_rates(self, make, value):
        with pytest.raises(ValueError, match="positive and finite"):
            make(value)


class TestNonFiniteGradient:
    """Every stepper rejects a NaN or infinite gradient entry, names the step
    and the first bad entry (and its replica, in a stack), and leaves its
    state as it was."""

    @pytest.mark.parametrize("shape,where", [((6,), "entry 4"), ((2, 3), "entry 1 of replica 1")],
                             ids=["point", "stack"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("make", [
        lambda x0: GradaGrad(x0, HyperParams(beta=0.5)),
        lambda x0: ScalarGradaGrad(x0, HyperParams(r_fixed=None)),
        lambda x0: AdaGrad(x0),
        lambda x0: SGD(x0),
        lambda x0: Adam(x0),
    ], ids=["gradagrad", "gradagrad-scalar", "adagrad", "sgd", "adam"])
    def test_rejected_before_any_state_changes(self, make, bad, shape, where):
        opt = make(np.array([1.0, -2.0, 0.5, 0.3, 0.0, -1.0]).reshape(shape))
        for g in ([0.5, -1.0, 2.0, 0.1, 0.2, -0.3], [0.4, -0.8, 1.0, 0.2, 0.1, -0.1]):
            opt.step(np.array(g))
        before = {name: value.copy() for name, value in vars(opt).items() if isinstance(value, np.ndarray)}
        with pytest.raises(NonFiniteGradient) as info:
            opt.step(np.array([0.1, 0.2, 0.3, 0.4, bad, bad]))
        assert isinstance(info.value, ValueError)
        assert str(info.value) == f"step 2: gradient {where} is {bad}; gradients must be finite"
        assert opt.k == 2
        for name, value in before.items():
            np.testing.assert_array_equal(getattr(opt, name), value, err_msg=name)


class TestAveragedIterate:
    def test_two_iterates(self):
        opt = SGD([0.0], lr=1.0)
        opt.step([-2.0])  # x1 = 2
        np.testing.assert_allclose(opt.averaged_iterate(), [1.0])

    def test_constant_iterate(self):
        opt = SGD([3.0], lr=1.0)
        for _ in range(4):
            opt.step([0.0])
        np.testing.assert_allclose(opt.averaged_iterate(), [3.0])

    def test_four_iterates(self):
        opt = SGD([0.0], lr=1.0)
        for _ in range(3):
            opt.step([-1.0])  # iterates 0,1,2,3
        np.testing.assert_allclose(opt.averaged_iterate(), [1.5])

    def test_requires_a_step(self):
        with pytest.raises(ValueError):
            SGD([0.0]).averaged_iterate()


class TestDrive:
    @pytest.mark.parametrize("steps,eval_every,expected", [
        (7, 3, [0, 3, 6, 7]), (6, 3, [0, 3, 6]), (2, 5, [0, 2]), (3, 1, [0, 1, 2, 3]), (0, 1, [0]),
    ])
    def test_eval_cadence(self, steps, eval_every, expected):
        opt = SGD([0.0], lr=1.0)
        seen = []
        drive(opt, lambda x: np.array([-1.0]), steps, lambda k: seen.append((k, opt.k, float(opt.x[0]))), eval_every)
        assert seen == [(k, k, float(k)) for k in expected]

    def test_steps_each_replica_on_its_gradient_and_fills_the_trace(self):
        opt = GradaGrad(np.zeros((2, 3)))
        trace = Trace.empty(4, opt.dim)
        wall = drive(opt, lambda x: x - np.repeat([1.0, -2.0], 3), 4, trace=trace)
        assert opt.k == 4 and wall >= 0.0
        assert np.all(trace.branch[0] == 0) and np.isfinite(trace.gamma_after).all()
        assert np.all(opt.x[:3] > 0) and np.all(opt.x[3:] < 0)

    @pytest.mark.parametrize("ring,scalar", [(1, False), (3, False), (8, False), (3, True), (20, True)])
    def test_a_ring_passes_each_full_ring_and_the_last_partial_one(self, ring, scalar):
        """The rings on_trace gets hold, in order, the rows of the whole-run trace."""
        stepper = ScalarGradaGrad if scalar else GradaGrad

        def run(trace, on_trace=None):
            opt = stepper(np.array([1.0, -2.0]), HyperParams(gamma0=0.5, r_fixed=None))
            grads = iter(np.random.default_rng(4).normal(0.5, 1.0, (8, 2)))
            drive(opt, lambda x: next(grads), 8, trace=trace, on_trace=on_trace)

        whole = Trace.empty(8, 1 if scalar else 2)
        run(whole)
        chunks = []
        run(Trace.empty(ring, whole.branch.shape[1]), lambda chunk: chunks.append(copy_trace(chunk)))
        assert [chunk.k.tolist() for chunk in chunks] == [list(range(8))[a:a + ring] for a in range(0, 8, ring)]
        for name in ("k", "branch", *FLOAT_COLUMNS):
            joined = np.concatenate([getattr(chunk, name) for chunk in chunks])
            np.testing.assert_array_equal(joined, getattr(whole, name), err_msg=name)

    def test_wall_seconds_leave_out_on_trace(self, monkeypatch):
        clock = [0.0]

        def perf_counter():
            clock[0] += 1.0
            return clock[0]

        def on_trace(chunk):
            clock[0] += 1000.0

        monkeypatch.setattr(core.time, "perf_counter", perf_counter)
        opt = GradaGrad(np.zeros(2))
        wall = drive(opt, lambda x: x - 1.0, 5, trace=Trace.empty(2, 2), on_trace=on_trace)
        assert wall < 1000.0 and clock[0] > 3000.0  # three rings: steps 0-1, 2-3 and 4

    @pytest.mark.parametrize("eval_every", [0, -3])
    def test_rejects_eval_every_below_one(self, eval_every):
        opt = SGD([0.0])
        with pytest.raises(ValueError, match="eval_every must be >= 1"):
            drive(opt, lambda x: x, 5, eval_every=eval_every)
        assert opt.k == 0


class TestInvariantsFuzz:
    def test_branch_bookkeeping(self):
        _, trace = make_fuzz_run(steps=400, seed=5)
        seen = set()
        prev = None
        for tr in trace:
            for i, branch in enumerate(branch_names(tr)):
                seen.add(branch)
                assert branch in ("init", "capped", "positive", "negative")
                # negative <=> raw v < 0 outside init/capped
                if branch == "negative":
                    assert tr.v_raw[i] < 0
                else:
                    assert tr.v_clipped[i] == tr.v_raw[i]
                if branch in ("init", "capped", "positive"):
                    assert tr.v_raw[i] >= 0
                assert tr.a_after[i] == pytest.approx(
                    math.sqrt(tr.alpha_after[i]) / tr.gamma_after[i], rel=1e-12
                )
                if prev is not None:
                    assert tr.alpha_after[i] >= prev.alpha_after[i]
                    assert tr.gamma_after[i] >= prev.gamma_after[i]
                assert tr.gamma_after[i] <= 50.0
            prev = tr
        assert {"init", "capped", "positive", "negative"} <= seen

    def test_determinism_bit_identical(self):
        _, t1 = make_fuzz_run(steps=200, seed=11)
        _, t2 = make_fuzz_run(steps=200, seed=11)
        assert np.array_equal(t1.branch, t2.branch)
        for field in ("g", "v_raw", "v_clipped", "gamma_after", "alpha_after", "a_after"):
            assert np.array_equal(getattr(t1, field), getattr(t2, field))

    def test_scalar_monotone_alpha_gamma(self):
        rng = np.random.default_rng(2)
        opt = ScalarGradaGrad(rng.standard_normal(3), HyperParams(rho=2.0, r_fixed=None))
        gamma_prev, alpha_prev = opt.gamma[0], opt.alpha[0]
        for _ in range(500):
            opt.step(rng.normal(0.5, 0.5, 3))
            assert opt.gamma[0] >= gamma_prev
            assert opt.alpha[0] >= alpha_prev
            gamma_prev, alpha_prev = opt.gamma[0], opt.alpha[0]


class TestTrace:
    def test_empty_shapes(self):
        trace = Trace.empty(4, 3)
        assert len(trace) == 4
        np.testing.assert_array_equal(trace.k, [0, 1, 2, 3])
        assert trace.branch.shape == (4, 3) and trace.branch.dtype == np.int8
        for name in FLOAT_COLUMNS:
            assert getattr(trace, name).shape == (4, 3)

    def test_rows_and_slices_view_every_column(self):
        trace = Trace.empty(5, 2)
        row = trace[3]
        assert row.k == 3 and row.g.shape == (2,) and len(row.branch) == 2
        row.gamma_after[1] = 7.0  # a view: writes reach the trace
        assert trace.gamma_after[3, 1] == 7.0
        tail = trace[2:]
        assert len(tail) == 3 and tail[0].k == 2
        assert [r.k for r in trace] == [0, 1, 2, 3, 4]  # iteration by index

    def test_record_on_a_sub_trace_writes_the_row_of_its_step(self):
        trace = Trace.empty(6, 2)
        tail = trace[2:5]
        tail.record(3, g=[1.0, 2.0], branch=[3, 1])
        np.testing.assert_array_equal(trace.g[3], [1.0, 2.0])
        np.testing.assert_array_equal(trace.branch[3], [3, 1])
        assert np.isnan(np.delete(trace.g, 3, axis=0)).all()
        ring = Trace.empty(2, 2)
        ring.k += 4  # a ring moved on to steps 4 and 5
        ring.record(5, gamma_after=[7.0, 8.0])
        np.testing.assert_array_equal(ring.gamma_after[1], [7.0, 8.0])
        assert np.isnan(ring.gamma_after[0]).all()

    def test_step_fills_row_k_and_returns_none(self):
        opt = GradaGrad([0.0, 0.0], HyperParams(rho=2.0))
        trace = Trace.empty(3, 2)
        assert opt.step([1.0, 2.0], trace) is None
        assert opt.step([1.0, 1.0], trace) is None
        np.testing.assert_array_equal(trace.g[:2], [[1.0, 2.0], [1.0, 1.0]])
        np.testing.assert_array_equal(trace.gamma_after[1], opt.gamma)
        assert branch_names(trace[0]) == ["init", "init"]
        assert np.all(np.isnan(trace.g[2]))  # not stepped yet

    def test_scalar_trace_is_one_wide(self):
        opt = ScalarGradaGrad([0.0, 0.0, 0.0])
        trace = Trace.empty(2, opt.gamma.size)
        opt.step([1.0, 2.0, 2.0], trace)
        assert trace.g.shape == (2, 1) and trace.g[0, 0] == 3.0

    @pytest.mark.parametrize("make", [
        lambda: GradaGrad(np.ones(4), HyperParams(rho=2.0, beta=0.5, d_inf=3.0)),
        lambda: ScalarGradaGrad(np.ones(4), HyperParams(rho=2.0, r_fixed=None)),
    ])
    def test_tracing_does_not_change_the_run(self, make):
        rng = np.random.default_rng(21)
        grads = [rng.normal(0.5, 1.0, 4) for _ in range(60)]
        traced, untraced = make(), make()
        trace = Trace.empty(60, traced.gamma.size)
        for g in grads:
            traced.step(g, trace)
            untraced.step(g)
        np.testing.assert_array_equal(traced.x, untraced.x)
        np.testing.assert_array_equal(traced.gamma, untraced.gamma)
        np.testing.assert_array_equal(traced.alpha, untraced.alpha)
