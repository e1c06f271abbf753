"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete. Every tolerance and time limit is asserted here.
"""

import math
import time

import numpy as np
import pytest

from conftest import BITS, BLOBS, make_fuzz_run, traced_run
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
    check_monotone_and_cap,
    check_reparam_invariance,
    cli,
    drive,
    load_dataset,
    normalize_labels,
)
from gradagrad.core import BRANCH_NEGATIVE

FIXTURES = (BLOBS, BITS)


def _announce(number, text):
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def test_01_errnegativity_over_fuzzed_steps():
    # many short randomized runs: gamma saturates any cap once gradients
    # stay correlated, so short runs keep the negative branch dense
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    coord_steps = 0
    negatives = 0
    worst = 0.0
    run_idx = 0
    while coord_steps < 100_000:
        run_idx += 1
        dim = int(rng.integers(4, 14))
        steps = int(rng.integers(50, 110))
        mode = "theory" if run_idx % 5 == 0 else "practical"
        _, trace = make_fuzz_run(
            dim=dim,
            steps=steps,
            seed=int(rng.integers(0, 2**32)),
            d_inf=float(rng.choice([5.0, 50.0, 1e10])),
            rho=float(rng.choice([1.5, 2.0, 3.0])),
            beta=float(rng.choice([0.0, 0.5])),
            mode=mode,
            drift=float(rng.uniform(0.5, 1.5)),
            scale=float(rng.uniform(0.2, 0.6)),
        )
        report = check_errnegativity(trace)
        assert report.passed, (run_idx, report)
        worst = max(worst, report.worst_violation)
        coord_steps += dim * steps
        negatives += int(np.sum(trace.branch == BRANCH_NEGATIVE))
    # the scalar variant with the adaptive clip goes through the same check
    opt = ScalarGradaGrad(np.zeros(3), HyperParams(rho=2.0, r_fixed=None))
    scalar_trace = traced_run(opt, [rng.normal(1.0, 0.4, 3) for _ in range(500)])
    report = check_errnegativity(scalar_trace)
    assert report.passed, report
    negatives += int(np.sum(scalar_trace.branch == BRANCH_NEGATIVE))
    elapsed = time.perf_counter() - t0
    assert coord_steps >= 100_000
    assert negatives > 5_000, "fuzz must actually exercise the negative branch"
    assert worst <= 1e-12
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _announce(1, f"restricted increase held on {negatives} negative steps over "
                 f"{coord_steps} fuzzed coordinate-steps ({run_idx} runs) in {elapsed:.1f}s")


def test_02_reparam_invariance_and_monotonicity():
    runs = []
    # fuzzed runs, one of them with a binding cap and one with momentum
    for seed, d_inf, beta in ((7, 50.0, 0.0), (8, 3.0, 0.0), (9, 50.0, 0.8)):
        _, trace = make_fuzz_run(steps=2_000, seed=seed, d_inf=d_inf, beta=beta)
        runs.append((trace, d_inf))
    # a benchmark run on a bundled dataset
    ds = normalize_labels(load_dataset(BITS))
    problem = LogisticRegression(ds, batch_size=50)
    opt = GradaGrad(np.zeros(problem.dim), HyperParams(gamma0=1.0, rho=2.0))
    states = [problem.init_state(0)]
    bench = Trace.empty(300, problem.dim)
    drive(opt, lambda x: problem.grad_sample(x, states), 300, trace=bench)
    runs.append((bench, 1e10))

    checked = 0
    for trace, d_inf in runs:
        assert check_monotone_and_cap(trace, d_inf=d_inf, gamma0=1.0).passed
        assert check_reparam_invariance(trace, d_inf=d_inf).passed
        checked += 1
    _announce(2, f"gamma/alpha monotone, cap respected, reparam identity <= 1e-12 "
                 f"on {checked} runs (fuzz + benchmark)")


def test_03_rho_zero_matches_adagrad():
    t0 = time.perf_counter()
    problem = Quadratic([2.0, 0.5, 1.0, 4.0])
    report = check_adagrad_equivalence(problem, steps=1_000, gamma=1.0, x0=2.0 * np.ones(4))
    elapsed = time.perf_counter() - t0
    assert report.passed, report
    assert report.worst_violation <= 1e-12
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _announce(3, f"1000-step trajectories agree to {report.worst_violation:g} "
                 f"in {elapsed:.2f}s")


def test_04_rho_one_identity():
    lhs, rhs = alpha_identity_sides([1.0, -1.0, 1.0])
    assert lhs == 5.0 and rhs == 5.0
    rng = np.random.default_rng(404)
    accepted = 0
    while accepted < 100:
        gs = rng.standard_normal(8)
        if np.any(gs[1:] ** 2 - gs[1:] * gs[:-1] < 0):
            continue
        accepted += 1
        lhs, rhs = alpha_identity_sides(gs)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))
        assert check_alpha_identity_rho1(gs).passed
    _announce(4, "identity held on the hand fixture (both sides 5) and "
                 "100 random all-nonnegative-increment sequences")


def test_05_poor_initial_step_size_recovery():
    t0 = time.perf_counter()
    problem = AbsValue(1)
    x0 = np.array([1.0])
    gg = GradaGrad(x0, HyperParams(gamma0=1e-3, rho=2.0))
    ag = AdaGrad(x0, gamma=1e-3)
    gg_ainv, ag_ainv = [], []
    for _ in range(500):
        gg.step(problem.grad_full(gg.x))
        ag.step(problem.grad_full(ag.x))
        gg_ainv.append(gg.stats()["ainv_mean"])
        ag_ainv.append(ag.stats()["ainv_mean"])
    sub_gg = problem.loss_full(gg.x)
    sub_ag = problem.loss_full(ag.x)
    elapsed = time.perf_counter() - t0
    assert sub_gg * 10.0 <= sub_ag, f"{sub_gg} vs {sub_ag}"
    grew = [k for k in range(1, 50) if gg_ainv[k] > gg_ainv[k - 1]]
    assert grew, "effective step size never grew in the early steps"
    assert all(ag_ainv[k] <= ag_ainv[k - 1] for k in range(1, 500))
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _announce(5, f"suboptimality {sub_gg:.3g} vs {sub_ag:.3g} ({sub_ag / sub_gg:.0f}x); "
                 f"step size first grew at step {grew[0]}")


def test_06_convergence_trend_on_noisy_quadratic():
    t0 = time.perf_counter()
    problem = Quadratic(np.ones(5), noise_std=1.0)
    report = check_convergence_trend(
        problem,
        lambda x0: GradaGrad(x0, HyperParams(gamma0=1.0, rho=2.0)),
        x0=3.0 * np.ones(5),
        n_small=2_000,
        factor=4,
        n_seeds=10,
    )
    elapsed = time.perf_counter() - t0
    assert report.passed, report.details
    assert report.worst_violation <= 0.75
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _announce(6, f"{report.details} in {elapsed:.1f}s")


def test_07_untuned_defaults_match_tuned_adagrad():
    t0 = time.perf_counter()
    epochs, batch, n_seeds = 25, 32, 10
    grid = [2.0 ** e for e in range(-6, 3)]
    margins = []
    for path in FIXTURES:
        ds = normalize_labels(load_dataset(path))
        problem = LogisticRegression(ds, batch_size=batch)
        n_batches = math.ceil(problem.n / batch)
        steps = epochs * n_batches

        def final_accuracies(opt, seeds):
            """One score per replica: its mean accuracy over the last 10
            evaluations, one every epoch; replica r draws from seeds[r]."""
            states = [problem.init_state(seed) for seed in seeds]
            accs = []
            drive(opt, lambda x: problem.grad_sample(x, states), steps,
                  lambda k: accs.append(problem.accuracy(opt.x.reshape(opt.replicas, -1))), n_batches)
            # one column at a time: a mean over axis 0 sums in another order
            return [np.mean(column.tolist()) for column in np.array(accs[-10:]).T]

        seeds = [1_000 + s for s in range(n_seeds)]
        x0 = np.zeros((n_seeds, problem.dim))
        gg_acc = float(np.mean(final_accuracies(GradaGrad(x0, HyperParams(gamma0=1.0, rho=2.0)), seeds)))
        ag_scores = final_accuracies(
            AdaGrad(np.zeros((len(grid) * n_seeds, problem.dim)), gamma=np.repeat(grid, n_seeds)),
            seeds * len(grid),
        )
        ag_best = max(float(np.mean(ag_scores[i:i + n_seeds])) for i in range(0, len(ag_scores), n_seeds))
        margins.append((path.name, gg_acc, ag_best))
        assert gg_acc >= ag_best - 0.02, (
            f"{path.name}: untuned {gg_acc:.4f} vs tuned adagrad {ag_best:.4f}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    summary = "; ".join(f"{n}: {g:.3f} vs {a:.3f}" for n, g, a in margins)
    _announce(7, f"within 2pp of the tuned baseline on both fixtures ({summary}) "
                 f"in {elapsed:.0f}s")


def test_08_gradient_oracles_pass_finite_differences():
    worst = 0.0
    rng = np.random.default_rng(808)
    for diag in ([2.0], [1.0, 5.0, 0.25]):
        problem = Quadratic(diag)
        for _ in range(3):
            report = check_finite_diff(problem, rng.standard_normal(problem.dim) * 2)
            assert report.passed, report
            worst = max(worst, report.worst_violation)
    for path in FIXTURES:
        problem = LogisticRegression(normalize_labels(load_dataset(path)), batch_size=8)
        for point in (np.zeros(problem.dim), rng.standard_normal(problem.dim)):
            report = check_finite_diff(problem, point)
            assert report.passed, report
            worst = max(worst, report.worst_violation)
    assert worst <= 1e-5
    _announce(8, f"worst relative finite-difference error {worst:.2e} (<= 1e-5)")


def test_09_determinism_and_formats(tmp_path, capsys):
    # identical seeds -> byte-identical run and trace CSVs
    args = [
        "run", "--problem", "logistic", "--dataset", str(BITS), "--epochs", "3",
        "--batch-size", "50", "--seed", "11", "--trace",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.trace.csv").read_bytes() == (tmp_path / "b.trace.csv").read_bytes()

    # LIBSVM round-trip is lossless on the bundled fixtures
    from gradagrad import load_dataset as load, save_dataset

    for path in FIXTURES:
        ds = load(path)
        copy = tmp_path / path.name
        save_dataset(ds, copy)
        assert load(copy) == ds

    # malformed lines produce a line-numbered diagnostic and exit code 2
    bad = tmp_path / "bad.libsvm"
    bad.write_text("1 1:1\n\n1 4:1 2:1\n")
    code = cli.main(["run", "--problem", "logistic", "--dataset", str(bad), "--epochs", "1"])
    assert code == 2
    assert "line 3" in capsys.readouterr().err
    _announce(9, "byte-identical reruns, lossless round-trip, line-numbered parse errors")
