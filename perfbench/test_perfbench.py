"""Tests of the benchmark itself: python -m pytest perfbench"""

import itertools
import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import run
import tracer
import worker
import workloads

cli = workloads.load_program()


def test_self_times_on_synthetic_span_tree():
    # cli.main [0, 10] holds data.load [1, 3] and problems.grad [4, 8],
    # which holds data.batch [5, 6]; a second root core.step [10, 12].
    spans = [
        tracer.Span("cli.main", 0, 10),
        tracer.Span("data.load", 1, 3, parent=0),
        tracer.Span("problems.grad", 4, 8, parent=0),
        tracer.Span("data.batch", 5, 6, parent=2),
        tracer.Span("core.step", 10, 12),
    ]
    assert tracer.self_times(spans) == [4, 2, 3, 1, 2]
    assert sum(tracer.self_times(spans)) == 12  # the roots' total time


def test_wrapped_calls_build_the_span_tree():
    ticks = itertools.count()
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap("data.batch", lambda: None)
    outer = t.wrap("problems.grad", lambda: inner())
    t.wrap("cli.main", lambda: (outer(), outer()))()
    assert [(s.name, s.parent) for s in t.spans] == [
        ("cli.main", -1), ("problems.grad", 0), ("data.batch", 1), ("problems.grad", 0), ("data.batch", 3),
    ]
    metrics, samples = tracer.pass_metrics(t.spans, Counter())
    assert metrics["data.batch_calls"] == 2 and metrics["problems.grad_calls"] == 2
    assert metrics["cli.self_s"] + metrics["problems.grad_s"] + metrics["data.batch_s"] == 9
    assert samples["problems.grad"] == [2.0, 2.0]


def test_tail_keeps_ten_samples_beyond_it():
    assert tracer.tail(list(range(1, 101)))[1:] == (90.0, 100)
    assert tracer.tail(list(range(1, 1001)))[:2] == (990, 99.0)
    assert tracer.tail([3, 1, 2])[:2] == (2, 50.0)


def test_wrappers_restore_every_attribute_when_a_command_raises(monkeypatch, tmp_path):
    from gradagrad import core

    def exploding_step(self, g):
        raise RuntimeError("boom")

    monkeypatch.setattr(core.GradaGrad, "step", exploding_step)
    targets = tracer.program_targets()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets]
    t = tracer.Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with t.installed(targets):
            assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
            cli.main(["run", "--problem", "quadratic", "--dim", "3", "--steps", "2",
                      "--out", str(tmp_path / "r.csv")])
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)
    assert [s.name for s in t.spans if s.end == 0.0] == []  # every span was closed
    assert t._stack == []
    assert {"cli.main", "core.step"} <= {s.name for s in t.spans}


def test_failed_patch_restores_what_was_patched():
    targets = tracer.program_targets()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets]
    with pytest.raises(KeyError):
        with tracer.Tracer().installed(targets + [(cli, "no_such_callable", "cli.none", None)]):
            pass
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


def test_corrupted_output_counts_as_failed(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    small = workloads.WideRun(dim=5, steps=3)
    reference = {}
    first = workloads.run_pass(cli, small, 0, reference, frozen=False, probe=lambda: 0.5)
    assert (first.attempted, first.failed) == (2, 0)
    assert first.probe_s == [0.5, 0.5, 0.5]  # before each command and after the last
    assert set(reference) == {"wide.csv", "wide_check.csv"}
    again = workloads.run_pass(cli, small, 0, reference, frozen=True)
    assert (again.attempted, again.failed) == (2, 0)

    reference["wide.csv"] = "0" * 64  # the output no longer matches its digest
    corrupted = workloads.run_pass(cli, small, 0, reference, frozen=True)
    assert (corrupted.attempted, corrupted.failed) == (2, 1)
    assert "wide.csv sha256" in corrupted.errors[0]


def test_a_failing_command_counts_as_failed(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    small = workloads.TraceVerify(dim=20, steps=200)
    small.prepare(tmp_path, 0)
    ok = workloads.run_pass(cli, small, 0, {}, frozen=False)
    assert (ok.attempted, ok.failed) == (3, 0)
    monkeypatch.setattr(cli, "cmd_trace_dump", lambda args: 1)
    bad = workloads.run_pass(cli, small, 0, {}, frozen=False)
    assert (bad.attempted, bad.failed) == (3, 1)
    assert bad.errors[0].startswith("trace-dump: exit 1")


def test_counts_that_vary_across_passes_fail_loudly():
    passes = []
    for lines in (500, 501):
        m = dict.fromkeys(tracer.EXACT_COUNTS, 0)
        m["data.lines_parsed"] = lines
        passes.append((m, {"problems.grad": [], "core.step": []}, workloads.PassResult()))
    with pytest.raises(SystemExit, match="data.lines_parsed"):
        worker.per_layer(passes, [workloads.PassResult()], coord_steps=0, tail_passes=1)


def test_tails_pool_a_fixed_number_of_traced_passes():
    traced = []
    for wall in (3.0, 1.0, 2.0):
        m = dict.fromkeys(tracer.EXACT_COUNTS, 0)
        samples = {"problems.grad": [wall] * 30, "core.step": [wall] * 30}
        traced.append((m, samples, workloads.PassResult(op_s=[("run", wall)])))
    out = worker.per_layer(traced, [workloads.PassResult(op_s=[("run", 1.0)])], coord_steps=0, tail_passes=2)
    # the third pass is left out: 60 samples, not 90, so the p50 is 1 s, not 2 s
    assert (out["core.step_us_tail"], out["core.step_us_tail_pct"], out["core.step_us_tail_n"]) == (1e6, 50.0, 60)
    assert out["bench.traced_wall_s"] == 2.0  # the median traced pass
    assert out["bench.traced_passes"] == 3


def test_end_to_end_cancels_a_machine_slowdown_seen_by_the_probe():
    ref = worker.REFERENCE_PROBE_S
    passes = [
        workloads.PassResult(op_s=[("run", 2.0), ("check", 0.5)], probe_s=[ref, ref, ref]),
        # the machine at half speed: commands and probes all take twice as long
        workloads.PassResult(op_s=[("run", 4.0), ("check", 1.0)], probe_s=[2 * ref, 2 * ref, 2 * ref]),
        # a quarter faster than the reference speed
        workloads.PassResult(op_s=[("run", 2.0), ("check", 0.375)], probe_s=[0.75 * ref] * 3),
    ]
    m = worker.end_to_end(passes, coord_steps=100)
    assert (m["run_s"], m["check_s"], m["wall_s"]) == pytest.approx((2.0, 0.5, 2.5))
    assert m["coord_steps_per_s"] == pytest.approx(100 / 2.5)


def test_benchmark_json_names_what_the_code_reports():
    bench = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.PER_LAYER_UNITS
    golden = workloads.load_golden()
    for name in workloads.WORKLOADS:
        assert set(golden[name]) == {str(workloads.DEFAULT_SEED), str(workloads.HELDOUT_SEED)}


def test_without_program_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-run", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
