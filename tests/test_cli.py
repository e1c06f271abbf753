import argparse
import csv
import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import BITS, BLOBS, GRID_CASES, HOSTILE, in_dialect
from gradagrad import HyperParams, cli, csvio, load_dataset


def run_cli(argv):
    return cli.main(list(argv))


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestRun:
    def test_abs_run_writes_record(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_cli([
            "run", "--problem", "abs", "--optimizer", "gradagrad",
            "--gamma0", "0.001", "--steps", "500", "--out", str(out),
        ])
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == csvio.RUN_HEADER
        steps = [int(r[0]) for r in rows[1:]]
        assert steps == sorted(steps) and len(set(steps)) == len(steps)
        assert steps[0] == 0 and steps[-1] == 500
        # synthetic run: epoch and accuracy columns are empty
        assert rows[1][1] == "" and rows[1][3] == ""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_a_diverging_run_exits_3_and_names_the_step(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert run_cli(["run", "--problem", "quadratic", "--dim", "2", "--optimizer", "sgd",
                        "--gamma0", "1e155", "--steps", "6", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: step 2: gradient entry 0 is inf; gradients must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["--gamma0", "1e153", "--x0", "1e153", "--steps", "1", "--eval-every", "1"], "step 1: loss is inf"),
        (["--gamma0", "1e155", "--steps", "6", "--eval-every", "1"], "step 1: loss is inf"),
        (["--problem", "abs", "--dim", "1", "--gamma0", "1", "--x0", "1e308", "--steps", "1"],
         "step 1: averaged-iterate loss is inf"),
    ], ids=["loss-1e153", "loss-1e155", "averaged-iterate"])
    def test_a_non_finite_loss_exits_3_without_a_record_or_a_warning(self, tmp_path, capsys, argv, message):
        out = tmp_path / "run.csv"
        assert run_cli(["run", "--problem", "quadratic", "--dim", "2", "--optimizer", "sgd", *argv,
                        "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {message}; losses must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        # a = sqrt(alpha) / gamma overflows at step 0, so m = inf * 0 makes every later v and alpha NaN
        (["--problem", "abs", "--gamma0", "1e-320", "--eval-every", "1"], "step 2: alpha_mean is nan"),
        # g^2 overflows
        (["--problem", "quadratic", "--dim", "1", "--noise-std", "1e308"], "step 3: alpha_mean is nan"),
    ], ids=["gamma0-1e-320", "noise-1e308"])
    def test_a_non_finite_statistic_exits_3_without_a_record_or_a_trace(self, tmp_path, capsys, argv, message):
        assert run_cli(["run", *argv, "--steps", "3", "--trace", "--out", str(tmp_path / "run.csv")]) == 3
        assert capsys.readouterr().err == f"error: {message}; statistics must be finite\n"
        assert list(tmp_path.iterdir()) == []

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "run", "--problem", "quadratic", "--dim", "3", "--noise-std", "1.0",
            "--steps", "300", "--seed", "9", "--trace",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.trace.csv").read_bytes() == (tmp_path / "b.trace.csv").read_bytes()

    def test_different_seed_changes_output(self, tmp_path):
        base = ["run", "--problem", "quadratic", "--noise-std", "1.0", "--steps", "50"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(base + ["--seed", "1", "--out", str(out1)])
        run_cli(base + ["--seed", "2", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_logistic_epochs(self, tmp_path):
        out = tmp_path / "log.csv"
        code = run_cli([
            "run", "--problem", "logistic", "--dataset", str(BITS),
            "--epochs", "2", "--batch-size", "50", "--out", str(out),
        ])
        assert code == 0
        rows = read_rows(out)
        # 500 examples / 50 batch = 10 steps per epoch, eval per epoch
        assert [r[0] for r in rows[1:]] == ["0", "10", "20"]
        assert [r[1] for r in rows[1:]] == ["0", "1", "2"]
        accuracy = float(rows[-1][3])
        assert 0.0 <= accuracy <= 1.0

    def test_stdout_when_no_out(self, capsys):
        code = run_cli(["run", "--problem", "abs", "--steps", "5"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == ",".join(csvio.RUN_HEADER)

    def test_recorded_step_size_adapts_up_only_for_gradagrad(self, tmp_path):
        # |x| from x0=1 with a poor gamma0: the recorded mean inverse
        # preconditioner grows early for gradagrad, never for adagrad
        def ainv_column(optimizer):
            out = tmp_path / f"{optimizer}.csv"
            assert run_cli([
                "run", "--problem", "abs", "--optimizer", optimizer,
                "--gamma0", "0.001", "--steps", "60", "--eval-every", "1",
                "--out", str(out),
            ]) == 0
            return [float(r[8]) for r in read_rows(out)[2:]]  # skip step-0 blank

        gg = ainv_column("gradagrad")
        ag = ainv_column("adagrad")
        assert any(b > a for a, b in zip(gg, gg[1:]))
        assert all(b <= a for a, b in zip(ag, ag[1:]))

    def test_trace_schema(self, tmp_path):
        out = tmp_path / "r.csv"
        run_cli([
            "run", "--problem", "quadratic", "--dim", "2", "--steps", "20",
            "--out", str(out), "--trace",
        ])
        rows = read_rows(tmp_path / "r.trace.csv")
        assert rows[0] == csvio.TRACE_HEADER
        assert len(rows) == 1 + 20 * 2
        branches = {r[5] for r in rows[1:]}
        assert branches <= {"init", "capped", "positive", "negative"}
        # r column is empty outside negative branches
        for r in rows[1:]:
            if r[5] != "negative":
                assert r[6] == ""


class TestConfigErrors:
    def test_steps_and_epochs_exclusive(self, tmp_path):
        assert run_cli(["run", "--problem", "abs", "--steps", "5", "--epochs", "2"]) == 2
        assert run_cli(["run", "--problem", "abs"]) == 2

    def test_epochs_need_dataset_problem(self):
        assert run_cli(["run", "--problem", "abs", "--epochs", "2"]) == 2

    def test_trace_needs_gradagrad(self, tmp_path):
        code = run_cli([
            "run", "--problem", "abs", "--optimizer", "sgd", "--steps", "5",
            "--trace", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_trace_needs_out(self):
        assert run_cli(["run", "--problem", "abs", "--steps", "5", "--trace"]) == 2

    def test_unknown_optimizer_is_usage_error(self):
        assert run_cli(["run", "--problem", "abs", "--optimizer", "nadam", "--steps", "5"]) == 2

    def test_logistic_requires_dataset(self):
        assert run_cli(["run", "--problem", "logistic", "--steps", "5"]) == 2

    def test_missing_dataset_file(self):
        assert run_cli([
            "run", "--problem", "logistic", "--dataset", "/nonexistent.libsvm", "--epochs", "1",
        ]) == 2

    def test_malformed_dataset_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.libsvm"
        bad.write_text("1 1:1\n1 3:1 2:9\n")
        code = run_cli([
            "run", "--problem", "logistic", "--dataset", str(bad), "--epochs", "1",
        ])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_malformed_dataset_names_path_then_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.libsvm"
        bad.write_text("1 1:1\n1 3:1 2:9\n")
        assert run_cli(["run", "--problem", "logistic", "--dataset", str(bad), "--steps", "3"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: line 2: feature index 2 not strictly increasing (previous 3)\n"

    @pytest.mark.parametrize("command", ["run", "grid"])
    @pytest.mark.parametrize("text,message", [
        ("1\n-1\n1\n", "dataset has no features"),
        ("", "dataset is empty"),
        ("# only a comment\n\n", "dataset is empty"),
    ])
    def test_dataset_without_features_or_examples_names_its_file(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "f.libsvm"
        path.write_text(text)
        argv = [command, "--problem", "logistic", "--dataset", str(path), "--steps", "2",
                "--optimizer", "adagrad", "--out", str(tmp_path / "out.csv")]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "out.csv").exists()

    def test_batch_size_below_one_rejected(self, capsys):
        assert run_cli(["run", "--problem", "logistic", "--dataset", str(BITS), "--steps", "2",
                        "--batch-size", "0"]) == 2
        assert capsys.readouterr().err == "error: --batch-size must be >= 1, got 0\n"

    @pytest.mark.parametrize("argv", [[], ["run", "--bogus"], ["run", "--problem", "cube"], ["check"]])
    def test_usage_error_returns_2(self, capsys, argv):
        assert cli.main(argv) == 2
        assert "usage: gradagrad" in capsys.readouterr().err

    def test_help_returns_0(self, capsys):
        assert cli.main(["run", "--help"]) == 0
        assert "usage: gradagrad run" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["run", "--problem", "abs", "--steps", "3", "--out", "{name}"],
        ["run", "--problem", "abs", "--steps", "3", "--trace", "--out", "{name}"],
        ["check", "{name}"],
        ["run", "--problem", "logistic", "--dataset", "{name}", "--steps", "3"],
    ])
    def test_os_error_names_the_path(self, tmp_path, capsys, argv):
        name = str(tmp_path / ("a" * 300))  # longer than a file name may be
        assert run_cli([arg.format(name=name) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err

    def test_negative_seed_rejected(self):
        assert run_cli(["run", "--problem", "abs", "--steps", "5", "--seed", "-1"]) == 2

    def test_bad_hyperparams(self):
        assert run_cli(["run", "--problem", "abs", "--steps", "5", "--gamma0", "-1"]) == 2

    @pytest.mark.parametrize("optimizer", ["gradagrad", "adagrad", "sgd"])
    def test_nan_gamma0_is_usage_error(self, tmp_path, capsys, optimizer):
        out = tmp_path / "r.csv"
        args = ["run", "--problem", "abs", "--steps", "5", "--optimizer", optimizer, "--out", str(out)]
        assert run_cli([*args, "--gamma0", "nan"]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--noise-std", "nan"), ("--noise-std", "inf"), ("--diag", "nan,1"), ("--x0", "nan"), ("--x0", "1,inf"),
    ])
    def test_non_finite_problem_input_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "r.csv"
        args = ["run", "--problem", "quadratic", "--dim", "2", "--steps", "5", "--out", str(out)]
        assert run_cli([*args, flag, value]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text,line", [("1 1:nan\n-1 2:1\n", 1), ("1 1:1\ninf 2:1\n", 2)])
    def test_non_finite_libsvm_value_reports_line(self, tmp_path, capsys, text, line):
        bad, out = tmp_path / "bad.libsvm", tmp_path / "r.csv"
        bad.write_text(text)
        assert run_cli([
            "run", "--problem", "logistic", "--dataset", str(bad), "--steps", "3", "--out", str(out),
        ]) == 2
        assert f"line {line}: " in capsys.readouterr().err
        assert not out.exists()

    def test_bad_r_value(self):
        assert run_cli([
            "run", "--problem", "abs", "--optimizer", "gradagrad-scalar",
            "--steps", "5", "--r", "sometimes",
        ]) == 2

    @pytest.mark.parametrize("argv,text,message", [
        (["--problem", "abs", "--steps", "3", "--optimizer", "adagrad", "--rho", "7", "--beta", "0.5", "--r", "3",
          "--d-inf", "2"], None, "--rho is not read by --optimizer adagrad and --problem abs"),
        (["--problem", "abs", "--steps", "3", "--optimizer", "gradagrad-scalar", "--d-inf", "0.5"], None,
         "--d-inf is not read by --optimizer gradagrad-scalar and --problem abs"),
        (["--problem", "abs", "--steps", "3", "--noise-std", "2", "--batch-size", "7"], None,
         "--noise-std is not read by --optimizer gradagrad and --problem abs"),
        # not "theory mode needs gamma0 <= d_inf": the scalar stepper has no mode and no cap
        (["--problem", "abs", "--steps", "3", "--optimizer", "gradagrad-scalar", "--mode", "theory",
          "--gamma0", "2e10"], None, "--mode is not read by --optimizer gradagrad-scalar and --problem abs"),
        (["--problem", "logistic", "--dataset", str(BITS), "--steps", "3", "--dim", "9"], None,
         "--dim is not read by --optimizer gradagrad and --problem logistic"),
        (["--problem", "abs", "--steps", "3", "--g-inf", "2"], None,
         "--g-inf is not read by --optimizer gradagrad and --problem abs in --mode practical"),
        (["--problem", "abs", "--steps", "3", "--optimizer", "sgd", "--trace"], None,
         "--trace is not read by --optimizer sgd and --problem abs"),
        (["--problem", "abs", "--epochs", "2"], None, "--epochs is not read by --optimizer gradagrad and --problem abs"),
        (["--problem", "abs", "--steps", "3", "--optimizer", "sgd", "--config", "{path}"], "rho=7\n",
         "{path}:1: --rho is not read by --optimizer sgd and --problem abs"),
        (["--steps", "3", "--config", "{path}", "--optimizer", "adam"], "problem=quadratic\n\nbatch_size=8\n",
         "{path}:3: --batch-size is not read by --optimizer adam and --problem quadratic"),
        (["--config", "{path}", "--rho", "7"], "problem=abs\noptimizer=sgd\nsteps=3\n",
         "--rho is not read by --optimizer sgd and --problem abs"),
        # given at its default value: still given, so still not read
        (["--problem", "abs", "--steps", "3", "--optimizer", "adagrad", "--rho", "2"], None,
         "--rho is not read by --optimizer adagrad and --problem abs"),
        (["--problem", "abs", "--steps", "3", "--optimizer", "gradagrad-scalar", "--mode=practical"], None,
         "--mode is not read by --optimizer gradagrad-scalar and --problem abs"),
        (["--problem", "abs", "--steps", "3", "--optimizer", "adagrad", "--config", "{path}"], "rho = 2.0\n",
         "{path}:1: --rho is not read by --optimizer adagrad and --problem abs"),
        (["--problem", "abs", "--steps", "3", "--optimizer", "sgd", "--config", "{path}"], "trace=false\n",
         "{path}:1: --trace is not read by --optimizer sgd and --problem abs"),
    ], ids=["adagrad-knobs", "scalar-d-inf", "abs-noise-batch", "scalar-theory", "logistic-dim", "practical-g-inf",
            "sgd-trace", "abs-epochs", "config-rho", "config-batch-size", "flag-after-config", "default-rho",
            "default-mode", "config-default-rho", "config-trace-false"])
    def test_an_unread_flag_is_rejected(self, tmp_path, capsys, argv, text, message):
        path, out = tmp_path / "run.cfg", tmp_path / "out.csv"
        if text is not None:
            path.write_text(text)
        assert run_cli(["run", *[arg.format(path=path) for arg in argv], "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
        assert not out.exists()


@pytest.mark.parametrize("command", ["run", "grid"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_eval_every_below_one_rejected(tmp_path, capsys, command, value):
    out = tmp_path / "out.csv"
    argv = [command, "--problem", "abs", "--steps", "7", "--eval-every", value, "--out", str(out)]
    assert run_cli(argv) == 2
    assert f"--eval-every must be >= 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("optimizer", ["gradagrad", "gradagrad-scalar", "adagrad", "sgd", "adam"])
@pytest.mark.parametrize("shape", [["--dim", "0"], ["--diag", ","]], ids=["dim0", "empty-diag"])
def test_empty_quadratic_rejected(capsys, optimizer, shape):
    assert run_cli(["run", "--problem", "quadratic", *shape, "--optimizer", optimizer, "--steps", "3"]) == 2
    assert "dim must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "grid"])
@pytest.mark.parametrize("problem", ["abs", "quadratic"])
def test_negative_dim_rejected(capsys, command, problem):
    assert run_cli([command, "--problem", problem, "--dim", "-1", "--steps", "3"]) == 2
    err = capsys.readouterr().err
    assert "error: dim must be >= 1, got -1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,text,message", [
    (["run", "--problem", "quadratic", "--dim", "3", "--x0", "1,2", "--steps", "5"], None,
     "--x0 has 2 entries but the problem has dim 3"),
    (["run", "--problem", "logistic", "--dataset", str(BITS), "--epochs", "0"], None, "--epochs must be >= 1"),
    (["run", "--problem", "abs", "--steps", "0"], None, "--steps must be >= 1"),
    (["grid", "--problem", "abs", "--steps", "5", "--seeds", "0"], None, "--seeds must be >= 1"),
    (["check", "{path}", "--checks", ","], ",".join(csvio.TRACE_HEADER) + "\n", "no checks requested"),
    (["run", "--config", "{path}"], "problem=abs\nsteps 5\n", "{path}:2: expected key=value"),
    (["run", "--config", "{path}"], "problem=abs\ntrace=maybe\nsteps=5\n", "{path}:2: trace must be true or false"),
], ids=["x0-length", "epochs-0", "steps-0", "seeds-0", "no-checks", "config-no-equals", "config-trace-maybe"])
def test_a_rejected_setting_has_its_exact_message(tmp_path, capsys, argv, text, message):
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "out.csv"
    assert run_cli([arg.format(path=path) for arg in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
    assert not out.exists()


# a value each string-valued or numeric flag's own type rejects, and argparse's message for it
LIST_VALUE_ERRORS = [
    ("run", "x0=a", "argument --x0: expected comma-separated numbers, got 'a'"),
    ("run", "diag=1,b", "argument --diag: expected comma-separated numbers, got '1,b'"),
    ("grid", "grid_values=1,x", "argument --grid-values: expected comma-separated numbers, got '1,x'"),
    ("grid", "grid_param=foo", "argument --grid-param: invalid choice: 'foo'"),
    ("run", "r=sometimes", "argument --r: must be a number or 'adaptive', got 'sometimes'"),
    ("run", "seed=abc", "argument --seed: seed must be an unsigned 64-bit value, got 'abc'"),
    # spellings that int() or float() takes and the trace CSV's number grammar does not
    ("run", "steps=1_0", "argument --steps: invalid int value: '1_0'"),
    ("run", "gamma0=\u0661", "argument --gamma0: invalid float value: '\u0661'"),
    ("run", "seed=1_0", "argument --seed: seed must be an unsigned 64-bit value, got '1_0'"),
    ("run", "x0=1_0", "argument --x0: expected comma-separated numbers, got '1_0'"),
    ("run", "d_inf=Infinity", "argument --d-inf: invalid float value: 'Infinity'"),
    ("run", "r=1_0", "argument --r: must be a number or 'adaptive', got '1_0'"),
    ("run", "dim=01", "argument --dim: invalid int value: '01'"),
    ("run", "eval_every=+1", "argument --eval-every: invalid int value: '+1'"),
    ("run", "rho=.5", "argument --rho: invalid float value: '.5'"),
    ("run", "beta=5.", "argument --beta: invalid float value: '5.'"),
    ("run", "noise_std=1e400", "argument --noise-std: invalid float value: '1e400'"),
    ("run", "g_inf=NaN", "argument --g-inf: invalid float value: 'NaN'"),
    ("grid", "grid_values=1,+2", "argument --grid-values: expected comma-separated numbers, got '1,+2'"),
]


@pytest.mark.parametrize("argv,message", [
    (["run", "--problem", "abs", "--steps", "1_0", "--gamma0", "\u0661"], "argument --steps: invalid int value: '1_0'"),
    (["run", "--problem", "abs", "--steps", "1", "--gamma0", " 1.5 "], "argument --gamma0: invalid float value: ' 1.5 '"),
    (["run", "--problem", "quadratic", "--steps", "1", "--diag", "1, 2"],
     "argument --diag: expected comma-separated numbers, got '1, 2'"),
    (["check", "t.csv", "--d-inf", "Infinity"], "argument --d-inf: invalid float value: 'Infinity'"),
    (["trace-dump", "t.csv", "--head", "1_0"], "argument --head: invalid int value: '1_0'"),
])
def test_a_numeric_flag_takes_only_the_trace_csv_number_grammar(capsys, argv, message):
    """Beside LIST_VALUE_ERRORS' spellings, which a config line rejects too: padding, which a config line strips."""
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("token", HOSTILE)
@pytest.mark.parametrize("flag,integer", [("--steps", True), ("--gamma0", False), ("--x0", False)])
def test_a_numeric_flag_takes_what_the_trace_reader_takes(flag, integer, token):
    """A flag takes a token where the readers' grammar does, and then reads it as int() or float() does."""
    parse = functools.partial(cli._flag_parser("run").parse_args, [f"{flag}={token}"])
    if not in_dialect(token, integer):
        with pytest.raises(argparse.ArgumentError):
            parse()
    else:
        expected = int(token) if integer else float(token)
        assert repr(getattr(parse(), flag[2:])) == repr([expected] if flag == "--x0" else expected)


def test_run_defaults_are_the_hyperparams_defaults():
    assert cli._build_hyperparams(cli.build_parser().parse_args(["run"])) == HyperParams()


# the flags of cli.READS each optimizer and each problem reads (the diagonal
# stepper reads g_inf only in theory mode), and a valid value off its default
OPTIMIZER_READS = {"gradagrad": {"rho", "trace", "beta", "d_inf", "mode", "g_inf"},
                   "gradagrad-scalar": {"rho", "trace", "r"}, "adagrad": set(), "sgd": set(), "adam": set()}
PROBLEM_READS = {"abs": {"dim"}, "quadratic": {"dim", "diag", "noise_std"},
                 "logistic": {"dataset", "batch_size", "epochs"}}
READ_VALUES = {
    "rho": ["--rho", "1.5"], "trace": ["--trace"], "r": ["--r", "0.5"], "beta": ["--beta", "0.3"],
    "mode": ["--mode", "theory"], "g_inf": ["--g-inf", "2"], "d_inf": ["--d-inf", "5"],
    "dim": ["--dim", "2"], "diag": ["--diag", "1,2"], "noise_std": ["--noise-std", "0.5"],
    "dataset": ["--dataset", str(BITS)], "batch_size": ["--batch-size", "16"], "epochs": ["--epochs", "1"],
}
PAIRS = [(optimizer, problem) for optimizer in OPTIMIZER_READS for problem in PROBLEM_READS]


def test_the_read_sets_cover_the_table():
    assert READ_VALUES.keys() == cli.READS.keys() == set().union(*OPTIMIZER_READS.values(), *PROBLEM_READS.values())
    assert OPTIMIZER_READS.keys() == cli.OPTIMIZERS.keys()


@pytest.mark.parametrize("optimizer,problem", PAIRS)
def test_every_flag_a_run_reads_is_accepted(tmp_path, optimizer, problem):
    reads = OPTIMIZER_READS[optimizer] | PROBLEM_READS[problem]
    argv = ["run", "--problem", problem, "--optimizer", optimizer, *(["--steps", "3"] if "epochs" not in reads else []),
            *itertools.chain.from_iterable(READ_VALUES[dest] for dest in sorted(reads)), "--out", str(tmp_path / "r.csv")]
    assert run_cli(argv) == 0
    assert (tmp_path / "r.trace.csv").exists() == ("trace" in reads)


@pytest.mark.parametrize("optimizer,problem,dest", [
    (optimizer, problem, dest) for optimizer, problem in PAIRS for dest in READ_VALUES
    if dest not in OPTIMIZER_READS[optimizer] - {"g_inf"} | PROBLEM_READS[problem]
])
def test_every_flag_a_run_does_not_read_is_rejected(tmp_path, capsys, optimizer, problem, dest):
    """In the default --mode practical, where the diagonal stepper does not read g_inf."""
    out = tmp_path / "r.csv"
    argv = ["run", "--problem", problem, "--optimizer", optimizer, "--steps", "3", *READ_VALUES[dest], "--out", str(out)]
    assert run_cli(argv) == 2
    mode = " in --mode practical" if (optimizer, dest) == ("gradagrad", "g_inf") else ""
    assert capsys.readouterr().err == (f"error: --{dest.replace('_', '-')} is not read by --optimizer {optimizer} "
                                       f"and --problem {problem}{mode}\n")
    assert not out.exists()


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = abs\nsteps = 50\ngamma0 = 0.5\n# comment\n")
        out = tmp_path / "o.csv"
        code = run_cli(["run", "--config", str(cfg), "--problem", "abs",
                        "--steps", "60", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert rows[-1][0] == "60"  # command line wins over the file

    def test_config_supplies_required_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=25\n")
        out = tmp_path / "o.csv"
        assert run_cli(["run", "--problem", "abs", "--config", str(cfg),
                        "--out", str(out)]) == 0
        assert read_rows(out)[-1][0] == "25"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stepz=25\n")
        assert run_cli(["run", "--problem", "abs", "--config", str(cfg)]) == 2

    def test_config_supplies_problem(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem=abs\nsteps=5\n")
        out = tmp_path / "o.csv"
        assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_rows(out)[-1][0] == "5"

    @pytest.mark.parametrize("with_config", [False, True])
    def test_problem_from_neither_flags_nor_file(self, tmp_path, capsys, with_config):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=5\n")
        assert run_cli(["run", "--steps", "5", *(["--config", str(cfg)] if with_config else [])]) == 2
        assert "--problem is required" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key", [("run", "seeds"), ("run", "grid_values"), ("run", "config"),
                                             ("run", "command"), ("grid", "help")])
    def test_keys_are_the_subcommands_flags(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"problem=abs\n{key}=3\n")
        assert run_cli([command, "--steps", "5", "--config", str(cfg)]) == 2
        assert f"{cfg}:2: unknown config key {key.replace('_', '-')!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,value,message", [
        ("run", "steps=x", "argument --steps: invalid int value: 'x'"),
        ("run", "optimizer=lbfgs", "argument --optimizer: invalid choice: 'lbfgs'"),
        ("run", "seed=-1", "argument --seed: seed must be an unsigned 64-bit value"),
        ("grid", "seeds=1.5", "argument --seeds: invalid int value: '1.5'"),
        *LIST_VALUE_ERRORS,
    ])
    def test_a_rejected_value_names_its_line_and_flag(self, tmp_path, capsys, command, value, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"problem=abs\n{value}\n")
        assert run_cli([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:2: {message}")
        assert "usage:" not in err and "Traceback" not in err

    @pytest.mark.parametrize("command,value,message", LIST_VALUE_ERRORS)
    def test_the_same_value_as_a_flag_is_a_usage_error(self, capsys, command, value, message):
        key, _, text = value.partition("=")
        assert run_cli([command, "--problem", "abs", "--steps", "5", f"--{key.replace('_', '-')}={text}"]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_a_negative_list_value_is_not_a_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem=quadratic\ndim=2\nx0=-1,2\nsteps=5\n")
        out, flags_out = tmp_path / "o.csv", tmp_path / "flags.csv"
        assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert run_cli(["run", "--problem", "quadratic", "--dim", "2", "--x0=-1,2", "--steps", "5",
                        "--out", str(flags_out)]) == 0
        assert out.read_bytes() == flags_out.read_bytes()

    def test_grid_reads_its_own_keys(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("problem=abs\nsteps=5\ngrid_values=0.5,1\nseeds=2\n")
        out = tmp_path / "g.csv"
        assert run_cli(["grid", "--config", str(cfg), "--out", str(out)]) == 0
        assert [row[1] for row in read_rows(out)[1:]] == ["0.5", "1.0"]

    def test_trace_boolean(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trace=true\n")
        out = tmp_path / "o.csv"
        assert run_cli(["run", "--problem", "quadratic", "--steps", "5",
                        "--config", str(cfg), "--out", str(out)]) == 0
        assert (tmp_path / "o.trace.csv").exists()

    @pytest.mark.parametrize("lines,traced", [(["true", "false"], False), (["false", "true"], True),
                                              (["yes", "no", "1"], True), (["1", "0"], False)])
    def test_the_last_trace_line_wins(self, tmp_path, lines, traced):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("".join(f"trace={value}\n" for value in lines))
        assert run_cli(["run", "--problem", "abs", "--steps", "3", "--config", str(cfg),
                        "--out", str(tmp_path / "tt.csv")]) == 0
        assert (tmp_path / "tt.trace.csv").exists() == traced


def test_repeated_calls_share_one_parser_and_leak_nothing(tmp_path, monkeypatch, capsys):
    """main builds its parser once per process: no flag or config value of
    one call may reach a later one, so each command of a mixed sequence must
    give what it gives on a freshly built parser."""
    quadratic = ["--problem", "quadratic", "--dim", "3", "--noise-std", "0.5", "--x0", "3", "--steps", "40"]
    commands = [
        ["run", *quadratic, "--gamma0", "1.5", "--d-inf", "2", "--trace", "--out", "a.csv"],
        ["run", *quadratic, "--out", "b.csv"],
        ["run", "--config", "run.cfg", "--problem", "quadratic", "--steps", "40", "--out", "c.csv"],
        ["run", *quadratic, "--out", "d.csv"],
        ["check", "a.trace.csv", "--d-inf", "2", "--checks", "monotone"],
        ["check", "a.trace.csv"],
        ["check", "b.csv", "--d-inf", "3"],
        ["check", "d.csv"],
        ["trace-dump", "a.trace.csv", "--head", "2"],
        ["trace-dump", "c.trace.csv"],
    ]

    def run_all(directory, fresh):
        directory.mkdir()
        (directory / "run.cfg").write_text("gamma0 = 0.5\nseed = 7\ntrace = true\ndim = 4\nd-inf = 2\n")
        monkeypatch.chdir(directory)
        results = []
        for argv in commands:
            if fresh:
                cli.build_parser.cache_clear()
            code = run_cli(argv)
            out, err = capsys.readouterr()
            results.append((code, out, err.split(" wall=")[0]))
        return results, {path.name: path.read_bytes() for path in sorted(directory.glob("*.csv"))}

    parser = cli.build_parser()
    shared = run_all(tmp_path / "shared", fresh=False)
    assert cli.build_parser() is parser
    assert shared == run_all(tmp_path / "fresh", fresh=True)
    results, files = shared
    assert [code for code, _, _ in results] == [0] * len(commands)
    assert "b.trace.csv" not in files and files["b.csv"] == files["d.csv"]
    # the subcommand's function is looked up when it runs, so a patched one applies
    monkeypatch.setattr(cli, "cmd_trace_dump", lambda args: 7)
    assert run_cli(["trace-dump", "a.trace.csv"]) == 7


class TestGrid:
    def test_table_and_winner(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = run_cli([
            "grid", "--problem", "quadratic", "--dim", "2", "--steps", "60",
            "--optimizer", "adagrad", "--grid-values", "0.5,1,2", "--seeds", "2",
            "--out", str(out),
        ])
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["param", "value", "metric", "score", "winner"]
        assert len(rows) == 4
        assert [r[1] for r in rows[1:]] == ["0.5", "1.0", "2.0"]
        assert sum(r[4] == "true" for r in rows[1:]) == 1
        assert all(r[2] == "loss" for r in rows[1:])

    def test_single_point_grid(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run_cli([
            "grid", "--problem", "abs", "--steps", "20", "--optimizer", "sgd",
            "--grid-values", "0.5", "--seeds", "1", "--out", str(out),
        ]) == 0
        rows = read_rows(out)
        assert len(rows) == 2 and rows[1][4] == "true"

    def test_tie_break_prefers_smaller_value(self, tmp_path):
        # sgd on |x| from x0=1: lr 0.25 and 0.5 both land exactly on 0
        out = tmp_path / "grid.csv"
        assert run_cli([
            "grid", "--problem", "abs", "--x0", "1", "--steps", "8",
            "--optimizer", "sgd", "--grid-values", "0.5,0.25", "--seeds", "1",
            "--out", str(out),
        ]) == 0
        rows = read_rows(out)
        winner = [r for r in rows[1:] if r[4] == "true"]
        assert winner[0][1] == "0.25"
        assert all(r[3] == "0.0" for r in rows[1:])

    def test_accuracy_metric_for_logistic(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run_cli([
            "grid", "--problem", "logistic", "--dataset", str(BLOBS),
            "--epochs", "2", "--batch-size", "100", "--optimizer", "adagrad",
            "--grid-values", "0.5,1", "--seeds", "2", "--out", str(out),
        ]) == 0
        rows = read_rows(out)
        assert all(r[2] == "accuracy" for r in rows[1:])

    def test_dataset_parsed_once(self, tmp_path, monkeypatch):
        loads = []
        monkeypatch.setattr(cli, "load_dataset", lambda path: loads.append(path) or load_dataset(path))
        assert run_cli([
            "grid", "--problem", "logistic", "--dataset", str(BITS), "--epochs", "1",
            "--optimizer", "adagrad", "--grid-values", "0.5,1,2", "--seeds", "2",
            "--out", str(tmp_path / "grid.csv"),
        ]) == 0
        assert loads == [str(BITS)]

    def test_a_diverging_value_scores_nan_and_the_others_still_select(self, tmp_path, capsys):
        """gamma0 = 1e155 overflows the iterate at step 2, so its gradient is
        infinite from step 3 on; the other values step as they would alone."""
        common = ["grid", "--problem", "quadratic", "--dim", "3", "--steps", "30", "--optimizer", "sgd",
                  "--seeds", "2"]
        assert run_cli([*common, "--grid-values", "0.25,0.5", "--out", str(tmp_path / "finite.csv")]) == 0
        assert run_cli([*common, "--grid-values", "0.25,0.5,1e155", "--out", str(tmp_path / "grid.csv")]) == 0
        rows = read_rows(tmp_path / "grid.csv")
        assert rows[1:3] == read_rows(tmp_path / "finite.csv")[1:]
        assert rows[3] == ["gamma0", "1e+155", "loss", "", "false"]
        assert sum(r[4] == "true" for r in rows[1:]) == 1
        finite, diverging = capsys.readouterr().err.splitlines()
        assert diverging == finite and finite.startswith("grid complete: winner gamma0=0.5 ")

    @pytest.mark.parametrize("optimizer", list(cli.OPTIMIZERS))
    def test_a_diverging_value_prints_no_warning(self, capsys, optimizer):
        """A replica that overflows scores NaN by design, so grid steps with
        numpy's overflow, invalid and divide warnings off (the suite makes a
        warning an error)."""
        assert run_cli(["grid", "--problem", "quadratic", "--dim", "2", "--optimizer", optimizer, "--steps", "6",
                        "--grid-values", "1,1e155", "--seeds", "1"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[2].startswith("gamma0,1e+155,loss,") and "Warning" not in err

    @pytest.mark.parametrize("kind,scores,winner", [
        ("loss", [np.array([np.nan, np.nan, 2.0, 1.0])], 1),
        ("accuracy", [np.array([np.nan, np.nan, 0.5, 0.75])], 1),
        ("loss", [np.array([np.nan, np.nan, np.nan, np.nan])], 0),
    ], ids=["loss", "accuracy", "all-diverged"])
    def test_a_nan_score_wins_only_if_all_are_nan(self, tmp_path, monkeypatch, kind, scores, winner):
        """The smallest value comes first, so a strict min/max alone would
        keep its NaN score as the best."""
        monkeypatch.setattr(cli, "_run_grid", lambda args, param, values: (None, kind, scores))
        out = tmp_path / "grid.csv"
        assert run_cli(["grid", "--problem", "abs", "--steps", "1", "--optimizer", "sgd",
                        "--grid-values", "0.5,1", "--seeds", "2", "--out", str(out)]) == 0
        assert [r[4] == "true" for r in read_rows(out)[1:]] == [idx == winner for idx in range(2)]

    def test_empty_grid(self):
        assert run_cli([
            "grid", "--problem", "abs", "--steps", "5", "--grid-values", ",",
        ]) == 2

    def test_bad_grid_param(self):
        assert run_cli([
            "grid", "--problem", "abs", "--steps", "5", "--grid-param", "lr",
        ]) == 2

    def test_trace_rejected(self, tmp_path, capsys):
        base = ["grid", "--problem", "abs", "--steps", "5", "--out", str(tmp_path / "g.csv")]
        cfg = tmp_path / "c.cfg"
        cfg.write_text("trace=true\n")
        for extra in (["--trace"], ["--config", str(cfg)]):
            assert run_cli([*base, *extra]) == 2
            assert "grid writes no trace" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("optimizer,param,mode", [
        *[(opt, param, "theory") for opt in ("adagrad", "sgd", "adam") for param in ("rho", "beta", "g_inf", "d_inf")],
        *[("gradagrad-scalar", param, "theory") for param in ("beta", "g_inf", "d_inf")],
        ("gradagrad", "g_inf", "practical"),
    ])
    def test_unread_grid_param_rejected(self, capsys, optimizer, param, mode):
        assert run_cli([
            "grid", "--problem", "abs", "--steps", "5", "--optimizer", optimizer, "--mode", mode,
            "--grid-param", param.replace("_", "-"), "--grid-values", "0.5,1",
        ]) == 2
        err = capsys.readouterr().err
        assert f"--grid-param {param} is not read by --optimizer {optimizer}" in err
        assert ("--mode practical" in err) == (optimizer == "gradagrad")

    @pytest.mark.parametrize("argv,message", [
        (["--optimizer", "adagrad", "--rho", "3"], "--rho is not read by --optimizer adagrad and --problem abs"),
        (["--optimizer", "gradagrad-scalar", "--grid-param", "rho", "--d-inf", "2"],
         "--d-inf is not read by --optimizer gradagrad-scalar and --problem abs"),
        (["--optimizer", "sgd", "--mode", "theory"], "--mode is not read by --optimizer sgd and --problem abs"),
    ], ids=["adagrad-rho", "scalar-d-inf", "sgd-mode"])
    def test_an_unread_flag_that_is_not_swept_is_rejected(self, tmp_path, capsys, argv, message):
        out = tmp_path / "g.csv"
        assert run_cli(["grid", "--problem", "abs", "--steps", "5", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_bad_grid_value_message_unchanged(self, capsys):
        assert run_cli([
            "grid", "--problem", "abs", "--steps", "5", "--optimizer", "adagrad", "--grid-values", "1,-2,nan",
        ]) == 2
        assert "gamma must be positive and finite, got -2.0" in capsys.readouterr().err
        assert run_cli([
            "grid", "--problem", "abs", "--steps", "5", "--grid-param", "rho", "--grid-values", "1,-0.5",
        ]) == 2
        assert "rho must be nonnegative, got -0.5" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["trace", "trace-dump", "record", "config", "libsvm"])
def test_non_utf8_input_names_its_path(tmp_path, capsys, kind):
    """The error names the path, the line and the byte's offset in the file,
    whichever line ends the file uses."""
    path = tmp_path / "input"
    header = csvio.TRACE_HEADER if kind.startswith("trace") else csvio.RUN_HEADER
    lines = {"config": [b"steps = 3", b"# x", b"\xff = 1"], "libsvm": [b"1 1:1", b"-1 1:2", b"\xff 2:1"]}.get(
        kind, [",".join(header).encode(), b"0,1", b"0,\xff"])
    argv = {
        "trace-dump": ["trace-dump", str(path)],
        "config": ["run", "--problem", "abs", "--config", str(path)],
        "libsvm": ["run", "--problem", "logistic", "--dataset", str(path), "--steps", "3"],
    }.get(kind, ["check", str(path)])
    for newline in (b"\n", b"\r\n", b"\r"):
        content = newline.join([*lines, b""])
        path.write_bytes(content)
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        where = f"{path}: line 3: " if kind == "libsvm" else f"{path}:3: "
        offset = content.index(0xFF)
        assert err.startswith(f"error: {where}'utf-8' codec can't decode byte 0xff in position {offset}: "), err
        if kind == "libsvm":
            with pytest.raises(ValueError) as exc:
                load_dataset(path)
            assert exc.value.lineno == 3


def test_non_utf8_byte_far_into_a_trace_names_its_line(tmp_path, capsys):
    """Past the text reader's first buffer, the line and offset still count
    from the start of the file."""
    out = tmp_path / "t.csv"
    assert run_cli(["run", "--problem", "quadratic", "--dim", "3", "--steps", "2000", "--trace",
                    "--out", str(out)]) == 0
    capsys.readouterr()
    trace = tmp_path / "t.trace.csv"
    content = bytearray(trace.read_bytes())
    content[20000] = 0xFF
    for newline in (b"\n", b"\r\n"):
        edited = bytes(content).replace(b"\n", newline)
        trace.write_bytes(edited)
        for command in ("check", "trace-dump"):
            assert run_cli([command, str(trace)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {trace}:509: ") and f"position {edited.index(0xFF)}:" in err, err


def _make_trace(tmp_path, extra=()):
    out = tmp_path / "t.csv"
    code = run_cli([
        "run", "--problem", "quadratic", "--dim", "3", "--noise-std", "0.5",
        "--steps", "150", "--seed", "3", "--trace", "--out", str(out), *extra,
    ])
    assert code == 0
    return tmp_path / "t.trace.csv"


class TestCheck:
    def test_fresh_trace_passes_all(self, tmp_path, capsys):
        trace = _make_trace(tmp_path)
        report_csv = tmp_path / "checks.csv"
        code = run_cli(["check", str(trace), "--out", str(report_csv)])
        assert code == 0
        rows = read_rows(report_csv)
        assert rows[0] == csvio.CHECK_HEADER
        assert {r[0] for r in rows[1:]} == {"errnegativity", "monotone_and_cap", "reparam_invariance"}
        assert all(r[1] == "true" for r in rows[1:])
        err = capsys.readouterr().err
        assert "errnegativity: PASS" in err

    def test_corrupted_trace_fails_with_status_1(self, tmp_path, capsys):
        trace = _make_trace(tmp_path)
        rows = read_rows(trace)
        # halve alpha on the final row: monotonicity breaks
        rows[-1][8] = repr(float(rows[-1][8]) / 2.0)
        trace.write_text("\n".join(",".join(r) for r in rows) + "\n")
        code = run_cli(["check", str(trace), "--checks", "monotone"])
        assert code == 1
        assert "monotone_and_cap: FAIL" in capsys.readouterr().err

    def test_unknown_check_is_usage_error(self, tmp_path):
        trace = _make_trace(tmp_path)
        assert run_cli(["check", str(trace), "--checks", "telescoping"]) == 2

    def test_missing_columns_diagnosed(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace.csv"
        bad.write_text("k,i,g,v_raw\n0,0,1.0,1.0\n")
        assert run_cli(["check", str(bad)]) == 2
        assert "missing columns" in capsys.readouterr().err

    @staticmethod
    def _drop_rows(trace, prefix):
        rows = read_rows(trace)
        kept = [r for r in rows if not ",".join(r).startswith(prefix)]
        assert len(kept) < len(rows)
        trace.write_text("\n".join(",".join(r) for r in kept) + "\n")

    def test_missing_coordinate_row_is_config_error(self, tmp_path, capsys):
        trace = _make_trace(tmp_path)
        self._drop_rows(trace, "40,1,")
        for command in ("check", "trace-dump"):
            assert run_cli([command, str(trace)]) == 2
            err = capsys.readouterr().err
            assert f"{trace}:{2 + 40 * 3 + 1}: expected step 40, coordinate 1, got step 40, coordinate 2" in err
            assert "Traceback" not in err

    def test_missing_step_is_config_error(self, tmp_path, capsys):
        trace = _make_trace(tmp_path)
        self._drop_rows(trace, "40,")
        for command in ("check", "trace-dump"):
            assert run_cli([command, str(trace)]) == 2
            err = capsys.readouterr().err
            assert f"{trace}:{2 + 40 * 3}: expected step 40, coordinate 0, got step 41, coordinate 0" in err
            assert "Traceback" not in err

    def test_short_last_step_is_config_error(self, tmp_path, capsys):
        trace = _make_trace(tmp_path)
        self._drop_rows(trace, "149,2,")
        for command in ("check", "trace-dump"):
            assert run_cli([command, str(trace)]) == 2
            err = capsys.readouterr().err
            assert f"{trace}:{1 + 150 * 3 - 1}: the trace ends in step 149 after coordinate 1" in err
            assert "Traceback" not in err

    @staticmethod
    def _write_rows(path, rows):
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")

    @staticmethod
    def _one_row_steps(path, coords, steps=None):
        """A trace of one row per step, row n at step steps[n] (n by default)
        and coordinate coords[n]."""
        steps = range(len(coords)) if steps is None else steps
        rows = [csvio.TRACE_HEADER] + [[str(k), str(i), "1.0", "1.0", "1.0", "positive", "", "1.0", "1.0", "1.0"]
                                     for k, i in zip(steps, coords)]
        TestCheck._write_rows(path, rows)

    @pytest.mark.parametrize("rows,line", [(2, 3), (1200, 1101)])  # the reader parses 1024 rows at a time
    @pytest.mark.parametrize("command", ["check", "trace-dump"])
    def test_coordinate_past_the_row_count_is_config_error(self, tmp_path, capsys, command, rows, line):
        trace = tmp_path / "t.trace.csv"
        coords = [0] * rows
        coords[line - 2] = 100000000000  # a steps x (1 + max i) count table would take 745 GiB or more
        self._one_row_steps(trace, coords)
        assert run_cli([command, str(trace)]) == 2
        err = capsys.readouterr().err
        assert f"{trace}:{line}: expected step {line - 2}, coordinate 0, got step {line - 2}, " \
               "coordinate 100000000000" in err
        assert "Traceback" not in err

    def test_reading_a_far_step_or_coordinate_stays_linear_in_rows(self, tmp_path, capsys):
        # 3000 one-row steps, the last at step or coordinate 1e11: a table sized
        # by the largest step or coordinate would take gigabytes
        trace, far = tmp_path / "t.trace.csv", 100000000000
        for (steps, coords, got), command in itertools.product([
            (None, [0] * 2999 + [far], f"step 2999, coordinate {far}"),
            ([*range(2999), far], [0] * 3000, f"step {far}, coordinate 0"),
        ], ["check", "trace-dump"]):
            self._one_row_steps(trace, coords, steps)
            tracemalloc.start()
            try:
                assert run_cli([command, str(trace)]) == 2
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 20e6
            err = capsys.readouterr().err
            assert f"{trace}:3001: expected step 2999, coordinate 0, got {got};" in err
            assert "Traceback" not in err

    def test_unknown_check_name_wins_over_a_malformed_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.trace.csv"
        self._one_row_steps(trace, [0, 5])
        assert run_cli(["check", str(trace), "--checks", "monotone,telescoping"]) == 2
        assert "unknown check 'telescoping'; choose from" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [11, 1101])  # the reader parses 1024 rows at a time
    def test_unknown_branch_label_is_config_error(self, tmp_path, capsys, line):
        trace = _make_trace(tmp_path, ["--steps", "400"])
        rows = read_rows(trace)
        rows[line - 1][5] = "bogus"
        rows[line][2] = "x"  # a later bad line does not hide it
        self._write_rows(trace, rows)
        for command in ("check", "trace-dump"):
            assert run_cli([command, str(trace)]) == 2
            err = capsys.readouterr().err
            assert f"{trace}:{line}: unknown branch 'bogus'" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("line", [1, 4])
    def test_a_huge_field_is_a_config_error(self, tmp_path, capsys, line):
        # 200,000 characters: over csv.reader's 131,072-character field limit
        trace, record = _make_trace(tmp_path), tmp_path / "t.csv"
        for path, column in ((trace, 2), (record, 0)):
            rows = read_rows(path)
            rows[line - 1][column] = "x" * 200_000
            self._write_rows(path, rows)
        if line == 1:  # the header: g is missing, and the record reads as a trace
            expected = [(["check", str(trace)], f"{trace}: bad trace header, missing columns ['g']"),
                        (["trace-dump", str(trace)], f"{trace}: bad trace header, missing columns ['g']"),
                        (["check", str(record), "--checks", "record"], "unknown check 'record'"),
                        (["check", str(record)], f"{record}: bad trace header, missing columns ['k', 'i',")]
        else:
            expected = [(["check", str(trace)], f"{trace}:4: non-numeric field"),
                        (["trace-dump", str(trace)], f"{trace}:4: non-numeric field"),
                        (["check", str(record), "--checks", "record"], f"{record}:4: non-numeric step or gamma_max"),
                        (["check", str(record)], f"{record}:4: non-numeric step or gamma_max")]
        for argv, message in expected:
            assert run_cli(argv) == 2
            err = capsys.readouterr().err
            assert message in err
            assert "Traceback" not in err

    def test_an_infinite_alpha_fails_monotone_without_a_warning(self, tmp_path, capsys):
        # the suite turns warnings into errors, so a RuntimeWarning from a check raises here
        trace = _make_trace(tmp_path)
        rows = read_rows(trace)
        line = 1 + 19 * 3 + 2
        assert rows[line][:2] == ["19", "2"]
        rows[line][8] = "inf"  # alpha at k=19 i=2; at k=20 alpha decreases from it by inf / inf
        self._write_rows(trace, rows)
        report_csv = tmp_path / "checks.csv"
        for checks in ("monotone", "all"):
            assert run_cli(["check", str(trace), "--checks", checks, "--out", str(report_csv)]) == 1
            report = {row[0]: row for row in read_rows(report_csv)[1:]}
            assert report["monotone_and_cap"][:5] == ["monotone_and_cap", "false", "", "20", "2"]
            err = capsys.readouterr().err
            assert "monotone_and_cap: FAIL (worst=nan)" in err
            assert "Warning" not in err

    def test_nan_gamma_and_empty_alpha_fail_monotone(self, tmp_path, capsys):
        trace = _make_trace(tmp_path)
        rows = read_rows(trace)
        line = 1 + 19 * 3 + 2
        assert rows[line][:2] == ["19", "2"]
        rows[line][7] = "nan"  # gamma at k=19 i=2
        rows[line + 3][8] = ""  # alpha at k=20 i=2
        self._write_rows(trace, rows)
        report_csv = tmp_path / "checks.csv"
        assert run_cli(["check", str(trace), "--checks", "monotone", "--out", str(report_csv)]) == 1
        report = read_rows(report_csv)[1]
        assert report[:2] == ["monotone_and_cap", "false"]
        assert report[3:5] == ["19", "2"]
        assert "monotone_and_cap: FAIL (worst=nan)" in capsys.readouterr().err

    @pytest.mark.parametrize("check,name,column", [
        ("errnegativity", "errnegativity", 2),  # g
        ("errnegativity", "errnegativity", 9),  # a
        ("reparam", "reparam_invariance", 4),  # v_clipped
        ("reparam", "reparam_invariance", 8),  # alpha
    ])
    def test_nan_in_a_checked_value_fails_there(self, tmp_path, check, name, column):
        trace = _make_trace(tmp_path)
        rows = read_rows(trace)
        line = next(n for n, r in enumerate(rows) if r[5] == "negative")
        rows[line][column] = "nan"
        self._write_rows(trace, rows)
        report_csv = tmp_path / "checks.csv"
        assert run_cli(["check", str(trace), "--checks", check, "--out", str(report_csv)]) == 1
        report = read_rows(report_csv)[1]
        assert report[:2] == [name, "false"]
        assert report[3:5] == rows[line][:2]

    @pytest.mark.parametrize("field,value,message", [
        (None, None, "expected 10 fields"),
        (0, "three", "non-numeric step or gamma_max"),
        (5, "big", "non-numeric step or gamma_max"),
    ])
    def test_malformed_run_record_is_config_error(self, tmp_path, capsys, field, value, message):
        out = tmp_path / "r.csv"
        assert run_cli([
            "run", "--problem", "quadratic", "--dim", "2", "--steps", "400", "--out", str(out),
        ]) == 0
        rows = read_rows(out)
        if field is None:
            rows[3] = rows[3][:5]
        else:
            rows[3][field] = value
        self._write_rows(out, rows)
        assert run_cli(["check", str(out), "--d-inf", "3"]) == 2
        err = capsys.readouterr().err
        assert f"{out}:4: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("d_inf", ["3", "inf"])
    @pytest.mark.parametrize("repeat_last_step", [False, True])
    def test_nan_gamma_max_fails_record_check(self, tmp_path, repeat_last_step, d_inf):
        out, report = tmp_path / "r.csv", tmp_path / "report.csv"
        assert run_cli([
            "run", "--problem", "quadratic", "--dim", "2", "--steps", "400", "--out", str(out),
        ]) == 0
        rows = read_rows(out)
        rows[3][5] = "nan"
        if repeat_last_step:  # a later, finite violation keeps the NaN's location
            rows.append(list(rows[-1]))
        self._write_rows(out, rows)
        assert run_cli(["check", str(out), "--d-inf", d_inf, "--out", str(report)]) == 1
        name, passed, worst, step, coord, _ = read_rows(report)[1]
        assert (name, passed, worst, step, coord) == ("run_record", "false", "", rows[3][0], "0")

    @pytest.mark.parametrize("cap_violation", [False, True])
    def test_record_check_reports_first_worst_violation(self, tmp_path, cap_violation):
        out, report = tmp_path / "r.csv", tmp_path / "report.csv"
        assert run_cli([
            "run", "--problem", "quadratic", "--dim", "2", "--steps", "400", "--out", str(out),
        ]) == 0
        rows = read_rows(out)  # steps 0, 100, 200, 300, 400 on rows 1-5
        if cap_violation:  # (30 - 3) / 3 = 9 at step 200 outweighs a repeated step 400
            rows[3][5] = "30"
            worst, step = "9.0", "200"
        else:  # two repeated steps of equal weight: the first one is reported
            rows.insert(3, list(rows[2]))
            worst, step = "1.0", "100"
        rows.append(list(rows[-1]))
        self._write_rows(out, rows)
        assert run_cli(["check", str(out), "--d-inf", "3", "--out", str(report)]) == 1
        name, passed, *location, details = read_rows(report)[1]
        assert (name, passed, *location) == ("run_record", "false", worst, step, "0")
        assert details.startswith("step 400" if cap_violation else f"step {step}")

    def test_record_under_infinite_cap_passes(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli([
            "run", "--problem", "quadratic", "--dim", "2", "--steps", "400",
            "--d-inf", "inf", "--out", str(out),
        ]) == 0
        assert run_cli(["check", str(out), "--d-inf", "inf"]) == 0

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    @pytest.mark.parametrize("kind", ["record", "trace"])
    def test_d_inf_must_be_positive(self, tmp_path, capsys, kind, value):
        path = _make_trace(tmp_path)
        path = tmp_path / "t.csv" if kind == "record" else path
        assert run_cli(["check", str(path), "--d-inf", value]) == 2
        err = capsys.readouterr().err
        assert f"--d-inf must be positive, got {float(value)}" in err
        assert "Traceback" not in err

    def test_trace_under_infinite_cap_passes(self, tmp_path):
        trace = _make_trace(tmp_path, ["--d-inf", "inf"])
        assert run_cli(["check", str(trace), "--d-inf", "inf"]) == 0

    def test_record_check_names_are_stripped(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli(["run", "--problem", "quadratic", "--dim", "2", "--steps", "40", "--out", str(out)]) == 0
        assert run_cli(["check", str(out), "--checks", " record "]) == 0
        assert run_cli(["check", str(out), "--checks", "record,"]) == 0

    def test_named_subset(self, tmp_path):
        trace = _make_trace(tmp_path)
        assert run_cli(["check", str(trace), "--checks", "reparam,monotone"]) == 0

    @pytest.mark.parametrize("checks,code", [
        ("errnegativity", 2), ("errnegativity, errnegativity", 2), ("errnegativity,monotone", 0), ("reparam", 0),
    ])
    def test_d_inf_needs_a_check_that_reads_it(self, tmp_path, capsys, checks, code):
        trace = _make_trace(tmp_path)
        capsys.readouterr()
        assert run_cli(["check", str(trace), "--checks", checks, "--d-inf", "1e10"]) == code
        err = capsys.readouterr().err
        assert (err == f"error: --d-inf is not read by --checks {checks.replace(' ', '')}\n") == (code == 2)

    def test_run_record_check(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli([
            "run", "--problem", "quadratic", "--dim", "2", "--steps", "40", "--out", str(out),
        ]) == 0
        assert run_cli(["check", str(out)]) == 0
        rows = read_rows(out)
        rows.append(list(rows[-1]))  # duplicate final step: no longer increasing
        out.write_text("\n".join(",".join(r) for r in rows) + "\n")
        assert run_cli(["check", str(out)]) == 1
        assert run_cli(["check", str(out), "--checks", "reparam"]) == 2


class TestTraceDump:
    def test_summary(self, tmp_path, capsys):
        trace = _make_trace(tmp_path)
        assert run_cli(["trace-dump", str(trace), "--head", "5"]) == 0
        out = capsys.readouterr().out
        assert "steps: 150  coordinates: 3" in out
        assert "branches:" in out
        assert "gamma in" in out
        # a hand-edited empty g dumps as nan, and an empty r as an empty field: no clip ran
        trace.write_text(",".join(csvio.TRACE_HEADER) + "\n0,0,,1,1,init,,1,1,1\n")
        assert run_cli(["trace-dump", str(trace)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "0  0  nan  1  1  init    1  1  1"

    def test_missing_file(self):
        assert run_cli(["trace-dump", "/nope.trace.csv"]) == 2

    @pytest.mark.parametrize("exists", [True, False], ids=["trace", "no-file"])
    def test_negative_head_rejected_before_the_trace_is_read(self, tmp_path, capsys, exists):
        trace = _make_trace(tmp_path) if exists else tmp_path / "missing.trace.csv"
        capsys.readouterr()
        assert run_cli(["trace-dump", str(trace), "--head", "-3"]) == 2
        assert capsys.readouterr() == ("", "error: --head must be >= 0, got -3\n")

    def test_head_zero_prints_no_rows(self, tmp_path, capsys):
        trace = _make_trace(tmp_path)
        capsys.readouterr()
        assert run_cli(["trace-dump", str(trace), "--head", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "  ".join(csvio.TRACE_HEADER)


@pytest.mark.parametrize("argv,code", [
    (["run", "--problem", "abs", "--steps", "3", "--out", "{out}"], 0),
    (["trace-dump", "{out}", "--head", "-3"], 2),
], ids=["success", "usage-error"])
def test_entry_exits_with_mains_code(tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.setattr("sys.argv", ["gradagrad", *(arg.format(out=tmp_path / "r.csv") for arg in argv)])
    with pytest.raises(SystemExit) as info:
        cli.entry()
    assert info.value.code == code


class TestRoundTripThroughCli:
    def test_trace_survives_read(self, tmp_path):
        from gradagrad.cli import read_trace_csv

        trace_path = _make_trace(tmp_path)
        trace = read_trace_csv(trace_path)
        assert len(trace) == 150
        assert all(len(row.branch) == 3 for row in trace)
        ks = [row.k for row in trace]
        assert ks == sorted(ks)
        assert np.isnan(trace[0].r[0])  # init branch has no clip parameter

    def test_read_matches_the_run_and_rejects_shuffled_rows(self, tmp_path, capsys):
        import dataclasses

        from gradagrad import GradaGrad, HyperParams, Quadratic, Trace
        from gradagrad.cli import read_trace_csv

        trace_path = _make_trace(tmp_path)
        problem = Quadratic(np.ones(3), noise_std=0.5)
        opt, state = GradaGrad(np.ones(3), HyperParams()), problem.init_state(3)
        trace = Trace.empty(150, 3)
        for _ in range(150):
            opt.step(problem.grad_sample(opt.x, [state]), trace)
        read = read_trace_csv(trace_path)
        for f in dataclasses.fields(Trace):
            a, b = getattr(read, f.name), getattr(trace, f.name)
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), f.name
        # a shuffled trace is malformed at its first row out of (k, i) order
        rows = read_rows(trace_path)
        shuffled = tmp_path / "shuffled.trace.csv"
        order = np.random.default_rng(0).permutation(len(rows) - 1) + 1
        shuffled.write_text("\n".join(",".join(rows[j]) for j in [0, *order]) + "\n")
        k, i = rows[order[0]][:2]
        assert (k, i) != ("0", "0")
        for command in ("check", "trace-dump"):
            assert run_cli([command, str(shuffled)]) == 2
            err = capsys.readouterr().err
            assert f"{shuffled}:2: expected step 0, coordinate 0, got step {k}, coordinate {i};" in err
            assert "Traceback" not in err


# SHA-256 of output bytes recorded before traces became columnar; the trace,
# check and trace-dump formats must not change.
GOLDEN = {
    "abs": ("a092c223cdf0972b76dd94a82d42aba6c266266b339a6fa1dd930db0ec510838",
            "213c27d4aab8264daf4ad23ab65ce4ae9d27545b671412ccf744c9b5a9cd4541", None),
    "quad": ("aa041f721c776da02cbbdbf6b15a965dd568184220267f665be16b789490cc65",
             "cd6cfc4c9470af545bcb44117b6fb6b6063980c0bac69dc890c29822430d4e15",
             "8b0bde7a28e851d5cfc3dae0c34a34fc9562f6451bab6ee1c3503c67990b0590"),
    "scalar": ("7257a3ff2070e24157d860a6fb9bfcb4b9bbc7d9b21a51f82b91f495f3796c22", None,
               "5386b37ce7b8cb9089f5a7c165e4ee7410367a0e60171882d5de1b080d5d457a"),
}
GOLDEN_RUNS = {
    # the README's poor-initial-step-size demo
    "abs": (["--problem", "abs", "--optimizer", "gradagrad", "--gamma0", "1e-3", "--steps", "500"],
            [], 8),
    # d=3 with the cap at 2: all four branches fire
    "quad": (["--problem", "quadratic", "--dim", "3", "--noise-std", "0.5", "--x0", "3",
              "--gamma0", "1.5", "--d-inf", "2", "--steps", "300", "--seed", "3"], ["--d-inf", "2"], 20),
    "scalar": (["--problem", "quadratic", "--dim", "3", "--noise-std", "0.5",
                "--optimizer", "gradagrad-scalar", "--r", "adaptive", "--steps", "300", "--seed", "3"],
               [], None),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_check_and_dump_bytes_match_golden(tmp_path, capsys, name):
    import hashlib

    def sha(data):
        return hashlib.sha256(data).hexdigest()

    run_args, check_args, head = GOLDEN_RUNS[name]
    trace_digest, dump_digest, check_digest = GOLDEN[name]
    out = tmp_path / f"{name}.csv"
    assert run_cli(["run", *run_args, "--trace", "--out", str(out)]) == 0
    trace = tmp_path / f"{name}.trace.csv"
    assert sha(trace.read_bytes()) == trace_digest
    if check_digest is not None:
        report = tmp_path / "check.csv"
        assert run_cli(["check", str(trace), *check_args, "--out", str(report)]) == 0
        assert sha(report.read_bytes()) == check_digest
    if dump_digest is not None:
        capsys.readouterr()
        assert run_cli(["trace-dump", str(trace), "--head", str(head)]) == 0
        assert sha(capsys.readouterr().out.encode()) == dump_digest


@pytest.mark.parametrize("steps", [1, 2, 7])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_check_and_dump_bytes_match_golden_chunk_by_chunk(tmp_path, capsys, monkeypatch, name, steps):
    """check and trace-dump fold over chunks of steps steps to the golden bytes."""
    import hashlib

    run_args, check_args, head = GOLDEN_RUNS[name]
    _, dump_digest, check_digest = GOLDEN[name]
    out = tmp_path / f"{name}.csv"
    assert run_cli(["run", *run_args, "--trace", "--out", str(out)]) == 0
    trace = tmp_path / f"{name}.trace.csv"
    rows = steps * cli.read_trace_csv(trace).branch.shape[1]
    monkeypatch.setattr(csvio, "TRACE_READ_CHARS", 1)  # one line a block
    monkeypatch.setattr(csvio, "TRACE_FOLD_ROWS", rows)
    if check_digest is not None:
        report = tmp_path / "check.csv"
        assert run_cli(["check", str(trace), *check_args, "--out", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == check_digest
    if dump_digest is not None:
        capsys.readouterr()
        assert run_cli(["trace-dump", str(trace), "--head", str(head)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == dump_digest


# SHA-256 of trace-dump's stdout on each GOLDEN trace with every row
# printed (--head past the end), recorded before `check` and `trace-dump`
# built only the columns they read; a dump with --head n is its first 4 + n lines.
GOLDEN_FULL_DUMP = {
    "abs": "a5d7847a2fa47e02c6fdb5a2c746de010140bdfef8373ecb746942386083a916",
    "quad": "01a5eb8817842baa7f4e5199084d02658f6553bd9eb192e950aa83f2b07b39c7",
}


@pytest.mark.parametrize("chars", [csvio.TRACE_READ_CHARS, 1, 150])  # the file, a line, about two lines a block
@pytest.mark.parametrize("name", sorted(GOLDEN_FULL_DUMP))
def test_trace_dump_head_bytes_across_block_and_step_edges(tmp_path, capsys, monkeypatch, name, chars):
    """The head rows, whose blocks build every column, end at each side of a
    step's and a block's edge, and past the trace's end, with the bytes of the
    full golden dump; check and trace-dump each open the trace once."""
    import hashlib

    out = tmp_path / f"{name}.csv"
    assert run_cli(["run", *GOLDEN_RUNS[name][0], "--trace", "--out", str(out)]) == 0
    trace = str(tmp_path / f"{name}.trace.csv")
    d = cli.read_trace_csv(trace).branch.shape[1]
    opened, real = [], csvio.open_input
    monkeypatch.setattr(csvio, "open_input", lambda path: opened.append(path) or real(path))
    monkeypatch.setattr(csvio, "TRACE_READ_CHARS", chars)
    monkeypatch.setattr(csvio, "TRACE_FOLD_ROWS", 2 * d)
    capsys.readouterr()
    assert run_cli(["trace-dump", trace, "--head", "100000"]) == 0
    full = capsys.readouterr().out
    assert hashlib.sha256(full.encode()).hexdigest() == GOLDEN_FULL_DUMP[name]
    heads = (0, 1, d - 1, d, d + 1, 3 * d + 2, len(full.splitlines()) - 4, 5000)
    for head in heads:
        assert run_cli(["trace-dump", trace, "--head", str(head)]) == 0
        assert capsys.readouterr().out == "".join(full.splitlines(keepends=True)[:4 + head]), head
    for checks in ("all", "monotone", "errnegativity,reparam"):
        assert run_cli(["check", trace, "--checks", checks]) == 0
    assert opened == [trace] * (1 + len(heads) + 3)


# SHA-256 of the run record, trace and grid CSVs on the bundled LIBSVM
# fixtures, recorded before datasets became CSR arrays and before grid
# loaded its dataset once; neither change may alter an output byte.
LOGISTIC_GOLDEN = {
    "bits": ("1e815445f50d508cc0c59a1b8065ebcaa0741eb1684b7147f465a87e0aa1efa3",
             "9e979156246dfb5418808c4a57cffbd2d06a198ea5a6353aea86e88f9aabd6db",
             "4c42982bcc489d0f149ca491d3c3dcaa7f024d2c69dcdbd995707cb9d3766bc8"),
    "blobs": ("44fa241b360559bcbe955a6ca4649dbb8b1363ae9896ece11f47fb6cd630757b",
              "3dfa4d7960282c189d8504daee18f9ca0f4db2e8ed3bb31338b61e064bd3593b",
              "a0e5db4486f6af5132cc3759d4b12db5f886169587e88830a44fa4a4813cee66"),
}


@pytest.mark.parametrize("name", sorted(LOGISTIC_GOLDEN))
def test_logistic_run_and_grid_bytes_match_golden(tmp_path, name):
    import hashlib

    def sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    dataset = str(BLOBS if name == "blobs" else BITS)
    run, grid = tmp_path / f"{name}.csv", tmp_path / f"{name}_grid.csv"
    assert run_cli([
        "run", "--problem", "logistic", "--dataset", dataset, "--epochs", "2", "--batch-size", "50",
        "--seed", "5", "--trace", "--out", str(run),
    ]) == 0
    assert run_cli([
        "grid", "--problem", "logistic", "--dataset", dataset, "--optimizer", "adagrad", "--epochs", "2",
        "--batch-size", "64", "--seeds", "2", "--grid-values", "0.25,1,4", "--seed", "7", "--out", str(grid),
    ]) == 0
    assert (sha(run), sha(tmp_path / f"{name}.trace.csv"), sha(grid)) == LOGISTIC_GOLDEN[name]


@pytest.mark.parametrize("problem", ["abs", "quadratic"])
def test_a_scalar_zero_step_from_signed_zeros_matches_golden(tmp_path, problem):
    """Where alpha is 0, x takes the zero step x - 0 * g. On quadratic, g = x
    is -0.0 at step 0, so x turns from -0.0 to +0.0; on abs, g = sign(x) is
    +0.0 and x stays -0.0. The record's losses and the trace's gradient norm
    and v carry no sign of zero, so no byte shows it: SHA-256 of the record
    and of the trace, recorded when the scalar stepper kept x where alpha
    was 0."""
    import hashlib

    out = tmp_path / "zero.csv"
    assert run_cli(["run", "--problem", problem, "--dim", "2", "--x0=-0.0,-0.0", "--optimizer", "gradagrad-scalar",
                    "--steps", "4", "--eval-every", "1", "--trace", "--out", str(out)]) == 0
    assert [hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, tmp_path / "zero.trace.csv")] == [
        "a350c8596f905b0d89c766584baf81f2c7279b7e9017dcd6cef8191415c90c48",
        "236c71b22e4582d7dec8d36eb2a376b01adf0a36672949b10dfa66e719f07b13",
    ]


# `run --trace` writes its trace one ring of TRACE_CHUNK_ROWS // d steps at a
# time; the ring's size must not change a byte of the trace or the record.
LOGISTIC_RUN = ["--problem", "logistic", "--epochs", "2", "--batch-size", "50", "--seed", "5"]
RING_RUNS = {
    **{name: (GOLDEN_RUNS[name][0], 3 if name == "quad" else 1, GOLDEN[name][0]) for name in GOLDEN},
    **{name: ([*LOGISTIC_RUN, "--dataset", str(BLOBS if name == "blobs" else BITS)],
              load_dataset(BLOBS if name == "blobs" else BITS).dim, LOGISTIC_GOLDEN[name][1])
       for name in LOGISTIC_GOLDEN},
}


def _spy_rings(monkeypatch):
    """The length of each ring cli.drive gets, and of each chunk it passes on."""
    rings, chunks, drive = [], [], cli.drive

    def spy(opt, grad, steps, on_eval, eval_every, trace, on_trace):
        rings.append(len(trace))
        return drive(opt, grad, steps, on_eval, eval_every, trace,
                     lambda chunk: (chunks.append(len(chunk)), on_trace(chunk)))

    monkeypatch.setattr(cli, "drive", spy)
    return rings, chunks


@pytest.mark.parametrize("ring", [1, 2, 7])
@pytest.mark.parametrize("name", sorted(RING_RUNS))
def test_run_trace_bytes_match_golden_through_a_ring_of_steps(tmp_path, monkeypatch, name, ring):
    """abs, quad and the logistic runs step the diagonal stepper, scalar the
    scalar one; a ring of 7 steps divides none of their step counts."""
    import hashlib

    run_args, d, digest = RING_RUNS[name]
    monkeypatch.setattr(csvio, "TRACE_CHUNK_ROWS", ring * d)
    rings, chunks = _spy_rings(monkeypatch)
    out = tmp_path / f"{name}.csv"
    assert run_cli(["run", *run_args, "--trace", "--out", str(out)]) == 0
    steps = int(read_rows(out)[-1][0])
    assert rings == [ring] and chunks == [ring] * (steps // ring) + [steps % ring] * (steps % ring > 0)
    assert hashlib.sha256((tmp_path / f"{name}.trace.csv").read_bytes()).hexdigest() == digest
    assert sorted(path.name for path in tmp_path.iterdir()) == [f"{name}.csv", f"{name}.trace.csv"]


def test_a_step_wider_than_a_chunk_is_a_ring_of_its_own(tmp_path, monkeypatch):
    argv = ["run", "--problem", "quadratic", "--dim", "1025", "--noise-std", "1", "--x0", "3", "--steps", "5",
            "--seed", "2", "--trace"]
    rings, chunks = _spy_rings(monkeypatch)
    assert run_cli([*argv, "--out", str(tmp_path / "ring.csv")]) == 0
    assert (rings, chunks) == ([1], [1] * 5)
    monkeypatch.setattr(csvio, "TRACE_CHUNK_ROWS", 10 ** 9)  # the whole run in one ring, as one chunk
    assert run_cli([*argv, "--out", str(tmp_path / "whole.csv")]) == 0
    assert (rings, chunks) == ([1, 5], [1] * 5 + [5])
    for suffix in (".csv", ".trace.csv"):
        assert (tmp_path / f"ring{suffix}").read_bytes() == (tmp_path / f"whole{suffix}").read_bytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("existing", [False, True])
def test_a_failed_traced_run_leaves_the_trace_path_as_it_found_it(tmp_path, monkeypatch, capsys, existing):
    monkeypatch.setattr(csvio, "TRACE_CHUNK_ROWS", 2)  # d = 2: a ring of one step, written before step 1 fails
    rings, chunks = _spy_rings(monkeypatch)
    trace = tmp_path / "div.trace.csv"
    if existing:
        trace.write_bytes(b"k,i\r\nan earlier trace\n")
    assert run_cli(["run", "--problem", "quadratic", "--diag", "1e300,1", "--x0", "1e-300", "--gamma0", "1e300",
                    "--steps", "50", "--trace", "--out", str(tmp_path / "div.csv")]) == 3
    assert capsys.readouterr().err.endswith("error: step 1: gradient entry 0 is -inf; gradients must be finite\n")
    assert (rings, chunks) == ([1], [1])
    assert sorted(path.name for path in tmp_path.iterdir()) == (["div.trace.csv"] if existing else [])
    if existing:
        assert trace.read_bytes() == b"k,i\r\nan earlier trace\n"


def test_a_trace_path_that_cannot_be_replaced_leaves_no_temporary_file(tmp_path, capsys):
    (tmp_path / "d.trace.csv").mkdir()
    assert run_cli(["run", "--problem", "abs", "--steps", "3", "--trace", "--out", str(tmp_path / "d.csv")]) == 2
    assert f"'{tmp_path / 'd.trace.csv'}'" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["d.csv", "d.trace.csv"]
    assert (tmp_path / "d.trace.csv").is_dir()


# SHA-256 of short run records of every optimizer on a noisy quadratic
# (subopt column) and on the bits fixture (epoch and accuracy columns),
# recorded before the steppers kept the step sizes they applied as state;
# the record's step-size columns must not change.
RECORD_PROBLEMS = {
    "quadratic": ["--problem", "quadratic", "--dim", "3", "--noise-std", "0.5", "--x0", "3",
                  "--steps", "300", "--seed", "3", "--eval-every", "10"],
    "logistic": ["--problem", "logistic", "--dataset", str(BITS), "--epochs", "2", "--batch-size", "50",
                 "--seed", "5"],
}
RECORD_GOLDEN = {
    ("adagrad", "quadratic"): "bf4781235529eaed9ed55169a79b5a776ebbec430e5e2f2a235c4b19e852b214",
    ("adagrad", "logistic"): "b8a73edfefeebdd2098e3b9990093a5313363b69f02f930ad9145f33130c33d1",
    ("adam", "quadratic"): "367843706cf988182dfa58da919fff96894577770c2e28cdfaff9b59c581bff7",
    ("adam", "logistic"): "f0b3742ec86120584836ab971191e8fff68976f34997f27c91351620a8bf0e59",
    ("gradagrad", "quadratic"): "2e89d9370da4a86b3e4747d5b1ca5cf3df4bfb7c1fa957bc1f2be9edf4ddc91e",
    ("gradagrad", "logistic"): "1e815445f50d508cc0c59a1b8065ebcaa0741eb1684b7147f465a87e0aa1efa3",
    ("gradagrad-scalar", "quadratic"): "b35cacd921625c8a139d9966dd2992016a1044c4e01fa2ea7c98d1670dda1af6",
    ("gradagrad-scalar", "logistic"): "9a9842e37c4ea723f5ea812c57b998fa5623ffc2351155d7af07a4264aacd7db",
    ("sgd", "quadratic"): "6ebef757b33dbd6db2955bf839a7125ce45d71aefc723b6f472cd4283a979d1b",
    ("sgd", "logistic"): "ff8b4960889c8ccd06a075ef5a269592ad573054b27eb22ef3be7e468e419480",
}


@pytest.mark.parametrize("optimizer,problem", sorted(RECORD_GOLDEN))
def test_run_record_bytes_match_golden(tmp_path, optimizer, problem):
    import hashlib

    out = tmp_path / "r.csv"
    assert run_cli(["run", *RECORD_PROBLEMS[problem], "--optimizer", optimizer, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RECORD_GOLDEN[optimizer, problem]


# SHA-256 of the grid CSVs of GRID_CASES with --seeds 2 --seed 11, recorded
# before grid replicas stepped in lockstep; the lockstep grid must not
# change a byte.
GRID_GOLDEN = {
    "adagrad-abs": "27963301f620f2af33c1664cd57e02f743df6d6b6ae3fc79eaf1e9d5f07c9b85",
    "adagrad-quadratic": "dd2846b6f53e3dced2fc098e9b5d919090cb44fa774040b416615ee42ffab0ca",
    "adagrad-bits": "28425d4ead2f64f029468da9d353b11e01f8701a82963d3ee9a5592edb09e40a",
    "adagrad-blobs": "091001eaabcad9038f8d97c778e6bcdb04ea5f503c42cb00ec3ed046e2ab9615",
    "adam-abs": "f23d35c06079d5c83a0c775ba1b19a95423981bd97585b5d688077d0744cdb5d",
    "adam-quadratic": "cf42beb6e18f033f75074ed3ab1a582f9972a0a7658cbbdc3126f1731cd5ec0c",
    "adam-bits": "46ee5cd5d08dfdb89639ead70fc01d2c80d392d58fbc3b353913e25647791820",
    "adam-blobs": "c20072cfa9adfef419a9cecd2230d56455a7a83f34764817452d06a7dd9dbc62",
    "gradagrad-abs": "de060f269cd83a99bb22995c5795edd77b77e62859c3fa5bc921babc30187014",
    "gradagrad-quadratic": "52d1e07aad85dd00c2202b447c346dc40a8fd55b4f8c20bffcda285a83a65ffa",
    "gradagrad-bits": "6f6122fa348cf5160f2f950aca9326602569cc46f4310046fb7912b2aa07ba85",
    "gradagrad-blobs": "fcdb7b0b802f8629ea7ad69822194aa1fb66debbd816e174881b35f523d705d6",
    "gradagrad-scalar-abs": "baaae72a1143c7bf8f717217cc4986fc6a427890dd964f1704813ea3cfe47628",
    "gradagrad-scalar-quadratic": "f06007fd5de369046460b3a56ca7ab214f78ed7b04362c61348650b6ddcf0ee7",
    "gradagrad-scalar-bits": "161322538f6a41294371f0abd34688f7d5f60172d806e1294bd0c78126440084",
    "gradagrad-scalar-blobs": "683e61762138cd0fba62d0dac1c736d9e9685249eb99847aeed6d1d67be79888",
    "sgd-abs": "136640f612c9a0885c9d8e2ccc03c90dae048a2348bbba463e9d66539cefa30d",
    "sgd-quadratic": "77164044f5db2fdafbb0b862fe38515fe8f38f782aaeaa8f1af1f03aa0e524a4",
    "sgd-bits": "9e83187adc629ad71a644e7ca5a3c2853874ddf92186bf895610970cc723b6eb",
    "sgd-blobs": "1c0b67ed3f3588f83c2ef9f1c499c5a94e6814b320f8feba924a1a499192e9ca",
    "gradagrad-rho": "926cd57f3a5019876aae40ad4f9e534ae4ca9cb8600eea3a10988191660b3deb",
    "gradagrad-beta": "cd7c1920d09a6b5cd27a788052d884594449bd67b8ccf3caefe1f363683a2ad9",
    "gradagrad-g_inf": "004af1209f0827e973cc541fc1138d7546d2dfdfdc8c9d7dc83af9a02a61f102",
    "gradagrad-d_inf": "a390b48116e1fdb392c3821ba2704447afeb103112381d760883e365d3d5818b",
    "scalar-rho-adaptive": "7f65952ecda3b60bfc64b7e7155fc2cc235fecfa8a86f41982b1cd61e406b72b",
}


@pytest.mark.parametrize("name", sorted(GRID_GOLDEN))
def test_grid_bytes_match_golden(tmp_path, name):
    import hashlib

    out = tmp_path / "grid.csv"
    assert run_cli(["grid", *GRID_CASES[name], "--seeds", "2", "--seed", "11", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GRID_GOLDEN[name]
