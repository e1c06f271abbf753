"""The trace checks and `trace-dump` as folds over chunks of a trace.

`check` and `trace-dump` read a trace one chunk of whole steps at a time.
Each case here is one that only the fold has: a violation that only the
row carried over from the previous chunk can find, a check's error that
must wait for a malformed line in a later chunk, a step 0 wider than a
chunk, and `--head` rows spread over several chunks. Every report and
dump must equal the one made from the whole trace in one chunk. Setting
TRACE_READ_CHARS to 1, which reads one line a block, and TRACE_FOLD_ROWS
to n * d makes chunks of n steps.
"""

import contextlib
import io

import numpy as np
import pytest

from conftest import copy_trace, first_branch, make_fuzz_run, write_trace_csv
from gradagrad import cli, csvio, verify
from gradagrad.core import BRANCH_NEGATIVE, BRANCH_POSITIVE, HyperParams, ScalarGradaGrad, Trace, drive

WHOLE = 10 ** 9  # rows that hold any trace here in one chunk


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _set_rows(monkeypatch, rows):
    monkeypatch.setattr(csvio, "TRACE_READ_CHARS", 1 if rows < WHOLE else WHOLE)  # a line a block, or the file
    monkeypatch.setattr(csvio, "TRACE_FOLD_ROWS", rows)


def _chunked(monkeypatch, rows, argv):
    _set_rows(monkeypatch, rows)
    return _cli(argv)


def _folded(trace, steps, check, **kwargs):
    """check's report on trace fed steps steps at a time."""
    fold = verify.Fold()
    for start in range(0, len(trace), steps):
        report = check(trace[start:start + steps], fold=fold, **kwargs)
    return report


def _negative_uncapped(trace, d_inf):
    """(step, coordinate) of the first negative-branch entry after step 1 below the cap."""
    found = np.argwhere((trace.branch[2:] == BRANCH_NEGATIVE) & (trace.gamma_after[2:] < d_inf))
    return int(found[0, 0]) + 2, int(found[0, 1])


@pytest.mark.parametrize("name", ["errnegativity", "monotone", "reparam"])
def test_a_violation_on_the_first_row_of_a_later_chunk_is_found_by_the_carry(name):
    _, trace = make_fuzz_run(dim=4, steps=200, seed=5, d_inf=50.0)
    bad = copy_trace(trace)
    if name == "errnegativity":  # A_{k+1} far below A_k breaks restricted increase
        t, i = _negative_uncapped(trace, 50.0)
        bad.a_after[t, i] = bad.a_after[t - 1, i] * 1e-3
        check, kwargs = verify.check_errnegativity, {}
    elif name == "monotone":  # alpha falls on a positive step
        t, i = first_branch(trace, BRANCH_POSITIVE)
        bad.alpha_after[t, i] = bad.alpha_after[t - 1, i] * 0.5
        check, kwargs = verify.check_monotone_and_cap, {"d_inf": 50.0}
    else:  # gamma grows past the rescale on an uncapped negative step
        t, i = _negative_uncapped(trace, 50.0)
        bad.gamma_after[t, i] *= 1.0 + 1e-6
        check, kwargs = verify.check_reparam_invariance, {"d_inf": 50.0}
    whole = check(bad, **kwargs)
    assert not whole.passed and whole.location[0] in (t, t + 1)
    t = whole.location[0]
    # step t opens a chunk, so only the carried step t - 1 relates it to the step before
    fold = verify.Fold()
    check(bad[:t], fold=fold, **kwargs)
    assert check(bad[t:], fold=fold, **kwargs) == whole
    for steps in (1, 2, 7, t):
        assert _folded(bad, steps, check, **kwargs) == whole


@pytest.mark.parametrize("nans", [(), ((4, 1),), ((4, 1), (2, 0))])
def test_equal_worst_violations_report_the_first_and_the_first_nan_wins(nans):
    """Over the cap at every entry by the same amount, the worst is at (0, 0)
    in whatever chunk it falls; a NaN wins over every number, and the first
    NaN over a later one."""
    trace = Trace.empty(6, 2)
    trace.branch[:] = BRANCH_POSITIVE
    trace.gamma_after[:] = trace.alpha_after[:] = 1.0
    for at in nans:
        trace.gamma_after[at] = np.nan
    whole = verify.check_monotone_and_cap(trace, d_inf=0.5)
    assert whole.location == (nans[-1] if nans else (0, 0))
    for steps in (1, 2, 4):
        report = _folded(trace, steps, verify.check_monotone_and_cap, d_inf=0.5)
        assert (report.location, repr(report.worst_violation)) == (whole.location, repr(whole.worst_violation))


def _write(tmp_path, trace, name="t.trace.csv"):
    path = tmp_path / name
    write_trace_csv(path, trace)
    return path


def _set_field(path, line, column, value):
    lines = path.read_text().split("\n")
    fields = lines[line - 1].split(",")
    fields[column] = value
    lines[line - 1] = ",".join(fields)
    path.write_text("\n".join(lines))


@pytest.mark.parametrize("rows", [3, 21, 1024, WHOLE])
def test_a_malformed_line_in_a_later_chunk_wins_over_a_negative_branch_at_step_0(tmp_path, monkeypatch, rows):
    """The whole file is parsed before a check's own error is raised."""
    _, trace = make_fuzz_run(dim=3, steps=400, seed=2)
    path = _write(tmp_path, trace)
    _set_field(path, 2, 5, "negative")  # step 0, coordinate 0
    code, out, err = _chunked(monkeypatch, rows, ["check", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: {path}:2: negative branch in the first trace: traces must start at step 0\n"
    _set_field(path, 1100, 2, "x")
    for argv in (["check", str(path)], ["check", str(path), "--checks", "monotone,errnegativity"]):
        assert _chunked(monkeypatch, rows, argv) == (2, "", f"error: {path}:1100: non-numeric field\n")
    _set_field(path, 1100, 2, "0.5")
    _set_field(path, 1150, 1, "0")  # a row out of place
    code, out, err = _chunked(monkeypatch, rows, ["check", str(path)])
    assert (code, out) == (2, "") and err.startswith(f"error: {path}:1150: expected step 382, coordinate 2, ")


@pytest.mark.parametrize("coord", [0, 2])
def test_a_negative_branch_at_step_0_is_named_at_its_line(tmp_path, coord):
    _, trace = make_fuzz_run(dim=3, steps=20, seed=2)
    path = _write(tmp_path, trace)
    _set_field(path, 2 + coord, 5, "negative")  # step 0, coordinate coord
    for checks in ("all", "errnegativity", "reparam,monotone"):
        assert _cli(["check", str(path), "--checks", checks]) == (
            2, "", f"error: {path}:{2 + coord}: negative branch in the first trace: traces must start at step 0\n")
    assert _cli(["check", str(path), "--checks", "monotone"])[0] in (0, 1)  # the one check that relates no steps


@pytest.mark.parametrize("d,rows", [(10, 4), (1025, 1024), (7, 1)])
def test_a_step_0_wider_than_a_chunk(tmp_path, monkeypatch, d, rows):
    _, trace = make_fuzz_run(dim=d, steps=6, seed=d, d_inf=3.0)
    path = _write(tmp_path, trace)
    argvs = (["check", str(path)], ["check", str(path), "--d-inf", "3"], ["trace-dump", str(path), "--head", "25"])
    whole = [_chunked(monkeypatch, WHOLE, argv) for argv in argvs]
    _set_rows(monkeypatch, rows)
    assert [len(chunk) for chunk in csvio.trace_chunks(path)] == [1] * 6
    assert [_cli(argv) for argv in argvs] == whole
    read = cli.read_trace_csv(path)
    assert np.array_equal(read.k, np.arange(6)) and np.array_equal(read.branch, trace.branch)


@pytest.mark.parametrize("fold_rows", [1000, 3000, None])
def test_a_chunk_holds_whole_steps_of_at_least_trace_fold_rows(tmp_path, monkeypatch, fold_rows):
    _, trace = make_fuzz_run(dim=100, steps=120, seed=0, d_inf=3.0)
    path = _write(tmp_path, trace)
    if fold_rows:
        monkeypatch.setattr(csvio, "TRACE_FOLD_ROWS", fold_rows)
    chunks = list(csvio.trace_chunks(path))
    assert [int(chunk.k[0]) for chunk in chunks] == np.cumsum([0, *map(len, chunks[:-1])]).tolist()
    assert sum(map(len, chunks)) == 120
    # a chunk ends at the first step end past TRACE_FOLD_ROWS rows after the block that crossed them
    lines = path.read_text().splitlines(keepends=True)[1:]
    block_rows = (csvio.TRACE_READ_CHARS + max(map(len, lines))) // min(map(len, lines))
    assert all(csvio.TRACE_FOLD_ROWS <= chunk.branch.size < csvio.TRACE_FOLD_ROWS + block_rows + 100
               for chunk in chunks[:-1])
    # trace-verify's trace, in blocks of about 580 rows: 45, 41 and 34 steps by default
    assert len(chunks) == {1000: 11, 3000: 4, None: 3}[fold_rows]


@pytest.mark.parametrize("d", [50, 400])
def test_the_reader_copies_each_row_a_bounded_number_of_times(tmp_path, monkeypatch, d):
    """A step many runs wide is joined once, not once for each run."""
    _, trace = make_fuzz_run(dim=d, steps=4, seed=3)
    path = _write(tmp_path, trace)
    copied, concatenate = [], np.concatenate

    def counted(*args, **kwargs):
        joined = concatenate(*args, **kwargs)
        copied.append(joined.size)
        return joined

    monkeypatch.setattr(np, "concatenate", counted)
    _set_rows(monkeypatch, 2)
    assert [len(chunk) for chunk in csvio.trace_chunks(path)] == [1] * 4
    assert sum(copied) <= 2 * trace.branch.size * 8  # each row's code and seven floats, twice at most


@pytest.mark.parametrize("head", [0, 2, 3, 10, 31, 600, 1201, 5000])
def test_trace_dump_head_rows_span_chunks(tmp_path, monkeypatch, head):
    _, trace = make_fuzz_run(dim=3, steps=400, seed=1, d_inf=3.0)
    path = _write(tmp_path, trace)
    argv = ["trace-dump", str(path), "--head", str(head)]
    whole = _chunked(monkeypatch, WHOLE, argv)
    assert whole[0] == 0 and len(whole[1].splitlines()) == 4 + min(head, 1200)
    for rows in (3, 6, 21, 1024):  # 1, 2 and 7 steps a chunk, and the default
        assert _chunked(monkeypatch, rows, argv) == whole


@pytest.mark.parametrize("kind", ["trace", "record"])
def test_check_opens_its_input_once(tmp_path, monkeypatch, kind):
    out = tmp_path / "r.csv"
    assert cli.main(["run", "--problem", "quadratic", "--dim", "3", "--steps", "50", "--trace", "--out", str(out)]) == 0
    opened = []

    def open_input(path):
        opened.append(path)
        return real(path)

    real = csvio.open_input
    monkeypatch.setattr(csvio, "open_input", open_input)
    path = str(tmp_path / "r.trace.csv") if kind == "trace" else str(out)
    assert _cli(["check", path])[0] == 0
    assert opened == [path]


def _reports(reports):
    return [(r.name, r.passed, r.worst_violation.hex(), r.location, r.details) for r in reports]


@pytest.mark.parametrize("ring", [1, 2, 7, 200])  # 200: the whole run
@pytest.mark.parametrize("stepper", ["diagonal", "scalar"])
def test_the_trace_checks_fed_from_drives_ring_report_as_on_the_whole_trace(stepper, ring):
    """verify.trace_checks is a sink: fed from drive's ring of 1, 2 and 7
    steps, or of the whole run, its last result is the check_* reports on the
    run's whole trace, though drive refills the ring after each call."""
    d_inf, steps, d = 3.0, 200, 4
    if stepper == "diagonal":  # the fuzz stream, its gradients replayed from the trace's g column
        _, whole = make_fuzz_run(dim=d, steps=steps, seed=5, d_inf=d_inf, beta=0.8)

        def start():
            opt, _ = make_fuzz_run(dim=d, steps=0, seed=5, d_inf=d_inf, beta=0.8)
            grads = iter(whole.g)
            return opt, lambda x: next(grads)
    else:
        def start():
            rng = np.random.default_rng(5)
            return ScalarGradaGrad(np.ones(d), HyperParams(rho=2.0)), lambda x: rng.normal(1.0, 0.4, d)

        opt, grad = start()
        whole = Trace.empty(steps, 1)
        drive(opt, grad, steps, trace=whole)
    expected = _reports([verify.check_errnegativity(whole), verify.check_monotone_and_cap(whole, d_inf=d_inf),
                         verify.check_reparam_invariance(whole, d_inf=d_inf)])
    assert [name for name, *_ in expected] == ["errnegativity", "monotone_and_cap", "reparam_invariance"]
    assert any(location for *_, location, _ in expected)  # a worst violation after step 0, to be found again
    opt, grad = start()
    sink, results = verify.trace_checks(cli.CHECK_NAMES, d_inf), []
    drive(opt, grad, steps, trace=Trace.empty(ring, whole.branch.shape[1]),
          on_trace=lambda chunk: results.append(sink(chunk)))
    assert len(results) == -(-steps // ring)
    assert _reports(results[-1]) == expected
