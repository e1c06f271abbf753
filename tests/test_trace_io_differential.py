"""Differential test: trace CSV I/O against the frozen csv-module code.

The writer must write the bytes the csv.writer one wrote, on fuzzed and
scalar traces, on hand-set values (signed zeros, infinities, NaNs with
different payloads, subnormals, values repeated across columns and
chunks) and at the widths around the TRACE_CHUNK_ROWS chunk edges. The
reader, with its trace field parser, must read the same Trace or run
record as the csv.reader one with the frozen parser, or fail with the same
message, on well-formed files and on malformed ones. A quoted field is the
one expected difference: csv.reader unquoted it, the reader now reports it.
"""

import contextlib
import dataclasses
import io

import numpy as np
import pytest

import reference_trace_io as ref
from conftest import make_fuzz_run, traced_run, write_trace_csv
from gradagrad import HyperParams, ScalarGradaGrad, Trace, cli, csvio, verify
from gradagrad.core import BRANCHES, FLOAT_COLUMNS


def _nan(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


# a quiet NaN, one with a payload, a signalling one and negative ones
NANS = [_nan(0x7FF8000000000000), _nan(0x7FF8000000000123), _nan(0x7FF0000000000001),
        _nan(0xFFF8000000000000), _nan(0xFFF0000000000abc)]
SPECIAL = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e300, -1e300, 2.2250738585072014e-308, *NANS]


def _scalar_trace(r_fixed):
    rng = np.random.default_rng(7)
    opt = ScalarGradaGrad(np.zeros(3), HyperParams(gamma0=0.7, rho=2.0, r_fixed=r_fixed))
    return traced_run(opt, [rng.normal(1.0, 0.4, 3) for _ in range(400)])


def _special_trace(d, steps, seed):
    """A fuzz trace with SPECIAL values scattered over its float columns,
    some copied across columns and into later chunks."""
    _, trace = make_fuzz_run(dim=d, steps=steps, seed=seed, d_inf=3.0)
    rng = np.random.default_rng(seed)
    columns = [trace.g, trace.v_raw, trace.v_clipped, trace.r, trace.gamma_after, trace.alpha_after, trace.a_after]
    for column in columns:
        flat = column.reshape(-1)
        at = rng.choice(flat.size, size=min(flat.size, 3 * len(SPECIAL)), replace=False)
        flat[at] = np.resize(np.array(SPECIAL), at.size)
    trace.v_clipped[...] = np.where(rng.random(trace.v_raw.shape) < 0.5, trace.v_raw, trace.v_clipped)
    trace.a_after[-1] = trace.g[0]  # the first step's values again, chunks later
    return trace


WRITER_CASES = {
    **{f"fuzz-d{d}-cap{cap}-beta{beta}-{mode}": (lambda d=d, cap=cap, beta=beta, mode=mode: make_fuzz_run(
        dim=d, steps=300, seed=d, d_inf=cap, beta=beta, mode=mode)[1])
       for d, cap, beta, mode in [(3, 3.0, 0.0, "practical"), (10, 50.0, 0.8, "theory"), (7, 1e10, 0.0, "theory")]},
    "scalar-r1": lambda: _scalar_trace(1.0),
    "scalar-adaptive": lambda: _scalar_trace(None),
    "special-d3": lambda: _special_trace(3, 700, 0),
    # 1024 // d steps per chunk: 1024 one-row steps, one step of 1024 rows, one of 1025
    "special-d1": lambda: _special_trace(1, 2100, 1),
    "special-d1024": lambda: _special_trace(1024, 3, 2),
    "special-d1025": lambda: _special_trace(1025, 3, 3),
    "special-d341": lambda: _special_trace(341, 7, 4),
    "empty": lambda: Trace.empty(0, 4),
}


@pytest.mark.parametrize("name", WRITER_CASES)
def test_writer_bytes_match_the_csv_writer(tmp_path, name):
    trace = WRITER_CASES[name]()
    new, old = tmp_path / "new.trace.csv", tmp_path / "old.trace.csv"
    write_trace_csv(new, trace)
    ref.write_trace_csv(old, trace)
    assert new.read_bytes() == old.read_bytes()


@pytest.mark.parametrize("name", WRITER_CASES)
def test_reader_and_commands_match_the_frozen_reader_on_written_traces(tmp_path, name):
    trace = WRITER_CASES[name]()
    path = tmp_path / "t.trace.csv"
    ref.write_trace_csv(path, trace)
    _assert_same_read(path, max(1, trace.branch.shape[1]))


def _outcome(path, read_csv, trace_fields):
    """What the CLI makes of path with read_csv as its CSV reader and
    trace_fields as its trace field parser: the parsed trace or record
    report, or the error, and every command's exit code and output."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "_read_csv", read_csv)
        mp.setattr(csvio, "_trace_fields", trace_fields)
        with cli.open_input(path) as f:
            record = f.readline().rstrip("\r\n").split(",") == csvio.RUN_HEADER
        try:
            if record:
                _, columns = csvio.read_input(path, (csvio.RUN_HEADER,))
                parsed = repr(verify.record_report(*columns, 3.0))
            else:
                trace = cli.read_trace_csv(path)
                parsed = [(f.name, getattr(trace, f.name).dtype, getattr(trace, f.name).shape,
                           getattr(trace, f.name).tobytes()) for f in dataclasses.fields(trace)]
        except cli.ConfigError as exc:
            parsed = str(exc)
        commands = []
        for argv in (["check", str(path)], ["check", str(path), "--d-inf", "3"], ["trace-dump", str(path)]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            commands.append((code, out.getvalue(), err.getvalue()))
    return parsed, commands


READ_CSV = csvio._read_csv  # the package's reader, which _outcome patches


def _frozen_read_csv(path, headers):
    """The header the package's reader picks from headers, then the frozen
    reader's arrays of the whole file, as one run of rows, from which the
    CLI folds over the whole trace in one chunk."""
    header = next(READ_CSV(path, headers))
    parse = csvio._trace_fields if header == csvio.TRACE_HEADER else csvio._record_fields
    return iter([header, ref.read_csv(path, header, parse)])


def _assert_same_read(path, d=3):
    """The CLI reads path, a trace of width d or a run record, as the frozen
    reader does, also at 1, 2 and 7 steps of d rows a chunk."""
    new = _outcome(path, csvio._read_csv, csvio._trace_fields)
    assert new == _outcome(path, _frozen_read_csv, ref.trace_fields)
    for steps in (1, 2, 7):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(csvio, "TRACE_READ_ROWS", steps * d)
            mp.setattr(csvio, "TRACE_FOLD_ROWS", steps * d)
            assert _outcome(path, csvio._read_csv, csvio._trace_fields) == new, steps
    return new


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The text of a well-formed trace of d=3 over 400 steps (1200 rows, two
    chunks) and of a run record."""
    base = tmp_path_factory.mktemp("files")
    out = base / "r.csv"
    assert cli.main(["run", "--problem", "quadratic", "--dim", "3", "--noise-std", "0.5", "--x0", "3",
                     "--gamma0", "1.5", "--d-inf", "2", "--steps", "400", "--eval-every", "7",
                     "--trace", "--out", str(out)]) == 0
    return {"trace": (base / "r.trace.csv").read_text(), "record": out.read_text()}


def _edit_line(text, line, edit):
    lines = text.split("\n")
    lines[line - 1] = edit(lines[line - 1])
    return "\n".join(lines)


def _set_fields(line, columns, value):
    return lambda text: _edit_line(text, line, lambda row: ",".join(
        value if n in columns else field for n, field in enumerate(row.split(","))))


def _set_field(line, column, value):
    return _set_fields(line, (column,), value)


def _swap(a, b):
    def edit(text):
        lines = text.split("\n")
        lines[a - 1], lines[b - 1] = lines[b - 1], lines[a - 1]
        return "\n".join(lines)
    return edit


# each edit maps a well-formed file's text to a malformed (or still
# well-formed) one; lines 1026 and 1027 are the second chunk's first two
EDITS = {
    "as-written": lambda text: text,
    "short-row": lambda text: _edit_line(text, 40, lambda row: row.rsplit(",", 1)[0]),
    "long-row": lambda text: _edit_line(text, 1026, lambda row: row + ",1.0"),
    "blank-line-inside": lambda text: _edit_line(text, 700, lambda row: "\n" + row),
    "blank-line-at-end": lambda text: text + "\n",
    "two-blank-lines-at-end": lambda text: text + "\n\n",
    "no-final-newline": lambda text: text.rstrip("\n"),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "crlf-no-final-newline": lambda text: text.rstrip("\n").replace("\n", "\r\n"),
    "lone-cr": lambda text: text.replace("\n", "\r"),
    "mixed-line-ends": lambda text: _edit_line(_edit_line(text, 5, lambda row: row + "\r"), 1027,
                                               lambda row: row + "\r\r"),
    "header-only": lambda text: text.split("\n")[0] + "\n",
    "header-without-newline": lambda text: text.split("\n")[0],
    "empty": lambda text: "",
    "blank-first-line": lambda text: "\n" + text,
    "missing-column": lambda text: _edit_line(text, 1, lambda row: row.rsplit(",", 1)[0]),
    "renamed-column": lambda text: _edit_line(text, 1, lambda row: row.replace("g,", "grad,", 1)),
    "extra-column": lambda text: _edit_line(text, 1, lambda row: row + ",extra"),
    "spaces-in-header": lambda text: _edit_line(text, 1, lambda row: row.replace(",", ", ")),
    "step-word": _set_field(3, 0, "three"),
    "float-step": _set_field(1026, 0, "1.0"),
    "float-coordinate": _set_field(9, 1, "2.0"),
    "non-numeric-float": _set_field(300, 2, "x"),
    "non-numeric-last-line": lambda text: _set_field(len(text.split("\n")) - 1, 9, "1e")(text),
    "nul-field": _set_field(12, 3, "\x00"),
    "space-field": _set_field(12, 4, " "),
    "padded-number": _set_field(12, 6, " 0.5 "),
    "double-dot": _set_field(1027, 7, "1.0.0"),
    "huge-exponent": _set_field(20, 8, "1e400"),
    "nan-words": _set_field(21, 2, "-NaN"),
    "inf-step": _set_field(22, 0, "inf"),
    "unknown-branch": _set_field(30, 5, "bogus"),
    "empty-branch": _set_field(1030, 5, ""),
    "branch-case": _set_field(31, 5, "Negative"),
    "rows-swapped": _swap(50, 51),
    "rows-swapped-across-chunks": _swap(1025, 1026),
    "bad-and-worse-later": lambda text: _set_field(60, 2, "x")(_set_field(61, 5, "bogus")(text)),
    "short-row-and-bad-field": lambda text: _set_field(80, 2, "x")(
        _edit_line(text, 80, lambda row: row + ",1")),
    "quote-inside-field": _set_field(90, 2, '1"5'),
    # v_clipped is parsed only where its text differs from v_raw's
    "bad-v_raw-copied-to-v_clipped": _set_fields(95, (3, 4), "x"),
    "bad-v_clipped-only": _set_field(96, 4, "x"),
    "bad-v_clipped-second-chunk": _set_field(1028, 4, "1e"),
    "empty-v_raw-and-v_clipped": _set_fields(97, (3, 4), ""),
    "empty-v_clipped-only": _set_field(1031, 4, ""),
    "padded-v_raw-copied-to-v_clipped": _set_fields(98, (3, 4), " 0.5 "),
    "clip-binds": _set_field(99, 4, "-0.0625"),
    "clip-binds-same-value-other-text": _set_field(100, 4, "-6.25e-2"),
    "clip-binds-and-empty-r-later": lambda text: _set_field(101, 4, "-0.0625")(_set_field(102, 6, "")(text)),
    "bad-r-and-clip-binds": lambda text: _set_field(103, 6, "r")(_set_field(103, 4, "-0.5")(text)),
}
RECORD_EDITS = {
    name: EDITS[name] for name in (
        "as-written", "short-row", "blank-line-at-end", "no-final-newline", "crlf", "lone-cr",
        "header-only", "empty", "missing-column", "extra-column",
    )
}
RECORD_EDITS.update({  # a record of 400 steps, evaluated every 7, has 60 lines
    "nul-step": _set_field(12, 0, "\x00"),
    "quote-inside-loss": _set_field(9, 2, '1"5'),
    "quote-inside-gamma": _set_field(9, 5, '1"5'),
    "short-record-row": lambda text: _edit_line(text, 4, lambda row: row.rsplit(",", 3)[0]),
    "blank-record-line": lambda text: _edit_line(text, 5, lambda row: "\n" + row),
    "step-word": _set_field(4, 0, "three"),
    "gamma-word": _set_field(6, 5, "big"),
    "gamma-empty": _set_field(6, 5, ""),
    "gamma-nan": _set_field(6, 5, "nan"),
    "repeated-step": _set_field(7, 0, "0"),
})


@pytest.mark.parametrize("name", EDITS)
def test_reader_matches_the_csv_reader_on_traces(tmp_path, files, name):
    path = tmp_path / "t.trace.csv"
    path.write_bytes(EDITS[name](files["trace"]).encode())
    parsed, commands = _assert_same_read(path)
    if name == "as-written":
        assert isinstance(parsed, list) and commands[0][0] == 0


@pytest.mark.parametrize("name", RECORD_EDITS)
def test_reader_matches_the_csv_reader_on_run_records(tmp_path, files, name):
    path = tmp_path / "r.csv"
    path.write_bytes(RECORD_EDITS[name](files["record"]).encode())
    parsed, commands = _assert_same_read(path)
    if name == "as-written":
        assert parsed.startswith("CheckReport(name='run_record', passed=True") and commands[0][0] == 0


@pytest.mark.parametrize("seed", range(6))
def test_reader_matches_the_csv_reader_on_random_edits(tmp_path, files, seed):
    rng = np.random.default_rng(seed)
    text = files["trace"]
    for _ in range(rng.integers(1, 4)):
        line = int(rng.integers(2, 1202))
        column = int(rng.integers(0, 10))
        value = str(rng.choice(["", "x", "nan", "-inf", "1e-320", "7", "-0", "negative", "capped", "0x10"]))
        text = _set_field(line, column, value)(text)
    path = tmp_path / "t.trace.csv"
    path.write_text(text)
    _assert_same_read(path)


@pytest.mark.parametrize("kind,line,column,quoted,message", [
    ("trace", 12, 2, '"0.5"', "non-numeric field"),
    ("trace", 1026, 0, '"341"', "non-numeric field"),
    ("trace", 30, 5, '"negative"', f"""unknown branch '"negative"'; expected one of {list(BRANCHES)}"""),
    ("trace", 40, 6, '""', "non-numeric field"),  # an empty r, quoted
    ("record", 4, 5, '"0.5"', "non-numeric step or gamma_max"),
])
def test_a_quoted_field_is_malformed_at_its_line(tmp_path, capsys, files, kind, line, column, quoted, message):
    path = tmp_path / ("t.trace.csv" if kind == "trace" else "r.csv")
    path.write_text(_set_field(line, column, quoted)(files[kind]))
    header = csvio.TRACE_HEADER if kind == "trace" else csvio.RUN_HEADER
    parse = csvio._trace_fields if kind == "trace" else csvio._record_fields
    ref.read_csv(path, header, parse)  # csv.reader unquoted the field
    for argv in (["check", str(path)], ["trace-dump", str(path)]) if kind == "trace" else (["check", str(path)],):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"{path}:{line}: {message}" in err
        assert "Traceback" not in err


def test_reader_matches_the_reference_where_clips_bind(tmp_path):
    """A fuzzed trace in which some clips bind, so v_clipped's text differs
    from v_raw's on some rows, reads back as written and as the frozen
    reader reads it."""
    _, trace = make_fuzz_run(dim=10, steps=300, seed=0, d_inf=3.0)
    path = tmp_path / "t.trace.csv"
    write_trace_csv(path, trace)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert 0 < sum(row[3] != row[4] for row in rows) < len(rows)
    _, commands = _assert_same_read(path)
    assert commands[0][0] == 0
    read = cli.read_trace_csv(path)
    for name in FLOAT_COLUMNS:
        assert np.array_equal(getattr(read, name), getattr(trace, name), equal_nan=True), name
