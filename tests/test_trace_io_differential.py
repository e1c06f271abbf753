"""Differential test: trace CSV I/O against the frozen csv-module code.

The writer must write the bytes the csv.writer one wrote, on fuzzed and
scalar traces, on hand-set values (signed zeros, infinities, NaNs with
different payloads, subnormals, values repeated across columns and
chunks) and at the widths around the TRACE_CHUNK_ROWS chunk edges. The
reader must read the same Trace or run record as the csv.reader one with
the frozen field parsers, or fail with the same message, on well-formed
files and on malformed ones, wherever every field is in the dialect the
writer writes (conftest.in_dialect). A field outside it, which the frozen
parsers read as int() or float() does, is malformed at its line, as is a
quoted field, which csv.reader unquoted.
"""

import contextlib
import dataclasses
import io
import re

import numpy as np
import pytest

import reference_trace_io as ref
from conftest import HOSTILE, in_dialect, make_fuzz_run, traced_run, write_trace_csv
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


def _outcome(path, read_csv, commands=True):
    """What the CLI makes of path with read_csv as its CSV reader: the
    parsed trace or record report, or the error, and (unless commands is
    False) every command's exit code and output."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "_read_csv", read_csv)
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
        argvs = (["check", str(path)], ["check", str(path), "--d-inf", "3"], ["trace-dump", str(path)])
        outputs = []
        for argv in argvs if commands else ():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            outputs.append((code, out.getvalue(), err.getvalue()))
    return parsed, outputs


READ_CSV = csvio._read_csv  # the package's reader, which _outcome patches


def _dialect(text, integers, floats):
    """text, a (columns, rows) object array of fields, with each field of
    the integers and floats columns that is outside the dialect set to "x",
    which no frozen parser reads; and the first row that has one, if any."""
    text, bad = text.copy(), []
    for columns, integer in ((integers, True), (floats, False)):
        for column in columns:
            ok = [in_dialect(field, integer) for field in text[column]]
            text[column] = np.where(ok, text[column], "x")
            bad += [ok.index(False)] if False in ok else []
    return text, min(bad, default=None)


def _trace_fields(text):
    """The frozen trace field parser, reading only the dialect."""
    return ref.trace_fields(_dialect(text, [0, 1], [2, 3, 4, 6, 7, 8, 9])[0])


def _record_fields(text):
    """The frozen run-record field parser, reading only the dialect: a
    field outside it in step or gamma_max fails as the parser fails, and in
    another column, which the parser does not read, as a non-numeric field."""
    arrays, errors = ref.record_fields(_dialect(text, [0], [5])[0])
    other = _dialect(text, [], [1, 2, 3, 4, 6, 7, 8, 9])[1]
    return arrays, errors + ([(other, "non-numeric field")] if other is not None else [])


def _frozen_read_csv(path, headers, columns=csvio.FLOAT_COLUMNS, head=0, dialect=True):
    """The header the package's reader picks from headers, then the frozen
    reader's arrays of the whole file, as one run of rows, from which the
    CLI folds over the whole trace in one chunk. Unless dialect is False,
    its field parsers read only the dialect. It takes the package reader's
    column set and head, and ignores them: it gives every column of every
    row, which the CLI's output must not tell from the package reader's."""
    header = next(READ_CSV(path, headers))
    if header == csvio.TRACE_HEADER:
        return iter([header, ref.read_csv(path, header, _trace_fields if dialect else ref.trace_fields)])
    arrays = ref.read_csv(path, header, _record_fields if dialect else ref.record_fields)
    return iter([header, [column.ravel() for column in arrays]])


def _frozen_read_csv_as_int_and_float(path, headers, columns=csvio.FLOAT_COLUMNS, head=0):
    """_frozen_read_csv with the frozen field parsers as they were, reading what int() and float() read."""
    return _frozen_read_csv(path, headers, columns, head, dialect=False)


def _first_row_chars(path):
    """The characters of the first line after path's header, its line end included (1 if there is none)."""
    with open(path, newline="", encoding="utf-8", errors="replace") as f:
        next(f, "")
        return max(1, len(next(f, "")))


def _assert_same_read(path, d=3):
    """The CLI reads path, a trace of width d or a run record, as the frozen
    reader does, also in blocks of one character (a line each, with the
    blank lines before it) folded at 7 steps of d rows a chunk, and in
    blocks of seven lines folded at 1 step. (The block-edge test below
    tries every block size up to a line.)"""
    new = _outcome(path, csvio._read_csv)
    assert new == _outcome(path, _frozen_read_csv)
    for chars, steps in ((1, 7), (7 * _first_row_chars(path), 1)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(csvio, "TRACE_READ_CHARS", chars)
            mp.setattr(csvio, "TRACE_FOLD_ROWS", steps * d)
            assert _outcome(path, csvio._read_csv) == new, (chars, steps)
    return new


def _assert_outside_the_dialect_is_malformed(path, parsed):
    """Where the frozen reader, reading what int() and float() read, reads
    path otherwise than the dialect does, the reader finds a field outside
    the dialect malformed at its line."""
    if _outcome(path, _frozen_read_csv_as_int_and_float, commands=False)[0] != parsed:
        assert re.fullmatch(rf"{re.escape(str(path))}:\d+: non-numeric (field|step or gamma_max)", parsed), parsed


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
# well-formed) one; the file's default blocks end at lines 576 and 1151,
# and blocks of one character and of seven lines put other lines at a
# block's edge
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
    # a line one field short beside one a field long, before branch: the block's field count is right
    "misaligned-pair": lambda text: _edit_line(_edit_line(text, 40, lambda row: row.rsplit(",", 1)[0]), 41,
                                               lambda row: ",".join(row.split(",")[:5] + ["1.0"] + row.split(",")[5:])),
    "branch-word-in-float-column": _set_field(45, 2, "init"),
    "digit-branch": _set_field(46, 5, "0"),
    "branch-leading-space": _set_field(47, 5, " init"),
    "branch-trailing-space": _set_field(48, 5, "init "),
    "branch-truncated": _set_field(49, 5, "negativ"),
    "branch-last-letter-wrong": _set_field(52, 5, "negativo"),
    **{f"zeros-{zero}": _set_fields(50, (2, 3, 4, 6, 7, 8, 9), zero) for zero in ("-0", "0.0", "-0.0", "-0e0")},
    "non-ascii-field": _set_field(51, 7, "é"),
    "blank-line-starts-second-run": lambda text: _edit_line(text, 514, lambda row: "\n" + row),
    # str.splitlines also ends a line at these; newline="" reading and csv.reader do not
    **{f"line-break-{ord(char):x}-in-field": _set_field(33, 2, f"1{char}5") for char in "\x0b\x0c\x1c\x85\u2028"},
    "one-field-last-line-without-newline": lambda text: text + "7",
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
    _assert_outside_the_dialect_is_malformed(path, parsed)
    if name == "as-written":
        assert isinstance(parsed, list) and commands[0][0] == 0


@pytest.mark.parametrize("name", RECORD_EDITS)
def test_reader_matches_the_csv_reader_on_run_records(tmp_path, files, name):
    path = tmp_path / "r.csv"
    path.write_bytes(RECORD_EDITS[name](files["record"]).encode())
    parsed, commands = _assert_same_read(path)
    _assert_outside_the_dialect_is_malformed(path, parsed)
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
    parse = ref.trace_fields if kind == "trace" else ref.record_fields
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


def _codec_edges():
    """Values at the edges of the band where orjson's spelling is repr's: ±0,
    subnormals, 1e-4 and 1e16 with their neighbours, ±inf and SPECIAL's NaNs."""
    edges = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-4, 1e16, 1e15, 1e17, np.inf]
    near = [np.nextafter(x, toward) for x in edges[4:8] for toward in (0.0, np.inf)]
    return np.array([*edges, *near, *(-x for x in [*edges, *near]), *SPECIAL])


def test_repr_fields_spells_every_value_as_repr():
    """The writer's codec spells each value as repr does, and NaN empty: on
    random 64-bit patterns over every exponent, on normal magnitudes across
    the band's edges and on the edge values themselves, and where v_clipped
    and r are formatted only in part."""
    rng = np.random.default_rng(22)
    patterns = rng.integers(0, 2**64, 40_000, dtype=np.uint64).view(np.float64)
    magnitudes = rng.standard_normal(40_000) * 10.0 ** rng.uniform(-7, 19, 40_000)
    values = np.concatenate([patterns, magnitudes, np.resize(_codec_edges(), 7 * 40)])
    floats = values[: values.size // 7 * 7].reshape(7, -1)
    # blocks whose v_clipped (row 2) repeats v_raw's value but not its bits (±0 for ∓0, other NaN
    # payloads), and whose r (row 3) mixes NaN with ±0, ±inf and values outside [1e-4, 1e16)
    clipped = floats.copy()
    clipped[1, :4000] = np.resize([0.0, -0.0, *NANS], 4000)
    clipped[2] = np.where(rng.random(clipped.shape[1]) < 0.5, clipped[1], floats[2])
    clipped[2, :4000:3] = np.resize([-0.0, 0.0, *NANS[::-1]], clipped[2, :4000:3].size)
    outside = [0.0, -0.0, np.inf, -np.inf, 1e-5, -5e-324, 9.99e-5, 1e16, -1.5e300, 0.5]
    clipped[3] = np.where(rng.random(clipped.shape[1]) < 0.7, np.nan, np.resize(outside, clipped.shape[1]))
    for block in (floats, clipped, clipped[:, :1], clipped[:, 4000:4100]):
        expected = [["" if v != v else repr(v) for v in row] for row in block.tolist()]
        assert csvio._repr_fields(np.ascontiguousarray(block)) == expected
    assert csvio._repr_fields(np.empty((7, 0))) == [[]] * 7


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    """The text of a trace of d=3 over 12 steps, some r fields empty."""
    path = tmp_path_factory.mktemp("small") / "t.trace.csv"
    ref.write_trace_csv(path, make_fuzz_run(dim=3, steps=12, seed=5, d_inf=3.0)[1])
    text = path.read_text()
    assert ",," in text
    return text


@pytest.mark.parametrize("token", HOSTILE, ids=lambda t: repr(t) if len(t) < 30 else f"{len(t)}-digits")
@pytest.mark.parametrize("column", [0, 1, 2, 3, 4, 6, 7, 8, 9], ids=lambda c: csvio.TRACE_HEADER[c])
def test_reader_matches_the_frozen_reader_on_hostile_tokens(tmp_path, small_trace, token, column):
    """A token in one numeric field that the dialect takes reads as the
    frozen reader reads it; one outside the dialect is a non-numeric field."""
    path = tmp_path / "t.trace.csv"
    path.write_text(_set_field(9, column, token)(small_trace))
    new = _outcome(path, csvio._read_csv)
    if in_dialect(token, column < 2):
        assert new == _outcome(path, _frozen_read_csv_as_int_and_float)
    else:
        assert new[0] == f"{path}:9: non-numeric field"
    if '"' not in token:  # csv.reader unquotes a field (test_a_quoted_field_is_malformed_at_its_line)
        assert new == _outcome(path, _frozen_read_csv)


def _read_in_blocks_alone(path, header, expected):
    """Assert that the reader takes every block of path, with "\n", "\r\n"
    and "\r" line ends alike, and reads the arrays expected; the per-line
    pass that names a malformed line fails the test if it runs."""
    text = path.read_bytes()
    for end in (b"\n", b"\r\n", b"\r"):
        path.write_bytes(text.replace(b"\n", end))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(csvio, "_fault", lambda block, header: pytest.fail(f"a block refused, {end!r} line ends"))
            runs = list(csvio._read_csv(path, (header,)))[1:]
        for new, old in zip([np.concatenate(arrays, axis=-1) for arrays in zip(*runs)], expected):
            assert new.dtype == old.dtype and new.tobytes() == old.tobytes(), end


@pytest.mark.parametrize("name", WRITER_CASES)
def test_a_written_trace_is_read_in_blocks_alone(tmp_path, name):
    """Every block of a trace the writer writes, ±inf and NaN fields
    included, is in the dialect: its values are those the frozen reader reads."""
    path = tmp_path / "t.trace.csv"
    write_trace_csv(path, WRITER_CASES[name]())
    _read_in_blocks_alone(path, csvio.TRACE_HEADER, ref.read_csv(path, csvio.TRACE_HEADER, ref.trace_fields))


@pytest.mark.parametrize("optimizer", cli.OPTIMIZERS)
def test_a_written_run_record_is_read_in_blocks_alone(tmp_path, optimizer):
    """So is every block of the run record of each optimizer, its empty
    fields included."""
    path = tmp_path / "r.csv"
    assert cli.main(["run", "--problem", "quadratic", "--dim", "3", "--noise-std", "0.5", "--steps", "300",
                     "--eval-every", "3", "--optimizer", optimizer, "--out", str(path)]) == 0
    expected = [column.ravel() for column in ref.read_csv(path, csvio.RUN_HEADER, ref.record_fields)]
    _read_in_blocks_alone(path, csvio.RUN_HEADER, expected)


def _line_ends(text, ends):
    """text with the line end of its line n (from 1) set to ends[n % len(ends)]."""
    return "".join(line + ends[n % len(ends)] for n, line in enumerate(text.split("\n")[:-1], 1))


# the small trace's text with other line ends: blank lines ("\n", "\r\n" and "\r"), "\r\n" pairs
# and lone "\r"s on every few lines, no final line end, and a lone "\r" at the end
LINE_END_CASES = {
    "lf": lambda text: text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cr": lambda text: text.replace("\n", "\r"),
    "mixed": lambda text: _line_ends(text, ["\n", "\r\n", "\r", "\r\n\n", "\n\r\n", "\r\r"]),
    "crlf-no-final-newline": lambda text: text.rstrip("\n").replace("\n", "\r\n"),
    "crlf-trailing-cr": lambda text: text.replace("\n", "\r\n") + "\r",
    "blank-lines": lambda text: _line_ends(text, ["\n", "\n\n"]),
}


@pytest.mark.parametrize("name", LINE_END_CASES)
def test_reader_matches_the_frozen_reader_at_every_block_edge(tmp_path, small_trace, name):
    """A block ends wherever a read of TRACE_READ_CHARS characters ends and
    then at the end of that line; with every size up to a line and a
    character, the first read ends at each character of the first row and
    the later reads at others: inside a "\r\n" pair, after a trailing "\r",
    before a blank line that then opens the next block. Each size, and
    seven lines, reads as the frozen reader does."""
    path = tmp_path / "t.trace.csv"
    path.write_bytes(LINE_END_CASES[name](small_trace).encode())
    expected = _outcome(path, _frozen_read_csv)
    line = _first_row_chars(path)
    for chars in [*range(1, line + 2), 7 * line]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(csvio, "TRACE_READ_CHARS", chars)
            assert _outcome(path, csvio._read_csv) == expected, chars


def test_non_utf8_byte_in_a_later_block_names_its_line(tmp_path, capsys):
    """A byte that is not UTF-8, read in the first block or a later one, is
    named by the line and the offset that test_cli's
    test_non_utf8_byte_far_into_a_trace_names_its_line expects."""
    out = tmp_path / "t.csv"
    assert cli.main(["run", "--problem", "quadratic", "--dim", "3", "--steps", "2000", "--trace",
                     "--out", str(out)]) == 0
    trace = tmp_path / "t.trace.csv"
    content = bytearray(trace.read_bytes())
    content[20000] = 0xFF
    for newline in (b"\n", b"\r\n"):
        edited = bytes(content).replace(b"\n", newline)
        trace.write_bytes(edited)
        line = len(edited.split(newline)[1]) + len(newline)
        for chars in (csvio.TRACE_READ_CHARS, 1, line, 7 * line):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(csvio, "TRACE_READ_CHARS", chars)
                for command in ("check", "trace-dump"):
                    capsys.readouterr()
                    assert cli.main([command, str(trace)]) == 2
                    err = capsys.readouterr().err
                    assert err.startswith(f"error: {trace}:509: ") and f"position {edited.index(0xFF)}:" in err, err
