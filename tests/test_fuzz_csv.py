"""Fuzz the trace and run-record readers through `check` and `trace-dump`.

Each example mutates a small trace or run record that the program wrote:
truncation, a duplicated, dropped or swapped line, byte flips, bytes that
are not UTF-8, "\\r\\n" and lone "\\r" line ends, NUL, and a field set to one
of conftest.HOSTILE's tokens, a branch word or a 200,000-character field.
Whatever the bytes, `cli.main` returns 0, 1 or 2 and never raises, no
warning is emitted, and an exit 2 names the file. A file that a command
accepts (exit 0 or 1) holds only fields in the readers' dialect
(conftest.in_dialect), and the reader reads the values the frozen csv
reader and field parsers of tests/reference_trace_io.py read from it.
"""

import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_trace_io as ref
from conftest import HOSTILE, in_dialect, make_fuzz_run, write_trace_csv
from gradagrad import cli, csvio
from gradagrad.core import BRANCHES

try:  # hypothesis writes a failing example's patch with libcst, whose import warns, an error under pytest's filter
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import libcst  # noqa: F401
except ImportError:  # no patch is written then
    pass

TOKENS = [*HOSTILE, "", "x", "-inf", "\x00", "1" * 200_000, "x" * 200_000, *BRANCHES]

# one edit of a file's bytes, as a tuple that _mutate applies; the integers pick lines, columns and bytes
EDITS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.sampled_from(["duplicate", "drop"]), st.integers(0, 10**6)),
    st.tuples(st.just("swap"), st.integers(0, 10**6), st.integers(0, 10**6)),
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(0, 255)),
    st.tuples(st.just("insert"), st.integers(0, 10**6), st.sampled_from([b"\xff", b"\xc3(", b"\x00", b"\r"])),
    st.tuples(st.just("line-ends"), st.sampled_from([b"\r\n", b"\r"])),
    st.tuples(st.just("field"), st.integers(0, 10**6), st.integers(0, 9), st.sampled_from(TOKENS)),
)


def _mutate(data: bytes, edits) -> bytes:
    """data with each of edits applied in turn; an edit of a line picks one
    after the header, its line end kept, and of a field one of its fields."""
    for kind, *args in edits:
        lines = data.splitlines(keepends=True)  # at "\n", "\r\n" and "\r", as the readers split
        if kind == "truncate":
            data = data[:args[0] % (len(data) + 1)]
        elif kind in ("flip", "insert"):
            at = args[0] % (len(data) + 1)
            data = data[:at] + (bytes([args[1]]) if kind == "flip" else args[1]) + data[at + (kind == "flip"):]
        elif kind == "line-ends":
            data = data.replace(b"\n", args[0])
        elif len(lines) > 1:
            line = 1 + args[0] % (len(lines) - 1)
            if kind == "duplicate":
                lines.insert(line, lines[line])
            elif kind == "drop":
                del lines[line]
            elif kind == "swap":
                other = 1 + args[1] % (len(lines) - 1)
                lines[line], lines[other] = lines[other], lines[line]
            else:
                body = lines[line].rstrip(b"\r\n")
                fields = body.split(b",")
                fields[args[1] % len(fields)] = args[2].encode()
                lines[line] = b",".join(fields) + lines[line][len(body):]
            data = b"".join(lines)
    return data


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """A directory for the mutated files, and the bytes of a trace of d=3
    over 12 steps, some r fields empty, and of the run record of an SGD run,
    whose gamma and alpha fields are empty."""
    base = tmp_path_factory.mktemp("fuzz")
    write_trace_csv(base / "t.trace.csv", make_fuzz_run(dim=3, steps=12, seed=5, d_inf=3.0)[1])
    assert cli.main(["run", "--problem", "quadratic", "--dim", "3", "--noise-std", "0.5", "--steps", "30",
                     "--eval-every", "3", "--optimizer", "sgd", "--gamma0", "0.1", "--out", str(base / "r.csv")]) == 0
    return base, {kind: (base / name).read_bytes() for kind, name in (("trace", "t.trace.csv"), ("record", "r.csv"))}


def _run(argv):
    """cli.main(argv): its exit code, its standard error and the warnings it emitted."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


def _assert_read_as_frozen(path, kind):
    """path, which a command accepted, holds only fields in the dialect and
    reads as the frozen reader reads it."""
    integers, floats = ([0, 1], [2, 3, 4, 6, 7, 8, 9]) if kind == "trace" else ([0], range(1, 10))
    for line in io.StringIO(path.read_bytes().decode(), newline="").readlines()[1:]:
        fields = line.rstrip("\r\n").split(",")
        assert all(in_dialect(fields[c], True) for c in integers), line
        assert all(in_dialect(fields[c], False) for c in floats), line
    if kind == "trace":
        trace = cli.read_trace_csv(path)
        new = [trace.branch.ravel(), np.stack([np.repeat(trace.k, trace.branch.shape[1]), np.tile(
            np.arange(trace.branch.shape[1]), len(trace))]),
               np.stack([getattr(trace, name).ravel() for name in csvio.FLOAT_COLUMNS])]
        old = ref.read_csv(path, csvio.TRACE_HEADER, ref.trace_fields)
    else:
        _, new = csvio.read_input(path, (csvio.RUN_HEADER,))
        old = [column.ravel() for column in ref.read_csv(path, csvio.RUN_HEADER, ref.record_fields)]
    for a, b in zip(new, old):
        assert a.astype(b.dtype).tobytes() == b.tobytes()


def _assert_well_behaved(seeds, kind, edits):
    base, data = seeds
    path = base / ("fuzz.trace.csv" if kind == "trace" else "fuzz.csv")
    path.write_bytes(_mutate(data[kind], edits))
    accepted = False
    for argv in (["check", str(path)], ["trace-dump", str(path)]):
        code, err, caught = _run(argv)
        assert code in (0, 1, 2) and caught == [], (argv, code, err, caught)
        assert code != 2 or str(path) in err, (argv, err)
        accepted |= code != 2
    if accepted:
        _assert_read_as_frozen(path, kind)


FUZZ = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@FUZZ
@given(edits=st.lists(EDITS, min_size=1, max_size=3))
@example(edits=[("field", 0, 0, "0_0")])  # step 0 as int() reads it
@example(edits=[("field", 4, 2, "1_0")])  # a g of 10.0 as float() reads it
@example(edits=[("field", 1, 5, "negative")])  # a negative branch at step 0, coordinate 1
@example(edits=[("line-ends", b"\r"), ("field", 20, 6, "inf")])
def test_mutated_traces(seeds, edits):
    _assert_well_behaved(seeds, "trace", edits)


@FUZZ
@given(edits=st.lists(EDITS, min_size=1, max_size=3))
@example(edits=[("field", 2, 2, "abc")])  # a loss the record check does not read
@example(edits=[("field", 3, 5, "1_0")])
def test_mutated_run_records(seeds, edits):
    _assert_well_behaved(seeds, "record", edits)
