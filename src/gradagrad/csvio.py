"""The CSV format: its schemas, the one writer, and the chunked readers.

Run records, grids, check reports and step traces are CSV with the fixed
headers RUN_HEADER, GRID_HEADER, CHECK_HEADER and TRACE_HEADER (missing
values are empty fields). _write_csv writes every CSV; a field is quoted
only where it holds ',', '"' or a newline, in practice a check report's
details. The readers read run records and traces in the dialect the writer
writes them in, a chunk at a time, as arrays and Traces; what those must
satisfy is verify's to check.

A float is spelled as repr spells it, and NaN as an empty field. A trace's
floats go through orjson's number codec both ways. The writer formats
v_clipped only where its bits differ from v_raw's and r only where it is
not NaN, keeps orjson's shortest digits where repr spells them alike (±0
and finite |x| in [1e-4, 1e16)), calls repr for the rest and empties NaN
fields by index. The trace reader reads TRACE_READ_CHARS characters and
the rest of their line at a time, and parses that block's bytes at once:
its branch words become codes in place and one orjson parse reads all ten
columns. A block it does not take (one with a line that is not nine
commas and a "\n" around a branch word and JSON numbers that int() or
float() read alike, r alone empty: a short or long row, a blank line,
"\r", 1e400, +1, nan, a JSON float in k) is split into lines as
newline="" splits them and parsed field by field by int() and float().
"""

import io
import itertools
import math
import sys
from array import array
from contextlib import contextmanager, nullcontext

import numpy as np
import orjson

from .core import BRANCHES, FLOAT_COLUMNS, Trace
from .data import open_input

RUN_HEADER = [
    "step", "epoch", "loss", "accuracy",
    "gamma_mean", "gamma_max", "alpha_mean", "alpha_max", "ainv_mean", "subopt",
]
TRACE_HEADER = ["k", "i", "g", "v_raw", "v_clipped", "branch", "r", "gamma", "alpha", "a"]
# the trace CSV column of each of FLOAT_COLUMNS, in that order
FLOAT_FIELDS = [TRACE_HEADER.index(name.removesuffix("_after")) for name in FLOAT_COLUMNS]
TRACE_CHUNK_ROWS = 1024  # trace rows `run --trace` holds at once, as a ring of steps and as strings
TRACE_READ_CHARS = 1 << 16  # trace CSV characters `check` and `trace-dump` read, to a line end, as one block
TRACE_FOLD_ROWS = 4096  # trace rows `check` and `trace-dump` hold as arrays at once, plus up to a block's
CHECK_HEADER = ["name", "passed", "worst_violation", "step", "coord", "details"]
GRID_HEADER = ["param", "value", "metric", "score", "winner"]


class ConfigError(Exception):
    """Bad configuration or input file; maps to exit code 2."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return "" if math.isnan(value) else repr(value)
    text = str(value)  # quoted where csv.writer quotes it: a lone "\r" stays bare
    return '"' + text.replace('"', '""') + '"' if "," in text or '"' in text or "\n" in text else text


@contextmanager
def _write_csv(path, header):
    """Write header to path or else stdout, and give the with block a function
    that writes a chunk of rows of formatted fields in one write."""
    with nullcontext(sys.stdout) if path is None else open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        yield lambda rows: f.write("\n".join([*map(",".join, rows), ""]))


def write_rows(path, header, rows) -> None:
    """Write header and rows, lists of values, to path or else stdout."""
    with _write_csv(path, header) as write:
        write(map(_fmt, row) for row in rows)


def trace_columns(trace: Trace, fmt) -> list[list[str]]:
    """The trace CSV columns as strings, row-major over (step, coordinate);
    fmt maps the (7, rows) array of FLOAT_COLUMNS to one list of strings
    each."""
    steps, d = trace.branch.shape
    floats = np.stack([getattr(trace, name).ravel() for name in FLOAT_COLUMNS])
    # object arrays repeat one string per step and per branch, not a copy per row
    k = np.array(list(map(str, trace.k.tolist())), dtype=object)
    cols = [np.repeat(k, d).tolist(), list(map(str, range(d))) * steps, *fmt(floats)]
    cols.insert(5, np.take(np.array(BRANCHES, dtype=object), trace.branch.ravel()).tolist())
    return cols


def _repr_fields(floats: np.ndarray) -> list[list[str]]:
    """floats, in FLOAT_COLUMNS' order, formatted as _fmt formats a float.
    orjson writes Ryu's shortest digits, spelled as repr spells them for ±0
    and finite |x| in [1e-4, 1e16); repr spells every other value, and every
    NaN is empty. v_clipped repeats v_raw's field where their bits agree."""
    g, v_raw, v_clipped, r, *rest = floats
    clipped = np.flatnonzero(v_clipped.view(np.int64) != v_raw.view(np.int64))
    n, ran = len(g), np.flatnonzero(r == r)  # r is NaN where no clip ran
    values = np.concatenate([g, v_raw, *rest, v_clipped[clipped], r[ran]])
    fields = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")
    size = np.abs(values)
    outside = np.flatnonzero((size < 1e-4) & (size != 0) | ~(size < 1e16))  # orjson writes NaN and ±inf as null
    for j, value in zip(outside.tolist(), values[outside].tolist()):
        fields[j] = repr(value) if value == value else ""
    g, v_raw, *rest = [fields[m * n:(m + 1) * n] for m in range(2 + len(rest))]
    full, v_clipped, r = (2 + len(rest)) * n, v_raw.copy(), [""] * n  # full: the fields g, v_raw and rest take
    for column, at, parts in ((v_clipped, clipped, fields[full:]), (r, ran, fields[full + clipped.size:])):
        for j, field in zip(at.tolist(), parts):
            column[j] = field
    return [g, v_raw, v_clipped, r, *rest]


@contextmanager
def trace_sink(path, steps, d):
    """Write TRACE_HEADER to path, and give the with block (ring, on_trace)
    for a run of steps steps of d coordinates: drive's ring, of
    TRACE_CHUNK_ROWS // d steps (one at least, and steps at most), and the
    on_trace that writes each chunk of it that drive passes on."""
    with _write_csv(path, TRACE_HEADER) as write:
        yield (Trace.empty(min(steps, max(1, TRACE_CHUNK_ROWS // d)), d),
               lambda chunk: write(zip(*trace_columns(chunk, _repr_fields))))


def _parse(text: np.ndarray, dtype):
    """A (columns, rows) object array of strings as dtype, empty fields as
    NaN; if some field does not parse, the index of the first row with one."""
    if dtype is float:
        text = np.where(text == "", "nan", text)
    try:
        return text.astype(dtype)  # int() or float() of each string
    except (ValueError, OverflowError):
        def parses(field):
            try:
                np.array([field], dtype=object).astype(dtype)
            except (ValueError, OverflowError):
                return False
            return True
        return int(np.argmin(np.vectorize(parses, otypes=[bool])(text).all(axis=0)))


def _read_csv(path, headers):
    """Yield the header of the CSV at path: the first of headers
    (TRACE_HEADER, RUN_HEADER or both) that its first line holds, else the
    last, which that line must hold. Then yield the arrays that header's
    parser (_trace_fields or _record_fields) returns for each block after
    it: TRACE_READ_CHARS characters and the rest of their line, or one
    empty block. A parser takes a block's (columns, rows) object array of
    fields and returns (arrays, errors), errors a list of (row index,
    message). A ConfigError names the line of the first bad row: one with
    the wrong field count, or one of the parser's errors (on a tie, the
    field count, then the parser's order). A trace's block that
    _trace_block reads is not split into lines."""

    def parsed(block, line):  # the arrays of block, which starts at line, and its line count
        if header == TRACE_HEADER and (result := _trace_block(block)):
            return result, len(result[0])
        # the fields of each line, in the CSV dialect this program writes:
        # unquoted fields, "\n", "\r\n" or "\r" line ends, split as newline="" splits them
        lines = list(io.StringIO(block, newline=""))
        rows = [row.rstrip("\r\n").split(",") for row in lines]
        (wrong,) = np.nonzero(np.fromiter(map(len, rows), int, len(rows)) != len(header))
        short = int(wrong[0]) if wrong.size else len(rows)
        errors = [(short, f"expected {len(header)} fields")] if short < len(rows) else []
        rows = rows[:short]
        fields = np.fromiter(itertools.chain.from_iterable(rows), object, len(rows) * len(header))
        result, more = parse(fields.reshape(len(rows), len(header)).T)
        if errors or more:
            row, message = min(errors + more, key=lambda e: e[0])  # ties keep the order above
            raise ConfigError(f"{path}:{line + row}: {message}")
        return result, len(lines)

    with open_input(path) as f:
        first = next(f, "")
        found = first.rstrip("\r\n").split(",")
        header = next((header for header in headers if header == found), headers[-1])
        yield header
        kind, parse = ("trace", _trace_fields) if header == TRACE_HEADER else ("run record", _record_fields)
        if not first:
            raise ConfigError(f"{path}: empty {kind} file")
        if found != header:
            missing = [c for c in header if c not in found]
            raise ConfigError(
                f"{path}: bad {kind} header, missing columns {missing}" if missing
                else f"{path}: bad {kind} header {found}"
            )
        line, blocks = 2, iter(lambda: f.read(TRACE_READ_CHARS) + f.readline(), "")  # readline keeps "\r\n" whole
        for block in itertools.chain([next(blocks, "")], blocks):
            result, lines = parsed(block, line)
            line += lines
            yield result


# a branch word's code by its first byte, and its bytes, zero-padded
_BRANCH_CODES = np.full(256, -1, dtype=np.int8)
_BRANCH_CODES[[ord(name[0]) for name in BRANCHES]] = range(len(BRANCHES))
_BRANCH_LENGTHS = np.array([len(name) for name in BRANCHES])
_BRANCH_BYTES = np.array([list(name.encode().ljust(max(_BRANCH_LENGTHS), b"\0")) for name in BRANCHES], np.uint8)
_SEPARATORS = np.frombuffer(b"," * 9 + b"\n", dtype=np.uint8)  # of each trace line


def _trace_block(text):
    """_trace_fields' arrays of a block of whole trace lines, parsed as one
    byte block, or None where the block is not TRACE_HEADER's ten fields a
    line, nine of them JSON numbers that int() or float() read alike and a
    BRANCHES word, with r alone empty where empty. Each branch word is
    rewritten as its code digit, space-padded; an empty r takes a 0 from
    the word's bytes and is NaN once parsed. orjson reads the JSON int -0
    as 0, so float() reads each float zero from its text."""
    text = text.encode()
    block = np.frombuffer(text, dtype=np.uint8).copy()
    seps = np.flatnonzero((block == ord(",")) | (block == ord("\n")))
    rows, extra = divmod(seps.size, 10)
    if extra or block.size != (seps[-1] + 1 if rows else 0):  # the last line ends the block
        return None
    seps = seps.reshape(rows, 10)
    start = seps[:, 4] + 1
    codes = _BRANCH_CODES[block[start]]
    at = start[:, None] + np.arange(_BRANCH_BYTES.shape[1])
    inside = at < seps[:, 5:6]
    # each line's own nine commas and "\n", not only the block's count, and its branch word
    if (block[seps] != _SEPARATORS).any() or (codes < 0).any() or (
            seps[:, 5] - start != _BRANCH_LENGTHS[codes]).any() or (
            (block.take(at, mode="clip") != _BRANCH_BYTES[codes]) & inside).any():
        return None
    block[at[inside]] = ord(" ")
    block[start] = codes + ord("0")
    (empty,) = np.nonzero(seps[:, 6] == seps[:, 5] + 1)  # an empty r: "c,0" and spaces up to r's comma
    block[start[empty] + 1], block[start[empty] + 2], block[seps[empty, 5]] = ord(","), ord("0"), ord(" ")
    block[seps[:, 9]] = ord(",")
    numbers = block[:-1].tobytes()
    if numbers.translate(None, b"0123456789+-.eE, \t\n"):  # true, null, strings, NUL, non-ASCII
        return None
    try:
        values = orjson.loads(b"[" + numbers + b"]")
    except orjson.JSONDecodeError:
        return None
    if len(values) != 10 * rows:
        return None
    try:  # array("q") takes no float, and no int past int64
        ints = array("q", values[0::10] + values[1::10])
    except (TypeError, OverflowError):
        return None
    floats = np.fromiter(values, float, len(values)).reshape(rows, 10).T[FLOAT_FIELDS]
    floats[FLOAT_COLUMNS.index("r"), empty] = math.nan
    for column, row in zip(*np.nonzero(floats == 0)):
        field = FLOAT_FIELDS[column]
        floats[column, row] = float(text[seps[row, field - 1] + 1:seps[row, field]])
    return codes, np.frombuffer(ints, dtype=np.int64).reshape(2, rows), floats


def _trace_fields(text):
    """Branch codes, k and i, and the float columns of trace fields; errors as _read_csv reads them."""
    ints, floats = _parse(text[:2], int), _parse(text[FLOAT_FIELDS], float)
    errors = [(bad, "non-numeric field") for bad in (ints, floats) if isinstance(bad, int)]
    branch = text[TRACE_HEADER.index("branch")]
    codes = np.full(text.shape[1], -1, dtype=np.int8)
    for code, name in enumerate(BRANCHES):
        codes[branch == name] = code
    if (codes < 0).any():
        row = int(np.argmin(codes))
        errors.append((row, f"unknown branch {branch[row]!r}; expected one of {list(BRANCHES)}"))
    return (codes, ints, floats), errors


def _record_fields(text):
    """The step and gamma_max columns of run-record fields, an empty
    gamma_max as -inf, which no cap check fails; errors as _read_csv reads them."""
    step, gamma_max = _parse(text[:1], int), _parse(np.where(text[5:6] == "", "-inf", text[5:6]), float)
    return (step, gamma_max), [(bad, "non-numeric step or gamma_max") for bad in (step, gamma_max)
                               if isinstance(bad, int)]


def read_input(path, headers=(TRACE_HEADER,), rows=None):
    """Yield the header of the CSV at path, as _read_csv picks it from
    headers, and then what the CSV holds, opening path once. A run record's
    is its step and gamma_max columns, read whole. A trace's is Traces of
    whole steps, each of rows (TRACE_FOLD_ROWS if None) rows or more but the
    last, or one of no rows. If step 0 has d rows, row n (from 0) must hold
    step n // d, coordinate n % d, and the last step d rows: a ConfigError
    names the first line that does not, once every line has parsed."""
    runs = _read_csv(path, headers)
    header = next(runs)
    yield header
    if header == RUN_HEADER:
        (step,), (gamma_max,) = map(np.hstack, zip(*runs))
        yield step, gamma_max
        return
    d, n, s, error, held = None, 0, 0, None, []  # step 0's rows once known, rows read, steps yielded, runs held

    def steps(count):  # the first count steps held, as one Trace
        codes, floats = (np.concatenate(column, axis=-1) for column in zip(*held))
        held[:] = [(codes[count * d:], floats[:, count * d:])]
        return Trace(k=np.arange(s, s + count), branch=codes[:count * d].reshape(count, d),
                     **dict(zip(FLOAT_COLUMNS, floats[:, :count * d].reshape(len(FLOAT_COLUMNS), count, d))))

    for codes, (k, i), floats in runs:
        if error is None:
            d = n + int(np.argmax(k != 0)) if d is None and k.any() else d
            step, coord = np.divmod(np.arange(n, n + len(k)), max(1, n + len(k) if d is None else d))
            (bad,) = np.nonzero((k != step) | (i != coord))
            if bad.size:
                b = bad[0]
                error = ConfigError(f"{path}:{2 + n + b}: expected step {step[b]}, coordinate {coord[b]}, "
                                    f"got step {k[b]}, coordinate {i[b]}; a trace's rows run in (k, i) order")
            held.append((codes, floats))
        n += len(k)
        if error is None and d and (n // d - s) * d >= (rows or TRACE_FOLD_ROWS):
            yield steps(n // d - s)
            s = n // d
    if error is not None:
        raise error
    d = n if d is None else d
    if n % max(d, 1):
        raise ConfigError(f"{path}:{1 + n}: the trace ends in step {(n - 1) // d} after coordinate {(n - 1) % d}; "
                          f"every step has one row per coordinate 0..{d - 1}")
    if n > s * d or not s:
        yield steps(n // max(d, 1) - s)


def trace_chunks(path, rows=None):
    """The Traces of the trace CSV at path, as read_input yields them."""
    return itertools.islice(read_input(path, rows=rows), 1, None)


def read_trace_csv(path) -> Trace:
    """The whole trace CSV at path as one Trace (see read_input)."""
    [trace] = trace_chunks(path, rows=math.inf)
    return trace
