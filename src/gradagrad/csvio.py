"""The CSV format: its schemas, the one writer, and the chunked readers.

Run records, grids, check reports and step traces are CSV with the fixed
headers RUN_HEADER, GRID_HEADER, CHECK_HEADER and TRACE_HEADER (missing
values are empty fields). _write_csv writes every CSV; a field is quoted
only where it holds ',', '"' or a newline, in practice a check report's
details. A float is spelled as repr spells it, and NaN as an empty field.
A trace's floats go through orjson's number codec both ways. The writer
formats v_clipped only where its bits differ from v_raw's and r only where
it is not NaN, keeps orjson's shortest digits where repr spells them alike
(±0 and finite |x| in [1e-4, 1e16)), calls repr for the rest and empties
NaN fields by index. trace_sink gives drive the sink that writes a trace,
and it alone names, replaces and removes the trace's temporary file.

The readers read run records and traces in the writer's dialect and no
other, TRACE_READ_CHARS characters and the rest of their line at a time,
as arrays and as Traces of whole steps, the chunks that `check` calls
verify.trace_checks with; what those must satisfy is verify's to check.
A line is ten unquoted, unpadded fields and a "\n", "\r\n" or "\r": branch
a BRANCHES word, k, i and step int64 JSON integers, and every other field
a JSON number that does not overflow, inf, -inf, nan, or empty for NaN.
_block parses a block's bytes with one orjson parse; a block it refuses is
malformed, and _fault names its first bad line.
"""

import io
import itertools
import math
import os
import re
import sys
from array import array
from contextlib import contextmanager, nullcontext
from pathlib import Path

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
    """Write a trace to path, and give the with block (ring, on_trace) for a
    run of steps steps of d coordinates: drive's ring, of TRACE_CHUNK_ROWS // d
    steps (one at least, and steps at most), and the sink that writes each
    chunk of it to <path>.<pid>.tmp, a file that replaces path when the with
    block ends and is removed if it raises."""
    partial = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with _write_csv(partial, TRACE_HEADER) as write:
            yield (Trace.empty(min(steps, max(1, TRACE_CHUNK_ROWS // d)), d),
                   lambda chunk: write(zip(*trace_columns(chunk, _repr_fields))))
        partial.replace(path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _read_csv(path, headers):
    """Yield the header of the CSV at path: the first of headers
    (TRACE_HEADER, RUN_HEADER or both) that its first line holds, else the
    last, which that line must hold. Then yield _block's arrays of each
    block after it: TRACE_READ_CHARS characters and the rest of their line,
    or one empty block. A block that _block refuses is malformed: a
    ConfigError names the line and the fault that _fault finds."""
    with open_input(path) as f:
        first = next(f, "")
        found = first.rstrip("\r\n").split(",")
        header = next((header for header in headers if header == found), headers[-1])
        yield header
        kind = "trace" if header == TRACE_HEADER else "run record"
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
            if (result := _block(block, header)) is None:
                n, message = _fault(block, header)
                raise ConfigError(f"{path}:{line + n}: {message}")
            line += len(result[0])
            yield result


# a branch word's code by its first byte, and its bytes, zero-padded
_BRANCH_CODES = np.full(256, -1, dtype=np.int8)
_BRANCH_CODES[[ord(name[0]) for name in BRANCHES]] = range(len(BRANCHES))
_BRANCH_LENGTHS = np.array([len(name) for name in BRANCHES])
_BRANCH_BYTES = np.array([list(name.encode().ljust(max(_BRANCH_LENGTHS), b"\0")) for name in BRANCHES], np.uint8)
_SEPARATORS = b"," * 9 + b"\n"  # of each line: both headers have ten fields
_NUMBER_BYTES = b"0123456789+-.eE,\n "  # a JSON number's, a separator's, the "[\n" before a block and filler
_TOKENS = {b"inf": math.inf, b"-inf": -math.inf, b"nan": math.nan}
_TOKEN = re.compile(rb"(?<=[,\n])(-?inf|nan)(?=[,\]])")  # a whole field


def _block(text, header):
    """The arrays of text, whole lines of a trace (header TRACE_HEADER) or of
    a run record, or None if some line is not in the writer's dialect (the
    last may lack a line end). A trace's arrays are its branch codes, k and
    i, and its float columns; a record's its steps and gamma_max, empty as
    -inf, which no cap check fails. The lines are parsed as one byte block:
    each branch word is rewritten as its code digit, space-padded, an empty r
    takes a 0 from the word's bytes (NaN once parsed), another empty field an
    inserted null (NaN, and no int), and a token a float zero of its length
    (no int either), set once parsed. orjson reads the JSON int -0 as 0, so
    float() reads each int zero of a float column from its text."""
    data = text.encode()
    if b"\r" in data:  # a "\r\n" or a lone "\r" ends a line as a "\n" does
        data = b"\n".join(data.splitlines()) + b"\n"
    if b" " in data:
        return None
    # "[\n" before the first line, so that each field follows a separator, and a "\n" after a last line that lacks one
    data = b"[\n" + data + (b"" if data[-1:] in b"\n" else b"\n")
    block = np.frombuffer(bytearray(data), dtype=np.uint8)
    seps = np.flatnonzero((block == ord(",")) | (block == ord("\n")))
    rows, extra = divmod(seps.size - 1, 10)  # seps[0] is the "\n" before the first line
    if extra or seps[-1] != block.size - 1:  # the last line ends the block
        return None
    ends = seps[1:].reshape(rows, 10)
    if block[ends].tobytes() != _SEPARATORS * rows:  # each line's own nine commas and "\n", not only the count
        return None
    trace = header == TRACE_HEADER
    ints, fields = (2, FLOAT_FIELDS) if trace else (1, [5])  # k and i, or step, lead; fields: the floats read
    empty = (seps[1:] - seps[:-1] == 1).reshape(rows, 10)
    if trace:
        start = ends[:, 4] + 1
        codes = _BRANCH_CODES[block[start]]
        at = start[:, None] + np.arange(_BRANCH_BYTES.shape[1])
        inside = at < ends[:, 5:6]
        if (codes < 0).any() or (ends[:, 5] - start != _BRANCH_LENGTHS[codes]).any() or (
                (block.take(at, mode="clip") != _BRANCH_BYTES[codes]) & inside).any():
            return None
        block[at[inside]] = ord(" ")
        block[start] = codes + ord("0")
        (r,) = np.nonzero(empty[:, 6])  # an empty r: "c,0" and spaces up to r's comma
        block[start[r] + 1], block[start[r] + 2], block[ends[r, 5]] = ord(","), ord("0"), ord(" ")
        empty[r, 6] = False
    block[ends[:, 9]], block[-1] = ord(","), ord("]")  # one JSON array, "[\n" its first bytes
    numbers, tokens = block.tobytes(), []
    if numbers.translate(None, _NUMBER_BYTES) != b"[]":  # a token, or what no number holds
        numbers = _TOKEN.sub(lambda m: tokens.append((m.start(), _TOKENS[m[1]])) or m[1][:-3] + b"0.0", numbers)
        if numbers.translate(None, _NUMBER_BYTES) != b"[]":  # true, null, strings, NUL, non-ASCII
            return None
    if cuts := ends[empty].tolist():  # a null inserted into each other empty field: NaN, and no int
        numbers = b"null".join([numbers[a:b] for a, b in zip([0, *cuts], [*cuts, None])])
    try:  # orjson takes no number that overflows; array("q") no float, and no int past int64
        values = orjson.loads(numbers)
        integers = array("q", sum((values[column::10] for column in range(ints)), []))
    except (orjson.JSONDecodeError, TypeError, OverflowError):
        return None
    floats = np.array([values[column::10] for column in fields], dtype=float)  # None as NaN
    if trace:
        floats[FLOAT_COLUMNS.index("r"), r] = math.nan
    for position, value in tokens:
        row, column = divmod(int(np.searchsorted(seps, position)) - 1, 10)
        if column in fields:
            floats[fields.index(column), row] = value
    for column, row in () if floats.all() else zip(*np.nonzero(floats == 0)):  # orjson reads -0 as 0, -0.0 as -0.0
        if type(values[10 * row + fields[column]]) is int:
            floats[column, row] = float(data[ends[row, fields[column] - 1] + 1:ends[row, fields[column]]])
    if trace:
        return codes, np.frombuffer(integers, dtype=np.int64).reshape(2, rows), floats
    return np.frombuffer(integers, dtype=np.int64), np.where(empty[:, 5], -math.inf, floats[0])


def _fault(block, header):
    """(n, message) for block, lines of a CSV with header that _block
    refuses: its first line n (from 0) that _block refuses alone, split as
    newline="" splits them and found by halving, and what is wrong with it:
    its field count, else a non-numeric field, else (in a trace) its branch
    word; a record's non-numeric step or gamma_max has a message of its own."""
    lines = list(io.StringIO(block, newline=""))
    n, end = 0, len(lines)  # lines[n:end] holds the first line refused, and lines[:n] none
    while end - n > 1:
        half = (n + end) // 2
        n, end = (n, half) if _block("".join(lines[n:half]), header) is None else (half, end)
    fields = lines[n].rstrip("\r\n").split(",")
    if len(fields) != len(header):
        return n, f"expected {len(header)} fields"
    if header == TRACE_HEADER:
        branch, fields[5] = fields[5], BRANCHES[0]
        return n, ("non-numeric field" if _block(",".join(fields), header) is None
                   else f"unknown branch {branch!r}; expected one of {list(BRANCHES)}")
    fields[1:5] = fields[6:] = [""] * 4  # the columns the record check does not read, empty
    return n, "non-numeric step or gamma_max" if _block(",".join(fields), header) is None else "non-numeric field"


def read_input(path, headers=(TRACE_HEADER,)):
    """Yield the header of the CSV at path, as _read_csv picks it from
    headers, and then what the CSV holds, opening path once. A run record's
    is its step and gamma_max columns, read whole. A trace's is Traces of
    whole steps, each of TRACE_FOLD_ROWS rows or more but the last, or one
    of no rows. If step 0 has d rows, row n (from 0) must hold step n // d,
    coordinate n % d, and the last step d rows: a ConfigError names the
    first line that does not, once every line has parsed."""
    runs = _read_csv(path, headers)
    header = next(runs)
    yield header
    if header == RUN_HEADER:
        step, gamma_max = map(np.concatenate, zip(*runs))
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
        if error is None and d and (n // d - s) * d >= TRACE_FOLD_ROWS:
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


def trace_chunks(path):
    """The Traces of the trace CSV at path, as read_input yields them."""
    return itertools.islice(read_input(path), 1, None)


def read_trace_csv(path) -> Trace:
    """The whole trace CSV at path as one Trace: its chunks (see read_input), joined."""
    chunks = list(trace_chunks(path))
    return Trace(**{name: np.concatenate([getattr(chunk, name) for chunk in chunks])
                    for name in ("k", "branch", *FLOAT_COLUMNS)})
