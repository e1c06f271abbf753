"""Frozen reference trace CSV I/O for the differential tests of
gradagrad.csvio's trace writer and CSV reader.

This is the writer and reader the CLI used while trace rows went through
the csv module: csv.writer over rows formatted column by column, and
csv.reader split into TRACE_CHUNK_ROWS-row runs; and the trace field parser
it used while every float column went through one empty-field pass and one
parse, v_clipped included. Do not edit it to follow the package.
"""

import csv
import itertools

import numpy as np

from gradagrad.csvio import TRACE_CHUNK_ROWS, TRACE_HEADER, ConfigError
from gradagrad.core import BRANCHES, FLOAT_COLUMNS


def _trace_columns(trace, fmt):
    steps, d = trace.branch.shape
    cols = [np.repeat(trace.k, d).tolist(), list(range(d)) * steps]
    cols += [fmt(getattr(trace, name).ravel().tolist()) for name in FLOAT_COLUMNS]
    cols.insert(5, np.take(BRANCHES, trace.branch.ravel()).tolist())
    return cols


def _trace_rows(trace):
    steps = max(1, TRACE_CHUNK_ROWS // max(1, trace.branch.shape[1]))
    for start in range(0, len(trace), steps):
        chunk = trace[start:start + steps]
        yield from zip(*_trace_columns(chunk, lambda values: ["" if v != v else repr(v) for v in values]))


def write_trace_csv(path, trace):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        writer.writerows(_trace_rows(trace))


def read_csv(path, header, parse) -> list:
    """gradagrad.csvio._read_csv as it was on csv.reader."""

    def parsed(rows, line):
        short = next((n for n, row in enumerate(rows) if len(row) != len(header)), len(rows))
        errors = [(short, f"expected {len(header)} fields")] if short < len(rows) else []
        rows = rows[:short]
        result, more = parse(np.array(rows, dtype=object).reshape(len(rows), len(header)).T)
        if errors or more:
            row, message = min(errors + more, key=lambda e: e[0])
            raise ConfigError(f"{path}:{line + row}: {message}")
        return result

    kind = "trace" if header == TRACE_HEADER else "run record"
    with open(path, "r", newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        found = next(reader, None)
        if found is None:
            raise ConfigError(f"{path}: empty {kind} file")
        if found != header:
            missing = [c for c in header if c not in found]
            raise ConfigError(
                f"{path}: bad {kind} header, missing columns {missing}" if missing
                else f"{path}: bad {kind} header {found}"
            )
        chunks = iter(lambda: list(itertools.islice(reader, TRACE_CHUNK_ROWS)), [])
        results = [parsed(rows, 2 + n * TRACE_CHUNK_ROWS) for n, rows in enumerate(chunks)]
    return [np.concatenate(arrays, axis=-1) for arrays in zip(*results or [parsed([], 2)])]


def parse(text, dtype):
    """gradagrad.csvio._parse as it was: a (columns, rows) object array of
    strings as dtype, empty fields as NaN, or the first row with a field
    that does not parse."""
    if dtype is float:
        text = np.where(text == "", "nan", text)
    try:
        return text.astype(dtype)
    except (ValueError, OverflowError):
        def parses(field):
            try:
                np.array([field], dtype=object).astype(dtype)
            except (ValueError, OverflowError):
                return False
            return True
        return int(np.argmin(np.vectorize(parses, otypes=[bool])(text).all(axis=0)))


def trace_fields(text):
    """gradagrad.csvio._trace_fields as it was, all seven float columns parsed alike."""
    ints, floats = parse(text[:2], int), parse(text[[2, 3, 4, 6, 7, 8, 9]], float)
    errors = [(bad, "non-numeric field") for bad in (ints, floats) if isinstance(bad, int)]
    codes = np.full(text.shape[1], -1, dtype=np.int8)
    for code, name in enumerate(BRANCHES):
        codes[text[5] == name] = code
    if (codes < 0).any():
        row = int(np.argmin(codes))
        errors.append((row, f"unknown branch {text[5][row]!r}; expected one of {list(BRANCHES)}"))
    return (codes, ints, floats), errors
