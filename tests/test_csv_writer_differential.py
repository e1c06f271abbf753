"""Differential test: cli._write_csv against the frozen csv-module writer.

Run records, grids and check reports went out through csv.writer over
_fmt-formatted fields. cli._write_csv now joins the fields itself, and
_fmt quotes a text field where csv.writer quoted it. On a seeded corpus of
rows built from the values those tables hold, and from hostile ones, the
bytes written to a file and to stdout must equal the frozen writer's.
"""

import csv
import math
import sys
from contextlib import nullcontext

import numpy as np
import pytest

from gradagrad import cli


def _reference_fmt(value) -> str:
    """gradagrad.cli._fmt as it was while csv.writer quoted its fields."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return "" if math.isnan(value) else repr(value)
    return str(value)


def _reference_write_csv(path, header, rows):
    """gradagrad.cli._write_csv as it was on csv.writer."""
    with nullcontext(sys.stdout) if path is None else open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(_reference_fmt, row) for row in rows)


FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1.7976931348623157e308,
          2.2250738585072014e-308, 0.1, 1e16, 1e-7, np.float64(-0.0), np.float64(math.nan), np.float64(0.3),
          np.float64(math.inf), np.float32(0.1)]
OTHERS = [None, True, False, 0, -7, 2 ** 70, np.int64(-3), np.uint64(2 ** 64 - 1)]
TEXTS = [
    "", "errnegativity", "a,b", ",", '"', 'say "hi"', '""', "two\nlines", "\n", "cr\ronly", "\r", "crlf\r\nend",
    "semi;colon", "  padded  ", " ", "tab\there", "nul\x00", "nel\x85", "sep ", "café", "\U0001f600",
    "3748 negative-branch coordinate-steps, tolerance 1e-12", '"quoted", and,\nmore\r\n"',
]
VALUES = FLOATS + OTHERS + TEXTS

TABLES = {
    "run-record": cli.RUN_HEADER,
    "grid": ["param", "value", "metric", "score", "winner"],
    "check-report": cli.CHECK_HEADER,
}


def _corpus(header, seed, n_rows=300):
    """Rows of len(header) fields: first every value of VALUES in each
    column, then values drawn at random, some of them random floats."""
    rng = np.random.default_rng(seed)
    width = len(header)
    rows = [[VALUES[(n + col) % len(VALUES)] for col in range(width)] for n in range(len(VALUES))]
    for _ in range(n_rows):
        row = []
        for _ in range(width):
            pick = int(rng.integers(len(VALUES) + 2))
            if pick == len(VALUES):
                row.append(float(rng.normal() * 10.0 ** rng.integers(-300, 300)))
            elif pick == len(VALUES) + 1:
                row.append(np.float64(rng.standard_cauchy()))
            else:
                row.append(VALUES[pick])
        rows.append(row)
    return rows


def _chunks(rows, seed):
    """rows formatted as the commands format them, split into runs of random
    lengths, some empty."""
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.integers(0, len(rows) + 1, size=6))
    return [(map(cli._fmt, row) for row in rows[a:b]) for a, b in zip([0, *cuts], [*cuts, len(rows)])]


@pytest.mark.parametrize("table", TABLES)
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("chunked", [False, True], ids=["one-chunk", "chunks"])
def test_csv_bytes_match_the_csv_writer(tmp_path, capsysbinary, table, seed, chunked):
    header, rows = TABLES[table], _corpus(TABLES[table], seed)

    def chunks():
        return _chunks(rows, seed) if chunked else [(map(cli._fmt, row) for row in rows)]

    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    cli._write_csv(new, header, chunks())
    _reference_write_csv(old, header, rows)
    assert new.read_bytes() == old.read_bytes()

    cli._write_csv(None, header, chunks())
    new_out = capsysbinary.readouterr().out
    _reference_write_csv(None, header, rows)
    assert new_out == capsysbinary.readouterr().out == old.read_bytes()


@pytest.mark.parametrize("text,field", [
    ("3748 negative-branch coordinate-steps, tolerance 1e-12",
     '"3748 negative-branch coordinate-steps, tolerance 1e-12"'),
    ('say "hi"', '"say ""hi"""'),
    ("two\nlines", '"two\nlines"'),
    ("cr\ronly", "cr\ronly"),
    ("semi;colon", "semi;colon"),
    ("", ""),
])
def test_fmt_quotes_only_commas_quotes_and_newlines(text, field):
    assert cli._fmt(text) == field
