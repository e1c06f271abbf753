"""data.load_dataset, which parses LOAD_CHUNK_LINES lines at a time as
arrays, against the line-by-line loader it replaced (tests/reference_data.py).

Each file must load to the same Dataset, its arrays bit-equal with the same
dtypes (signed zeros and subnormals included), or fail with the same
LibsvmParseError text and lineno. The corpus covers lossless round trips,
every line end and whitespace the loader strips or splits on, the number
spellings int() and float() accept, every error kind, non-UTF-8 bytes, and
errors on both sides of a chunk boundary. The short-file cases also run with
chunks of 1 and 3 lines, so they cross many chunk boundaries.
"""

import tracemalloc

import numpy as np
import pytest

import reference_data
from conftest import csr_dataset
from gradagrad import LibsvmParseError, data, load_dataset, serialize_dataset

SPECIAL_VALUES = [0.0, -0.0, 1.0, -2.5, 1e300, -1e300, 5e-324, -2.2e-310, 2.2250738585072014e-308, 0.1]
CHUNK_SIZES = [data.LOAD_CHUNK_LINES, 1, 3]


def _outcome(load, path):
    try:
        ds = load(path)
    except LibsvmParseError as exc:
        return "error", str(exc), exc.lineno
    arrays = [(a.dtype.str, a.shape, a.tobytes()) for a in (ds.labels, ds.indptr, ds.indices, ds.values)]
    return "ok", ds.dim, ds.label_map, arrays


def _compare(path, content: bytes):
    """The outcome of loading content, asserted equal to the reference's."""
    path.write_bytes(content)
    got, want = _outcome(load_dataset, path), _outcome(reference_data.load_dataset, path)
    assert got == want
    return got


def _random_rows(rng):
    rows = []
    for _ in range(int(rng.integers(0, 25))):
        n_feat = int(rng.integers(0, 8))
        idx = np.sort(rng.choice(np.arange(1, 60), size=n_feat, replace=False))
        if rng.random() < 0.5:
            vals = rng.standard_normal(n_feat) * 10.0 ** rng.integers(-300, 300)
        else:
            vals = rng.choice(SPECIAL_VALUES, size=n_feat)
        label = float(rng.choice([-1.0, 1.0, 0.0, -0.0, 2.0, 5e-324, -1e300]))
        rows.append((label, [(int(i), float(v)) for i, v in zip(idx, vals)]))
    return rows


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@pytest.mark.parametrize("trial", range(30))
def test_round_trips_match_reference(tmp_path, monkeypatch, trial, chunk):
    monkeypatch.setattr(data, "LOAD_CHUNK_LINES", chunk)
    rng = np.random.default_rng([17, trial])
    rows = _random_rows(rng)
    ds = csr_dataset(rows, max((i for _, features in rows for i, _ in features), default=0))
    newline = ["\n", "\r\n", "\r"][trial % 3]
    text = serialize_dataset(ds).replace("\n", newline)
    outcome = _compare(tmp_path / "d.libsvm", text.encode())
    assert outcome[0] == "ok"


ACCEPTED = {
    "line ends": b"1 1:1\n-1 2:2\r\n1 3:3\r-1 4:4",
    "comments and blanks": b"# head\n\n1 1:1\n   \n  # indented\n\t\n-1 2:0.5\n#\n",
    "tabs and unicode whitespace": (
        "1\t1:2\u00a03:4\u20035:6\u3000\n\x0c-1\x0b2:1\x1c3:1\x1d4:1\x1e5:1\x1f6:1\x857:1\u20288:1\u20299:1 \n"
    ).encode(),
    "number spellings": "+1 1_0:1 ١١:٣ +12:1_0.5\n  3 +5:-0.0\n-0.0 1:1E+2\n".encode(),
    "extremes": b"1 1:1e300 2:-1e300 3:5e-324 4:-0.0 5:2.2e-310 9223372036854775807:1\n",
    "label only lines": b"1\n-1\n\n1\n",
    "empty file": b"",
    "only comments": b"# a\n# b\r\n",
}


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@pytest.mark.parametrize("name", ACCEPTED)
def test_accepted_inputs_match_reference(tmp_path, monkeypatch, name, chunk):
    monkeypatch.setattr(data, "LOAD_CHUNK_LINES", chunk)
    assert _compare(tmp_path / "d.libsvm", ACCEPTED[name])[0] == "ok"


REJECTED = {
    "label not numeric": (b"1 1:1\nx 1:1\n", "label is not numeric: 'x'"),
    "label with a colon": (b"1:2 3:4\n", "label is not numeric: '1:2'"),
    "label inf": (b"1 1:1\n-1 1:1\ninf 2:1\n", "label is not finite: 'inf'"),
    "label nan": (b"nan 1:1\n", "label is not finite: 'nan'"),
    "label overflows": (b"1e400 1:1\n", "label is not finite: '1e400'"),
    "no colon": (b"1 1:1 7\n", "malformed feature pair: '7'"),
    "a comment after the label": (b"1\n1 # c\n", "line 2: malformed feature pair: '#'"),
    "two colons": (b"1 1:2:3\n", "non-numeric feature pair: '1:2:3'"),
    "two colons beside no colon": (b"1 1:2:3 4\n", "non-numeric feature pair: '1:2:3'"),
    "no colon beside two colons": (b"1 4 1:2:3\n", "malformed feature pair: '4'"),
    "empty value": (b"1 3:\n", "non-numeric feature pair: '3:'"),
    "empty index": (b"1 :4\n", "non-numeric feature pair: ':4'"),
    "empty value beside empty index": (b"1 3: :4\n", "non-numeric feature pair: '3:'"),
    "value not numeric": (b"1 1:x\n", "non-numeric feature pair: '1:x'"),
    "index not an integer": (b"1 1.0:1\n", "non-numeric feature pair: '1.0:1'"),
    "index with too many digits": (b"1 " + b"1" * 5000 + b":1\n", "non-numeric feature pair"),
    "value inf": (b"1 1:inf\n", "non-finite feature value: '1:inf'"),
    "value nan": (b"1 1:1 2:nan\n", "non-finite feature value: '2:nan'"),
    "value overflows": (b"1 1:-1e400\n", "non-finite feature value: '1:-1e400'"),
    "index 0": (b"1 0:1\n", "feature index 0 not strictly increasing (previous 0)"),
    "index negative": (b"1 -3:1\n", "feature index -3 not strictly increasing (previous 0)"),
    "index below int64": (b"1 -9223372036854775809:1\n", "not strictly increasing (previous 0)"),
    "index repeated": (b"1 2:1 2:1\n", "feature index 2 not strictly increasing (previous 2)"),
    "index decreasing": (b"1 1:1\n-1 3:1 2:1\n", "feature index 2 not strictly increasing (previous 3)"),
    "index 2**63": (b"1 9223372036854775808:1\n", "feature index 9223372036854775808 exceeds"),
    "first of two errors wins": (b"1 1:1\n1 2:nan\nx 1:1\n1 0:1\n", "line 2: non-finite feature value"),
    "non-UTF-8 label": (b"1 1:1\n-1 1:2\n\xff 2:1\n", "line 3: 'utf-8' codec can't decode byte 0xff"),
    "non-UTF-8 after a parse error": (b"1 1:1\nx 1:1\n1 1:\xfe\n", "codec can't decode byte 0xfe"),
}


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@pytest.mark.parametrize("name", REJECTED)
def test_rejected_inputs_match_reference(tmp_path, monkeypatch, name, chunk):
    monkeypatch.setattr(data, "LOAD_CHUNK_LINES", chunk)
    content, message = REJECTED[name]
    for newline in (b"\n", b"\r\n"):
        outcome = _compare(tmp_path / "d.libsvm", content.replace(b"\n", newline))
        assert outcome[0] == "error" and message in outcome[1], outcome


GOOD_LINE = b"1 1:1 2:0.5\n"
C = data.LOAD_CHUNK_LINES


@pytest.mark.parametrize("bad_line", [1, 2, C - 1, C, C + 1, 2 * C, 2 * C + 1, 2 * C + 7])
@pytest.mark.parametrize("bad", [b"1 2:1 1:1\n", b"x\n", b"1 1:nan\n"])
def test_an_error_on_either_side_of_a_chunk_boundary(tmp_path, bad_line, bad):
    lines = [GOOD_LINE] * (2 * C + 7)
    lines[bad_line - 1] = bad
    outcome = _compare(tmp_path / "d.libsvm", b"".join(lines))
    assert outcome[0] == "error" and outcome[2] == bad_line


@pytest.mark.parametrize("skipped", [C - 1, C, C + 1])
def test_blank_and_comment_lines_at_a_chunk_boundary(tmp_path, skipped):
    lines = [GOOD_LINE] * (2 * C + 3)
    lines[skipped - 1: skipped + 1] = [b"\n", b"# c\r\n"]
    assert _compare(tmp_path / "d.libsvm", b"".join(lines))[0] == "ok"


@pytest.mark.parametrize("parse_error_line", [2, 700, C - 1, C + 1])
@pytest.mark.parametrize("decode_error_line", [5, 900, 3000, C + 5, C + 2000])
def test_a_parse_error_and_a_decode_error_resolve_as_line_by_line(tmp_path, parse_error_line, decode_error_line):
    """The text reader decodes about 8 KiB at a time, so a bad byte stops
    the line loop before the lines of its block are read: a parse error on
    an earlier line wins only if that line was read in an earlier block."""
    lines = [GOOD_LINE] * (C + 2500)
    lines[parse_error_line - 1] = b"1 1:x\n"
    lines[decode_error_line - 1] = b"1 1:\xff\n"
    outcome = _compare(tmp_path / "d.libsvm", b"".join(lines))
    assert outcome[0] == "error"


def test_a_loaded_dataset_is_held_once(tmp_path, monkeypatch):
    """Each chunk's arrays go into the result's buffers as the chunk is
    parsed, so the peak is the result once, and one chunk's tokens, not the
    result twice: 20,000 lines of up to 14 pairs, in chunks of 512 lines."""
    rng = np.random.default_rng(38)
    counts = rng.integers(0, 15, 20_000)
    features = [np.sort(rng.choice(np.arange(1, 100), count, replace=False)).tolist() for count in counts]
    rows = [(float(rng.choice([-1.0, 1.0])), [(i, float(rng.standard_normal())) for i in idx]) for idx in features]
    path = tmp_path / "d.libsvm"
    path.write_text(serialize_dataset(csr_dataset(rows, 99)))
    monkeypatch.setattr(data, "LOAD_CHUNK_LINES", 512)
    tracemalloc.start()
    try:
        loaded = load_dataset(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == csr_dataset(rows, 99)
    nbytes = sum(array.nbytes for array in (loaded.labels, loaded.indptr, loaded.indices, loaded.values))
    assert nbytes > 2 * 2**20 and peak < 1.5 * nbytes, peak / nbytes
