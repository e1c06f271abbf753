"""LIBSVM text-format ingestion and deterministic minibatch iteration.

Format: one example per line, `label idx:val idx:val ...` with 1-based,
strictly increasing feature indices. Missing indices are implicit zeros.
Blank lines and lines starting with '#' are skipped.

A Dataset is one CSR matrix of numpy arrays (labels, indptr, indices, values);
densifying, label normalization and serialization work on whole arrays.
"""

import math
import re
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np


class LibsvmParseError(ValueError):
    """Malformed LIBSVM input; carries the 1-based source line number."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


@dataclass(eq=False)
class Dataset:
    """n labelled sparse examples in CSR form; == compares the arrays by value."""

    labels: np.ndarray  # (n,) float
    indptr: np.ndarray  # (n+1,) int, row j spans indptr[j]:indptr[j+1]
    indices: np.ndarray  # (nnz,) int, 1-based, strictly increasing within a row
    values: np.ndarray  # (nnz,) float
    dim: int
    label_map: dict[float, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.dim, self.label_map) == (other.dim, other.label_map) and all(
            np.array_equal(getattr(self, a), getattr(other, a)) for a in ("labels", "indptr", "indices", "values"))

    def to_dense(self) -> np.ndarray:
        """Dense (n_examples, dim) matrix; absent indices are zeros."""
        out = np.zeros((len(self), self.dim))
        rows = np.repeat(np.arange(len(self)), np.diff(self.indptr))
        out[rows, self.indices - 1] = self.values
        return out


class InputDecodeError(ValueError):
    """An input file that is not UTF-8, at the line open_input finds."""

    def __init__(self, path, lineno: int, error: UnicodeDecodeError):
        self.path, self.lineno, self.error = path, lineno, error
        super().__init__(f"{path}:{lineno}: {error}")


@contextmanager
def open_input(path):
    """path opened as UTF-8 text with newline="", as every reader of this
    package opens its input files. A decode error in the with block is an
    InputDecodeError: the line of the first byte that is not UTF-8 (lines
    end at "\\n", "\\r\\n" and a lone "\\r"), and error, the error of decoding
    the whole file, whose position is that byte's offset in the file."""
    with open(path, "r", newline="", encoding="utf-8") as f:
        try:
            yield f
        except UnicodeDecodeError as exc:
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as whole:
                exc = whole
            head = data[:exc.start]
            lineno = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
            raise InputDecodeError(path, lineno, exc) from None


def parse_libsvm_line(line: str, lineno: int | None = None) -> tuple[float, list[int], list[float]]:
    """Parse one `label idx:val ...` line into (label, indices, values);
    raises LibsvmParseError on bad input."""
    tokens = line.split()
    if not tokens:
        raise LibsvmParseError("empty line", lineno)
    try:
        label = float(tokens[0])
    except ValueError:
        raise LibsvmParseError(f"label is not numeric: {tokens[0]!r}", lineno) from None
    if not math.isfinite(label):
        raise LibsvmParseError(f"label is not finite: {tokens[0]!r}", lineno)
    indices, values = [], []
    prev_idx = 0
    for token in tokens[1:]:
        idx_s, sep, val_s = token.partition(":")
        if not sep:
            raise LibsvmParseError(f"malformed feature pair: {token!r}", lineno)
        try:
            idx = int(idx_s)
            val = float(val_s)
        except ValueError:
            raise LibsvmParseError(f"non-numeric feature pair: {token!r}", lineno) from None
        if not math.isfinite(val):
            raise LibsvmParseError(f"non-finite feature value: {token!r}", lineno)
        if idx <= prev_idx:
            raise LibsvmParseError(
                f"feature index {idx} not strictly increasing (previous {prev_idx})", lineno
            )
        if idx >= 2 ** 63:  # indices are stored as int64
            raise LibsvmParseError(f"feature index {idx} exceeds {2 ** 63 - 1}", lineno)
        indices.append(idx)
        values.append(val)
        prev_idx = idx
    return label, indices, values


# lines parsed as one set of arrays; bounds the token lists held at once
LOAD_CHUNK_LINES = 4096

# two ':' in one token of pair tokens joined by single spaces
_TWO_COLONS = re.compile(r":[^ ]*:")


def _chunk_arrays(lines: list[str]):
    """(labels, row lengths, indices, values) of raw lines but blank and '#'
    ones, or None where parse_libsvm_line would reject one. Each column is
    cast by one object-array astype, which calls its int() or float()."""
    rows = [row for row in map(str.split, lines) if row and not row[0].startswith("#")]
    labels = [row[0] for row in rows]
    counts = np.array([len(row) - 1 for row in rows], dtype=np.int64)
    pairs = " ".join([token for row in rows for token in row[1:]])
    del rows  # the tokens, before flat spells them again
    if pairs.count(":") != counts.sum() or _TWO_COLONS.search(pairs):  # not one ':' in each
        return None
    flat = pairs.replace(":", " ").split(" ") if pairs else []  # index, value, index, ...
    try:
        labels = np.array(labels, dtype=object).astype(float)
        indices = np.array(flat[0::2], dtype=object).astype(np.int64)  # >= 2**63 overflows
        values = np.array(flat[1::2], dtype=object).astype(float)
    except (ValueError, OverflowError):
        return None
    prev = np.empty_like(indices)  # the index before each in its row, 0 before a row's first
    prev[1:] = indices[:-1]
    prev[(np.cumsum(counts) - counts)[counts > 0]] = 0
    if not (np.isfinite(labels).all() and np.isfinite(values).all() and (indices > prev).all()):
        return None
    return labels, counts, indices, values


def _parse_chunk(lines: list[str], lineno: int):
    """(labels, row lengths, indices, values) of raw lines, the first of them
    line lineno."""
    arrays = _chunk_arrays(lines)
    if arrays is None:  # some line is bad: parse_libsvm_line raises at the first
        for n, s in enumerate(map(str.strip, lines), start=lineno):
            if s and not s.startswith("#"):
                parse_libsvm_line(s, n)
    return arrays


def load_dataset(path) -> Dataset:
    """Load a LIBSVM file; labels are kept verbatim (see normalize_labels).
    Parses LOAD_CHUNK_LINES lines at a time as arrays, with the checks,
    values and errors of parse_libsvm_line, into growable buffers that hold
    the result once. A parse or decode error names the path, then the line."""
    # labels, row ends, indices and values; lines read but not parsed, from line lineno
    columns, pending, lineno = (array("d"), array("q", [0]), array("q"), array("d")), [], 1

    def append(lines):
        labels, counts, indices, values = _parse_chunk(lines, lineno)
        for column, chunk in zip(columns, (labels, np.cumsum(counts) + columns[1][-1], indices, values)):
            column.frombytes(chunk.data.cast("B"))

    try:
        with open_input(path) as f:
            try:
                for raw in f:
                    pending.append(raw)
                    if len(pending) == LOAD_CHUNK_LINES:
                        lines, pending = pending, []
                        append(lines)
                        lineno += len(lines)
            finally:
                # on a decode error too: the lines read before it are parsed first, as line by line
                append(pending)
    except (LibsvmParseError, InputDecodeError) as exc:
        if isinstance(exc, InputDecodeError):
            exc = LibsvmParseError(str(exc.error), exc.lineno)
        error = LibsvmParseError(f"{path}: {exc}")
        error.lineno = exc.lineno
        raise error from None
    labels, indptr, indices, values = (np.frombuffer(column, dtype=column.typecode) for column in columns)
    return Dataset(labels, indptr, indices, values, dim=int(indices.max(initial=0)))


def normalize_labels(dataset: Dataset, rule: dict[float, float] | None = None) -> Dataset:
    """Return a copy of the dataset with labels mapped to {-1, +1}.

    Without an explicit rule: labels already in {-1, +1} are kept; {0, 1}
    maps to {-1, +1}; {1, 2} maps to {+1, -1}; three or more classes map
    one-vs-rest with the most frequent class as +1 (frequency ties broken
    toward the smallest label). Anything else is an error naming the
    distinct labels seen. The feature arrays are shared with the input,
    which is left unchanged.
    """
    distinct, inverse, counts = np.unique(dataset.labels, return_inverse=True, return_counts=True)
    distinct = distinct.tolist()
    if rule is None:
        if set(distinct) <= {-1.0, 1.0}:
            mapping = {lab: lab for lab in distinct}
        elif set(distinct) == {0.0, 1.0}:
            mapping = {0.0: -1.0, 1.0: 1.0}
        elif set(distinct) == {1.0, 2.0}:
            mapping = {1.0: 1.0, 2.0: -1.0}
        elif len(distinct) >= 3:
            top = distinct[int(np.argmax(counts))]  # the first of the most frequent, in sorted order
            mapping = {lab: (1.0 if lab == top else -1.0) for lab in distinct}
        else:
            raise ValueError(
                f"no label normalization rule for label set {distinct}; pass an explicit mapping"
            )
    else:
        missing = [lab for lab in distinct if lab not in rule]
        if missing:
            raise ValueError(f"label mapping does not cover labels {missing}")
        if not set(rule.values()) <= {-1.0, 1.0}:
            raise ValueError("label mapping values must be -1 or +1")
        mapping = {lab: float(rule[lab]) for lab in distinct}
    mapped = np.array([mapping[lab] for lab in distinct], dtype=float)[inverse]
    return replace(dataset, labels=mapped, label_map=mapping)


def serialize_dataset(dataset: Dataset) -> str:
    """LIBSVM text for the dataset, formatted column by column; floats use
    repr so a re-parse is lossless."""
    pairs = [f" {i}:{v!r}" for i, v in zip(dataset.indices.tolist(), dataset.values.tolist())]
    heads = ["\n" + repr(label) for label in dataset.labels.tolist()]
    # each line's label goes before its first pair
    tokens = np.insert(np.array(pairs, dtype=object), dataset.indptr[:-1], heads)
    return "".join(tokens)[1:] + "\n" if len(dataset) else ""


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize_dataset(dataset))


def _words(value: int) -> list[int]:
    """value as SeedSequence takes an int into its entropy: 32-bit words, low word first, one word for 0."""
    return np.frombuffer(value.to_bytes(4 * max(1, -(-value.bit_length() // 32)), "little"), np.uint32).tolist()


class MinibatchStream:
    """Endless minibatch index source: epoch e is a fresh permutation seeded
    from (seed, e), partitioned in order. Deterministic given the seed."""

    def __init__(self, n: int, batch_size: int, seed):
        if n < 1:
            raise ValueError("need at least one example")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.n = n
        self.batch_size = batch_size
        self.seed = seed
        self.epoch = 0
        self._seed_words = _words(int(seed))
        self._perm, self._pos = None, n  # the current epoch's permutation, and where its next batch starts

    def next_batch(self) -> np.ndarray:
        if self._pos >= self.n:  # a new epoch, seeded as SeedSequence([seed, epoch]) is, from the seed's words
            entropy = np.array(self._seed_words + _words(self.epoch), dtype=np.uint32)
            self._perm, self._pos = np.random.default_rng(np.random.SeedSequence(entropy)).permutation(self.n), 0
            self.epoch += 1
        self._pos += self.batch_size
        return self._perm[self._pos - self.batch_size:self._pos]
