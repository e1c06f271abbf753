"""The per-example dataset operations as they were before datasets became
CSR arrays, the line-by-line LIBSVM loader as it was before it parsed
chunks of lines as arrays, and one epoch of minibatches as the package's
deleted minibatch_iter made it, kept as the references the package is
tested against.

A dataset here is a list of (label, [(index, value), ...]) rows, except
that load_dataset returns the package's Dataset. Do not edit these to
follow the package.
"""

import math

import numpy as np

from gradagrad import Dataset, LibsvmParseError
from gradagrad.data import InputDecodeError, open_input


def to_dense(rows, dim) -> np.ndarray:
    out = np.zeros((len(rows), dim))
    for row, (_, features) in enumerate(rows):
        for idx, val in features:
            out[row, idx - 1] = val
    return out


def normalize_labels(rows, rule=None):
    """(mapped rows, label map), with the rules and errors of data.normalize_labels."""
    labels = [label for label, _ in rows]
    distinct = sorted(set(labels))
    if rule is None:
        if set(distinct) <= {-1.0, 1.0}:
            mapping = {lab: lab for lab in distinct}
        elif set(distinct) == {0.0, 1.0}:
            mapping = {0.0: -1.0, 1.0: 1.0}
        elif set(distinct) == {1.0, 2.0}:
            mapping = {1.0: 1.0, 2.0: -1.0}
        elif len(distinct) >= 3:
            counts = {lab: 0 for lab in distinct}
            for lab in labels:
                counts[lab] += 1
            top = max(distinct, key=lambda lab: (counts[lab], -lab))
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
    return [(mapping[label], list(features)) for label, features in rows], dict(mapping)


def serialize(rows) -> str:
    lines = []
    for label, features in rows:
        parts = [repr(float(label))] + [f"{idx}:{float(val)!r}" for idx, val in features]
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_libsvm_line(line: str, lineno: int | None = None) -> tuple[float, list[int], list[float]]:
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
        if idx >= 2 ** 63:
            raise LibsvmParseError(f"feature index {idx} exceeds {2 ** 63 - 1}", lineno)
        indices.append(idx)
        values.append(val)
        prev_idx = idx
    return label, indices, values


def load_dataset(path) -> Dataset:
    """data.load_dataset: the file parsed line by line, each line by parse_libsvm_line."""
    labels, indptr, indices, values = [], [0], [], []
    try:
        with open_input(path) as f:
            for lineno, raw in enumerate(f, start=1):
                stripped = raw.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                label, idx, val = parse_libsvm_line(stripped, lineno)
                labels.append(label)
                indices += idx
                values += val
                indptr.append(len(indices))
    except (LibsvmParseError, InputDecodeError) as exc:
        if isinstance(exc, InputDecodeError):
            exc = LibsvmParseError(str(exc.error), exc.lineno)
        error = LibsvmParseError(f"{path}: {exc}")
        error.lineno = exc.lineno
        raise error from None
    indices = np.array(indices, dtype=np.int64)
    return Dataset(np.array(labels, dtype=float), np.array(indptr, dtype=np.int64), indices,
                   np.array(values, dtype=float), dim=int(indices.max(initial=0)))


def minibatch_iter(n: int, batch_size: int, epoch_seed) -> list[np.ndarray]:
    """One epoch of minibatch index arrays over n examples: a permutation
    seeded by epoch_seed split into consecutive batches (the last possibly
    smaller), as MinibatchStream must make each epoch."""
    perm = np.random.default_rng(epoch_seed).permutation(n)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]
