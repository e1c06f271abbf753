"""The per-example dataset operations as they were before datasets became
CSR arrays, kept as the reference the array versions are tested against.

A dataset here is a list of (label, [(index, value), ...]) rows. Do not
edit these to follow the package.
"""

import numpy as np


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
