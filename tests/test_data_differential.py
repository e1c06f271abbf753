"""The CSR dataset operations against the per-example loops they replaced.

to_dense, serialize_dataset and normalize_labels must give bit-identical
arrays, byte-identical text, and the same label maps and error messages as
tests/reference_data.py, on random datasets covering every label rule,
frequency ties, empty rows, empty datasets and signed zeros.
"""

import numpy as np
import pytest

import reference_data
from conftest import csr_dataset
from gradagrad import normalize_labels, serialize_dataset

LABEL_SETS = [(-1.0, 1.0), (0.0, 1.0), (1.0, 2.0), (1.0,), (3.0, 7.0), (1.0, 2.0, 3.0), (0.0, 2.0, 5.0, 9.0)]
SPECIAL_VALUES = [0.0, -0.0, 1.0, -2.5, 1e300, 5e-324, 0.1]


def _random_rows(rng, labels):
    rows = []
    for _ in range(int(rng.integers(0, 15))):
        n_feat = int(rng.integers(0, 6))
        idx = np.sort(rng.choice(np.arange(1, 30), size=n_feat, replace=False))
        if rng.random() < 0.5:
            vals = rng.standard_normal(n_feat) * 10.0 ** rng.integers(-8, 8)
        else:
            vals = rng.choice(SPECIAL_VALUES, size=n_feat)
        rows.append((float(rng.choice(labels)), [(int(i), float(v)) for i, v in zip(idx, vals)]))
    return rows


@pytest.mark.parametrize("trial", range(70))
def test_array_operations_match_reference(trial):
    rng = np.random.default_rng([7, trial])
    labels = LABEL_SETS[trial % len(LABEL_SETS)]
    rows = _random_rows(rng, labels)
    dim = max((i for _, features in rows for i, _ in features), default=0) + int(rng.integers(0, 3))
    ds = csr_dataset(rows, dim)

    dense, expected = ds.to_dense(), reference_data.to_dense(rows, dim)
    assert dense.shape == expected.shape and dense.tobytes() == expected.tobytes()
    assert serialize_dataset(ds) == reference_data.serialize(rows)

    flip = {lab: (1.0 if k % 2 else -1.0) for k, lab in enumerate(labels)}
    for rule in (None, flip, {labels[0]: 1.0}):
        try:
            mapped_rows, label_map = reference_data.normalize_labels(rows, rule)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                normalize_labels(ds, rule)
            assert str(got.value) == str(exc)
            continue
        want = csr_dataset(mapped_rows, dim)
        want.label_map = label_map
        assert normalize_labels(ds, rule) == want
