from collections import Counter

import numpy as np
import pytest

from conftest import csr_dataset
from gradagrad import (
    LibsvmParseError,
    MinibatchStream,
    data,
    load_dataset,
    normalize_labels,
    parse_libsvm_line,
    save_dataset,
    serialize_dataset,
)
from reference_data import minibatch_iter


class TestParseLine:
    def test_basic(self):
        assert parse_libsvm_line("1 1:0.5 3:2.0") == (1.0, [1, 3], [0.5, 2.0])

    def test_label_only_is_zero_vector(self):
        assert parse_libsvm_line("-1") == (-1.0, [], [])

    def test_non_increasing_index(self):
        with pytest.raises(LibsvmParseError, match="strictly increasing"):
            parse_libsvm_line("1 3:1 2:1")

    def test_duplicate_index(self):
        with pytest.raises(LibsvmParseError):
            parse_libsvm_line("1 2:1 2:3")

    def test_zero_index_rejected(self):
        with pytest.raises(LibsvmParseError):
            parse_libsvm_line("1 0:1")

    def test_malformed_pair(self):
        with pytest.raises(LibsvmParseError, match="malformed"):
            parse_libsvm_line("1 23")

    def test_non_numeric(self):
        with pytest.raises(LibsvmParseError, match="non-numeric"):
            parse_libsvm_line("1 a:b")
        with pytest.raises(LibsvmParseError, match="label"):
            parse_libsvm_line("x 1:1")

    def test_index_beyond_int64_rejected(self):
        with pytest.raises(LibsvmParseError, match="line 4: feature index 9223372036854775808 exceeds"):
            parse_libsvm_line("1 1:1 9223372036854775808:1", lineno=4)

    def test_error_carries_line_number(self):
        with pytest.raises(LibsvmParseError, match="line 17"):
            parse_libsvm_line("1 3:1 2:1", lineno=17)
        for line in ("nan 1:1", "-inf 1:1", "1 1:nan", "1 1:1 2:inf"):
            with pytest.raises(LibsvmParseError, match="line 17: .*finite"):
                parse_libsvm_line(line, lineno=17)
        try:
            parse_libsvm_line("bad", lineno=17)
        except LibsvmParseError as exc:
            assert exc.lineno == 17


class TestLoadDataset:
    def test_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "d.libsvm"
        path.write_text("# header comment\n\n1 1:2.0\n-1 2:0.5\n\n")
        ds = load_dataset(path)
        assert len(ds) == 2
        assert ds.dim == 2
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0])

    def test_parse_error_reports_file_line(self, tmp_path):
        path = tmp_path / "bad.libsvm"
        path.write_text("1 1:1\n1 5:1 3:2\n")
        with pytest.raises(LibsvmParseError, match="line 2"):
            load_dataset(path)

    def test_csr_arrays(self, tmp_path):
        path = tmp_path / "d.libsvm"
        path.write_text("2 2:3.0\n1\n# note\n2 1:1.0 4:-2.5\n")
        ds = load_dataset(path)
        assert (len(ds), ds.dim, ds.label_map) == (3, 4, {})
        for name, expected, dtype in [
            ("labels", [2.0, 1.0, 2.0], np.float64),
            ("indptr", [0, 1, 1, 3], np.int64),
            ("indices", [2, 1, 4], np.int64),
            ("values", [3.0, 1.0, -2.5], np.float64),
        ]:
            array = getattr(ds, name)
            assert array.dtype == dtype and array.tolist() == expected, name

    def test_to_dense_implicit_zeros(self, tmp_path):
        path = tmp_path / "d.libsvm"
        path.write_text("1 2:3.0\n-1 1:1.0 3:2.0\n")
        ds = load_dataset(path)
        np.testing.assert_array_equal(ds.to_dense(), [[0.0, 3.0, 0.0], [1.0, 0.0, 2.0]])


def _dataset(labels):
    return csr_dataset([(lab, [(1, 1.0)]) for lab in labels], dim=1)


class TestNormalizeLabels:
    def test_zero_one_rule(self):
        ds = normalize_labels(_dataset([0, 1, 1, 0]))
        np.testing.assert_array_equal(ds.labels, [-1, 1, 1, -1])
        assert ds.label_map == {0.0: -1.0, 1.0: 1.0}

    def test_one_two_rule(self):
        ds = normalize_labels(_dataset([1, 2, 1]))
        np.testing.assert_array_equal(ds.labels, [1, -1, 1])

    def test_already_normalized_identity(self):
        ds = normalize_labels(_dataset([-1, 1, 1]))
        np.testing.assert_array_equal(ds.labels, [-1, 1, 1])

    def test_multiclass_most_frequent_vs_rest(self):
        labels = [1, 2, 2, 3, 2, 3]
        counts = Counter(labels)  # independent frequency count
        top, _ = counts.most_common(1)[0]
        ds = normalize_labels(_dataset(labels))
        expected = [1.0 if lab == top else -1.0 for lab in labels]
        np.testing.assert_array_equal(ds.labels, expected)

    def test_multiclass_tie_prefers_smaller_label(self):
        ds = normalize_labels(_dataset([3, 3, 5, 5, 7]))
        np.testing.assert_array_equal(ds.labels, [1, 1, -1, -1, -1])

    def test_unmapped_pair_errors_with_labels(self):
        with pytest.raises(ValueError, match=r"3.*7"):
            normalize_labels(_dataset([3, 7]))

    def test_explicit_rule(self):
        ds = normalize_labels(_dataset([3, 7]), rule={3.0: 1.0, 7.0: -1.0})
        np.testing.assert_array_equal(ds.labels, [1, -1])

    def test_explicit_rule_must_cover(self):
        with pytest.raises(ValueError, match="cover"):
            normalize_labels(_dataset([3, 7]), rule={3.0: 1.0})

    def test_original_untouched(self):
        original = _dataset([0, 1])
        normalize_labels(original)
        np.testing.assert_array_equal(original.labels, [0, 1])
        assert original.label_map == {}


class TestRoundTrip:
    def test_fixed_example(self, tmp_path):
        ds = csr_dataset([(1.0, [(1, 0.5), (3, -2.25e-7)]), (-1.0, [])], dim=3)
        path = tmp_path / "rt.libsvm"
        save_dataset(ds, path)
        again = load_dataset(path)
        assert again == ds

    def test_random_datasets(self, tmp_path):
        rng = np.random.default_rng(123)
        for trial in range(20):
            rows = []
            for _ in range(rng.integers(1, 12)):
                n_feat = int(rng.integers(0, 6))
                idx = np.sort(rng.choice(np.arange(1, 30), size=n_feat, replace=False))
                vals = rng.standard_normal(n_feat) * 10.0 ** rng.integers(-8, 8)
                rows.append((float(rng.choice([-1.0, 1.0])), [(int(i), float(v)) for i, v in zip(idx, vals)]))
            dim = max((i for _, features in rows for i, _ in features), default=0)
            ds = csr_dataset(rows, dim=dim)
            reparsed = load_dataset(_save(tmp_path, trial, ds))
            assert reparsed == ds

    def test_equality_compares_every_field(self):
        rows = [(1.0, [(1, 0.5), (3, 2.0)]), (-1.0, [])]
        ds = csr_dataset(rows, dim=3)
        assert ds == csr_dataset(rows, dim=3)
        assert ds != csr_dataset([(1.0, [(1, 0.5), (3, 2.5)]), (-1.0, [])], dim=3)  # a value
        assert ds != csr_dataset([(1.0, [(1, 0.5), (2, 2.0)]), (-1.0, [])], dim=3)  # an index
        assert ds != csr_dataset([(1.0, [(1, 0.5)]), (-1.0, [(3, 2.0)])], dim=3)  # a row boundary
        assert ds != csr_dataset([(1.0, [(1, 0.5), (3, 2.0)]), (1.0, [])], dim=3)  # a label
        assert ds != csr_dataset(rows, dim=4)
        assert ds != normalize_labels(ds)  # the label map
        assert ds != "not a dataset"

    def test_serialize_text_shape(self):
        ds = csr_dataset([(1.0, [(2, 0.5)])], dim=2)
        assert serialize_dataset(ds) == "1.0 2:0.5\n"


def _save(tmp_path, trial, ds):
    path = tmp_path / f"rt{trial}.libsvm"
    save_dataset(ds, path)
    return path


class TestMinibatchStream:
    def test_epochs_cover_and_reshuffle(self):
        stream = MinibatchStream(10, 3, seed=5)
        epoch1 = [stream.next_batch() for _ in range(4)]
        epoch2 = [stream.next_batch() for _ in range(4)]
        assert sorted(np.concatenate(epoch1).tolist()) == list(range(10))
        assert sorted(np.concatenate(epoch2).tolist()) == list(range(10))
        assert [b.tolist() for b in epoch1] != [b.tolist() for b in epoch2]

    @pytest.mark.parametrize("n,batch_size", [(10, 3), (7, 1), (5, 5), (4, 9)])
    def test_epochs_follow_minibatch_iter(self, n, batch_size):
        seed = 2**64 - 5
        stream = MinibatchStream(n, batch_size, seed=seed)
        for epoch in range(3):
            expected = minibatch_iter(n, batch_size, np.random.SeedSequence([seed, epoch]))
            for batch in expected:
                np.testing.assert_array_equal(stream.next_batch(), batch)
            assert stream.epoch == epoch + 1

    def test_deterministic_across_instances(self):
        a = MinibatchStream(20, 6, seed=77)
        b = MinibatchStream(20, 6, seed=77)
        for _ in range(10):
            np.testing.assert_array_equal(a.next_batch(), b.next_batch())

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("epoch", [0, 1, 2**32])
    def test_seed_words_are_seed_sequence_entropy(self, seed, epoch):
        """An epoch's SeedSequence, built from the seed's words and the epoch's, is SeedSequence([seed, epoch])."""
        words = np.array(data._words(seed) + data._words(epoch), dtype=np.uint32)
        np.testing.assert_array_equal(np.random.SeedSequence(words).generate_state(4),
                                      np.random.SeedSequence([seed, epoch]).generate_state(4))

    @pytest.mark.parametrize("n,batch_size", [(10, 4), (11, 3), (7, 7), (3, 10), (1, 2)])
    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 - 1])
    def test_batches_equal_minibatch_iter_over_ragged_epochs(self, n, batch_size, seed):
        stream = MinibatchStream(n, batch_size, seed=seed)
        for epoch in range(4):
            for batch in minibatch_iter(n, batch_size, np.random.SeedSequence([seed, epoch])):
                got = stream.next_batch()
                assert got.dtype == batch.dtype
                np.testing.assert_array_equal(got, batch)
