"""Dataset model, file formats, and stratified subsampling."""

import numpy as np
import pytest

from metricmi import (
    FORMAT_CSV_VECTORS,
    FORMAT_SPIKE_TEXT,
    DatasetError,
    DatasetParseError,
    LabeledDataset,
    MixedVariantError,
    ResponsePoint,
    UnbalancedDesignError,
    load_dataset,
    save_dataset,
    subsample_indices,
)


def _vec_dataset(rng, n_s=3, n_t=4, n_d=2):
    X = rng.normal(size=(n_s * n_t, n_d))
    labels = np.repeat(np.arange(n_s), n_t)
    return LabeledDataset.from_vectors(X, labels)


class TestResponsePoint:
    def test_vector_roundtrip(self):
        p = ResponsePoint([1.0, 2.0], "vector")
        assert p.values.tolist() == [1.0, 2.0]

    def test_spike_must_be_sorted(self):
        with pytest.raises(DatasetError):
            ResponsePoint([0.5, 0.1], "spike")

    def test_values_must_be_finite(self):
        with pytest.raises(DatasetError):
            ResponsePoint([np.nan, 0.0], "vector")

    def test_empty_spike_train_ok(self):
        p = ResponsePoint([], "spike")
        assert p.values.size == 0

    def test_values_are_readonly(self):
        p = ResponsePoint([1.0, 2.0], "vector")
        with pytest.raises(ValueError):
            p.values[0] = 5.0


class TestLabeledDataset:
    def test_counts(self):
        ds = LabeledDataset.from_vectors(
            [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 3.0]], [0, 0, 1, 1]
        )
        assert (ds.n_s, ds.n_t, ds.n_r, ds.n_d) == (2, 2, 4, 2)

    def test_unbalanced_names_stimulus(self):
        with pytest.raises(UnbalancedDesignError) as err:
            LabeledDataset.from_vectors(np.zeros((5, 1)), [0, 0, 0, 1, 1])
        assert err.value.stimulus == 1
        assert "stimulus 1" in str(err.value)

    def test_missing_stimulus_index_rejected(self):
        # labels must be dense: {0, 2} leaves stimulus 1 with zero trials
        with pytest.raises(UnbalancedDesignError):
            LabeledDataset.from_vectors(np.zeros((4, 1)), [0, 0, 2, 2])

    def test_order_preserved(self):
        X = np.arange(8.0).reshape(4, 2)
        ds = LabeledDataset.from_vectors(X, [1, 0, 1, 0])
        assert np.array_equal(ds.vectors, X)
        assert ds.labels.tolist() == [1, 0, 1, 0]

    def test_immutable_arrays(self):
        ds = _vec_dataset(np.random.default_rng(0))
        with pytest.raises(ValueError):
            ds.vectors[0, 0] = 9.0
        with pytest.raises(ValueError):
            ds.labels[0] = 2

    def test_spike_variant_accessors(self):
        ds = LabeledDataset.from_spike_trains(
            [[0.1], [0.2, 0.3], [], [0.5]], [0, 0, 1, 1]
        )
        assert ds.kind == "spike"
        assert ds.trains[1].tolist() == [0.2, 0.3]
        with pytest.raises(MixedVariantError):
            ds.vectors
        with pytest.raises(MixedVariantError):
            ds.n_d

    def test_point_wraps_variant(self):
        ds = _vec_dataset(np.random.default_rng(1))
        p = ds.point(3)
        assert p.kind == "vector"
        assert np.array_equal(p.values, ds.vectors[3])


class TestCsvVectors:
    def test_load_counts(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,0.5,1.5\n0,0.25,0.75\n1,2.5,3.5\n1,4.5,5.5\n")
        ds = load_dataset(f, FORMAT_CSV_VECTORS)
        assert (ds.n_s, ds.n_t, ds.n_r) == (2, 2, 4)
        assert ds.vectors[0].tolist() == [0.5, 1.5]

    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(42)
        ds = _vec_dataset(rng, n_s=4, n_t=3, n_d=5)
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(ds, f1)
        loaded = load_dataset(f1, FORMAT_CSV_VECTORS)
        assert loaded == ds
        save_dataset(loaded, f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_awkward_floats_roundtrip(self, tmp_path):
        X = np.array([[0.1, 1.0 / 3.0], [1e-300, 1.7976931348623157e308],
                      [-0.0, 5e-324]])
        ds = LabeledDataset.from_vectors(X, [0, 1, 2])
        f = tmp_path / "d.csv"
        save_dataset(ds, f)
        assert np.array_equal(load_dataset(f, FORMAT_CSV_VECTORS).vectors, X)

    def test_parse_error_carries_line(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,1.0\n0,oops\n")
        with pytest.raises(DatasetParseError) as err:
            load_dataset(f, FORMAT_CSV_VECTORS)
        assert err.value.line_no == 2

    def test_dimension_mismatch(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,1.0,2.0\n0,1.0\n")
        with pytest.raises(MixedVariantError):
            load_dataset(f, FORMAT_CSV_VECTORS)

    def test_unbalanced_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,1.0\n0,2.0\n0,3.0\n1,4.0\n1,5.0\n")
        with pytest.raises(UnbalancedDesignError) as err:
            load_dataset(f, FORMAT_CSV_VECTORS)
        assert err.value.stimulus == 1

    def test_negative_label_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("-1,1.0\n")
        with pytest.raises(DatasetParseError):
            load_dataset(f, FORMAT_CSV_VECTORS)


class TestSpikeText:
    def test_load_line(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("0 3 0.01 0.05 0.20\n1 0\n")
        ds = load_dataset(f, FORMAT_SPIKE_TEXT)
        assert ds.trains[0].tolist() == [0.01, 0.05, 0.20]
        assert ds.trains[1].size == 0

    def test_roundtrip_bit_identical(self, tmp_path):
        trains = [[0.1, 0.25], [], [1.0 / 3.0], [0.7, 0.7, 0.9]]
        ds = LabeledDataset.from_spike_trains(trains, [0, 0, 1, 1])
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_dataset(ds, f1)
        loaded = load_dataset(f1, FORMAT_SPIKE_TEXT)
        assert loaded == ds
        save_dataset(loaded, f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_count_mismatch(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("0 2 0.1\n")
        with pytest.raises(DatasetParseError) as err:
            load_dataset(f, FORMAT_SPIKE_TEXT)
        assert err.value.line_no == 1

    def test_descending_times_rejected(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("0 2 0.5 0.1\n")
        with pytest.raises(DatasetParseError):
            load_dataset(f, FORMAT_SPIKE_TEXT)


class TestSubsample:
    def test_identity_at_full_fraction(self):
        ds = _vec_dataset(np.random.default_rng(3))
        # lam = 1 takes every point in order, whatever the seed
        for seed in (0, 99):
            assert np.array_equal(subsample_indices(ds, 1.0, seed), np.arange(ds.n_r))
            assert ds.take(subsample_indices(ds, 1.0, seed)) == ds

    def test_floor_arithmetic(self):
        ds = _vec_dataset(np.random.default_rng(4), n_s=2, n_t=10)
        sub = ds.take(subsample_indices(ds, 0.25, 0))
        assert sub.n_t == 2
        assert sub.n_r == 4

    def test_deterministic(self):
        ds = _vec_dataset(np.random.default_rng(5), n_s=3, n_t=8)
        a = subsample_indices(ds, 0.5, 7)
        b = subsample_indices(ds, 0.5, 7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, subsample_indices(ds, 0.5, 8))

    def test_stratified_submultiset(self):
        rng = np.random.default_rng(6)
        ds = _vec_dataset(rng, n_s=4, n_t=6)
        for seed in range(5):
            idx = subsample_indices(ds, 0.5, seed)
            assert np.array_equal(idx, np.sort(idx))
            assert np.unique(idx).size == idx.size
            sub = ds.take(idx)
            assert sub.n_t == 3
            for s in range(ds.n_s):
                assert np.count_nonzero(sub.labels == s) == 3
            # every selected point is the original point at that index
            assert np.array_equal(sub.vectors, ds.vectors[idx])

    def test_too_small_fraction(self):
        ds = _vec_dataset(np.random.default_rng(7), n_s=2, n_t=4)
        with pytest.raises(ValueError):
            ds.take(subsample_indices(ds, 0.1, 0))

    def test_bad_fraction(self):
        ds = _vec_dataset(np.random.default_rng(8))
        for lam in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                ds.take(subsample_indices(ds, lam, 0))
