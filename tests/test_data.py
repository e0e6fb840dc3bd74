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
    UnbalancedDesignError,
    load_dataset,
    save_dataset,
    subsample_indices,
)


def _vec_dataset(rng, n_s=3, n_t=4, n_d=2):
    X = rng.normal(size=(n_s * n_t, n_d))
    labels = np.repeat(np.arange(n_s), n_t)
    return LabeledDataset.from_vectors(X, labels)


# one bad train of each kind, and the error it raises
BAD_TRAINS = {
    "2-d": ([[0.1, 0.2]], "spike trains must be one-dimensional"),
    "not a number": (["x"], "could not convert string to float"),
    "non-finite": ([0.1, np.inf], "spike times must be finite"),
    "falling": ([0.5, 0.1], "spike times must be nondecreasing"),
}


class TestResponsePoint:
    """Each response as the dataset constructor checks and stores it."""

    def test_vector_roundtrip(self):
        ds = LabeledDataset.from_vectors([[1.0, 2.0]], [0])
        assert ds.vectors[0].tolist() == [1.0, 2.0]

    def test_spike_must_be_sorted(self):
        with pytest.raises(DatasetError, match="spike times must be nondecreasing"):
            LabeledDataset.from_spike_trains([[0.5, 0.1], [0.2]], [0, 0])

    def test_values_must_be_finite(self):
        with pytest.raises(DatasetError, match="coordinates must be finite"):
            LabeledDataset.from_vectors([[np.nan, 0.0], [1.0, 2.0]], [0, 0])
        with pytest.raises(DatasetError, match="spike times must be finite"):
            LabeledDataset.from_spike_trains([[np.nan, 0.0], [0.2]], [0, 0])

    def test_bare_number_is_not_a_train(self):
        with pytest.raises(DatasetError, match="spike trains must be one-dimensional"):
            LabeledDataset.from_spike_trains([0.5, [0.2]], [0, 0])

    @pytest.mark.parametrize("first, second", [(a, b) for a in BAD_TRAINS for b in BAD_TRAINS
                                               if a != b])
    def test_first_bad_train_decides_the_message(self, first, second):
        # good trains around and between; empty ones at both ends
        trains = [[], [0.3], BAD_TRAINS[first][0], [0.1, 0.2],
                  BAD_TRAINS[second][0], [0.4], []]
        with pytest.raises(ValueError, match=BAD_TRAINS[first][1]):
            LabeledDataset.from_spike_trains(trains, [0] * 7)

    def test_non_finite_comes_before_falling_in_one_train(self):
        for train in ([0.5, 0.1, np.nan], [np.nan, 0.5, 0.1], [-np.inf, 0.5, 0.1]):
            with pytest.raises(DatasetError, match="spike times must be finite"):
                LabeledDataset.from_spike_trains([[0.2], train, [0.9, 0.1]], [0, 0, 0])

    def test_times_may_fall_from_one_train_to_the_next(self):
        trains = [[0.9], [], [0.1, 0.8], [0.2], [0.2, 0.2], [-1.0, -0.0, 0.0]]
        ds = LabeledDataset.from_spike_trains(trains, [0] * 6)
        assert [t.tolist() for t in ds.trains] == trains

    def test_empty_spike_train_ok(self):
        ds = LabeledDataset.from_spike_trains([[], [0.1]], [0, 0])
        assert ds.trains[0].size == 0

    def test_values_are_readonly(self):
        ds = LabeledDataset.from_spike_trains([[1.0, 2.0], [0.5]], [0, 0])
        with pytest.raises(ValueError):
            ds.trains[0][0] = 5.0
        with pytest.raises(ValueError):
            LabeledDataset.from_vectors([[1.0, 2.0]], [0]).vectors[0][0] = 5.0


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

    @pytest.mark.parametrize("text, error, message, line_no", [
        ("0,1.0\n1,nan\n", DatasetParseError, "non-finite value 'nan'", 2),
        ("0,1.0\n1,2.0\n1,-inf\n", DatasetParseError, "non-finite value '-inf'", 3),
        ("0,1.0\n\n1,2.0\n", DatasetParseError, "blank line", 2),
        ("0,1.0\n1,2.0\n\n", DatasetParseError, "blank line", 3),
        ("0,1.0,2.0\n1,3.0\n", MixedVariantError, "row has 1 coordinates, expected 2", 2),
        ("0,1.0\n1,2.0,3.0\n", MixedVariantError, "row has 2 coordinates, expected 1", 2),
        ("0,1.0\nx,2.0\n", DatasetParseError, "bad stimulus label 'x'", 2),
        ("0,1.0\n-1,2.0\n", DatasetParseError, "stimulus label -1 is negative", 2),
        ("0,1.0\n1\n", DatasetParseError, "expected label,x0,...", 2),
        ("0,1.0\n1,oops", DatasetParseError, "bad number 'oops'", 2),
        # a bad line comes before an unbalanced design
        ("0,1.0\n0,2.0\n1,inf\n", DatasetParseError, "non-finite value 'inf'", 3),
    ], ids=["nan", "inf", "blank", "trailing-blank", "fewer-coordinates", "more-coordinates",
            "bad-label", "negative-label", "no-coordinates", "no-final-newline",
            "before-unbalanced"])
    def test_bad_line_after_the_first(self, tmp_path, text, error, message, line_no):
        f = tmp_path / "d.csv"
        f.write_text(text)
        with pytest.raises(error) as err:
            load_dataset(f, FORMAT_CSV_VECTORS)
        assert type(err.value) is error
        assert str(err.value) == f"{f}:{line_no}: {message}"
        # a dimension mismatch names its line in the message only
        assert getattr(err.value, "line_no", line_no) == line_no

    def test_unbalanced_and_empty_files(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,1.0\n0,2.0\n1,3.0")
        with pytest.raises(UnbalancedDesignError, match="^stimulus 1 has 1 trials, expected 2$"):
            load_dataset(f, FORMAT_CSV_VECTORS)
        for text in ("", "\n"):
            f.write_text(text)
            with pytest.raises(DatasetParseError) as err:
                load_dataset(f, FORMAT_CSV_VECTORS)
            assert err.value.line_no == 1 and str(err.value).endswith(
                "empty file" if not text else "blank line")

    def test_no_final_newline(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,0.5,1.5\n1,2.5,3.5")
        ds = load_dataset(f, FORMAT_CSV_VECTORS)
        assert ds.labels.tolist() == [0, 1]
        assert ds.vectors.tolist() == [[0.5, 1.5], [2.5, 3.5]]


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

    @pytest.mark.parametrize("text, message, line_no", [
        ("0 1 0.5\n1 2 0.1 nan\n", "non-finite value 'nan'", 2),
        ("0 1 0.5\n1 0\n1 1 inf\n", "non-finite value 'inf'", 3),
        ("0 1 0.5\n\n1 0\n", "blank line", 2),
        ("0 1 0.5\n1 0\n  \n", "blank line", 3),
        ("0 1 0.5\n1 2 0.1\n", "expected 2 spike times, found 1", 2),
        ("0 1 0.5\n1 0 0.1\n", "expected 0 spike times, found 1", 2),
        ("0 1 0.5\nx 0\n", "bad stimulus label 'x'", 2),
        ("0 1 0.5\n1 x\n", "bad spike count 'x'", 2),
        ("0 1 0.5\n1 -1\n", "negative spike count -1", 2),
        ("0 1 0.5\n1\n", "expected label k t1 ... tk", 2),
        ("0 1 0.5\n1 2 0.5 0.1\n", "spike times must be ascending", 2),
        ("0 1 0.5\n1 2 0.5 0.1", "spike times must be ascending", 2),
        # a bad line comes before an unbalanced design, and the first bad line
        # before a later one
        ("0 1 0.5\n0 0\n1 2 0.5 0.1\n", "spike times must be ascending", 3),
        ("0 1 0.5\n1 2 0.9 0.1\n1 1 nan\n", "spike times must be ascending", 2),
    ], ids=["nan", "inf", "blank", "trailing-blank", "fewer-times", "more-times",
            "bad-label", "bad-count", "negative-count", "no-count", "descending",
            "no-final-newline", "before-unbalanced", "first-bad-line"])
    def test_bad_line_after_the_first(self, tmp_path, text, message, line_no):
        f = tmp_path / "d.txt"
        f.write_text(text)
        with pytest.raises(DatasetParseError) as err:
            load_dataset(f, FORMAT_SPIKE_TEXT)
        assert type(err.value) is DatasetParseError
        assert str(err.value) == f"{f}:{line_no}: {message}"
        assert err.value.line_no == line_no

    def test_unbalanced_and_empty_files(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("0 1 0.5\n0 0\n1 1 0.2")
        with pytest.raises(UnbalancedDesignError, match="^stimulus 1 has 1 trials, expected 2$"):
            load_dataset(f, FORMAT_SPIKE_TEXT)
        for text in ("", "\n"):
            f.write_text(text)
            with pytest.raises(DatasetParseError) as err:
                load_dataset(f, FORMAT_SPIKE_TEXT)
            assert err.value.line_no == 1 and str(err.value).endswith(
                "empty file" if not text else "blank line")

    def test_no_final_newline(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("0 2 0.25 0.25\n1 0\n0 0\n1 1 -0.5")
        ds = load_dataset(f, FORMAT_SPIKE_TEXT)
        assert ds.labels.tolist() == [0, 1, 0, 1]
        assert [t.tolist() for t in ds.trains] == [[0.25, 0.25], [], [], [-0.5]]


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
