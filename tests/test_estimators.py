"""Estimator correctness: worked examples, oracles, and structural properties."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricmi import (
    DistanceMatrix,
    HistogramConfig,
    KernelConfig,
    KsgConfig,
    LabeledDataset,
    MetricSpec,
    MixedVariantError,
    digamma,
    distance_matrix,
    histogram_mi,
    kernel_mi,
    ksg_mi,
)
from metricmi.estimators import NeighborTable, bin_ids

mpmath.mp.dps = 30


def clusters(rng, n_s, n_t, n_d=2, spread=0.01, gap=100.0):
    """Each stimulus's responses mutually nearest, far from all others."""
    X = np.concatenate(
        [rng.normal(gap * s, spread, size=(n_t, n_d)) for s in range(n_s)]
    )
    ds = LabeledDataset.from_vectors(X, np.repeat(np.arange(n_s), n_t))
    return ds, distance_matrix(ds, MetricSpec.euclidean())


def random_dataset(rng, n_s=3, n_t=5, n_d=2, duplicates=False):
    X = rng.normal(size=(n_s * n_t, n_d))
    if duplicates:
        X[1] = X[0]  # exact tie across labels
    ds = LabeledDataset.from_vectors(X, np.repeat(np.arange(n_s), n_t))
    return ds, distance_matrix(ds, MetricSpec.euclidean())


class TestDigamma:
    def test_euler_mascheroni(self):
        assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-10)

    def test_recurrence(self):
        for x in (0.5, 1.0, 2.0, 3.7, 10.0):
            assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-12)

    def test_integer_oracle(self):
        for x in range(1, 1001):
            assert abs(digamma(x) - float(mpmath.digamma(x))) <= 1e-10

    def test_real_arguments(self):
        for x in np.linspace(0.05, 50.0, 317):
            assert abs(digamma(x) - float(mpmath.digamma(x))) <= 1e-9

    def test_large_argument_approximation(self):
        # psi(x) ~= ln x - 1/(2x); at x = 100 the two agree to ~1e-5
        assert digamma(100.0) == pytest.approx(4.600161852738087, abs=1e-9)
        assert abs(digamma(100.0) - (math.log(100.0) - 0.005)) < 1e-4
        for x in range(50, 2001, 50):
            assert abs(digamma(x) - (math.log(x) - 0.5 / x)) <= 1e-4

    def test_rejects_nonpositive(self):
        for x in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                digamma(x)


def kernel_counts(dm, labels, n_h):
    """c_i of every point, from the neighbor table of the whole matrix."""
    return NeighborTable(dm, labels).kernel_counts(n_h).tolist()


def ksg_counts(dm, labels, n_k):
    """C_i of every point, from the neighbor table of the whole matrix."""
    return NeighborTable(dm, labels).ksg_counts(n_k)[0].tolist()


class TestNeighborCountC:
    def test_separated_clusters_give_full_count(self):
        ds, dm = clusters(np.random.default_rng(0), n_s=3, n_t=4)
        for n_h in range(1, 5):
            assert kernel_counts(dm, ds.labels, n_h) == [n_h] * ds.n_r

    def test_single_neighbor_is_self(self):
        ds, dm = random_dataset(np.random.default_rng(1))
        assert kernel_counts(dm, ds.labels, 1) == [1] * ds.n_r

    def test_alternating_line(self):
        # A@0, A@2, B@1, B@3: with n_h=2 every point's nearest other
        # neighbor belongs to the other stimulus, so c = 1 everywhere
        ds = LabeledDataset.from_vectors([[0.0], [2.0], [1.0], [3.0]], [0, 0, 1, 1])
        dm = distance_matrix(ds, MetricSpec.euclidean())
        assert kernel_counts(dm, ds.labels, 2) == [1] * 4

    def test_single_stimulus_sums(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(9, 2))
        ds = LabeledDataset.from_vectors(X, [0] * 9)
        dm = distance_matrix(ds, MetricSpec.euclidean())
        for n_h in (1, 4, 9):
            total = sum(kernel_counts(dm, ds.labels, n_h))
            assert total == ds.n_r * n_h

    def test_bounds_checked(self):
        # the kernel config holds the bandwidth's bounds: n_h in [1, n_r]
        ds, dm = random_dataset(np.random.default_rng(3))
        with pytest.raises(ValueError):
            KernelConfig(n_h=0)
        with pytest.raises(ValueError):
            KernelConfig(n_h=ds.n_r + 1).subset_bits(ds, dm, [np.arange(ds.n_r)])


class TestKernelMi:
    def test_separated_clusters_exact(self):
        rng = np.random.default_rng(4)
        for n_s, n_t in [(2, 4), (10, 10), (5, 3)]:
            ds, dm = clusters(rng, n_s, n_t)
            for n_h in range(1, n_t + 1):
                est = kernel_mi(ds, dm, KernelConfig(n_h=n_h))
                assert est.bits == math.log2(n_s)

    def test_single_stimulus_exact_zero(self):
        rng = np.random.default_rng(5)
        ds = LabeledDataset.from_vectors(rng.normal(size=(8, 3)), [0] * 8)
        dm = distance_matrix(ds, MetricSpec.euclidean())
        for n_h in (1, 3, 8):
            assert kernel_mi(ds, dm, KernelConfig(n_h=n_h)).bits == 0.0

    def test_alternating_line_is_zero(self):
        ds = LabeledDataset.from_vectors([[0.0], [2.0], [1.0], [3.0]], [0, 0, 1, 1])
        dm = distance_matrix(ds, MetricSpec.euclidean())
        assert kernel_mi(ds, dm, KernelConfig(n_h=2)).bits == 0.0

    def test_fraction_resolution(self):
        ds, dm = clusters(np.random.default_rng(6), n_s=2, n_t=10)
        est = kernel_mi(ds, dm, KernelConfig(h=0.35))  # floor(0.35 * 20) = 7
        assert est.config["n_h"] == 7

    def test_fraction_resolving_to_zero_rejected(self):
        ds, dm = random_dataset(np.random.default_rng(7), n_s=2, n_t=2)
        with pytest.raises(ValueError):
            kernel_mi(ds, dm, KernelConfig(h=0.2))

    def test_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n_s, n_t = int(rng.integers(2, 5)), int(rng.integers(3, 8))
            ds, dm = random_dataset(rng, n_s=n_s, n_t=n_t)
            n_h = int(rng.integers(1, n_t + 1))
            bits = kernel_mi(ds, dm, KernelConfig(n_h=n_h)).bits
            assert math.log2(n_s / n_h) - 1e-12 <= bits <= math.log2(n_s) + 1e-12

    def test_deterministic(self):
        ds, dm = random_dataset(np.random.default_rng(9), duplicates=True)
        a = kernel_mi(ds, dm, KernelConfig(n_h=4)).bits
        b = kernel_mi(ds, dm, KernelConfig(n_h=4)).bits
        assert a == b

    def test_config_validation(self):
        with pytest.raises(ValueError):
            KernelConfig()
        with pytest.raises(ValueError):
            KernelConfig(n_h=3, h=0.5)
        with pytest.raises(ValueError):
            KernelConfig(h=1.5)


class TestNeighborCountBig:
    def test_single_stimulus_gives_n_k(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(7, 2))
        ds = LabeledDataset.from_vectors(X, [0] * 7)
        dm = distance_matrix(ds, MetricSpec.euclidean())
        for n_k in (1, 3, 6):
            assert ksg_counts(dm, ds.labels, n_k) == [n_k] * 7

    def test_separated_clusters_give_n_k(self):
        ds, dm = clusters(np.random.default_rng(11), n_s=2, n_t=5)
        for n_k in (1, 2, 4):
            assert ksg_counts(dm, ds.labels, n_k) == [n_k] * ds.n_r

    def test_interleaved_line(self):
        # A@0, B@1, A@2, B@3: for A@0 the nearest other A sits at rank 2
        ds = LabeledDataset.from_vectors([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1])
        dm = distance_matrix(ds, MetricSpec.euclidean())
        assert ksg_counts(dm, ds.labels, 1)[0] == 2

    def test_count_by_rank_excludes_ties_beyond_anchor(self):
        # points at 0, 1, 1: the second point ties the anchor distance of the
        # first's nearest same-stimulus neighbor but ranks after it
        dm = DistanceMatrix(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        labels = np.array([0, 0, 1])
        assert ksg_counts(dm, labels, 1)[0] == 1

    def test_insufficient_neighbors(self):
        # n_t = 3 leaves each point 2 usable neighbors, short of n_k = 3
        ds, dm = random_dataset(np.random.default_rng(12), n_s=2, n_t=3)
        _, usable = NeighborTable(dm, ds.labels).ksg_counts(3)
        assert usable.tolist() == [2] * ds.n_r

    def test_at_least_n_k(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            ds, dm = random_dataset(rng, n_s=3, n_t=6, duplicates=True)
            assert min(ksg_counts(dm, ds.labels, 2)) >= 2


class TestKsgMi:
    def test_single_stimulus_exact_zero(self):
        rng = np.random.default_rng(14)
        ds = LabeledDataset.from_vectors(rng.normal(size=(9, 2)), [0] * 9)
        dm = distance_matrix(ds, MetricSpec.euclidean())
        for n_k in (1, 2, 5):
            assert ksg_mi(ds, dm, KsgConfig(n_k=n_k)).bits == 0.0

    def test_separated_clusters_digamma_arithmetic(self):
        ds, dm = clusters(np.random.default_rng(15), n_s=2, n_t=4)
        got = ksg_mi(ds, dm, KsgConfig(n_k=2)).bits
        want = (1 / 4 + 1 / 5 + 1 / 6 + 1 / 7) / math.log(2)
        assert got == pytest.approx(want, abs=1e-9)

    def test_n_k_must_leave_a_neighbor(self):
        ds, dm = random_dataset(np.random.default_rng(16), n_s=2, n_t=3)
        with pytest.raises(ValueError):
            ksg_mi(ds, dm, KsgConfig(n_k=3))

    def test_deterministic(self):
        ds, dm = random_dataset(np.random.default_rng(17), n_s=2, n_t=6, duplicates=True)
        assert (
            ksg_mi(ds, dm, KsgConfig(n_k=2)).bits == ksg_mi(ds, dm, KsgConfig(n_k=2)).bits
        )

    def test_matches_scalar_counts(self):
        rng = np.random.default_rng(18)
        ds, dm = random_dataset(rng, n_s=3, n_t=5, duplicates=True)
        n_k = 2
        counts = ksg_counts(dm, ds.labels, n_k)
        nats = (
            digamma(ds.n_r)
            - digamma(ds.n_t)
            - float(np.mean([digamma(c) - digamma(n_k) for c in counts]))
        )
        assert ksg_mi(ds, dm, KsgConfig(n_k=n_k)).bits == pytest.approx(
            nats / math.log(2), abs=1e-12
        )


    @pytest.mark.parametrize("n_s, n_t, n_k", [(3, 20, 3), (4, 15, 2), (5, 30, 5), (3, 8, 6)])
    def test_matches_high_precision_formula(self, n_s, n_t, n_k):
        # the same counts through a 40-digit digamma: what remains is the
        # rounding of float64 arithmetic, not of the digamma evaluation
        rng = np.random.default_rng(19)
        ds, dm = random_dataset(rng, n_s=n_s, n_t=n_t, duplicates=True)
        counts = ksg_counts(dm, ds.labels, n_k)
        with mpmath.workdps(40):
            psi = mpmath.digamma
            mean = mpmath.fsum(psi(c) - psi(n_k) for c in counts) / ds.n_r
            want = (psi(ds.n_r) - psi(n_t) - mean) / mpmath.log(2)
        assert abs(ksg_mi(ds, dm, KsgConfig(n_k=n_k)).bits - float(want)) <= 1e-14


class TestRankInvariance:
    def test_monotone_transform_leaves_estimates_unchanged(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            ds, dm = random_dataset(
                rng, n_s=int(rng.integers(2, 4)), n_t=int(rng.integers(4, 7)),
                duplicates=bool(rng.integers(0, 2)),
            )
            warped = DistanceMatrix(dm.values**3 + dm.values)
            kc, gc = KernelConfig(n_h=3), KsgConfig(n_k=2)
            assert kernel_mi(ds, dm, kc).bits == kernel_mi(ds, warped, kc).bits
            assert ksg_mi(ds, dm, gc).bits == ksg_mi(ds, warped, gc).bits


class TestHistogramMi:
    def test_everything_in_one_bin(self):
        X = np.full((8, 2), 0.3)
        ds = LabeledDataset.from_vectors(X, [0, 1] * 4)
        bits = histogram_mi(ds, HistogramConfig(width=10.0)).bits
        assert bits == pytest.approx(0.0, abs=1e-12)

    def test_each_stimulus_its_own_bin(self):
        X = np.array([[0.5], [0.5], [1.5], [1.5], [2.5], [2.5]])
        ds = LabeledDataset.from_vectors(X, [0, 0, 1, 1, 2, 2])
        bits = histogram_mi(ds, HistogramConfig(width=1.0)).bits
        assert bits == pytest.approx(math.log2(3), abs=1e-12)

    def test_known_contingency(self):
        # 2 stimuli x 4 trials in 2 bins with joint counts [[3,1],[1,3]];
        # direct plug-in evaluation gives the expected value
        X = np.array([[0.1]] * 3 + [[1.1]] + [[0.1]] + [[1.1]] * 3)
        ds = LabeledDataset.from_vectors(X, [0] * 4 + [1] * 4)
        got = histogram_mi(ds, HistogramConfig(width=1.0)).bits
        want = 0.0
        for n_bs, p_b, p_s in [(3, 0.5, 0.5), (1, 0.5, 0.5), (1, 0.5, 0.5), (3, 0.5, 0.5)]:
            p_joint = n_bs / 8
            want += p_joint * math.log2(p_joint / (p_b * p_s))
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.18872187554086717, abs=1e-12)

    def test_origin_anchors_bins(self):
        # stimuli separated only by sign: anchored at 0 the boundary splits
        # them perfectly; anchored at -0.5 both land in one bin
        X = np.array([[-0.4], [-0.3], [0.3], [0.4]])
        ds = LabeledDataset.from_vectors(X, [0, 0, 1, 1])
        split = histogram_mi(ds, HistogramConfig(width=1.0)).bits
        merged = histogram_mi(ds, HistogramConfig(width=1.0, origin=-0.5)).bits
        assert split == pytest.approx(1.0, abs=1e-12)
        assert merged == pytest.approx(0.0, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            n_s = int(rng.integers(2, 5))
            ds, _ = random_dataset(rng, n_s=n_s, n_t=5)
            bits = histogram_mi(ds, HistogramConfig(width=float(rng.uniform(0.3, 3)))).bits
            assert -1e-12 <= bits <= math.log2(n_s) + 1e-12

    def test_requires_vectors(self):
        ds = LabeledDataset.from_spike_trains([[0.1], [0.2]], [0, 1])
        with pytest.raises(MixedVariantError):
            histogram_mi(ds, HistogramConfig(width=1.0))

    def test_cell_index_outside_int64_rejected(self):
        # 1e30/1e-300 overflows to inf and 5/1e-300 exceeds int64; a cast
        # would put all four points in one bin and report 0 bits, not 1
        ds = LabeledDataset.from_vectors([[1e30], [2e30], [5.0], [6.0]], [0, 0, 1, 1])
        with pytest.raises(ValueError, match="int64"):
            histogram_mi(ds, HistogramConfig(width=1e-300))
        ds = LabeledDataset.from_vectors([[0.0], [0.0], [1e10], [1e10]], [0, 0, 1, 1])
        with pytest.raises(ValueError, match="int64"):
            histogram_mi(ds, HistogramConfig(width=1e-10))

    def test_cell_index_near_int64_limits_kept(self):
        X = [[-9e18], [-9e18], [9e18], [9e18]]
        ds = LabeledDataset.from_vectors(X, [0, 0, 1, 1])
        assert histogram_mi(ds, HistogramConfig(width=1.0)).bits == 1.0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_bin_ids_equal_the_unique_inverse(self, data):
        # np.unique's inverse over the int64 cells is the oracle: duplicate
        # points, negative cells and cells near the int64 limits
        n_d = data.draw(st.integers(1, 4))
        width = data.draw(st.sampled_from([0.5, 1.0, 3.0]))
        value = st.one_of(
            st.floats(-5.0, 5.0),
            st.integers(-2**53, 2**53).map(float),
            st.sampled_from([-9.2e18, -9e18, 9e18, 9.2e18]).map(lambda cell: cell * width),
        )
        pool = data.draw(st.lists(st.lists(value, min_size=n_d, max_size=n_d),
                                  min_size=1, max_size=6))
        X = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20)))
        config = HistogramConfig(width=width)
        cells = np.floor(X / config.width).astype(np.int64)
        _, inverse = np.unique(cells, axis=0, return_inverse=True)
        assert np.array_equal(bin_ids(X, config), inverse.reshape(-1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HistogramConfig(width=0.0)
        with pytest.raises(ValueError):
            HistogramConfig(width=1.0, origin=math.inf)


class TestIndependenceNull:
    def test_identical_response_distributions_estimate_near_zero(self):
        # all sources coincide, so responses carry no stimulus information;
        # the raw kernel estimate must sit within sampling noise of zero
        rng = np.random.default_rng(21)
        n_s, n_t = 5, 200
        X = rng.normal(0.0, 0.7, size=(n_s * n_t, 3))
        ds = LabeledDataset.from_vectors(X, np.repeat(np.arange(n_s), n_t))
        dm = distance_matrix(ds, MetricSpec.euclidean())
        bits = kernel_mi(ds, dm, KernelConfig(n_h=n_t)).bits
        assert abs(bits) < 0.1


def fresh_kernel_counts(values, labels, n_h):
    """Oracle: c_i from a fresh stable sort of every row of ``values``."""
    order = np.argsort(values, axis=1, kind="stable")
    return np.count_nonzero(labels[order[:, :n_h]] == labels[:, None], axis=1)


def fresh_ksg_count(values, labels, k, n_k):
    """Oracle: C_k from a fresh stable sort of row k; None when too few neighbors."""
    order = np.argsort(values[k], kind="stable")
    usable = (labels[order] == labels[k]) & (order != k)
    if np.count_nonzero(usable) < n_k:
        return None
    anchor = np.flatnonzero(usable)[n_k - 1]
    return int(np.count_nonzero(order[: anchor + 1] != k))


def line_matrix(x):
    """|x_i - x_j| for points on a line: integer points give exact ties."""
    x = np.asarray(x, dtype=np.float64)
    return DistanceMatrix(np.abs(x[:, None] - x[None, :]))


def record_widths(monkeypatch):
    """Prefix widths the table reads, one entry per pass over its rows."""
    widths = []
    original = NeighborTable._count

    def spy(self, subset, need, width, count):
        def recorded(points, cols, member):
            widths.append(cols.shape[1])
            return count(points, cols, member)

        return original(self, subset, need, width, recorded)

    monkeypatch.setattr(NeighborTable, "_count", spy)
    return widths


@st.composite
def tied_tables(draw):
    """Integer points on a short line (duplicates, tied distances), labels, a subset."""
    n = draw(st.integers(2, 14))
    x = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    chosen = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    return line_matrix(x), labels, np.flatnonzero(chosen)


class TestNeighborTable:
    @given(tied_tables(), st.integers(1, 14))
    @settings(max_examples=200, deadline=None)
    def test_kernel_counts_match_fresh_sort_of_submatrix(self, case, n_h):
        dm, labels, subset = case
        n_h = min(n_h, subset.size)
        table = NeighborTable(dm, labels)
        sub = dm.values[np.ix_(subset, subset)]
        want = fresh_kernel_counts(sub, labels[subset], n_h)
        assert np.array_equal(table.kernel_counts(n_h, subset), want)
        full = fresh_kernel_counts(dm.values, labels, n_h)
        assert np.array_equal(table.kernel_counts(n_h), full)

    @given(tied_tables(), st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_ksg_counts_match_fresh_sort_of_submatrix(self, case, n_k):
        dm, labels, subset = case
        sub, sub_labels = dm.values[np.ix_(subset, subset)], labels[subset]
        want = [fresh_ksg_count(sub, sub_labels, k, n_k) for k in range(subset.size)]
        got, usable = NeighborTable(dm, labels).ksg_counts(n_k, subset)
        # a point short of usable neighbors reports how many it has
        for k, count in enumerate(want):
            if count is None:
                same = np.count_nonzero(sub_labels == sub_labels[k])
                assert usable[k] == same - 1 < n_k
            else:
                assert usable[k] >= n_k and got[k] == count

    def test_kernel_prefix_widens_for_members_far_down_the_row(self, monkeypatch):
        # points 0..59 on a line; point 0's nearest members sit at 50..59, past
        # the first prefix of ceil(2 * n_h * 60 / 12) = 30 columns
        widths = record_widths(monkeypatch)
        dm = line_matrix(np.arange(60))
        labels = np.arange(60) % 2
        subset = np.concatenate([[0, 1], np.arange(50, 60)])
        got = NeighborTable(dm, labels).kernel_counts(3, subset)
        sub = dm.values[np.ix_(subset, subset)]
        assert np.array_equal(got, fresh_kernel_counts(sub, labels[subset], 3))
        assert widths == [30, 60]

    def test_ksg_prefix_widens_for_same_stimulus_far_down_the_row(self, monkeypatch):
        # stimulus 0 at 0, 100, ..., 400 and stimulus 1 packed at 1..5: point
        # 0's nearest same-stimulus neighbor ranks sixth, past the first
        # prefix of 2 * n_k * n_s = 4 columns
        widths = record_widths(monkeypatch)
        x = [0, 100, 200, 300, 400, 1, 2, 3, 4, 5]
        ds = LabeledDataset.from_vectors(np.array(x, float)[:, None], [0] * 5 + [1] * 5)
        dm = distance_matrix(ds, MetricSpec.euclidean())
        got, _ = NeighborTable(dm, ds.labels).ksg_counts(1)
        want = [fresh_ksg_count(dm.values, ds.labels, k, 1) for k in range(10)]
        assert got.tolist() == want
        assert got[0] == 6 and widths[:2] == [4, 8]

    def test_labels_must_match_the_matrix(self):
        # too few, too many and 2-d labels name both shapes, not a bad index
        dm = line_matrix(np.arange(6))
        for labels in (np.zeros(5, int), np.zeros(7, int), np.zeros((6, 1), int)):
            msg = re.escape(f"labels of shape {labels.shape} do not match the 6x6 ")
            with pytest.raises(ValueError, match=f"^{msg}"):
                NeighborTable(dm, labels)

    def test_short_rows_elsewhere_do_not_stop_a_count(self):
        # stimulus 1 has one point, so it has no usable neighbor for n_k = 1;
        # point 0's count does not depend on it
        dm = line_matrix([0, 1, 2])
        assert ksg_counts(dm, np.array([0, 0, 1]), 1)[0] == 1

    def test_too_few_trials_message(self):
        ds, dm = random_dataset(np.random.default_rng(16), n_s=2, n_t=3)
        msg = "n_k = 3 needs at least 4 trials per stimulus, dataset has n_t = 3"
        with pytest.raises(ValueError, match=f"^{msg}$"):
            ksg_mi(ds, dm, KsgConfig(n_k=3))
