"""Metric implementations against independent oracles, plus matrix invariants."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from metricmi import (
    DistanceMatrix,
    LabeledDataset,
    MetricMismatchError,
    MetricSpec,
    ResponsePoint,
    distance,
    distance_matrix,
    euclidean_distance,
    neighbor_order,
    van_rossum_distance,
    victor_purpura_distance,
)
from metricmi import metrics
from metricmi.metrics import write_distance_csv

spike_trains = st.lists(
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False), min_size=0, max_size=6
).map(sorted)


def vp_oracle(a, b, q):
    """Exhaustive minimum over all order-preserving spike matchings."""
    best = float(len(a) + len(b))
    for k in range(1, min(len(a), len(b)) + 1):
        for ia in itertools.combinations(range(len(a)), k):
            for ib in itertools.combinations(range(len(b)), k):
                shift = sum(abs(a[i] - b[j]) for i, j in zip(ia, ib))
                best = min(best, (len(a) - k) + (len(b) - k) + q * shift)
    return best


def vr_oracle(a, b, tau):
    """Numerical integration of the filtered difference on a fine grid."""
    events = list(a) + list(b)
    t_hi = (max(events) if events else 0.0) + 30.0 * tau
    t = np.linspace(0.0, t_hi, 200_001)

    def filtered(train):
        f = np.zeros_like(t)
        for ti in train:
            f += np.where(t >= ti, np.exp(-(t - ti) / tau), 0.0)
        return f

    diff = filtered(a) - filtered(b)
    return math.sqrt(trapezoid(diff * diff, t) / tau)


def canonical(a, b):
    """The two trains as arrays, the earlier by length, then spike by spike, first."""
    pair = [np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)]
    return sorted(pair, key=lambda t: (t.size, t.tolist()))


def vp_pair(a, b, q):
    """The per-pair Victor-Purpura dynamic program, one pair at a time."""
    a, b = canonical(a, b)
    n_a, n_b = a.size, b.size
    if n_a == 0 or n_b == 0:
        return float(n_a + n_b)
    offsets = np.arange(n_b + 1, dtype=np.float64)
    prev = offsets.copy()
    cur = np.empty(n_b + 1, dtype=np.float64)
    for i in range(1, n_a + 1):
        cur[0] = float(i)
        cur[1:] = np.minimum(prev[1:] + 1.0, prev[:-1] + q * np.abs(a[i - 1] - b))
        cur -= offsets
        np.minimum.accumulate(cur, out=cur)
        cur += offsets
        prev, cur = cur, prev
    return float(prev[-1])


def vr_pair(a, b, tau):
    """The closed-form van Rossum distance of one pair, each kernel sum taken alone."""
    a, b = canonical(a, b)

    def kernel_sum(x, y):
        if x.size == 0 or y.size == 0:
            return 0.0
        return float(np.sum(np.exp(-np.abs(x[:, None] - y[None, :]) / tau)))

    d2 = 0.5 * (kernel_sum(a, a) + kernel_sum(b, b) - 2.0 * kernel_sum(a, b))
    return math.sqrt(max(d2, 0.0))


SPIKE_METRICS = [
    (MetricSpec.victor_purpura(0.0), lambda a, b: vp_pair(a, b, 0.0)),
    (MetricSpec.victor_purpura(1.0), lambda a, b: vp_pair(a, b, 1.0)),
    (MetricSpec.victor_purpura(10.0), lambda a, b: vp_pair(a, b, 10.0)),
    (MetricSpec.van_rossum(0.02), lambda a, b: vr_pair(a, b, 0.02)),
]


def pairwise_matrix(trains, pair):
    n = len(trains)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = pair(trains[i], trains[j])
    return values


def assert_matrix_matches_pairs(trains):
    ds = LabeledDataset.from_spike_trains(trains, [0] * len(trains))
    for m, pair in SPIKE_METRICS:
        got = distance_matrix(ds, m).values
        assert np.array_equal(got, pairwise_matrix(ds.trains, pair)), m
        for j in {len(trains) // 2, len(trains) - 1}:
            assert distance(ds.point(0), ds.point(j), m) == got[0, j] == got[j, 0], m
            assert distance(ds.point(j), ds.point(0), m) == got[0, j], m


class TestEuclidean:
    def test_pythagoras(self):
        assert euclidean_distance([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_dimension_mismatch(self):
        with pytest.raises(MetricMismatchError):
            euclidean_distance([0.0], [1.0, 2.0])


class TestVictorPurpura:
    def test_shift_beats_delete_insert(self):
        # one spike moved by 0.2 at q=1 costs 0.2, not 2
        assert victor_purpura_distance([1.0], [1.2], 1.0) == pytest.approx(0.2, abs=1e-12)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = np.sort(rng.uniform(0, 2, rng.integers(0, 4)))
            b = np.sort(rng.uniform(0, 2, rng.integers(0, 4)))
            q = float(rng.uniform(0, 3))
            got = victor_purpura_distance(a, b, q)
            assert got == pytest.approx(vp_oracle(list(a), list(b), q), abs=1e-12)

    @given(spike_trains, spike_trains)
    def test_zero_cost_counts_spikes(self, a, b):
        assert victor_purpura_distance(a, b, 0.0) == abs(len(a) - len(b))

    @given(spike_trains, spike_trains, st.floats(0.0, 10.0))
    def test_bounded_by_total_spikes(self, a, b, q):
        assert victor_purpura_distance(a, b, q) <= len(a) + len(b) + 1e-12

    @given(spike_trains, spike_trains, st.floats(0.0, 10.0))
    def test_symmetric(self, a, b, q):
        assert victor_purpura_distance(a, b, q) == victor_purpura_distance(b, a, q)

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            trains = [np.sort(rng.uniform(0, 2, rng.integers(0, 5))) for _ in range(3)]
            q = float(rng.uniform(0, 2))
            dab = victor_purpura_distance(trains[0], trains[1], q)
            dbc = victor_purpura_distance(trains[1], trains[2], q)
            dac = victor_purpura_distance(trains[0], trains[2], q)
            assert dac <= dab + dbc + 1e-9


class TestVanRossum:
    def test_single_spike_closed_form(self):
        got = van_rossum_distance([0.0], [1.0], 1.0)
        assert got == pytest.approx(math.sqrt(1.0 - math.exp(-1.0)), abs=1e-12)

    def test_identical_trains_exactly_zero(self):
        train = [0.11, 0.52, 1.4]
        assert van_rossum_distance(train, train, 0.7) == 0.0

    def test_matches_grid_integration(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = np.sort(rng.uniform(0, 2, rng.integers(0, 4)))
            b = np.sort(rng.uniform(0, 2, rng.integers(0, 4)))
            tau = float(rng.uniform(0.3, 2.0))
            assert van_rossum_distance(a, b, tau) == pytest.approx(
                vr_oracle(a, b, tau), abs=1e-4
            )

    @given(spike_trains, spike_trains, st.floats(0.1, 5.0))
    @settings(max_examples=50)
    def test_symmetric(self, a, b, tau):
        assert van_rossum_distance(a, b, tau) == van_rossum_distance(b, a, tau)

    def test_empty_vs_single(self):
        # lone spike has squared norm 1/2 under the normalized kernel
        assert van_rossum_distance([], [3.0], 2.0) == pytest.approx(
            math.sqrt(0.5), abs=1e-12
        )


class TestMetricSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            MetricSpec("victor-purpura")  # q missing
        with pytest.raises(ValueError):
            MetricSpec.van_rossum(0.0)
        with pytest.raises(ValueError):
            MetricSpec("euclidean", q=1.0)
        with pytest.raises(ValueError):
            MetricSpec("unknown")

    @pytest.mark.parametrize("metric, a, b, param", [
        (victor_purpura_distance, [0.1], [0.3], -5.0),
        (van_rossum_distance, [0.1], [0.3], -1.0),
        (van_rossum_distance, [0.1], [0.3], 0.0),
        (victor_purpura_distance, [0.1, math.nan], [0.3], 1.0),
        (van_rossum_distance, [0.1], [math.nan], 0.5),
        (victor_purpura_distance, [0.2, 0.1], [0.3], 1.0),
        (van_rossum_distance, [0.3], [0.2, 0.1], 0.5),
    ], ids=["vp-negative-q", "vr-negative-tau", "vr-zero-tau", "vp-nan-spike",
            "vr-nan-spike", "vp-unsorted", "vr-unsorted"])
    def test_scalar_spike_distances_reject_bad_input(self, metric, a, b, param):
        with pytest.raises(ValueError):
            metric(a, b, param)

    def test_variant_mismatch(self):
        vec = ResponsePoint([1.0], "vector")
        spk = ResponsePoint([1.0], "spike")
        with pytest.raises(MetricMismatchError):
            distance(vec, spk, MetricSpec.euclidean())
        with pytest.raises(MetricMismatchError):
            distance(spk, spk, MetricSpec.euclidean())
        with pytest.raises(MetricMismatchError):
            distance(vec, vec, MetricSpec.victor_purpura(1.0))


class TestDistanceMatrix:
    def test_single_point(self):
        ds = LabeledDataset.from_vectors([[1.0]], [0])
        dm = distance_matrix(ds, MetricSpec.euclidean())
        assert dm.values.shape == (1, 1)
        assert dm.values[0, 0] == 0.0

    def test_line_layout(self):
        ds = LabeledDataset.from_vectors([[0.0], [1.0], [3.0]], [0, 1, 2])
        dm = distance_matrix(ds, MetricSpec.euclidean())
        assert dm.values[0, 1] == 1.0
        assert dm.values[0, 2] == 3.0
        assert dm.values[1, 2] == 2.0

    def test_matches_scalar_distance(self):
        rng = np.random.default_rng(14)
        ds = LabeledDataset.from_vectors(rng.normal(size=(12, 4)), [0, 1, 2] * 4)
        m = MetricSpec.euclidean()
        dm = distance_matrix(ds, m)
        for i in range(ds.n_r):
            for j in range(ds.n_r):
                assert dm.values[i, j] == distance(ds.point(i), ds.point(j), m)

    def test_metric_axioms_euclidean(self):
        rng = np.random.default_rng(15)
        ds = LabeledDataset.from_vectors(rng.normal(size=(20, 3)), [0, 1] * 10)
        dm = distance_matrix(ds, MetricSpec.euclidean()).values
        assert np.array_equal(dm, dm.T)
        assert np.all(np.diagonal(dm) == 0.0)
        assert np.all(dm >= 0)
        for i, j, k in itertools.permutations(range(6), 3):
            assert dm[i, k] <= dm[i, j] + dm[j, k] + 1e-12

    def test_spike_matrix_symmetric(self):
        rng = np.random.default_rng(16)
        trains = [np.sort(rng.uniform(0, 1, rng.integers(0, 5))) for _ in range(8)]
        ds = LabeledDataset.from_spike_trains(trains, [0, 1] * 4)
        for m in (MetricSpec.victor_purpura(2.0), MetricSpec.van_rossum(0.5)):
            dm = distance_matrix(ds, m)
            assert np.array_equal(dm.values, dm.values.T)
            assert np.all(np.diagonal(dm.values) == 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[1.0]]))  # nonzero diagonal

    def test_csv_writer_roundtrip(self, tmp_path):
        rng = np.random.default_rng(17)
        ds = LabeledDataset.from_vectors(rng.normal(size=(6, 2)), [0, 1] * 3)
        dm = distance_matrix(ds, MetricSpec.euclidean())
        path = tmp_path / "dm.csv"
        write_distance_csv(dm, path)
        back = np.array(
            [[float(v) for v in line.split(",")] for line in path.read_text().splitlines()]
        )
        assert np.array_equal(back, dm.values)

    @pytest.mark.parametrize("n_t", [30, 60])
    @pytest.mark.parametrize("m", [MetricSpec.victor_purpura(10.0), MetricSpec.van_rossum(0.02)],
                             ids=["vp", "vr"])
    def test_working_memory_is_bounded(self, n_t, m):
        # 300 or 600 trains of 10-30 Hz over 1 s: past the matrix itself, the
        # buckets of pairs hold a fixed amount, not one that grows with the pairs
        rng = np.random.default_rng(24)
        rates = np.repeat(rng.uniform(10.0, 30.0, size=10), n_t)
        trains = [np.sort(rng.uniform(0.0, 1.0, k)) for k in rng.poisson(rates)]
        ds = LabeledDataset.from_spike_trains(trains, np.repeat(np.arange(10), n_t))
        tracemalloc.start()
        try:
            distance_matrix(ds, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * ds.n_r**2 < 3 * 2**20


class TestPermutationEquivariance:
    """Permuting the points permutes the matrix, bit for bit: no entry depends on file order."""

    @pytest.mark.parametrize("m", [m for m, _ in SPIKE_METRICS],
                             ids=["vp-q0", "vp-q1", "vp-q10", "vr-tau0.02"])
    @given(st.lists(st.lists(st.integers(0, 10**6).map(lambda k: k / 1e6), max_size=8)
                    .map(sorted), min_size=1, max_size=6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_spike_trains(self, m, pool, data):
        # spike times with full mantissas; picks from the pool, with an empty
        # train in it, repeat trains
        pool = pool + [[]]
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=10))
        trains = [pool[k] for k in picks]
        perm = data.draw(st.permutations(range(len(trains))))
        ds = LabeledDataset.from_spike_trains(trains, [0] * len(trains))
        moved = LabeledDataset.from_spike_trains([trains[k] for k in perm], [0] * len(trains))
        want = distance_matrix(ds, m).values[np.ix_(perm, perm)]
        assert np.array_equal(distance_matrix(moved, m).values, want)

    @given(st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)), min_size=1,
                    max_size=10), st.data())
    @settings(max_examples=50, deadline=None)
    def test_euclidean_points(self, points, data):
        points = points + points[:2]
        perm = data.draw(st.permutations(range(len(points))))
        ds = LabeledDataset.from_vectors(points, [0] * len(points))
        moved = LabeledDataset.from_vectors([points[k] for k in perm], [0] * len(points))
        want = distance_matrix(ds, MetricSpec.euclidean()).values[np.ix_(perm, perm)]
        assert np.array_equal(distance_matrix(moved, MetricSpec.euclidean()).values, want)


class TestSpikeMatrixMatchesPairs:
    """The batched spike matrix equals every pair computed alone, bit for bit."""

    def test_random_trains_up_to_thirty_spikes(self):
        rng = np.random.default_rng(19)
        trains = [np.sort(rng.uniform(0.0, 1.0, rng.integers(0, 31))) for _ in range(24)]
        assert_matrix_matches_pairs(trains)

    def test_empty_and_duplicate_trains(self):
        rng = np.random.default_rng(20)
        trains = [np.sort(rng.uniform(0.0, 1.0, rng.integers(1, 25))) for _ in range(9)]
        trains[0] = trains[4] = trains[8] = np.array([])
        trains[6] = trains[2].copy()
        assert_matrix_matches_pairs(trains)
        ds = LabeledDataset.from_spike_trains(trains, [0] * 9)
        for m, _ in SPIKE_METRICS:
            dm = distance_matrix(ds, m).values
            assert dm[2, 6] == 0.0 and dm[6, 2] == 0.0
            assert dm[0, 4] == 0.0 and dm[4, 8] == 0.0

    def test_long_trains(self):
        # 150 x 150 exponentials exceed one van Rossum block per pair
        rng = np.random.default_rng(21)
        assert_matrix_matches_pairs([np.sort(rng.uniform(0.0, 1.0, 150)) for _ in range(3)])

    @pytest.mark.parametrize("block", [1, 8, 64, 300])
    def test_small_blocks(self, monkeypatch, block):
        # _BLOCK cells: at 1 every bucket and every vR part holds one pair; 8 to
        # 300 split buckets and vR shape groups at different lengths, and buckets
        # of 64 and 300 mix lengths of a, so the VP arrays narrow
        rng = np.random.default_rng(22)
        sizes = rng.choice([0, 1, 2, 3, 7, 40], size=17)
        trains = [np.sort(rng.uniform(0.0, 1.0, k)) for k in sizes]
        trains[5], trains[11] = trains[2].copy(), np.array([])
        monkeypatch.setattr(metrics, "_BLOCK", block)
        assert_matrix_matches_pairs(trains)

    def test_single_train(self):
        for train in ([], [0.25, 0.5]):
            ds = LabeledDataset.from_spike_trains([train], [0])
            for m, _ in SPIKE_METRICS:
                assert distance_matrix(ds, m).values.tolist() == [[0.0]]

    @given(st.lists(spike_trains, min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_matches_pairs_on_any_trains(self, trains):
        assert_matrix_matches_pairs(trains)


class TestNeighborOrder:
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=14))
    @settings(max_examples=100, deadline=None)
    def test_matrix_order_is_stable_sort_of_rows(self, x):
        # integer points on a line: duplicates and tied distances in every row
        x = np.asarray(x, dtype=np.float64)
        dm = DistanceMatrix(np.abs(x[:, None] - x[None, :]))
        order = dm.order
        assert order.dtype == np.int64 and not order.flags.writeable
        with pytest.raises(ValueError):
            order[0, 0] = 0
        assert dm.order is order
        for i in range(dm.n_r):
            want = sorted(range(dm.n_r), key=lambda j: (dm.values[i, j], j))
            assert order[i].tolist() == want
            assert np.array_equal(neighbor_order(dm, i), order[i])

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=150), st.data())
    @settings(max_examples=200, deadline=None)
    def test_order_prefix_is_the_full_orders_prefix(self, x, data):
        # integer points on a line: duplicates, and ties across the prefix
        # edge in most rows; a few calls on random ascending rows and widths,
        # then every row, which must see what the first call kept.  Rows are
        # sorted 64 at a time, so up to 150 points span three blocks
        x = np.asarray(x, dtype=np.float64)
        values = np.abs(x[:, None] - x[None, :])
        want = DistanceMatrix(values).order
        dm = DistanceMatrix(values)
        n = x.size
        for _ in range(data.draw(st.integers(1, 3))):
            rows = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            width = data.draw(st.integers(1, n))
            assert np.array_equal(dm.order_prefix(rows, width), want[rows, :width])
        width = data.draw(st.integers(1, n))
        assert np.array_equal(dm.order_prefix(np.arange(n), width), want[:, :width])

    def test_order_prefix_breaks_edge_ties_by_index(self):
        # from point 0, points 1-4 tie at distance 1 across a prefix of 3
        x = np.array([0.0, 1.0, 1.0, 1.0, 1.0] + [9.0] * 5)
        dm = DistanceMatrix(np.abs(x[:, None] - x[None, :]))
        assert dm.order_prefix(np.array([0]), 3).tolist() == [[0, 1, 2]]
        assert dm.order_prefix(np.array([0, 9]), 2).tolist() == [[0, 1], [5, 6]]

    def test_order_prefix_of_victor_purpura_at_zero_cost(self):
        # at q = 0 the distance is the spike count difference: integer ties everywhere
        rng = np.random.default_rng(19)
        trains = [np.sort(rng.uniform(0.0, 1.0, size=k)) for k in rng.poisson(6, size=150)]
        dm = distance_matrix(LabeledDataset.from_spike_trains(trains, [0, 1] * 75),
                             MetricSpec.victor_purpura(0.0))
        want = dm.order
        rows = np.arange(0, 150, 7)
        for width in range(1, 151):
            fresh = DistanceMatrix(dm.values)
            assert np.array_equal(fresh.order_prefix(rows, width), want[rows, :width])
            assert np.array_equal(fresh.order_prefix(np.arange(150), width), want[:, :width])

    def test_order_prefix_of_few_rows_across_blocks(self, matrix_sorts):
        # 70 of 600 rows, under an eighth, are sorted on their own past the
        # kept prefix, in two blocks of 64 rows
        x = np.random.default_rng(23).integers(0, 40, size=600).astype(np.float64)
        dm = DistanceMatrix(np.abs(x[:, None] - x[None, :]))
        want = DistanceMatrix(dm.values).order
        matrix_sorts.clear()
        rows = np.arange(3, 600, 8)[:70]
        assert np.array_equal(dm.order_prefix(np.arange(600), 5), want[:, :5])
        assert np.array_equal(dm.order_prefix(rows, 120), want[rows, :120])
        assert [s for s in matrix_sorts if s[1] == 120] == [(64, 120), (6, 120)]

    def test_order_prefix_memory_stays_within_a_block_of_rows(self):
        # every distance ties at 0, so every row drops all but its first ties;
        # the working arrays hold a block of rows, not the whole matrix
        n = 2000
        dm = DistanceMatrix(np.zeros((n, n)))
        tracemalloc.start()
        try:
            prefix = dm.order_prefix(np.arange(n), 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(prefix, np.tile(np.arange(10), (n, 1)))
        assert peak < 8 * n * n // 4

    def test_growing_widths_sort_every_row_at_most_twice(self, matrix_sorts):
        # a wider call on many rows reads the one full sort, never a new prefix
        x = np.random.default_rng(29).normal(size=200)
        dm = DistanceMatrix(np.abs(x[:, None] - x[None, :]))
        for width in range(1, 201):
            dm.order_prefix(np.arange(200), width)
        assert sum(rows for rows, _ in matrix_sorts) == 400
        assert [s for s in matrix_sorts if s[1] == 200] == [(200, 200)]

    def test_basic_sort(self):
        # from i: self 0, j at 2.0, k at 1.0 -> [i, k, j]
        vals = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 1.5], [1.0, 1.5, 0.0]])
        dm = DistanceMatrix(vals)
        assert neighbor_order(dm, 0).tolist() == [0, 2, 1]

    def test_tie_breaks_by_index(self):
        vals = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
        dm = DistanceMatrix(vals)
        assert neighbor_order(dm, 0).tolist() == [0, 1, 2]

    def test_duplicate_point_with_smaller_index_first(self):
        ds = LabeledDataset.from_vectors([[5.0], [1.0], [1.0]], [0, 1, 2])
        dm = distance_matrix(ds, MetricSpec.euclidean())
        assert neighbor_order(dm, 2).tolist() == [1, 2, 0]

    def test_total_order_is_reproducible(self):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(15, 2))
        X[7] = X[3]  # exact duplicate to stress ties
        ds = LabeledDataset.from_vectors(X, [0, 1, 2] * 5)
        dm = distance_matrix(ds, MetricSpec.euclidean())
        rebuilt = DistanceMatrix(dm.values.copy())
        for i in range(ds.n_r):
            assert np.array_equal(neighbor_order(dm, i), neighbor_order(rebuilt, i))

    def test_bounds(self):
        dm = DistanceMatrix(np.zeros((2, 2)))
        with pytest.raises(IndexError):
            neighbor_order(dm, 2)
