"""Subsample curves and the quadratic extrapolation in 1/n_t."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from metricmi import (
    DEFAULT_LAMBDAS,
    DistanceMatrix,
    HistogramConfig,
    KernelConfig,
    KsgConfig,
    LabeledDataset,
    MetricSpec,
    bias_corrected_mi,
    distance_matrix,
    histogram_mi,
    kernel_mi,
    ksg_mi,
    quadratic_extrapolate,
    subsample_curve,
    subsample_draws,
    subsample_indices,
)
from metricmi import derived_seed, estimators
from metricmi.estimators import bin_ids
from metricmi.toybench import DEFAULT_WIDTHS


def submatrix(dm, idx):
    """The distance matrix of the points ``idx`` alone, sorted afresh."""
    return DistanceMatrix(dm.values[np.ix_(idx, idx)])


def toy(rng, n_s=3, n_t=20, n_d=2, duplicates=False):
    X = rng.normal(size=(n_s * n_t, n_d))
    if duplicates:
        X[1] = X[0]
        X[5] = X[4]
    ds = LabeledDataset.from_vectors(X, np.repeat(np.arange(n_s), n_t))
    return ds, distance_matrix(ds, MetricSpec.euclidean())


class TestQuadraticExtrapolate:
    def test_exact_recovery(self):
        sizes = np.arange(20, 201, 20)
        curve = [(int(n), 0.5 + 1.0 / n + 2.0 / n**2) for n in sizes]
        fit = quadratic_extrapolate(curve)
        assert fit.intercept_bits == pytest.approx(0.5, abs=1e-9)
        assert fit.A_bits == pytest.approx(1.0, abs=1e-9)
        assert fit.B_bits == pytest.approx(2.0, abs=1e-9)
        assert fit.residual == pytest.approx(0.0, abs=1e-9)

    def test_random_exact_quadratics(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            i, a, b = rng.uniform(-3, 3, size=3)
            sizes = rng.choice(np.arange(2, 400), size=8, replace=False)
            curve = [(int(n), i + a / n + b / n**2) for n in sizes]
            fit = quadratic_extrapolate(curve)
            assert fit.intercept_bits == pytest.approx(i, abs=1e-9)
            assert fit.A_bits == pytest.approx(a, abs=1e-9)
            assert fit.B_bits == pytest.approx(b, abs=1e-9)
            assert fit.residual < 1e-18

    def test_constant_curve(self):
        curve = [(n, 0.75) for n in (5, 10, 20, 40)]
        fit = quadratic_extrapolate(curve)
        assert fit.intercept_bits == pytest.approx(0.75, abs=1e-9)
        assert fit.A_bits == pytest.approx(0.0, abs=1e-9)
        assert fit.B_bits == pytest.approx(0.0, abs=1e-9)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(1)
        sizes = (4, 8, 16, 32, 64)
        bits = rng.normal(size=len(sizes))
        base = quadratic_extrapolate(list(zip(sizes, bits)))
        shifted = quadratic_extrapolate(list(zip(sizes, bits + 2.5)))
        assert shifted.intercept_bits - base.intercept_bits == pytest.approx(2.5, abs=1e-9)
        assert shifted.A_bits == pytest.approx(base.A_bits, abs=1e-9)
        assert shifted.B_bits == pytest.approx(base.B_bits, abs=1e-9)

    def test_rank_deficient(self):
        with pytest.raises(ValueError):
            quadratic_extrapolate([(5, 0.1), (10, 0.2), (5, 0.1), (10, 0.3)])


class TestSubsampleCurve:
    @pytest.mark.parametrize("shape, estimator, config, lambdas", [
        ((3, 20, 2), kernel_mi, KernelConfig(n_h=20), (0.4, 0.6, 0.8, 1.0)),
        ((3, 20, 2), ksg_mi, KsgConfig(n_k=2), (0.4, 0.6, 0.8, 1.0)),
        # at h * n_r = 91.5 subsamples ask a column past the estimate's prefix
        ((10, 61, 3), kernel_mi, KernelConfig(h=0.15), (0.4, 0.6, 0.8, 1.0)),
        ((10, 60, 3), ksg_mi, KsgConfig(n_k=3), (0.4, 0.6, 0.8, 1.0)),
        ((10, 60, 3), ksg_mi, KsgConfig(n_k=3), (1.0, 0.8, 0.6, 0.4)),
    ], ids=["kernel", "ksg", "kernel-h", "ksg-600", "ksg-600-descending"])
    def test_estimate_then_curve_sorts_the_matrix_once(self, matrix_sorts, shape, estimator,
                                                       config, lambdas):
        # one prefix of every row, the few rows counts leave short, and at
        # most one full sort: no row sorted more than three times over
        ds, dm = toy(np.random.default_rng(40), *shape)
        estimator(ds, dm, config)
        bias_corrected_mi(ds, dm, config, subsample_draws(ds, lambdas, 10))
        n = ds.n_r
        assert [s for s in matrix_sorts if s[1] == n] in ([], [(n, n)])
        assert sum(rows for rows, _ in matrix_sorts) <= 3 * n

    def test_curve_then_estimate_sorts_every_row_once(self, matrix_sorts):
        # the first call, on a subsample, sorts and keeps the prefix of every row
        ds, dm = toy(np.random.default_rng(40))
        draws = subsample_draws(ds, (0.4, 0.6, 0.8, 1.0))
        bias_corrected_mi(ds, dm, KernelConfig(n_h=10), draws)
        kernel_mi(ds, dm, KernelConfig(n_h=10))
        assert sum(rows for rows, _ in matrix_sorts) <= ds.n_r + ds.n_r // 8
        assert all(width < ds.n_r for _, width in matrix_sorts)

    def test_narrow_kernel_sorts_no_full_row(self, matrix_sorts):
        # n_h = 10 < n_r / 4: every row is sorted to its first 2 * n_h columns only
        ds, dm = toy(np.random.default_rng(40))
        kernel_mi(ds, dm, KernelConfig(n_h=10))
        assert matrix_sorts == [(ds.n_r, 20)]

    def test_full_fraction_equals_direct_estimate(self):
        ds, dm = toy(np.random.default_rng(2))
        cfg = KernelConfig(n_h=ds.n_t)
        curve = subsample_curve(ds, dm, cfg, subsample_draws(ds, (1.0,), seed=3))
        assert curve == [(ds.n_t, kernel_mi(ds, dm, cfg).bits)]
        # a bandwidth fraction whose h * n_r = 91.5 is not whole
        ds, dm = toy(np.random.default_rng(2), n_s=10, n_t=61, n_d=3)
        cfg = KernelConfig(h=0.15)
        curve = subsample_curve(ds, dm, cfg, subsample_draws(ds, (0.5, 1.0), 2, 3))
        assert curve[1] == (ds.n_t, kernel_mi(ds, dm, cfg).bits)

    def test_count_bandwidth_above_the_data_is_rejected(self):
        # the curve's bandwidth check is the estimator's: n_h may not exceed n_r
        ds, dm = toy(np.random.default_rng(2), n_t=10)
        cfg = KernelConfig(n_h=100)
        draws = subsample_draws(ds, seed=3)
        msg = "^n_h = 100 exceeds the 30 data points$"
        with pytest.raises(ValueError, match=msg):
            kernel_mi(ds, dm, cfg)
        for run in (subsample_curve, bias_corrected_mi):
            with pytest.raises(ValueError, match=msg):
                run(ds, dm, cfg, draws)

    def test_rejects_fractions_below_two_trials(self):
        ds, dm = toy(np.random.default_rng(3), n_t=10)
        with pytest.raises(ValueError):
            subsample_curve(ds, dm, KernelConfig(n_h=10), subsample_draws(ds, (0.1, 0.5, 1.0)))

    def test_default_grid_keeps_fractions_with_two_trials(self):
        ds, dm = toy(np.random.default_rng(3), n_t=10)
        draws = subsample_draws(ds, seed=2)
        assert [n for n, _ in draws] == list(range(2, 11))
        explicit = subsample_draws(ds, (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0), seed=2)
        for (n, subsets), (n_x, subsets_x) in zip(draws, explicit, strict=True):
            assert n == n_x
            assert all(np.array_equal(a, b) for a, b in zip(subsets, subsets_x, strict=True))
        single = LabeledDataset.from_vectors(np.zeros((2, 1)), [0, 1])
        with pytest.raises(ValueError, match="at n_t = 1$"):
            subsample_draws(single)

    @pytest.mark.parametrize("config, fewest", [
        (KsgConfig(n_k=3), 4), (KernelConfig(n_h=5), 4), (KernelConfig(h=0.02), 5),
        (KernelConfig(n_h=20), 2), (HistogramConfig(width=0.5), 2),
    ], ids=["ksg", "n_h", "h", "n_h=n_t", "histogram"])
    def test_default_grid_keeps_fractions_the_config_evaluates(self, config, fewest):
        # n_s = 10, n_t = 20: KSG needs n_k + 1 trials, and a kernel a
        # bandwidth of one point on the subsample; the fractions kept draw as
        # if given alone, so a kernel at n_h = n_t, as in the toy benchmark,
        # keeps the plain default grid
        ds, _ = toy(np.random.default_rng(5), n_s=10, n_t=20)
        draws = subsample_draws(ds, None, 3, 2, config)
        kept = [lam for lam in DEFAULT_LAMBDAS if math.floor(lam * 20) >= fewest]
        assert [n for n, _ in draws] == [math.floor(lam * 20) for lam in kept]
        alone = subsample_draws(ds, kept, 3, 2)
        for (_, subsets), (_, subsets_alone) in zip(draws, alone, strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(subsets, subsets_alone))
        too_small = [lam for lam in DEFAULT_LAMBDAS if lam not in kept]
        if too_small:
            lam = too_small[0]
            msg = (f"fraction {lam} leaves {math.floor(lam * 20)} trials per stimulus; "
                   f"{config!r} needs at least {fewest}")
            with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
                subsample_draws(ds, (lam, 0.5, 1.0), 3, 2, config)

    def test_default_grid_on_too_few_trials_is_all_points(self):
        # where no subsample can do, all points are the grid, and the
        # estimator's own message names them
        ds, dm = toy(np.random.default_rng(5), n_s=2, n_t=3)
        draws = subsample_draws(ds, None, 3, 2, KsgConfig(n_k=3))
        assert [n for n, _ in draws] == [3]
        msg = "n_k = 3 needs at least 4 trials per stimulus, dataset has n_t = 3"
        with pytest.raises(ValueError, match=f"^{msg}$"):
            subsample_curve(ds, dm, KsgConfig(n_k=3), draws)

    @pytest.mark.parametrize("lambdas", [(0.25, 0.5, 0.75, 1.0), (0.25, 0.5, 0.75),
                                         (1.0, 0.5, 0.25)], ids=["full", "no-full", "descending"])
    @pytest.mark.parametrize("config", [KernelConfig(n_h=12), KernelConfig(h=0.15),
                                        KsgConfig(n_k=2), HistogramConfig(width=0.7)],
                             ids=["n_h", "h", "ksg", "histogram"])
    def test_raw_value_comes_from_the_curve_call(self, config, lambdas):
        ds, dm = toy(np.random.default_rng(6), n_s=3, n_t=12)
        estimator = {KernelConfig: kernel_mi, KsgConfig: ksg_mi}.get(type(config))
        direct = (estimator(ds, dm, config) if estimator else histogram_mi(ds, config)).bits
        draws = subsample_draws(ds, lambdas, 3, 7)
        fit, curve, raw = bias_corrected_mi(ds, dm, config, draws, return_raw=True)
        assert raw == direct
        # the whole dataset, when the fractions lack it, is in neither curve nor fit
        assert (fit, curve) == bias_corrected_mi(ds, dm, config, draws)
        assert [n for n, _ in curve] == [math.floor(lam * 12) for lam in lambdas]

    def test_raw_value_sorts_one_prefix_whichever_subset_comes_first(self, matrix_sorts):
        # a kernel subset reads first at the width of all points, 2 * n_h, the
        # widest any subset asks for; all points, evaluated last, read within it
        ds, dm = toy(np.random.default_rng(40), n_s=10, n_t=60, n_d=3)
        cfg = KernelConfig(n_h=25)
        for lambdas in ((0.4, 0.6, 0.8), (0.1, 0.5, 0.9), (0.9, 0.5, 0.1)):
            dm = DistanceMatrix(dm.values)
            matrix_sorts.clear()
            bias_corrected_mi(ds, dm, cfg, subsample_draws(ds, lambdas, 10), return_raw=True)
            assert sum(rows for rows, width in matrix_sorts if width == 50) == ds.n_r
            assert sum(rows for rows, width in matrix_sorts if width != 50) < ds.n_r // 8

    def test_deterministic(self):
        ds, dm = toy(np.random.default_rng(4))
        cfg = KernelConfig(n_h=ds.n_t)
        a = subsample_curve(ds, dm, cfg, subsample_draws(ds, seed=11))
        b = subsample_curve(ds, dm, cfg, subsample_draws(ds, seed=11))
        assert a == b
        assert a != subsample_curve(ds, dm, cfg, subsample_draws(ds, seed=12))

    def test_kernel_fast_path_matches_direct_estimator(self):
        # the filtered-order path must agree bit for bit with estimating on
        # the subsampled dataset directly, ties and duplicates included
        rng = np.random.default_rng(5)
        for trial in range(5):
            ds, dm = toy(rng, n_s=3, n_t=12, duplicates=True)
            cfg = KernelConfig(n_h=ds.n_t)
            for li, lam in enumerate((0.25, 0.5, 0.75)):
                curve = subsample_curve(ds, dm, cfg, subsample_draws(ds, (lam,), 3, trial))
                direct = []
                for ri in range(3):
                    idx = subsample_indices(ds, lam, derived_seed(trial, 0, ri))
                    sub = ds.take(idx)
                    sub_dm = submatrix(dm, idx)
                    n_h = (ds.n_t * sub.n_r) // ds.n_r
                    direct.append(kernel_mi(sub, sub_dm, KernelConfig(n_h=n_h)).bits)
                assert curve[0][1] == float(np.mean(np.asarray(direct)))

    def test_histogram_fast_path_matches_direct_estimator(self):
        rng = np.random.default_rng(6)
        ds, _ = toy(rng, n_s=3, n_t=12)
        cfg = HistogramConfig(width=0.8)
        for lam in (0.5, 1.0):
            curve = subsample_curve(ds, None, cfg, subsample_draws(ds, (lam,), 4, 9))
            direct = []
            if lam == 1.0:
                direct.append(histogram_mi(ds, cfg).bits)
            else:
                for ri in range(4):
                    idx = subsample_indices(ds, lam, derived_seed(9, 0, ri))
                    direct.append(histogram_mi(ds.take(idx), cfg).bits)
            assert curve[0][1] == float(np.mean(np.asarray(direct)))

    @pytest.mark.parametrize("cells", [1, 2**30], ids=["chunks-of-one", "one-chunk"])
    @pytest.mark.parametrize("repeats", [1, 5, 10])
    @pytest.mark.parametrize("n_s", [10, 1])
    def test_histogram_curve_equals_per_subset_oracle(self, monkeypatch, cells, repeats, n_s):
        # the plug-in formula on each subset's own table, empty bins dropped;
        # the batched curve must equal it bit for bit however subsets are chunked
        def oracle(ids, labels, subset):
            n_bins = int(ids.max()) + 1
            table = np.bincount(ids[subset] * n_s + labels[subset], minlength=n_bins * n_s)
            table = table.reshape(n_bins, n_s).astype(np.float64)
            table = table[table.any(axis=1)]
            joint = table / table.sum()
            p_bin, p_stim = joint.sum(axis=1), joint.sum(axis=0)
            occupied = table > 0
            ratio = joint[occupied] / (p_bin[:, None] * p_stim[None, :])[occupied]
            return float(np.sum(joint[occupied] * np.log2(ratio)))

        monkeypatch.setattr(estimators, "_CHUNK_CELLS", cells)
        ds, _ = toy(np.random.default_rng(30), n_s=n_s, n_t=20, n_d=3)
        draws = subsample_draws(ds, None, repeats, 3)
        own, shared = HistogramConfig(width=1e-6), HistogramConfig(width=1e6, origin=-5e5)
        assert bin_ids(ds.vectors, own).max() == ds.n_r - 1  # every point its own bin
        assert bin_ids(ds.vectors, shared).max() == 0  # all of them in one
        for cfg in [*(HistogramConfig(width=w) for w in DEFAULT_WIDTHS), own, shared]:
            ids = bin_ids(ds.vectors, cfg)
            want = [
                (n_t_sub, float(np.mean(np.asarray([oracle(ids, ds.labels, s) for s in subsets]))))
                for n_t_sub, subsets in draws
            ]
            assert subsample_curve(ds, None, cfg, draws) == want

    def test_histogram_curve_memory_is_bounded(self):
        # tables come a bounded chunk of subsets at a time: nearly every one of
        # 5000 points has its own bin, 50 000 cells per subset
        rng = np.random.default_rng(31)
        ds = LabeledDataset.from_vectors(rng.normal(size=(5000, 3)), np.repeat(np.arange(10), 500))
        draws = subsample_draws(ds, None, 10, 0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            subsample_curve(ds, None, HistogramConfig(width=0.02), draws)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_ksg_curve(self):
        ds, dm = toy(np.random.default_rng(7), n_s=2, n_t=10)
        cfg = KsgConfig(n_k=2)
        curve = subsample_curve(ds, dm, cfg, subsample_draws(ds, (0.5, 1.0), 2, 0))
        assert curve[1] == (10, ksg_mi(ds, dm, cfg).bits)
        assert all(math.isfinite(bits) for _, bits in curve)

    @pytest.mark.parametrize(
        "cfg",
        [KsgConfig(n_k=2)],
        ids=["rank"],
    )
    @pytest.mark.parametrize("data", ["duplicates", "integer-line"])
    def test_ksg_curve_matches_direct_estimator_below_one(self, cfg, data):
        # the table path below lam = 1 must equal estimating each subsample
        # on its own submatrix, bit for bit, through duplicates and ties
        rng = np.random.default_rng(12)
        if data == "duplicates":
            ds, dm = toy(rng, n_s=3, n_t=12, duplicates=True)
        else:
            X = rng.integers(0, 5, size=(36, 1)).astype(np.float64)
            ds = LabeledDataset.from_vectors(X, np.repeat(np.arange(3), 12))
            dm = distance_matrix(ds, MetricSpec.euclidean())
        lambdas = (0.25, 0.5, 0.75, 1.0)
        curve = subsample_curve(ds, dm, cfg, subsample_draws(ds, lambdas, 3, 4))
        for li, (lam, (_, bits)) in enumerate(zip(lambdas, curve)):
            direct = [ksg_mi(ds, dm, cfg).bits] if lam == 1.0 else [
                ksg_mi(ds.take(idx), submatrix(dm, idx), cfg).bits
                for idx in (subsample_indices(ds, lam, derived_seed(4, li, ri))
                            for ri in range(3))
            ]
            assert bits == float(np.mean(np.asarray(direct)))

    def test_ksg_curve_too_few_trials_message(self):
        # lam = 0.2 leaves 2 trials: too few for n_k = 2 without self
        ds, dm = toy(np.random.default_rng(13), n_s=2, n_t=10)
        msg = "n_k = 2 needs at least 3 trials per stimulus, dataset has n_t = 2"
        with pytest.raises(ValueError, match=f"^{msg}$"):
            subsample_curve(ds, dm, KsgConfig(n_k=2), subsample_draws(ds, (0.2, 1.0), 2))

    def test_shared_draws_give_the_same_curve(self):
        ds, dm = toy(np.random.default_rng(14), n_s=3, n_t=10)
        draws = subsample_draws(ds, (0.3, 0.6, 1.0), 4, 5)
        for cfg in (KernelConfig(n_h=10), KsgConfig(n_k=1), HistogramConfig(width=0.7)):
            own = subsample_curve(ds, dm, cfg, subsample_draws(ds, (0.3, 0.6, 1.0), 4, 5))
            assert subsample_curve(ds, dm, cfg, draws) == own

    def test_count_bandwidth_scales_exactly(self):
        # n_h = n_t on n_r = n_s * n_t must resolve to the subsample's trial
        # count even when n_t / n_r is not a dyadic float (e.g. 1/3)
        ds, dm = toy(np.random.default_rng(8), n_s=3, n_t=9)
        cfg = KernelConfig(n_h=9)
        curve = subsample_curve(ds, dm, cfg, subsample_draws(ds, (1.0,), seed=0))
        assert curve[0] == (9, kernel_mi(ds, dm, KernelConfig(n_h=9)).bits)
        lam_curve = subsample_curve(ds, dm, cfg, subsample_draws(ds, (2.0 / 3.0,), 2, 0))
        idx = subsample_indices(ds, 2.0 / 3.0, derived_seed(0, 0, 0))
        sub = ds.take(idx)
        assert sub.n_t == 6
        direct = kernel_mi(sub, submatrix(dm, idx), KernelConfig(n_h=6)).bits
        idx2 = subsample_indices(ds, 2.0 / 3.0, derived_seed(0, 0, 1))
        direct2 = kernel_mi(ds.take(idx2), submatrix(dm, idx2), KernelConfig(n_h=6)).bits
        assert lam_curve[0][1] == float(np.mean(np.asarray([direct, direct2])))

    def test_subsample_is_submultiset(self):
        ds, _ = toy(np.random.default_rng(9), n_s=4, n_t=10)
        sub = ds.take(subsample_indices(ds, 0.5, 3))
        assert sub.n_t == 5
        for s in range(4):
            assert np.count_nonzero(sub.labels == s) == 5

    def test_validation(self):
        ds, dm = toy(np.random.default_rng(10))
        with pytest.raises(ValueError):
            subsample_curve(ds, dm, KernelConfig(n_h=5), subsample_draws(ds, repeats=0))
        with pytest.raises(ValueError):
            subsample_curve(ds, dm, KernelConfig(n_h=5), subsample_draws(ds, ()))
        with pytest.raises(ValueError):
            subsample_curve(ds, None, KernelConfig(n_h=5), subsample_draws(ds))
        with pytest.raises(ValueError, match="^ksg estimation needs a distance matrix$"):
            subsample_curve(ds, None, KsgConfig(n_k=2), subsample_draws(ds))
        with pytest.raises(TypeError):
            subsample_curve(ds, dm, object(), subsample_draws(ds))
