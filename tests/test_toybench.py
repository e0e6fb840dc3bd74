"""Toy generator, ground-truth oracles, and the benchmark harness."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

from metricmi import (
    DEFAULT_LAMBDAS,
    BenchmarkProtocol,
    HistogramConfig,
    KernelConfig,
    MetricSpec,
    ToySpec,
    chi_density,
    derived_seed,
    distance_matrix,
    generate_toy,
    histogram_mi,
    kernel_mi,
    run_benchmark,
    true_mi,
    truth_bounds,
)
from metricmi import toybench
from metricmi.bias import usable_lambdas
from metricmi.cli import main
from conftest import same_dataset


def quadrature_mi_1d(sources, sigma2):
    """Independent fine-grid oracle for 1-d mixtures: direct integration."""
    sources = np.asarray(sources, dtype=np.float64).ravel()
    n_s = sources.size
    sigma = math.sqrt(sigma2)

    def pdf(r, mu):
        return math.exp(-((r - mu) ** 2) / (2 * sigma2)) / (sigma * math.sqrt(2 * math.pi))

    def integrand(r, mu):
        p_cond = pdf(r, mu)
        p_marg = sum(pdf(r, m) for m in sources) / n_s
        if p_cond == 0.0 or p_marg == 0.0:
            return 0.0
        return p_cond * math.log2(p_cond / p_marg)

    total = 0.0
    for mu in sources:
        val, _ = quad(integrand, mu - 12 * sigma, mu + 12 * sigma, args=(mu,), limit=400)
        total += val / n_s
    return total


def scipy_true_mi(sources, sigma2, mc_samples, seed):
    """true_mi as written before its log-mixture left scipy: the bitwise oracle."""
    sources = np.asarray(sources, dtype=np.float64)
    n_s = sources.shape[0]
    rng = np.random.default_rng(seed)
    which = rng.integers(0, n_s, size=mc_samples)
    responses = sources[which] + math.sqrt(sigma2) * rng.standard_normal(
        (mc_samples, sources.shape[1])
    )
    loglik = -cdist(responses, sources, "sqeuclidean") / (2.0 * sigma2)
    log_mixture = logsumexp(loglik, axis=1) - math.log(n_s)
    picked = loglik[np.arange(mc_samples), which]
    return float(np.mean(picked - log_mixture)) / math.log(2.0)


def rng_model(seed, n_s, n_d, sigma2=None):
    """The model stream as numpy's Generator draws it: (sources, sigma2)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    sources = rng.uniform(-0.5, 0.5, size=(n_s, n_d))
    return sources, float(rng.uniform(0.0, 1.0)) if sigma2 is None else sigma2


def cdist_bounds(sources, sigma2):
    """The closed-form truth bounds from one scipy cdist: the oracle of truth_bounds."""
    if sigma2 < toybench.SIGMA2_DEGENERATE:
        return math.log2(len(sources)), math.log2(len(sources))
    sq = cdist(sources, sources, "sqeuclidean")

    def bound(scale):
        return -float(np.mean(np.log(np.mean(np.exp(sq / -scale), axis=1)))) / math.log(2.0)

    return bound(8.0 * sigma2), bound(2.0 * sigma2)


def per_candidate_probing(protocol, seed, mc_samples):
    """(attempts, [(cand_seed, sigma2, true_bits)], truths) of pruning one candidate at a time.

    Each candidate is drawn, bounded and decided on its own, from the oracles
    above: the reference for run_benchmark's probing a block at a time.
    """
    log2ns = math.log2(protocol.n_s)
    per_bin = protocol.dataset_count // 10
    bins = [0] * 10
    max_attempts = toybench._ATTEMPT_FACTOR * protocol.dataset_count
    stall_limit = toybench._STALL_FACTOR * protocol.dataset_count
    give_up = min(max_attempts, stall_limit)
    margin = toybench._SCREEN_MARGIN / math.sqrt(mc_samples)
    accepted, attempts, truths = [], 0, 0
    while len(accepted) < protocol.dataset_count and attempts < give_up:
        idx = attempts
        attempts += 1
        full = [n >= per_bin for n in bins]
        cand_seed = derived_seed(seed, idx, 0)
        sources, sigma2 = rng_model(cand_seed, protocol.n_s, protocol.n_d)
        if any(full):
            lo, hi = cdist_bounds(sources, sigma2)
            reach = range(toybench._prune_bin(lo - margin, log2ns),
                          toybench._prune_bin(hi + margin, log2ns) + 1)
            if all(full[b] for b in reach):
                continue
        truths += 1
        tm = true_mi(sources, sigma2, mc_samples, derived_seed(seed, idx, 1))
        which_bin = toybench._prune_bin(tm, log2ns)
        if bins[which_bin] >= per_bin:
            continue
        bins[which_bin] += 1
        accepted.append((cand_seed, sigma2, tm))
        give_up = min(max_attempts, attempts + stall_limit)
    return attempts, accepted, truths


def count_truths(monkeypatch) -> list:
    """Wrap toybench.true_mi; the returned list grows by one per call."""
    calls, real = [], toybench.true_mi

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(toybench, "true_mi", counting)
    return calls


def run_counting(protocol, screen: bool, **options):
    """run_benchmark and the list of its true_mi calls, with or without the screen.

    Without it every lane's bounds read (-inf, inf): every bin is in reach,
    and a candidate is screened only when all bins are full, which ends probing.
    """
    with pytest.MonkeyPatch.context() as mp:
        calls = count_truths(mp)
        if not screen:
            mp.setattr(toybench, "_bounds_block", lambda sources, sigma2: (
                np.full(len(sigma2), -math.inf), np.full(len(sigma2), math.inf)))
        return run_benchmark(protocol, **options), calls


def same_result(a, b) -> bool:
    return a.records == b.records and a.summary == b.summary


class TestToySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ToySpec(1, 3, 10)
        with pytest.raises(ValueError):
            ToySpec(2, 0, 10)
        with pytest.raises(ValueError):
            ToySpec(2, 3, 1)
        with pytest.raises(ValueError):
            ToySpec(2, 3, 10, sigma2=1.5)


class TestGenerateToy:
    def test_shapes_and_balance(self):
        ds, sources, sigma2 = generate_toy(ToySpec(4, 3, 7, seed=1))
        assert (ds.n_s, ds.n_t, ds.n_r, ds.n_d) == (4, 7, 28, 3)
        assert sources.shape == (4, 3)
        assert 0.0 <= sigma2 <= 1.0
        assert ds.labels.tolist() == sorted(ds.labels.tolist())

    def test_sources_inside_unit_box(self):
        for seed in range(20):
            _, sources, _ = generate_toy(ToySpec(8, 5, 2, seed=seed))
            assert np.all(sources >= -0.5) and np.all(sources <= 0.5)

    def test_deterministic(self):
        a, sa, s2a = generate_toy(ToySpec(3, 2, 5, seed=9))
        b, sb, s2b = generate_toy(ToySpec(3, 2, 5, seed=9))
        assert same_dataset(a, b)
        assert np.array_equal(sa, sb) and s2a == s2b
        c, _, _ = generate_toy(ToySpec(3, 2, 5, seed=10))
        assert not same_dataset(a, c)

    def test_pinned_sigma2_reproduces_drawn_dataset(self):
        # a recorded (seed, sigma2) pair regenerates the identical dataset
        drawn, _, sigma2 = generate_toy(ToySpec(3, 2, 5, seed=4))
        pinned, _, _ = generate_toy(ToySpec(3, 2, 5, sigma2=sigma2, seed=4))
        assert same_dataset(drawn, pinned)

    def test_model_draw_matches_generator(self):
        # truth probes draw only the model stream, which must be generate_toy's
        for seed in (0, 1, 7, 123):
            for pinned in (None, 0.25):
                spec = ToySpec(6, 3, 4, sigma2=pinned, seed=seed)
                _, sources, sigma2 = generate_toy(spec)
                drawn_sources, drawn_sigma2 = toybench._draw_model(spec)
                assert np.array_equal(drawn_sources, sources) and drawn_sigma2 == sigma2

    def test_near_zero_variance_gives_separated_clusters(self):
        ds, _, _ = generate_toy(ToySpec(5, 3, 6, sigma2=1e-12, seed=2))
        dm = distance_matrix(ds, MetricSpec.euclidean())
        assert kernel_mi(ds, dm, KernelConfig(n_h=6)).bits == math.log2(5)

    def test_noise_scale(self):
        # responses concentrate around their sources at the requested spread
        ds, sources, _ = generate_toy(ToySpec(2, 4, 500, sigma2=0.04, seed=3))
        spread = ds.vectors - sources[ds.labels]
        assert np.std(spread) == pytest.approx(0.2, rel=0.1)


class TestTrueMi:
    def test_degenerate_variance_is_analytic(self):
        sources = np.zeros((8, 3))
        assert true_mi(sources, 0.0) == math.log2(8)
        assert true_mi(sources, 5e-11) == math.log2(8)

    def test_identical_sources_near_zero(self):
        sources = np.tile([0.25, -0.1], (6, 1))
        assert abs(true_mi(sources, 0.3, 4000, seed=0)) < 1e-9

    def test_quadrature_oracle_two_sources(self):
        sources = np.array([[-0.25], [0.25]])
        for sigma2 in (0.01, 0.0625, 0.25, 1.0):
            mc = true_mi(sources, sigma2, 10_000, seed=0)
            oracle = quadrature_mi_1d(sources, sigma2)
            assert abs(mc - oracle) <= 0.02

    def test_bounded_by_stimulus_entropy(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n_s = int(rng.integers(2, 8))
            sources = rng.uniform(-0.5, 0.5, size=(n_s, 3))
            mi = true_mi(sources, float(rng.uniform(0.01, 1.0)), 2000, seed=1)
            assert mi <= math.log2(n_s) + 1e-12

    def test_error_shrinks_with_sample_count(self):
        sources = np.array([[-0.3], [0.3]])
        reference = quadrature_mi_1d(sources, 0.09)

        def spread(mc_samples):
            vals = [true_mi(sources, 0.09, mc_samples, seed=s) for s in range(24)]
            return float(np.std(np.asarray(vals) - reference))

        small, large = spread(500), spread(8000)
        # fourfold sample count should shave the standard error by about half
        assert large < 0.6 * small

    @pytest.mark.parametrize(
        "sources, sigma2",
        [(np.random.default_rng(1).uniform(-0.5, 0.5, (1, 3)), 0.4),
         (np.random.default_rng(2).uniform(-0.5, 0.5, (2, 1)), 0.07),
         (np.random.default_rng(3).uniform(-0.5, 0.5, (10, 3)), 0.6),
         (np.random.default_rng(4).uniform(-0.5, 0.5, (10, 10)), 0.02),
         # every source twice: each row max is reached by two entries (m = 2)
         (np.repeat(np.random.default_rng(5).uniform(-0.5, 0.5, (5, 2)), 2, axis=0), 0.3),
         # just above SIGMA2_DEGENERATE: log-likelihoods near -1e9
         (np.random.default_rng(6).uniform(-0.5, 0.5, (10, 3)), 1e-9)]
        # numpy's pairwise row sum adds fewer than 8 terms in turn, 8 to 128
        # in 8 running sums, and more by halves: a sum in another order than
        # scipy's shows up from 8 stimuli on
        + [(np.random.default_rng(n_s).uniform(-0.5, 0.5, (n_s, 3)), 0.05)
           for n_s in (7, 8, 9, 16, 17, 40, 128, 129, 300)],
        ids=["ns1", "ns2", "ns10", "ns10-nd10", "tied-max", "sigma2-1e-9"]
        + [f"ns{n_s}" for n_s in (7, 8, 9, 16, 17, 40, 128, 129, 300)],
    )
    def test_matches_scipy_logsumexp_bitwise(self, sources, sigma2):
        for mc_samples in (2000, toybench.DEFAULT_MC_SAMPLES):
            for seed in (0, 11):
                assert true_mi(sources, sigma2, mc_samples, seed) == scipy_true_mi(
                    sources, sigma2, mc_samples, seed
                )
            # the mean absorbs most last-bit changes of one sample's log-mixture,
            # so compare those too, against scipy on a sample-major array
            responses = np.random.default_rng(mc_samples).uniform(
                -1.0, 1.0, (mc_samples, sources.shape[1])
            )
            loglik = -cdist(sources, responses, "sqeuclidean") / (2.0 * sigma2)
            assert np.array_equal(
                toybench._logsumexp_columns(loglik),
                logsumexp(np.ascontiguousarray(loglik.T), axis=1),
            )

    def test_leaves_sources_unmodified(self):
        sources = np.random.default_rng(7).uniform(-0.5, 0.5, (10, 3))
        kept = sources.copy()
        true_mi(sources, 0.3, 2000, seed=1)
        assert np.array_equal(sources, kept)

    def test_validation(self):
        with pytest.raises(ValueError):
            true_mi(np.zeros((2, 2)), -0.1)
        with pytest.raises(ValueError):
            true_mi(np.zeros((2, 2)), 0.5, mc_samples=0)
        with pytest.raises(ValueError):
            true_mi(np.zeros(3), 0.5)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="sources must be finite"):
                true_mi(np.array([[0.0, bad], [0.1, 0.2]]), 0.5)
            with pytest.raises(ValueError, match="sigma2 must be finite"):
                true_mi(np.zeros((2, 2)), bad)


class TestTruthBounds:
    # 5 x 0.014 bits, the largest standard error of a 10 000-sample truth
    # measured over the toy models (ROADMAP)
    TOL = 0.07

    def test_bracket_monte_carlo_truth(self):
        rng = np.random.default_rng(26)
        for n_d in range(1, 11):
            for n_s in (2, 3, 10):
                sources = rng.uniform(-0.5, 0.5, (n_s, n_d))
                sigma2 = 1.0 - float(rng.uniform(0.0, 1.0))  # in (0, 1]
                lo, hi = truth_bounds(sources, sigma2)
                assert 0.0 <= lo <= hi <= math.log2(n_s) + 1e-12
                mc = true_mi(sources, sigma2, 10_000, seed=n_d)
                assert lo - self.TOL <= mc <= hi + self.TOL, (n_d, n_s, sigma2)

    def test_bracket_quadrature_truth(self):
        # the 1-d oracle has no sampling error: the bounds hold to its precision
        for offset, sigma2 in [(0.25, 0.0625), (0.25, 0.01), (0.25, 0.25),
                               (0.4, 0.04), (0.1, 1.0)]:
            sources = np.array([[-offset], [offset]])
            lo, hi = truth_bounds(sources, sigma2)
            assert lo - 1e-7 <= quadrature_mi_1d(sources, sigma2) <= hi + 1e-7

    def test_validation(self):
        # the model checks of true_mi
        with pytest.raises(ValueError, match="sigma2 must be finite"):
            truth_bounds(np.zeros((2, 2)), -0.1)
        with pytest.raises(ValueError, match="sigma2 must be finite"):
            truth_bounds(np.zeros((2, 2)), math.nan)
        with pytest.raises(ValueError, match="sigma2 must be finite"):
            truth_bounds(np.zeros((2, 2)), math.inf)
        with pytest.raises(ValueError, match="sources must be finite"):
            truth_bounds(np.array([[0.0, math.nan], [0.1, 0.2]]), 0.5)
        with pytest.raises(ValueError, match="sources must be finite"):
            truth_bounds(np.array([[0.0, math.inf], [0.1, 0.2]]), 0.5)
        with pytest.raises(ValueError, match=r"\(n_s, n_d\) array"):
            truth_bounds(np.zeros(3), 0.5)

    def test_limits_are_exact(self):
        assert truth_bounds(np.tile([0.25, -0.1, 0.4], (6, 1)), 0.3) == (0.0, 0.0)
        sources = np.random.default_rng(3).uniform(-0.5, 0.5, (10, 3))
        for sigma2 in (0.0, 5e-11):
            assert truth_bounds(sources, sigma2) == (math.log2(10), math.log2(10))


class TestCandidateBlock:
    """Pruning candidates drawn and bounded a block at a time, lane for lane."""

    @pytest.mark.parametrize("pinned", [None, 0.25])
    def test_model_draw_matches_numpy_generator(self, pinned):
        # seeds of one, two, three and five SeedSequence words
        for seed in [0, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3]:
            sources, sigma2 = toybench._draw_model(ToySpec(7, 4, 2, sigma2=pinned, seed=seed))
            want_sources, want_sigma2 = rng_model(seed, 7, 4, pinned)
            assert np.array_equal(sources, want_sources) and sigma2 == want_sigma2, seed

    def test_one_model_bounds_match_cdist(self):
        # the distances add dimension by dimension, bitwise cdist's sum
        rng = np.random.default_rng(29)
        for n_d in range(1, 41):
            for n_s in (2, 3, 10, 40):
                for sigma2 in rng.uniform(0.0, 1.0, 8).tolist() + [1e-9, 5e-11]:
                    sources = rng.uniform(-0.5, 0.5, (n_s, n_d))
                    assert truth_bounds(sources, sigma2) == cdist_bounds(sources, sigma2), (
                        n_s, n_d, sigma2)

    @pytest.mark.parametrize("n_d", [1, 3, 8, 10, 40])
    @pytest.mark.parametrize("n_s", [2, 10, 40])
    def test_lanes_are_lone_candidates(self, n_s, n_d):
        protocol = BenchmarkProtocol(n_s=n_s, n_d=n_d, n_t=10, dataset_count=10)
        for seed, start in ((3, 0), (2**64 + 5, 2**32 - 10)):
            block = toybench._candidate_block(protocol, seed, start, start + 20)
            assert len(block) == 20
            for idx, (cand_seed, truth_seed, sources, sigma2, lo, hi) in enumerate(block, start):
                spec = toybench._candidate_spec(protocol, seed, idx)
                assert cand_seed == spec.seed and truth_seed == derived_seed(seed, idx, 1)
                for want_sources, want_sigma2 in (toybench._draw_model(spec),
                                                  rng_model(spec.seed, n_s, n_d)):
                    assert np.array_equal(sources, want_sources) and sigma2 == want_sigma2
                assert (lo, hi) == truth_bounds(want_sources, want_sigma2)
                assert (lo, hi) == cdist_bounds(want_sources, want_sigma2)

    def test_degenerate_lanes_read_stimulus_entropy(self):
        sources = np.random.default_rng(4).uniform(-0.5, 0.5, (5, 10, 3))
        sigma2 = np.array([0.3, 0.0, 5e-11, 1e-10, 0.9])
        lo, hi = toybench._bounds_block(sources, sigma2)
        for lane, s2 in enumerate(sigma2.tolist()):
            want = (math.log2(10),) * 2 if s2 < toybench.SIGMA2_DEGENERATE else (
                cdist_bounds(sources[lane], s2))
            assert (lo[lane], hi[lane]) == want, s2


class TestChiDensity:
    def test_one_dimension_is_half_normal(self):
        sigma = 0.4
        for d in (0.0, 0.1, 0.5, 1.3):
            half_normal = math.sqrt(2 / math.pi) / sigma * math.exp(-d * d / (2 * sigma**2))
            assert chi_density(d, 1, sigma) == pytest.approx(half_normal, rel=1e-12)

    def test_matches_scipy_chi(self):
        xs = np.linspace(0.0, 3.0, 50)
        for n_d in (1, 2, 3, 10):
            for sigma in (0.2, 1.0):
                mine = chi_density(xs, n_d, sigma)
                ref = stats.chi.pdf(xs, df=n_d, scale=sigma)
                assert np.allclose(mine, ref, rtol=1e-10, atol=1e-12)

    def test_integrates_to_one(self):
        for n_d in (1, 2, 3, 10):
            for sigma in (0.25, 0.8):
                val, _ = quad(lambda d: chi_density(d, n_d, sigma), 0.0, np.inf)
                assert val == pytest.approx(1.0, abs=1e-6)

    def test_mode_location(self):
        for n_d in (2, 3, 10):
            sigma = 0.6
            xs = np.linspace(1e-6, 5.0, 200_001)
            dens = chi_density(xs, n_d, sigma)
            mode = xs[int(np.argmax(dens))]
            assert mode == pytest.approx(sigma * math.sqrt(n_d - 1), abs=1e-3)

    def test_empirical_distances_fit(self):
        ds, sources, _ = generate_toy(ToySpec(5, 3, 400, sigma2=0.09, seed=8))
        dists = np.linalg.norm(ds.vectors - sources[ds.labels], axis=1)
        result = stats.kstest(dists, lambda x: stats.chi.cdf(x, df=3, scale=0.3))
        assert result.pvalue > 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            chi_density(0.5, 3, 0.0)
        with pytest.raises(ValueError):
            chi_density(-0.5, 3, 1.0)
        with pytest.raises(ValueError):
            chi_density(0.5, 0, 1.0)


@pytest.fixture(scope="module")
def small_run():
    protocol = BenchmarkProtocol(n_s=4, n_d=2, n_t=12, dataset_count=20)
    return run_benchmark(protocol, seed=5, mc_samples=2000, max_workers=2)


class TestRunBenchmark:
    def test_record_count_and_finiteness(self, small_run):
        assert len(small_run.records) == 20
        for r in small_run.records:
            for v in (r.true_bits, r.kernel_bits, r.hist_bits):
                assert math.isfinite(v)
            assert 0.0 <= r.true_bits <= math.log2(4)
            assert 0.0 <= r.sigma2 <= 1.0

    def test_pruned_bins_uniform(self, small_run):
        # by construction every tenth of [0, 1] holds dataset_count/10 sets
        us = [r.true_bits / math.log2(4) for r in small_run.records]
        counts = np.bincount([min(9, max(0, math.floor(u * 10))) for u in us], minlength=10)
        assert counts.tolist() == [2] * 10

    def test_summary_contents(self, small_run):
        s = small_run.summary
        assert s["accepted"] == 20 and s["shortfall"] == 0
        assert s["hist_width"] in s["widths"]
        for key in ("mean_abs_err_kernel", "mean_abs_err_histogram"):
            assert math.isfinite(s[key])

    def test_dataset_seed_regenerates(self, small_run):
        r = small_run.records[3]
        _, _, sigma2 = generate_toy(ToySpec(4, 2, 12, None, r.seed))
        assert sigma2 == r.sigma2

    def test_unpruned_accepts_everything(self):
        protocol = BenchmarkProtocol(n_s=3, n_d=2, n_t=10, dataset_count=6, prune=False)
        res = run_benchmark(protocol, seed=1, mc_samples=1000, max_workers=1)
        assert res.summary["attempts"] == 6
        assert len(res.records) == 6

    def test_truths_per_attempt_independent_of_workers(self):
        # probing runs in this process whatever the worker count: unscreened,
        # one truth per attempt; the screen skips some, same result
        protocol = BenchmarkProtocol(n_s=4, n_d=2, n_t=10, dataset_count=10)
        counts = set()
        for workers in (1, 2):
            options = dict(seed=3, widths=(1.0,), repeats=2, mc_samples=500,
                           max_workers=workers)
            res, calls = run_counting(protocol, False, **options)
            assert res.summary["shortfall"] == 0
            assert len(calls) == res.summary["attempts"] > 10
            screened, screened_calls = run_counting(protocol, True, **options)
            assert same_result(screened, res)
            assert len(screened_calls) < len(calls)
            counts.add((len(calls), len(screened_calls)))
        assert len(counts) == 1

    def test_unreachable_bin_stops_early(self):
        # at n_s=10, n_d=10 no sigma2 <= 1 brings normalized MI below 0.1, so
        # bin 0 never fills; probing gives up 200 x dataset_count attempts
        # after the last acceptance instead of running to the 10 000 cap
        protocol = BenchmarkProtocol(n_s=10, n_d=10, n_t=10, dataset_count=10)
        options = dict(seed=0, widths=(1.0,), repeats=2, mc_samples=500, max_workers=1)
        with pytest.warns(UserWarning, match="filled only 9 of 10"):
            res, calls = run_counting(protocol, False, **options)
        s = res.summary
        assert s["accepted"] == 9 and s["shortfall"] == 1
        us = [r.true_bits / math.log2(10) for r in res.records]
        counts = np.bincount([min(9, math.floor(u * 10)) for u in us], minlength=10)
        assert counts.tolist() == [0] + [1] * 9
        last = next(
            i for i in range(s["attempts"]) if derived_seed(0, i, 0) == res.records[-1].seed
        )
        assert s["attempts"] == last + 1 + 200 * protocol.dataset_count < 10_000
        assert len(calls) == s["attempts"]
        with pytest.warns(UserWarning, match="filled only 9 of 10"):
            screened, screened_calls = run_counting(protocol, True, **options)
        assert same_result(screened, res)
        assert len(screened_calls) < len(calls)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shape, seed", [((10, 10, 10), 0), ((4, 2, 10), 3)],
                             ids=["stalled", "filled"])
    def test_blocks_decide_as_one_candidate_at_a_time(self, monkeypatch, shape, seed, workers):
        # the stalled run stops at its give-up count, the filled one with
        # drawn candidates of its last block left over; both as a reference
        # that draws, bounds and decides one candidate at a time, and as
        # blocks of one and of seven candidates; each candidate is screened
        # against the live bins, so every run computes the reference's truths
        protocol = BenchmarkProtocol(*shape, dataset_count=10)
        options = dict(seed=seed, widths=(1.0,), repeats=2, mc_samples=500, max_workers=workers)
        attempts, accepted, truths = per_candidate_probing(protocol, seed, 500)
        results = []
        for block in (toybench._PROBE_BLOCK, 1, 7):
            monkeypatch.setattr(toybench, "_PROBE_BLOCK", block)
            with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
                warnings.simplefilter("ignore")
                calls = count_truths(mp)
                results.append(run_benchmark(protocol, **options))
            assert len(calls) == truths < attempts, block
        res = results[0]
        assert res.summary["attempts"] == attempts
        assert [(r.seed, r.sigma2, r.true_bits) for r in res.records] == accepted
        assert all(same_result(other, res) for other in results[1:])
        if shape == (10, 10, 10):
            assert res.summary["shortfall"] == 1
        else:
            assert res.summary["shortfall"] == 0 and attempts % toybench._PROBE_BLOCK != 0

    @pytest.mark.parametrize("n_s", [3, 10, 40])
    @pytest.mark.parametrize("mc_samples", [1, 10, 50, 500, 2000])
    def test_screen_changes_no_decision(self, mc_samples, n_s):
        # the screen's margin shrinks as 1/sqrt(mc_samples) while the noise of
        # a truth grows: at every sample count the screened and unscreened
        # runs accept the same candidates
        protocol = BenchmarkProtocol(n_s=n_s, n_d=2, n_t=10, dataset_count=10)
        for seed, workers in ((0, 1), (1, 1), (2, 2)):
            options = dict(seed=seed, widths=(1.0,), repeats=1, mc_samples=mc_samples,
                           max_workers=workers)
            screened, _ = run_counting(protocol, True, **options)
            unscreened, _ = run_counting(protocol, False, **options)
            assert same_result(screened, unscreened), (seed, workers)

    def test_raw_values_are_the_plain_estimates(self):
        # each raw value is its curve's point at n_t: the estimator on all points
        protocol = BenchmarkProtocol(n_s=4, n_d=2, n_t=12, dataset_count=10)
        lambdas = usable_lambdas(DEFAULT_LAMBDAS, protocol.n_t)
        out = toybench._evaluate_candidate(protocol, toybench.DEFAULT_WIDTHS, lambdas, 2, 5, 3)
        ds, _, _ = generate_toy(toybench._candidate_spec(protocol, 5, 3))
        dm = distance_matrix(ds, MetricSpec.euclidean())
        assert out["kernel_raw_bits"] == kernel_mi(ds, dm, KernelConfig(n_h=12)).bits
        assert out["hist_raw_bits"] == [histogram_mi(ds, HistogramConfig(width=w)).bits
                                        for w in toybench.DEFAULT_WIDTHS]

    def test_prune_needs_divisible_count(self):
        with pytest.raises(ValueError):
            BenchmarkProtocol(n_s=3, n_d=2, n_t=10, dataset_count=7)

    @pytest.mark.parametrize(
        "options, flags, msg",
        [({"widths": (0.0, 1.0)}, ["--widths", "0,1"], "bin width must be finite and positive"),
         ({"repeats": 0}, ["--repeats", "0"], "repeats must be >= 1"),
         ({"mc_samples": 0}, ["--mc-samples", "0"], "mc_samples must be >= 1")],
        ids=["width", "repeats", "mc_samples"],
    )
    def test_bad_options_fail_before_probing(
        self, monkeypatch, capsys, tmp_path, options, flags, msg
    ):
        def probe(*args):
            raise AssertionError("probed a candidate despite a bad option")

        monkeypatch.setattr(toybench, "_candidate_block", probe)
        protocol = BenchmarkProtocol(n_s=10, n_d=10, n_t=20, dataset_count=10)
        with pytest.raises(ValueError, match=msg):
            run_benchmark(protocol, **{"mc_samples": 2000, "max_workers": 1, **options})
        code = main(["benchmark", "--ns", "10", "--nd", "10", "--nt", "20", "--datasets",
                     "10", "--threads", "1", "--mc-samples", "2000", *flags, "-o", str(tmp_path)])
        assert code == 1 and msg in capsys.readouterr().err

    def test_output_file_fails_before_probing(self, monkeypatch, capsys, tmp_path):
        def probe(*args):
            raise AssertionError("probed a candidate despite an unusable -o")

        monkeypatch.setattr(toybench, "_candidate_block", probe)
        out = tmp_path / "taken"
        out.write_text("")
        code = main(["benchmark", "--ns", "3", "--nd", "2", "--nt", "10", "--datasets",
                     "10", "--threads", "1", "-o", str(out)])
        assert code == 1 and "File exists" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "max_workers, datasets, cpus, pool",
        [(5000, 10, 2, 10), (None, 10, 4, 4), (None, 10, None, None), (1, 10, 4, None),
         (4, 1, 4, None), (3, 10, 64, 3)],
    )
    def test_pool_sized_to_the_work(self, monkeypatch, max_workers, datasets, cpus, pool):
        # a stand-in pool records its size and evaluates in this process
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(toybench, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        protocol = BenchmarkProtocol(n_s=3, n_d=2, n_t=10, dataset_count=datasets, prune=False)
        res = run_benchmark(protocol, seed=1, widths=(1.0,), repeats=1, mc_samples=50,
                            max_workers=max_workers)
        assert len(res.records) == datasets
        assert sizes == ([] if pool is None else [pool])

    def test_lambda_grid_validation(self, capsys, tmp_path):
        # n_t = 3 leaves the default fractions 2 or 3 trials per stimulus
        protocol = BenchmarkProtocol(n_s=3, n_d=2, n_t=3, dataset_count=6, prune=False)
        msg = "fewer than 3 usable subsample sizes"
        with pytest.raises(ValueError, match=msg):
            run_benchmark(protocol, mc_samples=500)
        code = main(["benchmark", "--ns", "3", "--nd", "2", "--nt", "3", "--datasets", "6",
                     "--no-prune", "--mc-samples", "500", "-o", str(tmp_path)])
        assert code == 1 and msg in capsys.readouterr().err
