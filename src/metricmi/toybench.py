"""Toy-data benchmark: generator, ground truth, and estimator comparison.

Datasets are drawn from a known generative model (uniform sources in a unit
box, isotropic Gaussian responses) so the true mutual information can be
computed by Monte-Carlo to any desired accuracy.  The benchmark generates
many datasets, optionally pruned so true MI covers [0, log2 n_s] evenly,
runs the bias-corrected kernel estimator against the histogram baseline at
its best bin width, and reports mean absolute errors.

Reproducibility: all randomness flows through numpy's PCG64 generator keyed
by SeedSequence entropy tuples (base_seed, dataset_index, purpose), so every
number is independent of scheduling and worker count.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .bias import DEFAULT_LAMBDAS, DEFAULT_REPEATS, bias_corrected_mi
from .bias import subsample_draws, usable_lambdas
from .data import LabeledDataset, check_draw_memory, derived_seed, format_float
from .data import _at_state, _derived_seeds, _pcg64_states
from .estimators import HistogramConfig, KernelConfig
# unused here; perfbench's tracer wraps these names (ROADMAP item 5)
from .estimators import histogram_mi, kernel_mi
from .metrics import MetricSpec, distance_matrix

_LN2 = math.log(2.0)

DEFAULT_MC_SAMPLES = 10_000
DEFAULT_WIDTHS = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0)

# below this the generative model is treated as noiseless and the true MI
# is the stimulus entropy, log2(n_s), exactly
SIGMA2_DEGENERATE = 1e-10

_PRUNE_BINS = 10
_ATTEMPT_FACTOR = 1000
# a pruned run gives up once this many times dataset_count consecutive
# candidates have all been rejected; see run_benchmark
_STALL_FACTOR = 200
# the truth screen widens a candidate's bounds by this / sqrt(mc_samples)
# bits.  A few-sample truth strays below its bounds with a heavy tail: at 4.5
# a truth fell in a pruning bin outside the widened bounds 6 times in 180 000
# probes of random models at 1-20 samples, at 9 never (README)
_SCREEN_MARGIN = 9.0
# pruning candidates are drawn and bounded this many at a time (fastest of
# 32-256 on toy-benchmark), fewer where their distances or sources pass
# _BLOCK_CELLS
_PROBE_BLOCK = 64
_BLOCK_CELLS = 2**17


@dataclass(frozen=True)
class ToySpec:
    """Generator parameters; ``sigma2=None`` draws the variance from U[0, 1]."""

    n_s: int
    n_d: int
    n_t: int
    sigma2: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_s < 2:
            raise ValueError(f"need n_s >= 2 stimuli, got {self.n_s}")
        if self.n_d < 1:
            raise ValueError(f"need n_d >= 1 dimensions, got {self.n_d}")
        if self.n_t < 2:
            raise ValueError(f"need n_t >= 2 trials, got {self.n_t}")
        if self.sigma2 is not None and not 0.0 <= self.sigma2 <= 1.0:
            raise ValueError(f"sigma2 must lie in [0, 1], got {self.sigma2}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


def _toy_models(raw: np.ndarray, n_s: int, n_d: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, n_s, n_d) sources and (B,) sigma2 from the first raw words of B model streams.

    ``uniform(lo, hi)`` is lo + (hi - lo) * (raw >> 11) * 2**-53 of the
    stream's next raw word; the sources come first, then sigma2.
    """
    u = (raw >> 11) * 2.0**-53
    return (u[:, :-1] - 0.5).reshape(-1, n_s, n_d), u[:, -1]


def _draw_model(spec: ToySpec) -> tuple[np.ndarray, float]:
    """The model stream of ``generate_toy``: (sources, sigma2), no points.

    One stream is seeded by numpy's own SeedSequence: a fifth of the
    vectorized hash's time on a single seed.
    """
    stream = np.random.PCG64(np.random.SeedSequence([spec.seed, 0]))
    sources, sigma2 = _toy_models(stream.random_raw((1, spec.n_s * spec.n_d + 1)),
                                  spec.n_s, spec.n_d)
    return sources[0], float(sigma2[0]) if spec.sigma2 is None else spec.sigma2


def generate_toy(spec: ToySpec) -> tuple[LabeledDataset, np.ndarray, float]:
    """Draw a toy dataset: returns (dataset, sources, sigma2).

    Sources are uniform in the box [-0.5, 0.5]^n_d; each response component
    is Normal(source component, sigma2); n_t responses per source, grouped
    by stimulus in point order.  Bit-identical for a fixed seed.  The model
    stream draws sources before sigma2, so a recorded (seed, sigma2) pair
    regenerates the identical dataset whether or not sigma2 is pinned.
    """
    sources, sigma2 = _draw_model(spec)
    rng_points = np.random.default_rng(np.random.SeedSequence([spec.seed, 1]))
    noise = rng_points.standard_normal((spec.n_s, spec.n_t, spec.n_d))
    points = (sources[:, None, :] + math.sqrt(sigma2) * noise).reshape(
        spec.n_s * spec.n_t, spec.n_d
    )
    labels = np.repeat(np.arange(spec.n_s), spec.n_t)
    return LabeledDataset.from_vectors(points, labels), sources, sigma2


def _logsumexp_columns(a: np.ndarray) -> np.ndarray:
    # scipy.special.logsumexp(a.T, axis=1) (scipy 1.17.1) step for step, so
    # bitwise equal for finite a, without its array-API dispatch: entries at
    # the column max are counted as m and left out of the sum s, which is
    # then scaled by 1/m.  a is (n_s, M) with n_s small, so every step runs
    # along rows of M but the sum, which must add each column in scipy's
    # order: numpy's pairwise sum over the column copied to a contiguous row
    a_max = a.max(axis=0)
    at_max = a == a_max
    m = at_max.sum(axis=0, dtype=np.float64)
    e = a - a_max
    np.putmask(e, at_max, -np.inf)
    np.exp(e, out=e)
    s = np.ascontiguousarray(e.T).sum(axis=1)
    s /= m  # scipy divides only where s != 0; 0 / m is 0 too, as m >= 1
    return np.log1p(s) + np.log(m) + a_max


def _checked_model(sources, sigma2: float) -> np.ndarray:
    """``sources`` as a float64 (n_s, n_d) array, once the model is checked."""
    sources = np.asarray(sources, dtype=np.float64)
    if sources.ndim != 2 or sources.shape[0] < 1:
        raise ValueError("sources must be a (n_s, n_d) array")
    if not np.all(np.isfinite(sources)):
        raise ValueError("sources must be finite")
    if not (math.isfinite(sigma2) and sigma2 >= 0):
        raise ValueError(f"sigma2 must be finite and nonnegative, got {sigma2}")
    return sources


def true_mi(
    sources, sigma2: float, mc_samples: int = DEFAULT_MC_SAMPLES, seed: int = 0
) -> float:
    """Ground-truth MI of the toy model in bits, by Monte-Carlo.

    Draws (stimulus, response) pairs from the generative model and averages
    log2 of the likelihood ratio between the isotropic Gaussian conditional
    density and the uniform mixture over sources.  For sigma2 below
    ``SIGMA2_DEGENERATE`` the densities degenerate and log2(n_s) is returned
    analytically.
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    sources = _checked_model(sources, sigma2)
    n_s = sources.shape[0]
    if sigma2 < SIGMA2_DEGENERATE:
        return math.log2(n_s)
    rng = np.random.default_rng(seed)
    which = rng.integers(0, n_s, size=mc_samples)
    responses = rng.standard_normal((mc_samples, sources.shape[1]))
    responses *= math.sqrt(sigma2)
    responses += sources.take(which, axis=0)
    # stimulus-major, (n_s, M); the shared Gaussian normalization cancels
    # between numerator and mixture
    loglik = cdist(sources, responses, "sqeuclidean")
    loglik /= -2.0 * sigma2
    log_mixture = _logsumexp_columns(loglik) - math.log(n_s)
    picked = loglik[which, np.arange(mc_samples)]
    return float(np.mean(picked - log_mixture)) / _LN2


def truth_bounds(sources, sigma2: float) -> tuple[float, float]:
    """Closed-form (lower, upper) bounds in bits on the toy model's true MI.

    The responses are an equal-weight mixture of N(source, sigma2 I), whose
    MI with the stimulus lies between pairwise-divergence bounds (Kolchinsky
    & Tracey, Entropy 19:361, 2017): -mean_i log2 mean_j exp(-D_ij) with D
    the Bhattacharyya distance |s_i - s_j|^2 / 8 sigma2 gives the lower
    bound, and with the Kullback-Leibler divergence |s_i - s_j|^2 / 2 sigma2
    the upper.  Below ``SIGMA2_DEGENERATE`` both are log2(n_s), as in
    ``true_mi``.
    """
    sources = _checked_model(sources, sigma2)
    lo, hi = _bounds_block(sources[None], np.array([sigma2], dtype=np.float64))
    return float(lo[0]), float(hi[0])


def _bounds_block(sources: np.ndarray, sigma2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``truth_bounds`` of every lane: (B,) lower and upper bounds of (B, n_s, n_d) sources."""
    n_s = sources.shape[1]
    degenerate = sigma2 < SIGMA2_DEGENERATE
    sigma2 = np.where(degenerate, 1.0, sigma2)[:, None, None]
    # dimensions added one at a time, as cdist's "sqeuclidean" adds them, so
    # every lane's distances are bitwise cdist's
    sq = np.zeros((len(sources), n_s, n_s))
    for k in range(sources.shape[2]):
        diff = sources[:, :, None, k] - sources[:, None, :, k]
        sq += diff * diff

    def bound(scale):
        # means along the last, contiguous axis add each lane as a lone model's
        return -np.log(np.exp(sq / -scale).mean(axis=2)).mean(axis=1) / _LN2

    full = math.log2(n_s)
    return tuple(np.where(degenerate, full, bound(c * sigma2)) for c in (8.0, 2.0))


def chi_density(dist, n_d: int, sigma: float):
    """Density of the source-to-response distance |r - s| for the toy model.

    The distance of an n_d-dimensional isotropic Gaussian from its center,
    scaled by sigma; includes the 1/sigma Jacobian so it integrates to one
    over distance.  For n_d = 1 this is the half-normal density; for
    n_d >= 2 the mode sits at sigma * sqrt(n_d - 1).
    """
    if sigma <= 0 or not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    if n_d < 1:
        raise ValueError(f"need n_d >= 1, got {n_d}")
    d = np.asarray(dist, dtype=np.float64)
    if np.any(d < 0):
        raise ValueError("distances must be nonnegative")
    z = d / sigma
    coef = 2.0 ** (1.0 - 0.5 * n_d) / math.gamma(0.5 * n_d)
    out = coef * z ** (n_d - 1) * np.exp(-0.5 * z * z) / sigma
    return float(out) if np.isscalar(dist) else out


@dataclass(frozen=True)
class BenchmarkProtocol:
    """Shape of one benchmark run."""

    n_s: int
    n_d: int
    n_t: int
    dataset_count: int
    prune: bool = True

    def __post_init__(self):
        ToySpec(self.n_s, self.n_d, self.n_t)  # reuse the generator's checks
        if self.dataset_count < 1:
            raise ValueError("dataset_count must be >= 1")
        if self.prune and self.dataset_count % _PRUNE_BINS != 0:
            raise ValueError(
                f"pruned runs need dataset_count divisible by {_PRUNE_BINS}, "
                f"got {self.dataset_count}"
            )


@dataclass(frozen=True)
class DatasetRecord:
    """Per-dataset outcome; ``seed`` regenerates the dataset via the generator."""

    seed: int
    sigma2: float
    true_bits: float
    kernel_bits: float
    kernel_raw_bits: float
    hist_bits: float
    hist_raw_bits: float


@dataclass
class BenchmarkResult:
    protocol: BenchmarkProtocol
    seed: int
    hist_width: float
    records: list[DatasetRecord]
    summary: dict = field(default_factory=dict)


def _candidate_spec(protocol: BenchmarkProtocol, seed: int, idx: int) -> ToySpec:
    """Generator parameters of candidate ``idx`` of a run with base ``seed``."""
    cand_seed = derived_seed(seed, idx, 0)
    return ToySpec(protocol.n_s, protocol.n_d, protocol.n_t, None, cand_seed)


def _prune_bin(bits: float, log2ns: float) -> int:
    """Pruning bin of a true MI: its tenth of [0, log2 n_s], the ends clamped."""
    # clamped before the floor, so an infinite bound falls in an end bin
    return math.floor(min(max(bits / log2ns * _PRUNE_BINS, 0.0), _PRUNE_BINS - 1))


def _candidate_block(protocol: BenchmarkProtocol, seed: int, start: int, stop: int) -> list:
    """(cand_seed, truth_seed, sources, sigma2, lower, upper) of attempts start..stop-1.

    Attempt idx draws the model of ``_candidate_spec(protocol, seed, idx)``
    and its truth with seed ``derived_seed(seed, idx, 1)``.
    """
    idx = np.arange(start, stop, dtype=np.uint64)
    purpose = np.repeat(np.arange(2, dtype=np.uint64), idx.size)
    cand_seeds, truth_seeds = np.split(_derived_seeds(seed, np.tile(idx, 2), purpose), 2)
    # a model stream is SeedSequence([cand_seed, 0]), two words: a derived seed is one
    states = _pcg64_states(np.stack([cand_seeds, np.zeros_like(cand_seeds)]), 2)
    bitgen = np.random.PCG64(0)
    raw = np.array([_at_state(bitgen, state).random_raw(protocol.n_s * protocol.n_d + 1)
                    for state in states])
    sources, sigma2 = _toy_models(raw, protocol.n_s, protocol.n_d)
    lo, hi = _bounds_block(sources, sigma2)
    return list(zip(cand_seeds.tolist(), truth_seeds.tolist(), sources, sigma2.tolist(),
                    lo.tolist(), hi.tolist()))


def _evaluate_candidate(protocol, widths, lambdas, repeats, seed, idx) -> dict:
    ds, _, _ = generate_toy(_candidate_spec(protocol, seed, idx))
    dm = distance_matrix(ds, MetricSpec.euclidean())
    kdraws = subsample_draws(ds, lambdas, repeats, derived_seed(seed, idx, 2))
    kfit, _, kernel_raw = bias_corrected_mi(ds, dm, KernelConfig(n_h=protocol.n_t), kdraws)
    # every width is evaluated on the same subsamples, drawn once
    hist_draws = subsample_draws(ds, lambdas, repeats, derived_seed(seed, idx, 3))
    hist_corrected, hist_raw = [], []
    for width in widths:
        hfit, _, raw = bias_corrected_mi(ds, None, HistogramConfig(width=width), hist_draws)
        hist_corrected.append(hfit.intercept_bits)
        hist_raw.append(raw)
    return {
        "kernel_bits": kfit.intercept_bits,
        "kernel_raw_bits": kernel_raw,
        "hist_bits": hist_corrected,
        "hist_raw_bits": hist_raw,
    }


def run_benchmark(
    protocol: BenchmarkProtocol,
    seed: int = 0,
    *,
    widths=DEFAULT_WIDTHS,
    repeats: int = DEFAULT_REPEATS,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    max_workers: int | None = None,
) -> BenchmarkResult:
    """Generate datasets, compare estimators against the truth, aggregate errors.

    The kernel estimator uses bandwidth n_h = n_t and is always
    bias-corrected; the histogram baseline is bias-corrected the same way and
    swept over ``widths``, reporting the width that minimizes its mean
    absolute error for this protocol.  Both curves use the fractions of
    ``DEFAULT_LAMBDAS`` that leave 2 trials per stimulus, 1 among them; fewer
    than 3 distinct subsample sizes are an error.  With pruning enabled,
    candidate datasets are drawn until each tenth of the normalized true-MI
    range [0, 1] holds dataset_count/10 of them.  Probing gives up once 200x
    dataset_count consecutive candidates have all been rejected, and in any
    case after 1000x dataset_count attempts.  A bin that stays short that
    long is in practice out of the model's reach (normalized MI < 0.1 needs
    more noise than sigma2 <= 1 gives at n_s=10, n_d=10), and probing on
    would only run into the cap.  A shortfall is warned about and reported
    in the summary.  The window is far longer than the waits between
    acceptances in runs that fill every bin, so those runs, and their
    ``attempts``, are unchanged by it.

    Once a bin is full, a candidate whose ``truth_bounds``, widened by
    9 / sqrt(mc_samples) bits, meet only full bins is rejected without its
    Monte-Carlo truth; it still counts as an attempt.  Accepted candidates
    get their truth as unscreened, so unless a truth would have fallen in an
    open bin beyond the widened bounds (``_SCREEN_MARGIN``), the screen
    changes only how many truths are computed: at most ``attempts``.

    Probing runs in the calling process.  One vectorized pass draws the
    seeds, models and bounds of 64 candidates (fewer at large n_s or n_d);
    each is then decided in index order against the live bins, so blocks
    change no decision.  A pruned run's last block draws up to 63 candidates
    past its last attempt; an unpruned run draws none.  Up to
    ``max_workers`` processes (default: all cores, never more than the
    accepted datasets) evaluate the estimators.  The result is independent
    of ``max_workers``: every dataset consumes only its own derived
    substreams and results are merged in dataset order.
    """
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    # building each width's config rejects a bad one before any probing
    widths = tuple(HistogramConfig(width=float(w)).width for w in widths)
    if not widths:
        raise ValueError("need at least one histogram width")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    lambdas = usable_lambdas(DEFAULT_LAMBDAS, protocol.n_t)
    sizes = [math.floor(lam * protocol.n_t) for lam in lambdas]
    if len(set(sizes)) < 3:
        raise ValueError("lambda grid leaves fewer than 3 usable subsample sizes")
    check_draw_memory(protocol.n_s, protocol.n_t, sizes, repeats)

    if max_workers is not None and max_workers < 1:
        raise ValueError("max_workers must be >= 1")

    # candidates are drawn a block at a time, then probed one at a time in
    # index order, each against the bins as the candidates before it left them
    log2ns = math.log2(protocol.n_s)
    margin = _SCREEN_MARGIN / math.sqrt(mc_samples)
    cells = protocol.n_s * max(protocol.n_s, protocol.n_d)  # a lane's distances or sources
    lanes = max(1, min(_PROBE_BLOCK, _BLOCK_CELLS // cells))
    per_bin = protocol.dataset_count // _PRUNE_BINS
    bins = [0] * _PRUNE_BINS
    max_attempts = _ATTEMPT_FACTOR * protocol.dataset_count
    stall_limit = _STALL_FACTOR * protocol.dataset_count
    give_up = min(max_attempts, stall_limit)  # attempt count at which probing stops
    accepted = []  # (attempt index, cand_seed, sigma2, true_bits)
    attempts = 0
    block, first = [], 0  # the drawn candidates of attempts first, first + 1, ...
    while len(accepted) < protocol.dataset_count and attempts < give_up:
        idx = attempts
        attempts += 1
        if idx == first + len(block):
            # an unpruned run accepts every candidate: it draws none it will not use
            need = give_up - idx if protocol.prune else protocol.dataset_count - len(accepted)
            first, block = idx, _candidate_block(protocol, seed, idx, idx + min(lanes, need))
        cand_seed, truth_seed, sources, sigma2, lo, hi = block[idx - first]
        if protocol.prune and any(n >= per_bin for n in bins):
            reach = range(_prune_bin(lo - margin, log2ns), _prune_bin(hi + margin, log2ns) + 1)
            if all(bins[b] >= per_bin for b in reach):
                continue  # screened: pruning must reject it
        tm = true_mi(sources, sigma2, mc_samples, truth_seed)
        if protocol.prune:
            which_bin = _prune_bin(tm, log2ns)
            if bins[which_bin] >= per_bin:
                continue
            bins[which_bin] += 1
        accepted.append((idx, cand_seed, sigma2, tm))
        give_up = min(max_attempts, attempts + stall_limit)
    shortfall = protocol.dataset_count - len(accepted)
    if shortfall > 0:
        warnings.warn(
            f"pruning filled only {len(accepted)} of {protocol.dataset_count} "
            f"datasets after {attempts} attempts"
        )

    evaluate = functools.partial(_evaluate_candidate, protocol, widths, lambdas, repeats, seed)
    indices = [idx for idx, _, _, _ in accepted]
    # a pool starts all its workers at its first map, so it gets no more
    # than there are datasets
    workers = min(max_workers or os.cpu_count() or 1, len(indices))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(evaluate, indices))
    else:
        outcomes = list(map(evaluate, indices))

    truths = np.array([t for _, _, _, t in accepted])
    if outcomes:
        hist_matrix = np.array([o["hist_bits"] for o in outcomes])  # (n, widths)
        width_errors = np.mean(np.abs(hist_matrix - truths[:, None]), axis=0)
        best = int(np.argmin(width_errors))
    else:
        best = 0
    hist_width = widths[best]

    records = []
    for (idx, cand_seed, sigma2, tm), outcome in zip(accepted, outcomes):
        records.append(
            DatasetRecord(
                seed=cand_seed,
                sigma2=sigma2,
                true_bits=tm,
                kernel_bits=outcome["kernel_bits"],
                kernel_raw_bits=outcome["kernel_raw_bits"],
                hist_bits=outcome["hist_bits"][best],
                hist_raw_bits=outcome["hist_raw_bits"][best],
            )
        )

    def _mean_abs_err(values):
        if not records:
            return None
        return float(np.mean(np.abs(np.array(values) - truths)))

    summary = {
        "n_s": protocol.n_s,
        "n_d": protocol.n_d,
        "n_t": protocol.n_t,
        "dataset_count": protocol.dataset_count,
        "prune": protocol.prune,
        "seed": seed,
        "accepted": len(records),
        "shortfall": shortfall,
        "attempts": attempts,
        "hist_width": hist_width,
        "mean_abs_err_kernel": _mean_abs_err([r.kernel_bits for r in records]),
        "mean_abs_err_histogram": _mean_abs_err([r.hist_bits for r in records]),
        "mean_abs_err_kernel_raw": _mean_abs_err([r.kernel_raw_bits for r in records]),
        "mean_abs_err_histogram_raw": _mean_abs_err([r.hist_raw_bits for r in records]),
        "lambdas": list(lambdas),
        "repeats": repeats,
        "mc_samples": mc_samples,
        "widths": list(widths),
    }
    return BenchmarkResult(protocol, seed, hist_width, records, summary)


def write_records_csv(result: BenchmarkResult, path) -> None:
    """One row per dataset: seed, sigma2, true_bits, kernel_bits, hist_bits, hist_width."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("seed,sigma2,true_bits,kernel_bits,hist_bits,hist_width\n")
        for r in result.records:
            fh.write(
                f"{r.seed},{format_float(r.sigma2)},{format_float(r.true_bits)},"
                f"{format_float(r.kernel_bits)},{format_float(r.hist_bits)},"
                f"{format_float(result.hist_width)}\n"
            )


def write_summary_json(result: BenchmarkResult, path) -> None:
    import json

    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(result.summary, indent=2, sort_keys=True) + "\n")


def write_scatter_dat(result: BenchmarkResult, path) -> None:
    """Two columns, true vs kernel estimate, both normalized by log2(n_s)."""
    scale = math.log2(result.protocol.n_s)
    with open(path, "w", encoding="ascii") as fh:
        for r in result.records:
            fh.write(
                f"{format_float(r.true_bits / scale)} "
                f"{format_float(r.kernel_bits / scale)}\n"
            )
