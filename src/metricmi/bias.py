"""Quadratic bias extrapolation.

Finite-sample MI estimates carry a bias that is well described, for large
trial counts, by estimate = I + A/n_t + B/n_t**2.  The estimate is therefore
recomputed on stratified subsamples of decreasing size and a least-squares
quadratic in 1/n_t is fit; the intercept is the bias-corrected value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, derived_seed, subsample_indices
from .estimators import (
    HistogramConfig,
    KernelConfig,
    KsgConfig,
    NeighborTable,
    bin_ids,
    kernel_bits_from_counts,
    ksg_bits,
    ksg_mi,
    plugin_bits,
)
from .metrics import DistanceMatrix

DEFAULT_LAMBDAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
DEFAULT_REPEATS = 10


@dataclass(frozen=True)
class BiasFit:
    """Coefficients of the fitted expansion bits = I + A/n_t + B/n_t**2.

    ``intercept_bits`` is the extrapolated (bias-corrected) estimate;
    ``residual`` is the sum of squared fit residuals.
    """

    intercept_bits: float
    A_bits: float
    B_bits: float
    residual: float


def _sub_bandwidth(config: KernelConfig, n_r_full: int, n_r_sub: int) -> int:
    # Hold the mass fraction constant as the dataset shrinks.  Count-based
    # configs scale by exact integer arithmetic so that lam = 1 recovers the
    # configured n_h bit for bit.
    if config.n_h is not None:
        n_h = (config.n_h * n_r_sub) // n_r_full
    else:
        n_h = math.floor(config.h * n_r_sub)
    if n_h < 1:
        raise ValueError(
            f"bandwidth resolves to zero points on a subsample of {n_r_sub}"
        )
    return n_h


def usable_lambdas(lambdas, n_t: int) -> tuple:
    """The fractions of ``lambdas`` that leave at least 2 trials per stimulus."""
    return tuple(lam for lam in lambdas if math.floor(lam * n_t) >= 2)


def subsample_draws(
    d: LabeledDataset,
    lambdas=None,
    repeats: int = DEFAULT_REPEATS,
    seed: int = 0,
) -> list[tuple[int, list[np.ndarray]]]:
    """The subsamples of a curve: [(n_t_sub, [indices, ...]), ...].

    Each fraction lam keeps floor(lam * n_t) trials per stimulus; given
    fractions below 2 trials are rejected, and ``None`` takes those of
    ``DEFAULT_LAMBDAS`` that leave at least 2.  For lam < 1 there are
    ``repeats`` independent stratified draws (substreams derived from (seed,
    lambda-index, repeat-index), so results do not depend on evaluation
    order); lam = 1 is the whole dataset, once.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if lambdas is None:
        lambdas = usable_lambdas(DEFAULT_LAMBDAS, d.n_t)
        if not lambdas:
            raise ValueError(
                f"no default subsample fraction leaves 2 trials per stimulus at n_t = {d.n_t}"
            )
    lambdas = tuple(lambdas)
    if not lambdas:
        raise ValueError("no subsample fractions given")
    draws = []
    for li, lam in enumerate(lambdas):
        if not 0.0 < lam <= 1.0:
            raise ValueError(f"subsample fraction must be in (0, 1], got {lam}")
        n_t_sub = math.floor(lam * d.n_t)
        if n_t_sub < 2:
            raise ValueError(
                f"fraction {lam} leaves {n_t_sub} < 2 trials per stimulus"
            )
        if n_t_sub == d.n_t:
            subsets = [np.arange(d.n_r, dtype=np.intp)]
        else:
            subsets = [
                subsample_indices(d, lam, derived_seed(seed, li, ri))
                for ri in range(repeats)
            ]
        draws.append((n_t_sub, subsets))
    return draws


def subsample_curve(
    d: LabeledDataset, dm: DistanceMatrix | None, config, draws
) -> list[tuple[int, float]]:
    """Mean MI estimate at each subsampled size: [(n_t_sub, mean_bits), ...].

    ``draws`` are the subsamples, the output of ``subsample_draws``; curves
    of several configs can share one set.  Kernel bandwidths given as a
    count are converted to the equivalent fraction of the full dataset so
    the estimator keeps its character as the subsample shrinks.  Kernel and
    KSG count every subsample in one NeighborTable of the full matrix, which
    gives the same bits as estimating each subsample on its own submatrix;
    the table reads the prefix of the matrix's ``order`` that counts need,
    kept with it.  A histogram bins the points once and evaluates all
    subsamples together in ``plugin_bits``, bitwise equal to ``histogram_mi``
    on each subsample.
    """
    subsets = [s for _, group in draws for s in group]
    if isinstance(config, KernelConfig):
        if dm is None:
            raise ValueError("kernel estimation needs a distance matrix")
        table = NeighborTable(dm, d.labels)

        def estimate(subset: np.ndarray) -> float:
            n_h = _sub_bandwidth(config, d.n_r, subset.size)
            return kernel_bits_from_counts(table.kernel_counts(n_h, subset), d.n_s, n_h)

        bits = map(estimate, subsets)
    elif isinstance(config, HistogramConfig):
        bits = plugin_bits(bin_ids(d.vectors, config), d.labels, d.n_s, subsets)
    elif isinstance(config, KsgConfig):
        if dm is None:
            raise ValueError("ksg estimation needs a distance matrix")
        table = NeighborTable(dm, d.labels)

        def estimate(subset: np.ndarray) -> float:
            if subset.size == d.n_r:
                return ksg_mi(d, dm, config).bits
            return ksg_bits(table, config, d.n_s, subset)

        bits = map(estimate, subsets)
    else:
        raise TypeError(f"unsupported estimator config {type(config).__name__}")

    bits = iter(bits)
    return [
        (n_t_sub, float(np.mean(np.asarray([next(bits) for _ in group]))))
        for n_t_sub, group in draws
    ]


def _solve3(g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # Gaussian elimination with partial pivoting, kept in long double.
    m = np.concatenate([g, rhs[:, None]], axis=1)
    for col in range(3):
        pivot = col + int(np.argmax(np.abs(m[col:, col])))
        if m[pivot, col] == 0:
            raise ValueError("rank-deficient fit: need 3 distinct subsample sizes")
        if pivot != col:
            m[[col, pivot]] = m[[pivot, col]]
        for row in range(col + 1, 3):
            m[row] -= (m[row, col] / m[col, col]) * m[col]
    beta = np.zeros(3, dtype=np.longdouble)
    for row in (2, 1, 0):
        beta[row] = (m[row, 3] - m[row, row + 1 : 3] @ beta[row + 1 :]) / m[row, row]
    return beta


def quadratic_extrapolate(curve) -> BiasFit:
    """Ordinary least squares of bits against (1, 1/n_t, 1/n_t**2).

    Needs at least three distinct subsample sizes.  Solved by normal
    equations in long double on the design centered in 1/n_t, which recovers
    exact quadratics to well below 1e-9.
    """
    sizes = np.asarray([p[0] for p in curve], dtype=np.float64)
    bits = np.asarray([p[1] for p in curve], dtype=np.float64)
    if np.unique(sizes).size < 3:
        raise ValueError(
            f"need >= 3 distinct subsample sizes, got {np.unique(sizes).size}"
        )
    u = 1.0 / sizes.astype(np.longdouble)
    y = bits.astype(np.longdouble)
    center = u.mean()
    uc = u - center
    cols = np.stack([np.ones_like(uc), uc, uc * uc])
    gram = cols @ cols.T
    rhs = cols @ y
    b0, b1, b2 = _solve3(gram, rhs)
    fitted = b0 + b1 * uc + b2 * uc * uc
    residual = float(((y - fitted) ** 2).sum())
    # translate back from the centered variable: bits = I + A*u + B*u^2
    intercept = float(b0 - b1 * center + b2 * center * center)
    a_coeff = float(b1 - 2.0 * b2 * center)
    b_coeff = float(b2)
    return BiasFit(intercept, a_coeff, b_coeff, residual)


def bias_corrected_mi(
    d: LabeledDataset, dm: DistanceMatrix | None, config, draws
) -> tuple[BiasFit, list[tuple[int, float]]]:
    """Subsample curve on ``draws`` plus its quadratic fit; intercept is the corrected MI."""
    curve = subsample_curve(d, dm, config, draws)
    return quadratic_extrapolate(curve), curve
