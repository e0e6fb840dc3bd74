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

from .data import LabeledDataset, curve_subsamples
from .data import subsample_indices  # unused; perfbench's tracer wraps it (ROADMAP item 13)
from .estimators import KernelConfig, _mean, kernel_bits_from_counts
from .estimators import ksg_mi  # unused; perfbench's tracer wraps it (ROADMAP item 13)
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


def usable_lambdas(lambdas, n_t: int, fewest: int = 2) -> tuple:
    """The fractions of ``lambdas`` that leave at least ``fewest`` trials per stimulus."""
    return tuple(lam for lam in lambdas if math.floor(lam * n_t) >= fewest)


def subsample_draws(
    d: LabeledDataset,
    lambdas=None,
    repeats: int = DEFAULT_REPEATS,
    seed: int = 0,
    config=None,
) -> list[tuple[int, list[np.ndarray]]]:
    """The subsamples of a curve: [(n_t_sub, [indices, ...]), ...].

    Each fraction lam keeps floor(lam * n_t) trials per stimulus.  Given
    fractions are rejected below 2 trials, or below the fewest that the
    estimator ``config``, if given, can evaluate, as its
    ``fewest_trials(n_s, n_t)`` states them.  ``None`` takes those of
    ``DEFAULT_LAMBDAS`` that leave enough, and the whole dataset alone where
    the config cannot evaluate fewer trials, so that it fails on all points
    with the estimator's own message.  For lam < 1 there are ``repeats``
    independent stratified draws (substreams derived from (seed,
    lambda-index, repeat-index), so results do not depend on evaluation
    order); lam = 1 is the whole dataset, once.  All are drawn in one batch
    by ``curve_subsamples``, after its check that they fit in memory.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    fewest = 2 if config is None else max(2, config.fewest_trials(d.n_s, d.n_t))
    explicit = lambdas is not None
    if not explicit:
        # a config that cannot evaluate even all points gets them alone
        lambdas = usable_lambdas(DEFAULT_LAMBDAS, d.n_t, max(2, min(fewest, d.n_t)))
        if not lambdas:
            raise ValueError(
                f"no default subsample fraction leaves 2 trials per stimulus at n_t = {d.n_t}"
            )
    lambdas = tuple(lambdas)
    if not lambdas:
        raise ValueError("no subsample fractions given")
    sizes = []
    for lam in lambdas:
        if not 0.0 < lam <= 1.0:
            raise ValueError(f"subsample fraction must be in (0, 1], got {lam}")
        n_t_sub = math.floor(lam * d.n_t)
        if n_t_sub < 2:
            raise ValueError(
                f"fraction {lam} leaves {n_t_sub} < 2 trials per stimulus"
            )
        if explicit and n_t_sub < fewest:
            raise ValueError(f"fraction {lam} leaves {n_t_sub} trials per stimulus; "
                             f"{config!r} needs at least {fewest}")
        sizes.append(n_t_sub)
    return list(zip(sizes, curve_subsamples(d, sizes, repeats, [seed])[0]))


def subsample_curve(
    d: LabeledDataset, dm: DistanceMatrix | None, config, draws
) -> list[tuple[int, float]]:
    """Mean MI estimate at each subsampled size: [(n_t_sub, mean_bits), ...].

    ``draws`` are the subsamples, the output of ``subsample_draws``; curves
    of several configs can share one set.  The config's ``subset_bits``
    evaluates them all in one call, bitwise equal to the estimator on each
    subsample alone.  Kernel bandwidths given as a count are converted to the
    equivalent fraction of the full dataset so the estimator keeps its
    character as the subsample shrinks.
    """
    if not hasattr(config, "subset_bits"):
        raise TypeError(f"unsupported estimator config {type(config).__name__}")
    subsets = [s for _, group in draws for s in group]
    if isinstance(config, KernelConfig):
        # counts become bits here, under a name of this module that the
        # benchmark in perfbench/ shifts in its self-test (ROADMAP item 5)
        bits = iter([kernel_bits_from_counts(c, d.n_s, n_h)
                     for c, n_h in config.subset_counts(d, dm, subsets)])
    else:
        bits = iter(config.subset_bits(d, dm, subsets))
    return [
        (n_t_sub, float(_mean(np.asarray([next(bits) for _ in group]))))
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
) -> tuple[BiasFit, list[tuple[int, float]], float]:
    """Subsample curve on ``draws`` plus its quadratic fit; intercept is the corrected MI.

    Returns (fit, curve, raw).  raw is the estimate on all points, from the
    same ``subset_bits`` call as the curve and bitwise equal to the
    estimator's own.  It is the curve's point at n_t; draws without one get
    the whole dataset as a last subset, which neither the curve nor the fit
    includes.
    """
    full = []
    if all(n_t_sub != d.n_t for n_t_sub, _ in draws):
        full = [(d.n_t, [np.arange(d.n_r, dtype=np.intp)])]
    curve = subsample_curve(d, dm, config, [*draws, *full])
    raw = next(bits for n_t_sub, bits in curve if n_t_sub == d.n_t)
    curve = curve[: len(draws)]
    return quadratic_extrapolate(curve), curve, raw
