"""Mutual information estimators for a discrete stimulus and metric-space responses.

Three estimators share the same inputs (a labeled dataset and, for the first
two, its distance matrix):

* ``kernel_mi`` - square-kernel density estimate with the bandwidth given as
  probability mass: the kernel around a point is the region holding its
  ``n_h`` nearest neighbors (self included), so the radius adapts to the
  local density and the estimate depends only on neighbor ranks.
* ``ksg_mi`` - digamma-based k-nearest-neighbor estimator adapted to a
  discrete stimulus variable.
* ``histogram_mi`` - plug-in estimate over fixed-width bins (vector data
  only), the classical baseline.

Estimates are reported in bits.  All counting uses the deterministic
(distance, index) neighbor order, so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import VECTOR, LabeledDataset, MixedVariantError
from .metrics import DistanceMatrix, neighbor_order

_LN2 = math.log(2.0)

KSG_COUNT_BY_RANK = "rank"
KSG_COUNT_BY_DISTANCE = "distance"


@dataclass(frozen=True)
class KernelConfig:
    """Kernel bandwidth: a neighbor count ``n_h`` or a mass fraction ``h``.

    Exactly one of the two must be given.  A fraction resolves to
    ``n_h = floor(h * n_r)`` points.
    """

    n_h: int | None = None
    h: float | None = None

    def __post_init__(self):
        if (self.n_h is None) == (self.h is None):
            raise ValueError("specify exactly one of n_h (count) or h (fraction)")
        if self.n_h is not None and self.n_h < 1:
            raise ValueError(f"n_h must be >= 1, got {self.n_h}")
        if self.h is not None and not 0.0 < self.h <= 1.0:
            raise ValueError(f"bandwidth fraction must be in (0, 1], got {self.h}")

    def resolve(self, n_r: int) -> int:
        """Neighbor count for a dataset of n_r points."""
        if self.n_h is not None:
            if self.n_h > n_r:
                raise ValueError(f"n_h = {self.n_h} exceeds the {n_r} data points")
            return self.n_h
        n_h = math.floor(self.h * n_r)
        if n_h < 1:
            raise ValueError(
                f"bandwidth fraction {self.h} resolves to zero points "
                f"(floor({self.h} * {n_r}) = 0)"
            )
        return n_h


@dataclass(frozen=True)
class KsgConfig:
    """Neighbor parameter for the digamma estimator.

    ``include_self`` counts the center point as its own nearest same-stimulus
    response; ``count_by`` switches between counting by global neighbor rank
    (the default; immune to ties) and by raw distance threshold.  Defaults
    match the convention used throughout this package.
    """

    n_k: int
    include_self: bool = False
    count_by: str = KSG_COUNT_BY_RANK

    def __post_init__(self):
        if self.n_k < 1:
            raise ValueError(f"n_k must be >= 1, got {self.n_k}")
        if self.count_by not in (KSG_COUNT_BY_RANK, KSG_COUNT_BY_DISTANCE):
            raise ValueError(f"unknown count_by mode {self.count_by!r}")


@dataclass(frozen=True)
class HistogramConfig:
    """Bin width per dimension and the boundary anchor (default 0)."""

    width: float
    origin: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.width) and self.width > 0):
            raise ValueError(f"bin width must be finite and positive, got {self.width}")
        if not math.isfinite(self.origin):
            raise ValueError("bin origin must be finite")


@dataclass(frozen=True)
class MiEstimate:
    """An estimate in bits, tagged with the estimator and its resolved config."""

    bits: float
    estimator: str
    config: dict


def digamma(x: float) -> float:
    """Digamma function for x > 0.

    Upward recurrence psi(x) = psi(x+1) - 1/x until x >= 6, then the
    asymptotic series ln x - 1/(2x) - sum B_2n / (2n x^2n); accurate to
    about 1e-13 for x >= 1, far below any estimator's sampling noise.
    """
    x = float(x)
    if not x > 0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    while x < 6.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = inv2 * (
        1.0 / 12.0
        - inv2
        * (
            1.0 / 120.0
            - inv2
            * (
                1.0 / 252.0
                - inv2
                * (
                    1.0 / 240.0
                    - inv2
                    * (1.0 / 132.0 - inv2 * (691.0 / 32760.0 - inv2 / 12.0))
                )
            )
        )
    )
    return acc + math.log(x) - 0.5 / x - series


def _digamma_of_counts(counts: np.ndarray) -> np.ndarray:
    uniq, inverse = np.unique(counts, return_inverse=True)
    table = np.array([digamma(float(u)) for u in uniq], dtype=np.float64)
    return table[inverse]


def _stable_orders(values: np.ndarray) -> np.ndarray:
    # stable sort of each row == (distance ascending, index ascending)
    return np.argsort(values, axis=1, kind="stable")


def _check_inputs(d: LabeledDataset, dm: DistanceMatrix) -> None:
    if dm.n_r != d.n_r:
        raise ValueError(
            f"distance matrix is {dm.n_r}x{dm.n_r} but dataset has {d.n_r} points"
        )


def neighbor_count_c(
    dm: DistanceMatrix, labels: np.ndarray, i: int, n_h: int
) -> int:
    """Number of same-stimulus points among the n_h nearest to point i.

    The point itself is one of its own neighbors, so the count is always in
    [1, min(n_h, trials per stimulus)].
    """
    if not 1 <= n_h <= dm.n_r:
        raise ValueError(f"n_h must be in [1, {dm.n_r}], got {n_h}")
    order = neighbor_order(dm, i)
    return int(np.count_nonzero(labels[order[:n_h]] == labels[i]))


def _kernel_counts(orders: np.ndarray, labels: np.ndarray, n_h: int) -> np.ndarray:
    same = labels[orders[:, :n_h]] == labels[:, None]
    return same.sum(axis=1)


def kernel_bits_from_counts(c: np.ndarray, n_s: int, n_h: int) -> float:
    """Mean of log2(n_s * c / n_h) in fixed index order.

    The log2(n_s) term is split out so that the separated-cluster extreme
    (every c equal to n_h) yields log2(n_s) exactly, with no accumulated
    rounding from the mean.
    """
    return math.log2(n_s) + float(np.mean(np.log2(c / n_h)))


def kernel_mi(
    d: LabeledDataset, dm: DistanceMatrix, config: KernelConfig
) -> MiEstimate:
    """Square-kernel MI estimate: mean over points of log2(n_s * c_i / n_h).

    c_i counts same-stimulus responses among the n_h nearest neighbors of
    point i (itself included), so the log argument never vanishes.  With
    n_h <= n_t the estimate lies in [log2(n_s / n_h), log2(n_s)], reaching
    the upper end exactly when each stimulus's responses are mutually
    nearest.
    """
    _check_inputs(d, dm)
    n_h = config.resolve(d.n_r)
    orders = _stable_orders(dm.values)
    c = _kernel_counts(orders, labels=d.labels, n_h=n_h)
    bits = kernel_bits_from_counts(c, d.n_s, n_h)
    return MiEstimate(bits, "kernel", {"n_h": n_h, "h": config.h})


def _ksg_counts(
    values: np.ndarray,
    orders: np.ndarray,
    labels: np.ndarray,
    config: KsgConfig,
) -> np.ndarray:
    n = labels.size
    rows = np.arange(n)
    lab_by_rank = labels[orders]
    same = lab_by_rank == labels[:, None]
    self_pos = np.argmax(orders == rows[:, None], axis=1)
    if not config.include_self:
        same[rows, self_pos] = False
    available = same.sum(axis=1)
    if np.any(available < config.n_k):
        i = int(np.argmax(available < config.n_k))
        raise ValueError(
            f"point {i} has only {int(available[i])} usable same-stimulus "
            f"neighbors, need n_k = {config.n_k}"
        )
    cum = np.cumsum(same, axis=1)
    anchor_rank = np.argmax(cum >= config.n_k, axis=1)
    if config.count_by == KSG_COUNT_BY_RANK:
        # points at rank <= anchor_rank, excluding the center itself
        return anchor_rank + 1 - (self_pos <= anchor_rank)
    anchor_dist = values[rows, orders[rows, anchor_rank]]
    return (values <= anchor_dist[:, None]).sum(axis=1) - 1


def neighbor_count_C(
    dm: DistanceMatrix,
    labels: np.ndarray,
    i: int,
    n_k: int,
    *,
    include_self: bool = False,
    count_by: str = KSG_COUNT_BY_RANK,
) -> int:
    """Points of any stimulus within reach of i's n_k-th same-stimulus neighbor.

    The n_k-th nearest same-stimulus response is located first (self excluded
    by default); the count then covers every other point ranking at or before
    it in the (distance, index) neighbor order, so the result is at least n_k
    and ties cannot double-count.
    """
    config = KsgConfig(n_k, include_self=include_self, count_by=count_by)
    order = neighbor_order(dm, i)
    same = labels[order] == labels[i]
    self_pos = int(np.argmax(order == i))
    if not config.include_self:
        same[self_pos] = False
    if int(same.sum()) < n_k:
        raise ValueError(
            f"point {i} has only {int(same.sum())} usable same-stimulus "
            f"neighbors, need n_k = {n_k}"
        )
    anchor_rank = int(np.argmax(np.cumsum(same) >= n_k))
    if config.count_by == KSG_COUNT_BY_RANK:
        return anchor_rank + 1 - (1 if self_pos <= anchor_rank else 0)
    anchor_dist = dm.values[i, order[anchor_rank]]
    return int(np.count_nonzero(dm.values[i] <= anchor_dist)) - 1


def ksg_mi(d: LabeledDataset, dm: DistanceMatrix, config: KsgConfig) -> MiEstimate:
    """Digamma k-nearest-neighbor MI estimate, converted from nats to bits.

    I_e = psi(n_k) + psi(n_r) - psi(n_t) - mean_i psi(C_i), where C_i counts
    the points of any stimulus within reach of i's n_k-th nearest
    same-stimulus response; bits = I_e / ln 2.
    """
    _check_inputs(d, dm)
    needed = config.n_k if config.include_self else config.n_k + 1
    if d.n_t < needed:
        raise ValueError(
            f"n_k = {config.n_k} needs at least {needed} trials per stimulus, "
            f"dataset has n_t = {d.n_t}"
        )
    orders = _stable_orders(dm.values)
    counts = _ksg_counts(dm.values, orders, d.labels, config)
    # psi(n_k) is folded into the per-point terms so that the degenerate
    # cases (every C equal to n_k, e.g. a single stimulus) cancel exactly
    delta = _digamma_of_counts(counts) - digamma(config.n_k)
    nats = digamma(d.n_r) - digamma(d.n_t) - float(np.mean(delta))
    return MiEstimate(nats / _LN2, "ksg", {"n_k": config.n_k})


def bin_ids(vectors: np.ndarray, config: HistogramConfig) -> np.ndarray:
    """Dense ids of the occupied bins, one per point, in lexicographic bin order.

    Raises ValueError when a cell index is not finite or does not fit in
    int64, where a cast would send distinct cells to one bin.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cells = np.floor((vectors - config.origin) / config.width)
    if not np.all((cells >= -(2.0**63)) & (cells < 2.0**63)):
        raise ValueError(
            f"histogram cell index out of the int64 range at bin width {config.width!r} "
            f"and origin {config.origin!r}"
        )
    cells = cells.astype(np.int64)
    _, inverse = np.unique(cells, axis=0, return_inverse=True)
    return inverse.reshape(-1)


def plugin_mi_bits(table: np.ndarray) -> float:
    """Plug-in MI in bits of a (response-bin, stimulus) contingency table."""
    total = table.sum()
    joint = table / total
    p_bin = joint.sum(axis=1)
    p_stim = joint.sum(axis=0)
    occupied = table > 0
    ratio = joint[occupied] / (p_bin[:, None] * p_stim[None, :])[occupied]
    return float(np.sum(joint[occupied] * np.log2(ratio)))


def contingency(ids: np.ndarray, labels: np.ndarray, n_bins: int, n_s: int) -> np.ndarray:
    counts = np.bincount(ids * n_s + labels, minlength=n_bins * n_s)
    return counts.reshape(n_bins, n_s).astype(np.float64)


def histogram_mi(d: LabeledDataset, config: HistogramConfig) -> MiEstimate:
    """Plug-in MI over fixed-width bins: floor((x - origin) / width) per dimension."""
    if d.kind != VECTOR:
        raise MixedVariantError("histogram estimator requires vector responses")
    ids = bin_ids(d.vectors, config)
    table = contingency(ids, d.labels, int(ids.max()) + 1, d.n_s)
    bits = plugin_mi_bits(table)
    return MiEstimate(
        bits, "histogram", {"width": config.width, "origin": config.origin}
    )
