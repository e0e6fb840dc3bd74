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
from scipy import special

from .data import VECTOR, LabeledDataset, MixedVariantError
from .metrics import DistanceMatrix

_LN2 = math.log(2.0)


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

    C_i is counted by neighbor rank with the point itself excluded, so ties
    in distance cannot double-count (see ``neighbor_count_C``).
    """

    n_k: int

    def __post_init__(self):
        if self.n_k < 1:
            raise ValueError(f"n_k must be >= 1, got {self.n_k}")


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
    """Digamma function for x > 0, from ``scipy.special.digamma``.

    Within 1e-15 of mpmath at the integers 1..1000.
    """
    x = float(x)
    if not x > 0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    return float(special.digamma(x))


def _check_point(dm: DistanceMatrix, i: int) -> None:
    if not 0 <= i < dm.n_r:
        raise IndexError(f"index {i} out of range for {dm.n_r} points")


def _check_inputs(d: LabeledDataset, dm: DistanceMatrix) -> None:
    if dm.n_r != d.n_r:
        raise ValueError(
            f"distance matrix is {dm.n_r}x{dm.n_r} but dataset has {d.n_r} points"
        )


class NeighborTable:
    """Each point's neighbors in (distance, index) order, counted within a subset.

    Counts read a prefix of K columns of the matrix's own order, K doubling
    up to n_r for the rows it leaves short (``DistanceMatrix.order_prefix``).
    An ascending subset's own order is that order filtered to its members,
    since filtering keeps the relative order of equal distances, and every
    count is an integer: a count on a subset equals the count on its
    submatrix sorted afresh, bit for bit.  A subset of None is every point.
    """

    def __init__(self, dm: DistanceMatrix, labels: np.ndarray):
        self._labels = np.asarray(labels)
        if self._labels.shape != (dm.n_r,):
            raise ValueError(f"labels of shape {self._labels.shape} do not match "
                             f"the {dm.n_r}x{dm.n_r} distance matrix")
        self._dm = dm

    def _count(self, subset, need, width, count) -> tuple[np.ndarray, np.ndarray]:
        # count(points, cols, member) -> (counts, found) on the order prefixes
        # cols of the rows points; a row is done once it has found `need` or
        # has been read in full
        n = self._labels.size
        subset = np.arange(n) if subset is None else subset
        member = np.zeros(n, dtype=bool)
        member[subset] = True
        width = -(-2 * width * n // subset.size)
        counts, found = np.empty((2, subset.size), dtype=np.int64)
        todo = np.arange(subset.size)
        while todo.size:
            width = min(width, n)
            points = subset[todo]
            c, f = count(points, self._dm.order_prefix(points, width), member)
            done = (f >= need) | (width == n)
            counts[todo[done]], found[todo[done]] = c[done], f[done]
            todo = todo[~done]
            width *= 2
        return counts, found

    def kernel_counts(self, n_h: int, subset=None) -> np.ndarray:
        """c_i: same-stimulus members among each member's n_h nearest members.

        The point itself is one of them; a subset of fewer than n_h members
        counts them all.
        """
        labels = self._labels

        def count(points, cols, member):
            inside = member[cols]
            run = np.cumsum(inside, axis=1)
            same = inside & (labels[cols] == labels[points, None])
            return np.count_nonzero(same & (run <= n_h), axis=1), run[:, -1]

        return self._count(subset, n_h, n_h, count)[0]

    def ksg_counts(self, n_k: int, subset=None) -> tuple[np.ndarray, np.ndarray]:
        """(C, usable): each member's KSG count and its usable neighbors found.

        C_i counts the members other than self at or before the anchor, the
        n_k-th same-stimulus member other than self.  usable_i is below n_k
        only where the subset holds fewer than n_k for point i, and there
        C_i means nothing.
        """
        labels = self._labels

        def count(points, cols, member):
            others = member[cols] & (cols != points[:, None])
            run = np.cumsum(others & (labels[cols] == labels[points, None]), axis=1)
            anchor = np.argmax(run >= n_k, axis=1)
            upto = np.arange(cols.shape[1]) <= anchor[:, None]
            return np.count_nonzero(others & upto, axis=1), run[:, -1]

        return self._count(subset, n_k, n_k * np.unique(labels).size, count)


def neighbor_count_c(
    dm: DistanceMatrix, labels: np.ndarray, i: int, n_h: int
) -> int:
    """Number of same-stimulus points among the n_h nearest to point i.

    The point itself counts, so the count is in [1, min(n_h, trials per
    stimulus)], unless n_h or more lower-index points tie with i at distance 0:
    they push i out of its own n_h nearest, and the count can be 0 (ROADMAP
    item 1).  Rows are sorted only as far as counts read.
    """
    if not 1 <= n_h <= dm.n_r:
        raise ValueError(f"n_h must be in [1, {dm.n_r}], got {n_h}")
    _check_point(dm, i)
    return int(NeighborTable(dm, labels).kernel_counts(n_h)[i])


def kernel_bits_from_counts(c: np.ndarray, n_s: int, n_h: int) -> float:
    """Mean of log2(n_s * c / n_h) in fixed index order.

    The log2(n_s) term is split out so that the separated-cluster extreme
    (every c equal to n_h) yields log2(n_s) exactly, with no accumulated
    rounding from the mean.
    """
    return math.log2(n_s) + float(np.mean(np.log2(c / n_h)))


def kernel_mi(d: LabeledDataset, dm: DistanceMatrix, config: KernelConfig) -> MiEstimate:
    """Square-kernel MI estimate: mean over points of log2(n_s * c_i / n_h).

    c_i counts same-stimulus responses among the n_h nearest neighbors of
    point i, itself included, so the log argument does not vanish unless n_h
    or more lower-index points tie with i at distance 0: then c_i can be 0
    and the estimate -inf (ROADMAP item 1).  Otherwise, with n_h <= n_t,
    the estimate lies in [log2(n_s / n_h), log2(n_s)], reaching
    the upper end exactly when each stimulus's responses are mutually
    nearest.
    """
    _check_inputs(d, dm)
    n_h = config.resolve(d.n_r)
    c = NeighborTable(dm, d.labels).kernel_counts(n_h)
    bits = kernel_bits_from_counts(c, d.n_s, n_h)
    return MiEstimate(bits, "kernel", {"n_h": n_h, "h": config.h})


def neighbor_count_C(dm: DistanceMatrix, labels: np.ndarray, i: int, n_k: int) -> int:
    """Points of any stimulus within reach of i's n_k-th same-stimulus neighbor.

    The n_k-th nearest same-stimulus response other than i is located first;
    the count then covers every other point ranking at or before it in the
    (distance, index) neighbor order, so the result is at least n_k and ties
    cannot double-count.  Rows are sorted only as far as counts read.
    """
    KsgConfig(n_k)  # reuse the config's check of n_k
    _check_point(dm, i)
    counts, usable = NeighborTable(dm, labels).ksg_counts(n_k)
    if usable[i] < n_k:
        raise ValueError(
            f"point {i} has only {usable[i]} usable same-stimulus "
            f"neighbors, need n_k = {n_k}"
        )
    return int(counts[i])


def ksg_bits(table: NeighborTable, config: KsgConfig, n_s: int, subset) -> float:
    """KSG estimate in bits on an ascending balanced subset of n_s stimuli.

    ``table`` holds every row; the subset may be every point.
    """
    n_t = subset.size // n_s
    if n_t <= config.n_k:
        raise ValueError(
            f"n_k = {config.n_k} needs at least {config.n_k + 1} trials per stimulus, "
            f"dataset has n_t = {n_t}"
        )
    # balanced with n_t > n_k, every point has n_k usable neighbors.
    # psi(n_k) is folded into the per-point terms so that the degenerate
    # cases (every C equal to n_k, e.g. a single stimulus) cancel exactly
    counts, _ = table.ksg_counts(config.n_k, subset)
    delta = special.digamma(counts) - digamma(config.n_k)
    nats = digamma(subset.size) - digamma(n_t) - float(np.mean(delta))
    return nats / _LN2


def ksg_mi(d: LabeledDataset, dm: DistanceMatrix, config: KsgConfig) -> MiEstimate:
    """Digamma k-nearest-neighbor MI estimate, converted from nats to bits.

    I_e = psi(n_k) + psi(n_r) - psi(n_t) - mean_i psi(C_i), where C_i counts
    the points of any stimulus within reach of i's n_k-th nearest
    same-stimulus response; bits = I_e / ln 2.
    """
    _check_inputs(d, dm)
    bits = ksg_bits(NeighborTable(dm, d.labels), config, d.n_s, np.arange(d.n_r))
    return MiEstimate(bits, "ksg", {"n_k": config.n_k})


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
