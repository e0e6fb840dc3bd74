"""Distances between responses and the dense pairwise distance matrix.

All estimators downstream consume only the distance matrix, never the raw
points, so the metric fully determines what structure an estimate can see.
Three metrics are provided: Euclidean for vector responses, and the
Victor-Purpura and van Rossum metrics for spike trains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .data import SPIKE, VECTOR, LabeledDataset, ResponsePoint, format_float

EUCLIDEAN = "euclidean"
VICTOR_PURPURA = "victor-purpura"
VAN_ROSSUM = "van-rossum"


class MetricMismatchError(ValueError):
    """Metric applied to an incompatible response variant."""


@dataclass(frozen=True)
class MetricSpec:
    """Which metric to use, with its parameter.

    ``victor-purpura`` takes a shift cost ``q`` (1/seconds, q >= 0);
    ``van-rossum`` takes a filter time constant ``tau`` (seconds, tau > 0).
    """

    kind: str
    q: float | None = None
    tau: float | None = None

    def __post_init__(self):
        if self.kind == EUCLIDEAN:
            if self.q is not None or self.tau is not None:
                raise ValueError("euclidean metric takes no parameters")
        elif self.kind == VICTOR_PURPURA:
            if self.q is None or not math.isfinite(self.q) or self.q < 0:
                raise ValueError("victor-purpura needs finite q >= 0")
            if self.tau is not None:
                raise ValueError("victor-purpura takes q only")
        elif self.kind == VAN_ROSSUM:
            if self.tau is None or not math.isfinite(self.tau) or self.tau <= 0:
                raise ValueError("van-rossum needs finite tau > 0")
            if self.q is not None:
                raise ValueError("van-rossum takes tau only")
        else:
            raise ValueError(f"unknown metric kind {self.kind!r}")

    @classmethod
    def euclidean(cls) -> "MetricSpec":
        return cls(EUCLIDEAN)

    @classmethod
    def victor_purpura(cls, q: float) -> "MetricSpec":
        return cls(VICTOR_PURPURA, q=float(q))

    @classmethod
    def van_rossum(cls, tau: float) -> "MetricSpec":
        return cls(VAN_ROSSUM, tau=float(tau))

    @property
    def variant(self) -> str:
        return VECTOR if self.kind == EUCLIDEAN else SPIKE


class DistanceMatrix:
    """Symmetric nonnegative pairwise distances with a zero diagonal.

    Immutable after construction; this is the only view of the data that the
    estimators see.
    """

    __slots__ = ("values", "_order")

    def __init__(self, values: np.ndarray):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"distance matrix must be square, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("distances must be finite")
        if np.any(values < 0):
            raise ValueError("distances must be nonnegative")
        if np.any(np.diagonal(values) != 0.0):
            raise ValueError("self-distances must be exactly zero")
        if not np.array_equal(values, values.T):
            raise ValueError("distance matrix must be symmetric")
        values.setflags(write=False)
        self.values = values
        self._order = None

    @property
    def n_r(self) -> int:
        return self.values.shape[0]

    @property
    def order(self) -> np.ndarray:
        """Row i: every index in (distance to i, index) order; read-only int64.

        One stable sort of each row, done on first read and kept with the matrix.
        """
        if self._order is None or self._order.shape[1] < self.n_r:
            self._order = None  # free a kept prefix before the full sort allocates
            order = np.argsort(self.values, axis=1, kind="stable")
            order.setflags(write=False)
            self._order = order
        return self._order

    def order_prefix(self, rows, width: int) -> np.ndarray:
        """``order[rows, :width]``, sorting no more columns than that.

        The first call keeps that prefix of every row.  A wider call on under
        an eighth of the rows sorts them alone; any other wider call, or one
        of half a row or more, reads ``order``.
        """
        if self._order is None and 2 * width < self.n_r:
            self._order = _sorted_prefix(self.values, np.arange(self.n_r), width)
        if self._order is not None and width <= self._order.shape[1]:
            return self._order[rows, :width]
        if 2 * width < self.n_r and 8 * len(rows) < self.n_r:
            return _sorted_prefix(self.values, rows, width)
        return self.order[rows, :width]

    def submatrix(self, indices) -> "DistanceMatrix":
        indices = np.asarray(indices, dtype=np.intp)
        return DistanceMatrix(self.values[np.ix_(indices, indices)])


def _sorted_prefix(values: np.ndarray, rows: np.ndarray, width: int) -> np.ndarray:
    """``argsort(values[rows], kind="stable")[:, :width]``, 64 rows at a time."""
    prefix = np.empty((len(rows), width), dtype=np.intp)
    for start in range(0, len(rows), 64):
        block = values[rows[start : start + 64]]
        t = np.partition(block, width - 1, axis=1)[:, [width - 1]]
        keep = block <= t
        excess = np.count_nonzero(keep, axis=1, keepdims=True) - width
        # sort only up to the width-th smallest, t; a row tied at t past it drops its last ties
        over = np.flatnonzero(excess)
        ties = block[over] == t[over]
        keep[over] &= ~ties | (np.cumsum(ties[:, ::-1], axis=1)[:, ::-1] > excess[over])
        cols = np.nonzero(keep)[1].reshape(-1, width)
        first = np.argsort(np.take_along_axis(block, cols, axis=1), axis=1, kind="stable")
        prefix[start : start + 64] = np.take_along_axis(cols, first, axis=1)
    return prefix


def euclidean_distance(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise MetricMismatchError(
            f"vector dimensions differ: {a.shape[0]} vs {b.shape[0]}"
        )
    return float(np.sqrt(np.sum((a - b) ** 2)))


def _pad_columns(trains) -> tuple[np.ndarray, np.ndarray]:
    """Trains as the columns of a zero-padded (longest, count) array, and their lengths."""
    sizes = np.array([t.size for t in trains], dtype=np.intp)
    columns = np.zeros((int(sizes.max(initial=0)), len(trains)), dtype=np.float64)
    for k, t in enumerate(trains):
        columns[: t.size, k] = t
    return columns, sizes


def _vp_row(a: np.ndarray, columns: np.ndarray, sizes: np.ndarray, q: float) -> np.ndarray:
    """Victor-Purpura distances from train ``a`` to each padded column.

    Runs the standard O(len(a) * len(b)) dynamic program for every column b
    at once, one spike of ``a`` per step.  Entry j of a step depends only on
    entries <= j of the previous one, so the padding below a column's length
    never reaches the entry that is read, ``sizes[j]``, and every distance
    equals the one the program computes for that pair alone.
    """
    offsets = np.arange(columns.shape[0] + 1, dtype=np.float64)[:, None]
    prev = np.repeat(offsets, columns.shape[1], axis=1)
    cur = np.empty_like(prev)
    for i, t in enumerate(a, start=1):
        cur[0] = float(i)
        # delete a[i-1], or shift it onto each b[j-1]
        np.minimum(prev[1:] + 1.0, prev[:-1] + q * np.abs(t - columns), out=cur[1:])
        # resolve insertions top down: cur[j] = min_{k<=j} cur[k] + (j - k)
        cur -= offsets
        np.minimum.accumulate(cur, axis=0, out=cur)
        cur += offsets
        prev, cur = cur, prev
    return prev[sizes, np.arange(sizes.size)]


def _vp_upper_rows(trains, q: float):
    """Yield, for each train i, its Victor-Purpura distances to trains i+1, ..."""
    columns, sizes = _pad_columns(trains)
    for i, a in enumerate(trains):
        yield _vp_row(a, columns[:, i + 1 :], sizes[i + 1 :], q)


def victor_purpura_distance(a, b, q: float) -> float:
    """Victor-Purpura spike-train edit distance.

    Minimal-cost transformation of train ``a`` into train ``b`` where deleting
    or inserting a spike costs 1 and moving a spike by dt costs q * |dt|.
    Computed by the standard O(len(a) * len(b)) dynamic program, vectorized
    one row at a time; the same code fills ``distance_matrix``.
    """
    trains = [np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)]
    return float(next(_vp_upper_rows(trains, q))[0])


# exponentials held at once (128 KiB): caps the working memory of a van
# Rossum row, whatever the number of trains
_VR_BLOCK = 1 << 14


def _vr_kernel_sums(a: np.ndarray, spikes: np.ndarray, sizes: np.ndarray,
                    tau: float, flip: np.ndarray) -> np.ndarray:
    """sum_kl exp(-|a_k - b_l| / tau) for each train b, the trains laid end to end in ``spikes``.

    The exponentials are evaluated against many trains at once; each train's
    block is then summed as its own contiguous (len(a), len(b)) array, or as
    the (len(b), len(a)) transpose where ``flip`` is set: the reduction a lone
    pair gets, so the sums are reproducible pair by pair.
    """
    ends = np.cumsum(sizes)
    starts = ends - sizes
    step = max(1, _VR_BLOCK // max(1, a.size * int(sizes.max(initial=0))))
    sums = np.empty(sizes.size, dtype=np.float64)
    for lo in range(0, sizes.size, step):
        hi = min(lo + step, sizes.size)
        base = starts[lo]
        # exp(-|a_k - b_l| / tau), step by step in one buffer
        e = np.subtract.outer(a, spikes[base : ends[hi - 1]])
        np.abs(e, out=e)
        np.negative(e, out=e)
        np.divide(e, tau, out=e)
        np.exp(e, out=e)
        for k in range(lo, hi):
            # numpy 2.4 sums the strided view the same way, but only the
            # contiguous copy is sure to take the lone pair's reduction path
            block = e[:, starts[k] - base : ends[k] - base]
            sums[k] = np.sum(np.ascontiguousarray(block.T if flip[k] else block))
    return sums


def _vr_upper_rows(trains, tau: float):
    """Yield, for each train i, its van Rossum distances to trains i+1, ..."""
    sizes = np.array([t.size for t in trains], dtype=np.intp)
    spikes = np.concatenate(trains)
    ends = np.cumsum(sizes)
    # The order of a sum changes its last bits, and near-equal trains cancel
    # those bits up into the distance; so each cross sum is taken with the
    # lexicographically smaller train's spikes first, whichever is passed
    # first, which makes the distance exactly symmetric.
    keys = [(t.size, t.tolist()) for t in trains]
    selfs = np.array([_vr_kernel_sums(t, t, sizes[k : k + 1], tau, [False])[0]
                      for k, t in enumerate(trains)])
    for i, a in enumerate(trains):
        flip = [key < keys[i] for key in keys[i + 1 :]]
        cross = _vr_kernel_sums(a, spikes[ends[i] :], sizes[i + 1 :], tau, flip)
        d2 = 0.5 * (selfs[i] + selfs[i + 1 :] - 2.0 * cross)
        yield np.sqrt(np.maximum(d2, 0.0))


def van_rossum_distance(a, b, tau: float) -> float:
    """van Rossum distance between spike trains.

    Each train is mapped to a sum of causal exponentials exp(-(t - t_i)/tau)
    and the distance is sqrt((1/tau) * integral (f - g)^2 dt), evaluated in
    closed form through pairwise exp(-|t_i - t_j|/tau) sums; no time grid is
    involved.  The same code fills ``distance_matrix``.
    """
    trains = [np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)]
    return float(next(_vr_upper_rows(trains, tau))[0])


def _check_variant(kind: str, m: MetricSpec) -> None:
    if kind != m.variant:
        raise MetricMismatchError(
            f"{m.kind} metric requires {m.variant} responses, got {kind}"
        )


def distance(a: ResponsePoint, b: ResponsePoint, m: MetricSpec) -> float:
    """Distance between two responses under the given metric."""
    if a.kind != b.kind:
        raise MetricMismatchError(f"mixed response variants: {a.kind} vs {b.kind}")
    _check_variant(a.kind, m)
    if m.kind == EUCLIDEAN:
        return euclidean_distance(a.values, b.values)
    if m.kind == VICTOR_PURPURA:
        return victor_purpura_distance(a.values, b.values, m.q)
    return van_rossum_distance(a.values, b.values, m.tau)


def distance_matrix(d: LabeledDataset, m: MetricSpec) -> DistanceMatrix:
    """All pairwise distances, entry [i, j] = distance(point i, point j)."""
    _check_variant(d.kind, m)
    n = d.n_r
    if m.kind == EUCLIDEAN:
        values = cdist(d.vectors, d.vectors)
        np.fill_diagonal(values, 0.0)
        return DistanceMatrix(values)
    if m.kind == VICTOR_PURPURA:
        rows = _vp_upper_rows(d.trains, m.q)
    else:
        rows = _vr_upper_rows(d.trains, m.tau)
    values = np.zeros((n, n), dtype=np.float64)
    for i, row in enumerate(rows):
        values[i, i + 1 :] = row
        values[i + 1 :, i] = row
    return DistanceMatrix(values)


def neighbor_order(dm: DistanceMatrix, i: int) -> np.ndarray:
    """Indices sorted by (distance to i ascending, index ascending).

    Position 0 is i itself unless a duplicate point with a smaller index
    exists; the (distance, index) order makes every downstream count
    deterministic even with tied or duplicated points.  The result is row i
    of ``dm.order``, read-only.
    """
    if not 0 <= i < dm.n_r:
        raise IndexError(f"index {i} out of range for {dm.n_r} points")
    return dm.order[i]


def write_distance_csv(dm: DistanceMatrix, path) -> None:
    """Write the matrix as CSV, one row per line, 17-significant-digit reals."""
    with open(path, "w", encoding="ascii") as fh:
        for row in dm.values:
            fh.write(",".join(format_float(v) for v in row) + "\n")
