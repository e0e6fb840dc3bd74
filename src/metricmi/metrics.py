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

from .data import SPIKE, VECTOR, LabeledDataset, _as_readonly, format_float

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
        self.values = _as_readonly(values)
        self._order = None

    @property
    def n_r(self) -> int:
        return self.values.shape[0]

    @property
    def order(self) -> np.ndarray:
        """Row i: every index in (distance to i, index) order; read-only int64.

        Exactly ``np.argsort(values, axis=1, kind="stable")``, computed by
        ``_argsort_rows`` on first read and kept with the matrix.
        """
        if self._order is None or self._order.shape[1] < self.n_r:
            self._order = None  # free a kept prefix before the full sort allocates
            order = _argsort_rows(self.values)
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


def _argsort_rows(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, axis=1, kind="stable")``: each row in (value, index) order.

    One default (unstable, SIMD where the CPU has it) argsort of every row,
    then a check 64 rows at a time: only the rows where it left equal values
    out of index order go to ``_repair_ties``.
    """
    order = np.argsort(values, axis=1)
    n = values.shape[1]
    offsets = n * np.arange(64)[:, None]
    for start in range(0, len(order), 64):
        block = order[start : start + 64]
        # the sorted values, gathered by flat position without an index copy
        block += offsets[: len(block)]
        ranked = np.take(values[start : start + 64], block)
        block -= offsets[: len(block)]
        tie = ranked[:, 1:] == ranked[:, :-1]
        rows = np.flatnonzero(np.any(tie & (block[:, 1:] < block[:, :-1]), axis=1))
        if rows.size:
            block[rows] = _repair_ties(block[rows], tie[rows])
    return order


def _repair_ties(order: np.ndarray, tie: np.ndarray) -> np.ndarray:
    """Each row of ``order`` with its runs of ties in ascending index order.

    ``tie[:, k]`` says entries k and k + 1 of a row hold equal values.  The
    key (run of equal values) * n + index is distinct within a row, so any
    sort of it gives the one order; its runs stay in place.
    """
    n = order.shape[1]
    run = np.zeros(order.shape, dtype=np.int64)
    np.cumsum(~tie, axis=1, out=run[:, 1:])
    run *= n
    key = run + order
    key.sort(axis=1)
    key -= run
    return key


def _sorted_prefix(values: np.ndarray, rows: np.ndarray, width: int) -> np.ndarray:
    """``argsort(values[rows], kind="stable")[:, :width]``, 64 rows at a time.

    Each row keeps its ``width`` first members by a partition, read as flat
    positions less the row's offset, and ``_argsort_rows`` orders them.
    """
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
        cols = np.flatnonzero(keep).reshape(-1, width)
        cols -= block.shape[1] * np.arange(len(block))[:, None]
        first = _argsort_rows(np.take_along_axis(block, cols, axis=1))
        prefix[start : start + 64] = np.take_along_axis(cols, first, axis=1)
    return prefix


# cells of a working array, whatever the number of trains (512 KiB of float64):
# large enough that numpy's per-call cost is small beside the arithmetic, small
# enough that past the matrix a 600-train fill holds about 2 MiB
_BLOCK = 1 << 16


def _spike_values(trains, metric_pairs, param) -> np.ndarray:
    """Symmetric, zero-diagonal distance matrix of spike trains, a bucket of pairs at a time.

    ``metric_pairs(columns, sizes, param)`` gives pairs(a, b), the distances of trains
    a[p] and b[p], a the earlier by length, then spike by spike.  Sorted so, the upper
    triangle fills column by column and len(b) never falls; a bucket is the longest run
    whose pairs, len(b) + 1 rows each for its last b, fill <= ``_BLOCK`` cells: about
    two thousand pairs of 20-spike trains, so each numpy call runs on many pairs.
    """
    sizes = np.array([len(t) for t in trains], dtype=np.intp)
    columns = np.zeros((int(sizes.max(initial=0)) + 1, sizes.size))  # trains, zero-padded
    for k, t in enumerate(trains):
        columns[: sizes[k], k] = t
    pairs = metric_pairs(columns, sizes, param)
    order = np.lexsort(np.vstack([columns[::-1], sizes]))  # by length, then spikes
    values = np.zeros((sizes.size, sizes.size), dtype=np.float64)
    ends = np.cumsum(np.arange(sizes.size))  # pair p: b = order[t], t the first with ends[t] > p
    rows = sizes[order] + 1
    lo = 0
    while lo < ends[-1]:
        most = max(1, _BLOCK // rows[np.searchsorted(ends, lo, side="right")])
        t = np.searchsorted(ends, np.arange(lo, min(ends[-1], lo + most)), side="right")
        t = t[: max(1, np.count_nonzero(rows[t] * np.arange(1, t.size + 1) <= _BLOCK))]
        a, b = order[np.arange(lo, lo + t.size) - ends[t] + t], order[t]
        values[a, b] = values[b, a] = pairs(a, b)
        lo += t.size
    return values


def _narrow(array: np.ndarray, width: int, buffer: np.ndarray):
    """(array[:, :width] copied to the front of ``buffer``, contiguous; the buffer it frees)."""
    out = buffer.reshape(-1)[: array.shape[0] * width].reshape(array.shape[0], width)
    out[...] = array[:, :width]
    return out, array if array.base is None else array.base


def _vp_pairs(columns, sizes, q: float):
    """pairs(a, b): Victor-Purpura distances that transform each train a[p] into b[p].

    The dynamic program runs one spike of each ``a`` per step, for all pairs at
    once, over the rows of the longest ``b``: entry j depends only on entries
    <= j of the last step, so padding never reaches entry len(b), which is read.
    The pairs go in descending len(a), so those still running are a prefix.
    """

    def pairs(a, b):
        order = np.argsort(-sizes[a], kind="stable")
        a, la, lb = a[order], sizes[a[order]], sizes[b[order]]
        offsets = np.arange(lb.max() + 1, dtype=np.float64)[:, None]
        prev = np.repeat(offsets, a.size, axis=1)
        spikes = columns[: offsets.size].take(b[order], axis=1)  # the last row only pads
        dist, spare, k, rows = np.empty(a.size), np.empty_like(prev), a.size, list(prev)
        for i, now in enumerate(np.searchsorted(-la, -np.arange(1, la[0] + 1), side="right"), 1):
            if now < k:
                # the pairs past `now` are done: read them, and keep the rest contiguous
                dist[order[now:k]] = prev[lb[now:k], np.arange(now, k)]
                prev, spare = _narrow(prev, now, spare)
                spikes, spare = _narrow(spikes, now, spare)
                k, rows = now, list(prev)
            # delete a[i-1], or shift it onto each b[j-1]
            shift = spare.reshape(-1)[: prev.size].reshape(prev.shape)[1:]
            np.subtract(columns[i - 1, a[:k]], spikes[:-1], out=shift)
            np.abs(shift, out=shift)
            shift *= q
            shift += prev[:-1]
            prev[1:] += 1.0
            np.minimum(prev[1:], shift, out=prev[1:])
            prev[0] = float(i)
            # resolve insertions top down: prev[j] = min_{k<=j} prev[k] + (j - k);
            # a call per row beats one strided pass from about 128 pairs on
            prev -= offsets
            if k < 128:
                np.minimum.accumulate(prev, axis=0, out=prev)
            for above, row in zip(rows, rows[1:]) if k >= 128 else ():
                np.minimum(above, row, out=row)
            prev += offsets
        dist[order[:k]] = prev[lb[:k], np.arange(k)]
        return dist

    return pairs


def victor_purpura_distance(a, b, q: float) -> float:
    """Victor-Purpura spike-train edit distance.

    Minimal-cost transformation of train ``a`` into train ``b`` where deleting
    or inserting a spike costs 1 and moving a spike by dt costs q * |dt|.
    Computed by the O(len(a) * len(b)) dynamic program of ``distance_matrix``, as
    its entry for the dataset of the two trains, so exactly symmetric.
    """
    d = LabeledDataset.from_spike_trains([a, b], [0, 0])
    return float(distance_matrix(d, MetricSpec.victor_purpura(q)).values[0, 1])


def _vr_pairs(columns, sizes, tau: float):
    """pairs(a, b): van Rossum distances between trains a[p] and b[p].

    The order of a sum changes its last bits, which near-equal trains cancel up
    into the distance; so each cross sum takes a's spikes first, a the earlier
    train in ``_spike_values``' order, which makes the distance exactly symmetric.
    Each pair's exponentials are summed as one contiguous row, as for a lone pair.
    """

    def kernel_sums(x, y):  # sum_kl exp(-|x_k - y_l| / tau), by (len x, len y) shape
        sums = np.empty(x.size, dtype=np.float64)
        shape = sizes[x] * columns.shape[0] + sizes[y]
        by_shape = np.argsort(shape, kind="stable")
        cuts = [0, *(np.flatnonzero(np.diff(shape[by_shape])) + 1).tolist(), x.size]
        for lo, hi in zip(cuts, cuts[1:]):  # a group of one shape, sliced in parts
            m1, m2 = sizes[x[by_shape[lo]]], sizes[y[by_shape[lo]]]
            step = max(1, _BLOCK // max(1, m1 * m2))
            for start in range(lo, hi, step):
                part = by_shape[start : min(hi, start + step)]
                e = np.subtract(columns[:m1, x[part]].T[:, :, None],
                                columns[:m2, y[part]].T[:, None, :])
                # exp(|x_k - y_l| / -tau), bitwise exp(-|x_k - y_l| / tau), in one buffer
                np.abs(e, out=e)
                np.divide(e, -tau, out=e)
                np.exp(e, out=e)
                sums[part] = np.add.reduce(e.reshape(part.size, m1 * m2), axis=1)
        return sums

    selfs = kernel_sums(np.arange(sizes.size), np.arange(sizes.size))

    def pairs(a, b):
        return np.sqrt(np.maximum(0.5 * (selfs[a] + selfs[b] - 2.0 * kernel_sums(a, b)), 0.0))

    return pairs


def van_rossum_distance(a, b, tau: float) -> float:
    """van Rossum distance between spike trains.

    Each train is mapped to a sum of causal exponentials exp(-(t - t_i)/tau)
    and the distance is sqrt((1/tau) * integral (f - g)^2 dt), evaluated in
    closed form through pairwise exp(-|t_i - t_j|/tau) sums; no time grid is
    involved.  A bucket of one pair of the code that fills ``distance_matrix``: its
    entry for the dataset of the two trains.
    """
    d = LabeledDataset.from_spike_trains([a, b], [0, 0])
    return float(distance_matrix(d, MetricSpec.van_rossum(tau)).values[0, 1])


def distance_matrix(d: LabeledDataset, m: MetricSpec) -> DistanceMatrix:
    """All pairwise distances: entry [i, j] is the distance of responses i and j."""
    if d.kind != m.variant:
        raise MetricMismatchError(f"{m.kind} metric requires {m.variant} responses, got {d.kind}")
    if m.kind == EUCLIDEAN:
        values = cdist(d.vectors, d.vectors)
        np.fill_diagonal(values, 0.0)
        return DistanceMatrix(values)
    if m.kind == VICTOR_PURPURA:
        return DistanceMatrix(_spike_values(d.trains, _vp_pairs, m.q))
    return DistanceMatrix(_spike_values(d.trains, _vr_pairs, m.tau))


def write_distance_csv(dm: DistanceMatrix, path) -> None:
    """Write the matrix as CSV, one row per line, 17-significant-digit reals."""
    with open(path, "w", encoding="ascii") as fh:
        for row in dm.values:
            fh.write(",".join(format_float(v) for v in row) + "\n")
