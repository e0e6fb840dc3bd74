"""Mutual information estimators for a discrete stimulus and metric-space responses.

Each estimator is a config class whose method ``subset_bits(d, dm, subsets)``
gives the estimate on each of a list of subsets (index arrays) of a labeled
dataset, whose ``fewest_trials(n_s, n_t)`` is the fewest trials per stimulus
of a subsample it can evaluate, and whose ``tag(bits, n_r)`` names the
estimator and its resolved config beside an estimate on all points.  The
first two read the dataset through its distance matrix, and only on
ascending subsets with equally many points of each stimulus:

* ``KernelConfig`` - square-kernel density estimate with the bandwidth given as
  probability mass: the kernel around a point is the region holding its
  ``n_h`` nearest neighbors (self included), so the radius adapts to the
  local density and the estimate depends only on neighbor ranks.
* ``KsgConfig`` - digamma-based k-nearest-neighbor estimator adapted to a
  discrete stimulus variable.
* ``HistogramConfig`` - plug-in estimate over fixed-width bins (vector data
  only), the classical baseline.

``kernel_mi``, ``ksg_mi`` and ``histogram_mi`` are ``subset_bits`` on the one
subset of all points; a bias curve calls it once on all of its subsamples.
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
        return self._bandwidth(n_r, n_r)

    def subset_bandwidth(self, n_r: int, size: int) -> int:
        """The bandwidth on a subset of ``size`` of the n_r points; 0 where it holds none.

        The mass fraction is held constant.  A count scales by exact integer
        arithmetic, so that all n_r points keep the configured n_h bit for bit.
        """
        if self.n_h is None:
            return math.floor(self.h * size)
        return (self.n_h * size) // n_r

    def fewest_trials(self, n_s: int, n_t: int) -> int:
        """The fewest trials per stimulus with a bandwidth of one point; n_t + 1 if none."""
        if self.n_h is not None and self.n_h > n_s * n_t:  # more than all the points
            return n_t + 1
        return next((k for k in range(1, n_t + 1)
                     if self.subset_bandwidth(n_s * n_t, n_s * k) >= 1), n_t + 1)

    def _bandwidth(self, n_r: int, size: int) -> int:
        if self.n_h is not None and self.n_h > n_r:
            raise ValueError(f"n_h = {self.n_h} exceeds the {n_r} data points")
        n_h = self.subset_bandwidth(n_r, size)
        if n_h < 1:
            raise ValueError(f"bandwidth resolves to zero points on {size} of the {n_r} points")
        return n_h

    def subset_counts(self, d: LabeledDataset, dm: DistanceMatrix, subsets):
        """Yield (c, n_h) of each subset: its bandwidth, and c_i of each of its points.

        Every subset's counts first read the prefix that all points read,
        2 * n_h columns or ceil(2 * h * n_r) for a fraction.  No subset asks
        for more, so the prefix that the first read keeps serves all the
        others, whichever subset comes first.
        """
        _check_inputs(d, dm, "kernel")
        table = NeighborTable(dm, d.labels)
        width = 2 * self.n_h if self.h is None else math.ceil(2 * self.h * d.n_r)
        for subset in subsets:
            _trials(d, subset)
            n_h = self._bandwidth(d.n_r, subset.size)
            yield table.kernel_counts(n_h, subset, width), n_h

    def subset_bits(self, d: LabeledDataset, dm: DistanceMatrix, subsets) -> list[float]:
        """Kernel estimate in bits on each subset, at the bandwidth scaled to its size."""
        return [kernel_bits_from_counts(c, d.n_s, n_h)
                for c, n_h in self.subset_counts(d, dm, subsets)]

    def tag(self, bits: float, n_r: int) -> "MiEstimate":
        """``bits`` as the kernel estimate on all n_r points."""
        return MiEstimate(bits, "kernel", {"n_h": self.resolve(n_r), "h": self.h})


@dataclass(frozen=True)
class KsgConfig:
    """Neighbor parameter for the digamma estimator.

    C_i is counted by neighbor rank with the point itself excluded, so ties
    in distance cannot double-count (see ``NeighborTable.ksg_counts``).
    """

    n_k: int

    def __post_init__(self):
        if self.n_k < 1:
            raise ValueError(f"n_k must be >= 1, got {self.n_k}")

    def fewest_trials(self, n_s: int, n_t: int) -> int:
        """n_k + 1: the fewest trials per stimulus that leave each point n_k usable neighbors."""
        return self.n_k + 1

    def subset_bits(self, d: LabeledDataset, dm: DistanceMatrix, subsets) -> list[float]:
        """KSG estimate in bits on each subset, each balanced over the n_s stimuli."""
        _check_inputs(d, dm, "ksg")
        table = NeighborTable(dm, d.labels)
        fewest = self.fewest_trials(d.n_s, d.n_t)
        bits = []
        for subset in subsets:
            n_t = _trials(d, subset)
            if n_t < fewest:
                raise ValueError(
                    f"n_k = {self.n_k} needs at least {fewest} trials per stimulus, "
                    f"dataset has n_t = {n_t}"
                )
            # balanced with n_t > n_k, every point has n_k usable neighbors.
            # psi(n_k) is folded into the per-point terms so that the degenerate
            # cases (every C equal to n_k, e.g. a single stimulus) cancel exactly
            counts, _ = table.ksg_counts(self.n_k, subset)
            delta = special.digamma(counts) - digamma(self.n_k)
            nats = digamma(subset.size) - digamma(n_t) - float(np.mean(delta))
            bits.append(nats / _LN2)
        return bits

    def tag(self, bits: float, n_r: int) -> "MiEstimate":
        """``bits`` as the KSG estimate on all n_r points."""
        return MiEstimate(bits, "ksg", {"n_k": self.n_k})


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

    def fewest_trials(self, n_s: int, n_t: int) -> int:
        """1: the plug-in estimate is defined on any subset."""
        return 1

    def subset_bits(self, d: LabeledDataset, dm, subsets) -> list[float]:
        """Plug-in estimate in bits on each subset; ``dm`` is not read."""
        if d.kind != VECTOR:
            raise MixedVariantError("histogram estimator requires vector responses")
        return plugin_bits(bin_ids(d.vectors, self), d.labels, d.n_s, subsets)

    def tag(self, bits: float, n_r: int) -> "MiEstimate":
        """``bits`` as the histogram estimate on all n_r points."""
        return MiEstimate(bits, "histogram", {"width": self.width, "origin": self.origin})


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


def _check_inputs(d: LabeledDataset, dm: DistanceMatrix, name: str) -> None:
    if dm is None:
        raise ValueError(f"{name} estimation needs a distance matrix")
    if dm.n_r != d.n_r:
        raise ValueError(
            f"distance matrix is {dm.n_r}x{dm.n_r} but dataset has {d.n_r} points"
        )


def _trials(d: LabeledDataset, subset: np.ndarray) -> int:
    """Trials per stimulus in a subset of the form ``subsample_draws`` makes, else ValueError."""
    counts = np.bincount(d.labels[subset], minlength=d.n_s).tolist()
    ascending = subset.size == 0 or subset[0] >= 0 and not (subset[1:] <= subset[:-1]).any()
    if not ascending or counts.count(counts[0]) != d.n_s:
        raise ValueError("a subset must be ascending point indices, "
                         f"equally many of each of the {d.n_s} stimuli")
    return counts[0]


class NeighborTable:
    """Each point's neighbors in (distance, index) order, counted within a subset.

    Counts read a prefix of K columns of the matrix's own order, K doubling
    up to n_r for the rows it leaves short (``DistanceMatrix.order_prefix``).
    An ascending subset's own order is that order filtered to its members,
    since filtering keeps the relative order of equal distances, and every
    count is an integer (``_count_to_kth`` of flat positions): a count on a
    subset equals its submatrix's, sorted afresh, bit for bit.
    """

    def __init__(self, dm: DistanceMatrix, labels: np.ndarray):
        labels = np.asarray(labels)
        if labels.shape != (dm.n_r,):
            raise ValueError(f"labels of shape {labels.shape} do not match "
                             f"the {dm.n_r}x{dm.n_r} distance matrix")
        # counts compare labels only for equality, so dense int32 ids do
        kinds, ids = np.unique(labels, return_inverse=True)
        self._labels = ids.astype(np.int32)
        self._n_s = kinds.size
        self._dm = dm

    def _columns(self, members: int, subset) -> int:
        # columns of the whole order that hold about `members` of the subset
        return -(-members * self._labels.size // subset.size)

    def _count(self, subset, need, width, count) -> tuple[np.ndarray, np.ndarray]:
        # count(points, cols, tags) -> (counts, found) on the order prefixes
        # cols of the rows points, tags[j] the label id of member j and -1
        # elsewhere; the first prefix is `width` columns, and a row is done
        # once it has found `need` or has been read in full
        n = self._labels.size
        tags = np.full(n, -1, dtype=np.int32)
        tags[subset] = self._labels[subset]
        counts, found = np.empty((2, subset.size), dtype=np.int64)
        todo = np.arange(subset.size)
        while todo.size:
            width = min(width, n)
            points = subset[todo]
            c, f = count(points, self._dm.order_prefix(points, width), tags)
            done = (f >= need) | (width == n)
            counts[todo[done]], found[todo[done]] = c[done], f[done]
            todo = todo[~done]
            width *= 2
        return counts, found

    def kernel_counts(self, n_h: int, subset, width: int) -> np.ndarray:
        """c_i: same-stimulus members up to each member's n_h-th nearest member.

        The point itself is one of them, unless n_h or more lower-index
        members tie with it at distance 0 and push it out, so that c_i can be
        0 (ROADMAP item 1); a subset of fewer than n_h members counts them
        all.  The first prefix is ``width`` columns of the whole order:
        ``KernelConfig`` passes the width of all points to every subset.
        """
        labels = self._labels

        def count(points, cols, tags):
            tag = tags[cols]
            same = np.flatnonzero(tag == labels[points, None])
            return _count_to_kth(np.flatnonzero(tag >= 0), same, n_h, tag.shape)

        return self._count(subset, n_h, width, count)[0]

    def ksg_counts(self, n_k: int, subset) -> tuple[np.ndarray, np.ndarray]:
        """(C, usable): each member's KSG count and its usable neighbors found.

        C_i counts the members other than self at or before the anchor, the
        n_k-th same-stimulus member other than self.  usable_i is below n_k
        only where the subset holds fewer than n_k for point i; there C_i
        counts up to the last of them (0 with none), which ``KsgConfig``
        never reads, since it requires n_t > n_k.  The first prefix is the
        columns of the whole order that hold about 2 * n_k * n_s members.
        """
        labels = self._labels

        def count(points, cols, tags):
            tag = tags[cols]
            others = cols != points[:, None]
            usable = np.flatnonzero(others & (tag == labels[points, None]))
            others &= tag >= 0
            return _count_to_kth(usable, np.flatnonzero(others), n_k, tag.shape)

        return self._count(subset, n_k, self._columns(2 * n_k * self._n_s, subset), count)


def _count_to_kth(first, second, k: int, shape) -> tuple[np.ndarray, np.ndarray]:
    """(counts, found) per row of a (rows, width) array, from ascending flat positions.

    found_r counts row r's ``first`` entries, counts_r its ``second`` entries up to its
    k-th ``first`` entry (its last when fewer; 0 with none).  Three searchsorted calls.
    """
    rows, width = shape
    starts = np.arange(0, rows * width + 1, width)
    bounds = first.searchsorted(starts)
    found = bounds[1:] - bounds[:-1]
    stop = starts[:-1].copy()  # one past the k-th entry; the row's start where it has none
    has = found > 0
    stop[has] = first[np.minimum(bounds[:-1] + k, bounds[1:])[has] - 1] + 1
    return second.searchsorted(stop) - second.searchsorted(starts[:-1]), found


def kernel_bits_from_counts(c: np.ndarray, n_s: int, n_h: int) -> float:
    """Mean of log2(n_s * c / n_h) in fixed index order.

    The log2(n_s) term is split out so that the separated-cluster extreme
    (every c equal to n_h) yields log2(n_s) exactly, with no accumulated
    rounding from the mean.
    """
    return math.log2(n_s) + float(_mean(np.log2(c / n_h)))


def _mean(a: np.ndarray) -> np.float64:
    """``np.mean`` of a 1-d float64 array, bit for bit, at a third of its call cost.

    ``np.mean`` adds with this same ``np.add.reduce`` and divides by the count.
    """
    return np.add.reduce(a) / a.size


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
    return config.tag(config.subset_bits(d, dm, [np.arange(d.n_r)])[0], d.n_r)


def ksg_mi(d: LabeledDataset, dm: DistanceMatrix, config: KsgConfig) -> MiEstimate:
    """Digamma k-nearest-neighbor MI estimate, converted from nats to bits.

    I_e = psi(n_k) + psi(n_r) - psi(n_t) - mean_i psi(C_i), where C_i counts
    the points of any stimulus within reach of i's n_k-th nearest
    same-stimulus response; bits = I_e / ln 2.
    """
    return config.tag(config.subset_bits(d, dm, [np.arange(d.n_r)])[0], d.n_r)


def bin_ids(vectors: np.ndarray, config: HistogramConfig) -> np.ndarray:
    """Dense ids of the occupied bins, one per point, in lexicographic bin order.

    The integer cells are lexsorted once, first dimension first, and each
    point takes the number of distinct cells before its own: the inverse
    ``np.unique(cells, axis=0)`` gives, without its row-view sort.  Raises
    ValueError when a cell index is not finite or does not fit in int64,
    where a cast would send distinct cells to one bin.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cells = np.floor((vectors - config.origin) / config.width)
    if not np.all((cells >= -(2.0**63)) & (cells < 2.0**63)):
        raise ValueError(
            f"histogram cell index out of the int64 range at bin width {config.width!r} "
            f"and origin {config.origin!r}"
        )
    cells = cells.astype(np.int64)
    order = np.lexsort(cells.T[::-1])
    ranked = cells[order]
    new = np.ones(order.size, dtype=bool)  # the first point of each cell
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    ids = np.empty_like(order)
    ids[order] = np.cumsum(new) - 1
    return ids


# cells of the dense (subset, bin, stimulus) tables that plugin_bits counts at
# once: a curve's subsamples all at once, over many bins, would hold their
# tables together, not one chunk's
_CHUNK_CELLS = 2**12


def plugin_bits(ids: np.ndarray, labels: np.ndarray, n_s: int, subsets) -> list[float]:
    """Plug-in MI in bits of each subset's (bin, stimulus) contingency table.

    ``ids`` are dense bin ids (``bin_ids``) and ``subsets`` index arrays of
    points.  The tables of a chunk of subsets, at most ``_CHUNK_CELLS``
    cells and at least one subset, come from one ``np.bincount``; each
    subset's bits are one sum over its own occupied cells in row-major
    order, so they equal evaluating its table alone, bit for bit.
    """
    n_bins = int(ids.max()) + 1
    cells = n_bins * n_s
    step = max(1, _CHUNK_CELLS // cells)
    bits = []
    for start in range(0, len(subsets), step):
        chunk = subsets[start : start + step]
        sizes = np.array([subset.size for subset in chunk])
        members = np.concatenate(chunk)
        keys = np.repeat(np.arange(len(chunk)) * cells, sizes)
        keys += ids[members] * n_s + labels[members]
        counts = np.bincount(keys, minlength=len(chunk) * cells)
        counts = counts.reshape(len(chunk), n_bins, n_s)
        joint = counts / sizes.astype(np.float64)[:, None, None]
        k, b, s = np.nonzero(counts)
        p = joint[k, b, s]
        ends = np.cumsum(np.bincount(k, minlength=len(chunk))).tolist()
        spans = list(zip([0] + ends[:-1], ends))
        p_bin = joint.sum(axis=2)
        if n_s > 1:
            # added bin by bin in order, as on a table alone: empty bins add 0
            p_stim = joint.sum(axis=1)
        else:
            # numpy sums a single column pairwise, so over the occupied bins only
            p_stim = np.array([[p[a:e].sum()] for a, e in spans])
        terms = p * np.log2(p / (p_bin[k, b] * p_stim[k, s]))
        bits += [float(terms[a:e].sum()) for a, e in spans]
    return bits


def histogram_mi(d: LabeledDataset, config: HistogramConfig) -> MiEstimate:
    """Plug-in MI over fixed-width bins: floor((x - origin) / width) per dimension.

    Evaluated by ``plugin_bits`` on the one subset of all points, the code
    that every subsample of a histogram bias curve runs.
    """
    return config.tag(config.subset_bits(d, None, [np.arange(d.n_r)])[0], d.n_r)
