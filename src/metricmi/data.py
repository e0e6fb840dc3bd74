"""Stimulus-response datasets: in-memory model, file formats, stratified subsampling.

A dataset is a balanced design: ``n_s`` stimuli, each presented for exactly
``n_t`` trials, giving ``n_r = n_s * n_t`` responses.  Responses are either
real vectors (all of one dimension) or spike trains (sorted event times in
seconds); the two variants never mix within a dataset.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
import os
import resource
from itertools import chain, groupby

import numpy as np

VECTOR = "vector"
SPIKE = "spike"

FORMAT_CSV_VECTORS = "csv-vectors"
FORMAT_SPIKE_TEXT = "spike-text"

# %.17g round-trips IEEE doubles exactly
_FLOAT_FMT = ".17g"


class DatasetError(ValueError):
    """Invalid dataset contents."""


class DatasetParseError(DatasetError):
    """A line of an input file could not be parsed."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


class UnbalancedDesignError(DatasetError):
    """Trial counts differ across stimuli."""

    def __init__(self, stimulus: int, count: int, expected: int):
        super().__init__(
            f"stimulus {stimulus} has {count} trials, expected {expected}"
        )
        self.stimulus = stimulus


class MixedVariantError(DatasetError):
    """Vector and spike-train responses (or differing dimensions) in one dataset."""


def _as_readonly(a, dtype=np.float64) -> np.ndarray:
    # frozen in place where it owns its data; a view is copied first, or its base could write it
    a = np.ascontiguousarray(a, dtype=dtype)
    a = a if a.flags.owndata else a.copy()
    a.setflags(write=False)
    return a


def _check_spike_times(trains: list) -> None:
    """Raise for the first of the 1-d ``trains`` that holds a non-finite or a falling time.

    One pass over the trains laid end to end, the steps across two trains masked;
    within a train, a non-finite time is reported before a falling one.
    """
    if not trains:
        return
    times = np.concatenate(trains)
    train_of = np.repeat(np.arange(len(trains)), [t.size for t in trains])
    bad = np.flatnonzero(~np.isfinite(times))
    falls = np.flatnonzero((times[1:] < times[:-1]) & (train_of[1:] == train_of[:-1]))
    if bad.size and not (falls.size and train_of[falls[0]] < train_of[bad[0]]):
        raise DatasetError("spike times must be finite")
    if falls.size:
        raise DatasetError("spike times must be nondecreasing")


class LabeledDataset:
    """Immutable balanced set of labeled responses.

    Point order is significant (it is the file order for loaded data) and is
    the tie-breaking index used everywhere downstream.  Backing arrays are
    read-only, so instances are safe to share across threads.
    """

    def __init__(self, kind, labels, *, vectors=None, trains=None):
        if kind not in (VECTOR, SPIKE):
            raise DatasetError(f"unknown dataset kind {kind!r}")
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise DatasetError("labels must be a nonempty 1-d integer array")
        values, counts = np.unique(labels, return_counts=True)
        if values[0] < 0:
            raise DatasetError("stimulus labels must be nonnegative")
        n_r, n_s = labels.size, int(values[-1]) + 1
        n_t = int(counts[0]) if values[0] == 0 else 0
        # the first stimulus of 0..n_s-1 whose count is not stimulus 0's: a
        # label, or, where stimulus 0 has trials, a gap of 0 trials
        bad = np.flatnonzero((values != np.arange(values.size)) | (counts != n_t))
        if bad.size:
            i = int(bad[0])
            found = (values[i], counts[i]) if values[i] == i or n_t == 0 else (i, 0)
            raise UnbalancedDesignError(int(found[0]), int(found[1]), n_t)

        if kind == VECTOR:
            if vectors is None or trains is not None:
                raise DatasetError("vector datasets take a coordinate matrix")
            vectors = np.asarray(vectors, dtype=np.float64)
            if vectors.ndim != 2 or vectors.shape[0] != n_r:
                raise DatasetError(
                    f"coordinate matrix must be ({n_r}, n_d), got {vectors.shape}"
                )
            if vectors.shape[1] < 1:
                raise DatasetError("vector responses need at least one coordinate")
            if not np.all(np.isfinite(vectors)):
                raise DatasetError("coordinates must be finite")
            self._vectors = _as_readonly(vectors)
            self._trains = None
        else:
            if trains is None or vectors is not None:
                raise DatasetError("spike datasets take a sequence of trains")
            if len(trains) != n_r:
                raise DatasetError(f"expected {n_r} trains, got {len(trains)}")
            checked = []
            for t in trains:
                try:
                    t = np.asarray(t, dtype=np.float64)
                    if t.ndim != 1:
                        raise DatasetError("spike trains must be one-dimensional")
                except (TypeError, ValueError):  # an earlier train's bad times come first
                    _check_spike_times(checked)
                    raise
                checked.append(t)
            _check_spike_times(checked)
            self._vectors = None
            self._trains = tuple(_as_readonly(t) for t in checked)

        labels = _as_readonly(labels, np.int64)
        positions = np.argsort(labels, kind="stable").reshape(n_s, n_t)
        positions.setflags(write=False)
        self.kind = kind
        self._labels = labels
        self._positions = positions
        self.n_s = n_s
        self.n_t = n_t

    @classmethod
    def from_vectors(cls, vectors, labels) -> "LabeledDataset":
        return cls(VECTOR, labels, vectors=vectors)

    @classmethod
    def from_spike_trains(cls, trains, labels) -> "LabeledDataset":
        return cls(SPIKE, labels, trains=trains)

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    @property
    def positions(self) -> np.ndarray:
        """(n_s, n_t) point indices: row s holds stimulus s's points, ascending."""
        return self._positions

    @property
    def n_r(self) -> int:
        return self._labels.size

    @property
    def n_d(self) -> int:
        if self._vectors is None:
            raise MixedVariantError("spike-train datasets have no coordinate dimension")
        return self._vectors.shape[1]

    @property
    def vectors(self) -> np.ndarray:
        if self._vectors is None:
            raise MixedVariantError("dataset holds spike trains, not vectors")
        return self._vectors

    @property
    def trains(self) -> tuple:
        if self._trains is None:
            raise MixedVariantError("dataset holds vectors, not spike trains")
        return self._trains

    def __repr__(self):
        return (
            f"LabeledDataset(kind={self.kind!r}, n_s={self.n_s}, "
            f"n_t={self.n_t}, n_r={self.n_r})"
        )


def _parse_label(token: str, path, line_no: int) -> int:
    try:
        label = int(token)
    except ValueError:
        raise DatasetParseError(path, line_no, f"bad stimulus label {token!r}") from None
    if label < 0:
        raise DatasetParseError(path, line_no, f"stimulus label {label} is negative")
    return label


def _parse_float(token: str, path, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DatasetParseError(path, line_no, f"bad number {token!r}") from None
    if not math.isfinite(value):
        raise DatasetParseError(path, line_no, f"non-finite value {token!r}")
    return value


def _read_lines(path) -> list[str]:
    # the file's lines without their newlines, as iterating over it gives them
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()  # the last newline ends a line; it starts none
    return lines


def _load_csv_vectors(path) -> LabeledDataset:
    # one pass: every coordinate through one float conversion, the checks in
    # the constructor.  Any failure re-parses line by line for the first
    # bad line's message and number.
    lines = _read_lines(path)
    rows = [line.split(",") for line in lines]
    width = len(rows[0]) if rows else 0
    if width >= 2 and all(len(row) == width for row in rows):
        try:
            labels = [int(row[0]) for row in rows]
            coords = list(map(float, chain.from_iterable(row[1:] for row in rows)))
            vectors = np.array(coords).reshape(len(rows), width - 1)
            return LabeledDataset.from_vectors(vectors, labels)
        except (ValueError, OverflowError):
            pass
    return _parse_csv_lines(path, lines)


def _parse_csv_lines(path, lines) -> LabeledDataset:
    labels, rows = [], []
    n_d = None
    for line_no, line in enumerate(lines, start=1):
        if not line:
            raise DatasetParseError(path, line_no, "blank line")
        parts = line.split(",")
        if len(parts) < 2:
            raise DatasetParseError(path, line_no, "expected label,x0,...")
        labels.append(_parse_label(parts[0], path, line_no))
        coords = [_parse_float(p, path, line_no) for p in parts[1:]]
        if n_d is None:
            n_d = len(coords)
        elif len(coords) != n_d:
            raise MixedVariantError(
                f"{path}:{line_no}: row has {len(coords)} coordinates, expected {n_d}"
            )
        rows.append(coords)
    if not rows:
        raise DatasetParseError(path, 1, "empty file")
    return LabeledDataset.from_vectors(np.asarray(rows), labels)


def _load_spike_text(path) -> LabeledDataset:
    # one pass, as for csv-vectors: the times through one float conversion,
    # their checks in the constructor, and any failure re-parsed line by line
    lines = _read_lines(path)
    rows = [line.split() for line in lines]
    try:
        labels = [int(row[0]) for row in rows]
        counts = [int(row[1]) for row in rows]
        if rows and all(len(row) == 2 + k for row, k in zip(rows, counts)):
            times = list(map(float, chain.from_iterable(row[2:] for row in rows)))
            trains = np.split(np.array(times), np.cumsum(counts[:-1]))
            return LabeledDataset.from_spike_trains(trains, labels)
    except (IndexError, ValueError, OverflowError):
        pass
    return _parse_spike_lines(path, lines)


def _parse_spike_lines(path, lines) -> LabeledDataset:
    labels, trains = [], []
    for line_no, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            raise DatasetParseError(path, line_no, "blank line")
        if len(parts) < 2:
            raise DatasetParseError(path, line_no, "expected label k t1 ... tk")
        labels.append(_parse_label(parts[0], path, line_no))
        try:
            k = int(parts[1])
        except ValueError:
            raise DatasetParseError(
                path, line_no, f"bad spike count {parts[1]!r}"
            ) from None
        if k < 0:
            raise DatasetParseError(path, line_no, f"negative spike count {k}")
        if len(parts) != 2 + k:
            raise DatasetParseError(
                path, line_no, f"expected {k} spike times, found {len(parts) - 2}"
            )
        times = [_parse_float(p, path, line_no) for p in parts[2:]]
        if any(b < a for a, b in zip(times, times[1:])):
            raise DatasetParseError(path, line_no, "spike times must be ascending")
        trains.append(np.asarray(times))
    if not trains:
        raise DatasetParseError(path, 1, "empty file")
    return LabeledDataset.from_spike_trains(trains, labels)


def load_dataset(path, format: str) -> LabeledDataset:
    """Read a dataset file.

    ``csv-vectors``: header-free lines ``label,x0,x1,...``.
    ``spike-text``: one train per line, ``label k t1 ... tk`` with times ascending.

    Raises :class:`DatasetParseError` (with line number), :class:`MixedVariantError`,
    or :class:`UnbalancedDesignError`.
    """
    if format == FORMAT_CSV_VECTORS:
        return _load_csv_vectors(path)
    if format == FORMAT_SPIKE_TEXT:
        return _load_spike_text(path)
    raise ValueError(f"unknown dataset format {format!r}")


def save_dataset(d: LabeledDataset, path) -> None:
    """Write a dataset in its native format (17 significant digits, exact round-trip)."""
    with open(path, "w", encoding="ascii") as fh:
        if d.kind == VECTOR:
            for label, row in zip(d.labels, d.vectors):
                coords = ",".join(format_float(x) for x in row)
                fh.write(f"{label},{coords}\n")
        else:
            for label, train in zip(d.labels, d.trains):
                times = " ".join(format_float(t) for t in train)
                line = f"{label} {train.size}"
                fh.write(line + (" " + times if train.size else "") + "\n")


def format_float(x: float) -> str:
    """Render a double with enough digits to round-trip exactly."""
    return format(float(x), _FLOAT_FMT)


def derived_seed(*parts: int) -> int:
    """Deterministic substream seed from (base seed, index, purpose) tuples.

    All randomness in this package flows through numpy's PCG64 generator
    seeded this way, so every result is reproducible and independent of
    evaluation order or worker count.
    """
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def memory_limit() -> int:
    """The most memory, in bytes, that this process can get; limits are only read.

    The least of physical memory, the soft ``RLIMIT_AS`` and ``RLIMIT_DATA``,
    and the limit of the process's memory cgroup (v2 ``memory.max``, v1
    ``memory.limit_in_bytes``) where one can be read.
    """
    limits = [os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")]
    limits += [resource.getrlimit(which)[0] for which in (resource.RLIMIT_AS, resource.RLIMIT_DATA)]
    with contextlib.suppress(OSError):
        with open("/proc/self/cgroup", "rb") as fh:
            groups = [line.split(":", 2) for line in fh.read().decode("ascii").splitlines()]
        for _, controllers, path in groups:
            if not controllers:
                name = f"/sys/fs/cgroup{path}/memory.max"
            elif "memory" in controllers.split(","):
                name = f"/sys/fs/cgroup/memory{path}/memory.limit_in_bytes"
            else:
                continue
            with contextlib.suppress(OSError, ValueError), open(name, "rb") as fh:
                limits.append(int(fh.read()))  # "max" is no limit
    return min(limit for limit in limits if limit != resource.RLIM_INFINITY)


def check_draw_memory(n_s: int, n_t: int, sizes, repeats: int, curves: int) -> None:
    """Raise MemoryError, before drawing, if ``curves`` curves' subsample indices would not fit.

    A curve's indices take 8 bytes a trial: ``repeats`` times n_s * k for
    each k of ``sizes`` below n_t, and n_s * n_t once for a k of n_t.
    """
    need = curves * 8 * n_s * sum(k if k == n_t else repeats * k for k in sizes)
    if need > (limit := memory_limit()):
        what = "one curve" if curves == 1 else f"{curves} curves"
        raise MemoryError(f"repeats = {repeats}: the subsample indices of {what} need "
                          f"{need} bytes, more than the {limit} bytes this process can use")


def subsample_indices(d: LabeledDataset, lam: float, seed: int) -> np.ndarray:
    """Point indices of a stratified subsample: floor(lam * n_t) trials per stimulus.

    Selection is uniform without replacement within each stimulus: the picks
    of ``default_rng(seed).choice(row, k, replace=False)`` from each row of
    ``d.positions`` in turn, returned in ascending order so the original
    point order (and hence all tie-breaking) is preserved.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"subsample fraction must be in (0, 1], got {lam}")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    k = math.floor(lam * d.n_t)
    if k < 1:
        raise ValueError(
            f"fraction {lam} leaves no trials (floor({lam} * {d.n_t}) = 0)"
        )
    return _choice_loop(d, k, np.random.PCG64(seed))


def curve_subsamples(d: LabeledDataset, sizes, repeats: int, seeds) -> list[list[list]]:
    """One curve's stratified subsamples per seed: the draws of each trial count k of ``sizes``.

    A k below n_t gets ``repeats`` draws; draw ri of ``sizes[li]`` in the
    curve of seed s is ``subsample_indices`` at k trials per stimulus and
    seed ``derived_seed(s, li, ri)``.  A k of n_t is the whole dataset, once.
    ``check_draw_memory`` of all the curves runs first.  Each curve's seeds,
    then every PCG64 state, come from vectorized passes of SeedSequence's
    hash, and one ``_choice_batch`` draws every fraction of every curve.
    ``subsample_draws`` draws one curve, the benchmark a dataset's kernel
    and histogram curves.
    """
    seeds = list(seeds)
    if any(seed < 0 for seed in seeds):
        raise ValueError("seed must be a nonnegative integer")
    check_draw_memory(d.n_s, d.n_t, sizes, repeats, len(seeds))
    order = sorted((li for li, k in enumerate(sizes) if k < d.n_t), key=lambda li: -sizes[li])
    li = np.repeat(np.array(order, dtype=np.uint64), repeats)
    ri = np.tile(np.arange(repeats, dtype=np.uint64), len(order))
    # lanes by fraction, largest k first, then by curve and repeat, so ks do not increase
    lanes = np.array([_derived_seeds(seed, li, ri) for seed in seeds], dtype=np.uint32)
    lanes = lanes.reshape(len(seeds), len(order), repeats)
    states = _pcg64_states(lanes.transpose(1, 0, 2).reshape(1, -1), 1)
    ks = [sizes[i] for i in order for _ in range(len(seeds) * repeats)]
    draws = _choice_batch(d, ks, states)
    curves = [[[np.arange(d.n_r, dtype=np.intp)] for _ in sizes] for _ in seeds]
    for at, i in enumerate(order):
        for j, curve in enumerate(curves):
            start = (at * len(seeds) + j) * repeats
            curve[i] = draws[start : start + repeats]
    return curves


# numpy's SeedSequence hash on uint32 words (bit_generator.pyx) and PCG64 multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_BUCKET_CELLS = 2**16  # at most this many (draw, point) cells are drawn together


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    # the constants of n successive SeedSequence hashes, from init on, as a column
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hash(value, consts):
    # hash i of a run xors constant i and multiplies by constant i + 1
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _mix(x, y):
    value = x * _MIX_L - y * _MIX_R
    return value ^ (value >> 16)


def _seed_states(entropy: np.ndarray, lengths, n_words: int) -> np.ndarray:
    """``SeedSequence(words).generate_state(n_words)`` of every lane: (n_words, lanes) uint32.

    Column i of the (L, lanes) ``entropy`` holds lane i's ``lengths[i]``
    words, zeros after them.  The pool of 4 words hashes a zero for each one
    that a lane lacks, so a short lane is its words padded; a word past the
    fourth is mixed into the whole pool, and only where the lane has it.
    """
    consts = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * max(len(entropy) - 4, 0))
    pool = np.zeros((4, entropy.shape[1]), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:4]
    pool = _hash(pool, consts[:5])
    for src in range(4):
        # pool word src enters each other word in turn, hashed afresh for each
        dst = [i for i in range(4) if i != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], consts[4 + 3 * src : 8 + 3 * src]))
    for i, word in enumerate(entropy[4:]):
        mixed = _mix(pool, _hash(word, consts[16 + 4 * i : 21 + 4 * i]))
        pool = np.where(lengths > 4 + i, mixed, pool)
    return _hash(pool[np.arange(n_words) % 4], _hash_consts(_INIT_B, _MULT_B, n_words))


def _derived_seeds(seed: int, li: np.ndarray, ri: np.ndarray) -> np.ndarray:
    """``derived_seed(seed, li[i], ri[i])`` of every lane i, as uint32; li and ri uint64."""
    seed = operator.index(seed)
    # SeedSequence's words of the seed, least significant first
    base = [seed >> at & _MASK32 for at in range(0, max(seed.bit_length(), 1), 32)]
    long_li = li > _MASK32
    entropy = np.empty((len(base) + 4, li.size), dtype=np.uint32)
    entropy[: len(base)] = np.array(base)[:, None]
    entropy[len(base)] = li & _MASK32
    # ri's words follow a second word of li where it has one, zeros after them
    rest = np.stack([li >> 32, ri & _MASK32, ri >> 32, np.zeros_like(ri)])
    entropy[len(base) + 1 :] = np.where(long_li, rest[:3], rest[1:])
    return _seed_states(entropy, len(base) + 2 + long_li + (ri > _MASK32), 1)[0]


def _pcg64_states(entropy: np.ndarray, lengths) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``np.random.PCG64(seed)`` for the seed of every lane.

    Each seed is given by its SeedSequence words, as ``_seed_states`` takes
    them.  PCG64 reads ``generate_state(4, uint64)`` as two 128-bit numbers,
    high word first: a start s and a stream t.  Its increment is 2t + 1, and
    its state two LCG steps from 0 with s added between them.
    """
    words = _seed_states(entropy, lengths, 8)
    states = []
    for s_hi, s_lo, t_hi, t_lo in np.ascontiguousarray(words.T, "<u4").view("<u8").tolist():
        inc = ((t_hi << 64 | t_lo) << 1 | 1) & _MASK128
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _at_state(bitgen, state):
    """``bitgen``, a PCG64, set to ``state``, a ``(state, inc)`` pair, with no half word held."""
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state[0], "inc": state[1]},
                    "has_uint32": 0, "uinteger": 0}
    return bitgen


def _choice_batch(d: LabeledDataset, ks: list, states: list) -> list[np.ndarray]:
    """Per lane, the sorted picks of ``Generator(bitgen).choice(row, ks[i], replace=False)``.

    ``bitgen`` is a PCG64 at ``states[i]``, a ``(state, inc)`` pair, and
    ``ks`` does not increase.  ``choice`` runs Floyd's algorithm: pick j =
    n_t - k ... n_t - 1 takes (u * (j + 1)) >> 32 of the next 32-bit value u
    (Lemire's bounded integer), or j if that is chosen already; then it
    shuffles the picks with k - 1 more values, consumed here but moot for
    sorted indices.  Step t runs at once on every (lane, stimulus) row with
    k > t, a prefix of the rows.  ``choice`` itself draws a lane holding a
    value that Lemire's method rejects, and past numpy's tail-shuffle cutoff.
    Lanes go in buckets of at most ``_BUCKET_CELLS`` (lane, point) cells, or
    one lane.
    """
    step = max(1, _BUCKET_CELLS // d.n_r)
    if len(ks) > step:
        return [draw for at in range(0, len(ks), step)
                for draw in _choice_batch(d, ks[at : at + step], states[at : at + step])]
    n_s, n_t = d.positions.shape
    fresh = functools.partial(_at_state, np.random.PCG64(0))
    tail = sum(n_t > 10000 and k > n_t // 50 for k in ks)  # the largest ks
    looped = [_choice_loop(d, k, fresh(state)) for k, state in zip(ks[:tail], states[:tail])]
    ks, states = ks[tail:], states[tail:]
    if not ks:
        return looped
    rows = len(ks) * n_s
    picks = np.zeros((ks[0], rows), dtype=np.intp)  # pick t of every row
    # the bounds of k picks: Floyd's j + 1, the last k of up; the shuffle's, the last k - 1 of down
    up, down = np.arange(1, n_t + 1, dtype=np.uint64), np.arange(n_t, 1, -1, dtype=np.uint64)
    rejected, start = [], 0
    for k, lanes in groupby(ks):
        stop = start + len(list(lanes))
        values = n_s * (2 * k - 1)
        raw = np.array([fresh(s).random_raw(-(-values // 2)) for s in states[start:stop]], "<u8")
        u = raw.view("<u4")[:, :values].reshape(-1, 2 * k - 1)  # low half first
        bounds = np.concatenate([up[n_t - k :], down[n_t - k :]])
        m = u * bounds
        low = (m & _MASK32) < (1 << 32) % bounds
        if low.any():
            rejected += (start + np.flatnonzero(low.reshape(stop - start, -1).any(axis=1))).tolist()
        picks[:k, start * n_s : stop * n_s] = (m[:, :k] >> 32).T
        start = stop
    # on flat positions in a table of rows: row r takes j = n_t - k + t at step t if needed
    base = np.arange(rows) * n_t
    steps = np.arange(ks[0])[:, None]
    picks += base
    floyd_j = base + n_t - np.repeat(ks, n_s) + steps
    chosen = np.zeros(rows * n_t, dtype=bool)
    for t, active in enumerate((n_s * (steps < ks).sum(axis=1)).tolist()):
        at = picks[t, :active]
        chosen[np.where(chosen[at], floyd_j[t, :active], at)] = True
    mask = np.zeros((len(ks), d.n_r), dtype=bool)
    mask[:, d.positions] = chosen.reshape(len(ks), n_s, n_t)
    flat = np.flatnonzero(mask) % d.n_r
    ends = np.cumsum(n_s * np.array(ks)).tolist()
    draws = [flat[end - n_s * k : end] for end, k in zip(ends, ks)]
    for lane in rejected:
        draws[lane] = _choice_loop(d, ks[lane], fresh(states[lane]))
    return looped + draws


def _choice_loop(d: LabeledDataset, k: int, bitgen) -> np.ndarray:
    rng = np.random.Generator(bitgen)
    picks = [rng.choice(row, size=k, replace=False) for row in d.positions]
    return np.sort(np.concatenate(picks)).astype(np.intp)
