"""Stimulus-response datasets: in-memory model, file formats, stratified subsampling.

A dataset is a balanced design: ``n_s`` stimuli, each presented for exactly
``n_t`` trials, giving ``n_r = n_s * n_t`` responses.  Responses are either
real vectors (all of one dimension) or spike trains (sorted event times in
seconds); the two variants never mix within a dataset.
"""

from __future__ import annotations

import math
from itertools import chain

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


def subsample_indices(d: LabeledDataset, lam: float, seed: int) -> np.ndarray:
    """Point indices of a stratified subsample: floor(lam * n_t) trials per stimulus.

    Selection is uniform without replacement within each stimulus, deterministic
    for a fixed seed, and returned in ascending order so the original point
    order (and hence all tie-breaking) is preserved.  ``lam == 1`` selects
    everything without consuming randomness.
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
    if k == d.n_t:
        return np.arange(d.n_r, dtype=np.intp)
    rng = np.random.default_rng(seed)
    picks = [rng.choice(row, size=k, replace=False) for row in d.positions]
    return np.sort(np.concatenate(picks)).astype(np.intp)
