"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from metricmi import LabeledDataset, metrics
from metricmi.data import VECTOR


class Sorts(list):
    """Shapes of the 2-D arrays passed to ``np.argsort``, one entry per call.

    These are the first sorts.  ``repairs`` holds what each call of
    ``metrics._repair_ties`` was given to put in index order: its tie mask, a
    row's entry k true where its sorted values k and k + 1 are equal.
    """

    def __init__(self):
        super().__init__()
        self.repairs = []


@pytest.fixture
def matrix_sorts(monkeypatch):
    """First sorts and tie repairs of distance rows, as ``Sorts``."""
    sorts = Sorts()
    real_argsort, real_repair = np.argsort, metrics._repair_ties

    def counting(a, *args, **kwargs):
        if np.ndim(a) == 2:
            sorts.append(np.shape(a))
        return real_argsort(a, *args, **kwargs)

    def repairing(order, tie):
        sorts.repairs.append(tie.copy())
        return real_repair(order, tie)

    monkeypatch.setattr(np, "argsort", counting)
    monkeypatch.setattr(metrics, "_repair_ties", repairing)
    return sorts


def take(d, indices):
    """The dataset ``d`` restricted to the given point indices, in their order."""
    indices = np.asarray(indices, dtype=np.intp)
    if d.kind == VECTOR:
        return LabeledDataset.from_vectors(d.vectors[indices], d.labels[indices])
    return LabeledDataset.from_spike_trains([d.trains[i] for i in indices], d.labels[indices])


def same_dataset(a, b):
    """Whether two datasets hold the same kind, labels and responses, bit for bit."""
    if a.kind != b.kind or not np.array_equal(a.labels, b.labels):
        return False
    if a.kind == VECTOR:
        return np.array_equal(a.vectors, b.vectors)
    return all(np.array_equal(x, y) for x, y in zip(a.trains, b.trains))
