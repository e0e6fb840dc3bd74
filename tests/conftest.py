"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def matrix_sorts(monkeypatch):
    """Shapes of the 2-D arrays passed to ``np.argsort``, one entry per call."""
    shapes = []
    real_argsort = np.argsort

    def counting(a, *args, **kwargs):
        if np.ndim(a) == 2:
            shapes.append(np.shape(a))
        return real_argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    return shapes
