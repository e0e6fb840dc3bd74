"""The package's public surface: every export resolves, and removed names stay gone."""

import metricmi


def test_star_import_resolves_every_export():
    # a stale __all__ entry makes `from metricmi import *` raise AttributeError
    namespace = {}
    exec("from metricmi import *", namespace)
    assert len(set(metricmi.__all__)) == len(metricmi.__all__)
    for name in metricmi.__all__:
        assert namespace[name] is getattr(metricmi, name)
    # responses are reached only through a dataset and its distance matrix
    for name in ("ResponsePoint", "distance", "euclidean_distance", "neighbor_order"):
        assert not hasattr(metricmi, name), name
    assert not hasattr(metricmi.LabeledDataset, "point")
    # only the tests restrict or compare datasets (conftest.take, conftest.same_dataset)
    assert not hasattr(metricmi.LabeledDataset, "take")
    assert metricmi.LabeledDataset.__eq__ is object.__eq__
    # lone draws are numpy's own choice, and the benchmark draws a dataset at a time
    assert not hasattr(metricmi, "subsample_batch")
    for name in ("subsample_batch", "pass_curves", "_PASS_CELLS", "_seed_words"):
        assert not hasattr(metricmi.data, name), name
    assert not hasattr(metricmi.toybench, "_evaluate_group")
