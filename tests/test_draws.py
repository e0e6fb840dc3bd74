"""Stratified draws are numpy's ``Generator.choice`` stream, drawn in one batch per fraction."""

import math

import numpy as np
import pytest

from metricmi import LabeledDataset, subsample_batch, subsample_indices
from metricmi import data

# numpy's PCG64 multiplier; a state s steps to s * MULT + inc (mod 2**128)
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def choice_draw(d, k, rng):
    """The indices that ``rng.choice(row, k, replace=False)`` picks from each stimulus, ascending."""
    return np.sort(np.concatenate([rng.choice(row, k, replace=False) for row in d.positions]))


def fraction(k, n_t):
    """A fraction that leaves exactly k of n_t trials."""
    lam = (k + 0.5) / n_t
    assert math.floor(lam * n_t) == k
    return lam


def dataset(rng, n_s, n_t, spikes=False):
    labels = rng.permutation(np.repeat(np.arange(n_s), n_t))
    if spikes:
        trains = [np.sort(rng.uniform(0, 1, rng.integers(0, 4))) for _ in labels]
        return LabeledDataset.from_spike_trains(trains, labels)
    return LabeledDataset.from_vectors(rng.normal(size=(labels.size, 1)), labels)


@pytest.mark.parametrize("spikes", [False, True], ids=["vectors", "spike-trains"])
def test_batch_is_numpy_choice_on_every_row(spikes):
    # shuffled label order, one stimulus, and k from 1 to n_t - 1
    rng = np.random.default_rng(25)
    designs = [(1, 2), (1, 9), (2, 3), (3, 12), (5, 20), (7, 31), (10, 60), (4, 69)]
    checked = 0
    for n_s, n_t in designs:
        d = dataset(rng, n_s, n_t, spikes)
        for k in sorted({1, 2, n_t // 2, n_t - 1} - {0, n_t}):
            seeds = [int(s) for s in rng.integers(0, 2**32, 12)]
            got = subsample_batch(d, fraction(k, n_t), seeds)
            assert len(got) == len(seeds)
            for seed, idx in zip(seeds, got):
                assert idx.dtype == np.intp
                assert np.array_equal(idx, choice_draw(d, k, np.random.default_rng(seed)))
                checked += 1
    assert checked > 300


def test_one_seed_is_the_batch_of_one():
    d = dataset(np.random.default_rng(3), 4, 10)
    seeds = [0, 7, 7, 2**32 - 1]
    batch = subsample_batch(d, 0.5, seeds)
    for seed, idx in zip(seeds, batch):
        assert np.array_equal(idx, subsample_indices(d, 0.5, seed))
    assert np.array_equal(batch[1], batch[2])
    assert subsample_batch(d, 0.5, []) == []
    assert all(np.array_equal(idx, np.arange(d.n_r)) for idx in subsample_batch(d, 1.0, seeds))
    with pytest.raises(ValueError, match="nonnegative"):
        subsample_batch(d, 0.5, [3, -1])


@pytest.mark.parametrize("n_t, k", [(10000, 200), (10000, 201), (10001, 200), (10001, 201)])
def test_both_sides_of_numpy_tail_shuffle_cutoff(n_t, k):
    # above n_t = 10000 and k = n_t // 50, choice shuffles a tail of the row
    # instead of running Floyd's algorithm; the batch then calls choice
    labels = np.repeat(np.arange(2), n_t)
    d = LabeledDataset.from_vectors(np.zeros((labels.size, 1)), labels)
    seeds = list(range(6))
    for seed, idx in zip(seeds, subsample_batch(d, fraction(k, n_t), seeds)):
        assert np.array_equal(idx, choice_draw(d, k, np.random.default_rng(seed)))


def zero_first_word(seed):
    """A PCG64 whose first raw word is 0: the state it steps to has equal halves."""
    bitgen = np.random.PCG64(seed)
    state = bitgen.state
    inc = state["state"]["inc"]
    target = 0x0123456789ABCDEF * (2**64 + 1)  # output is rotr(hi ^ lo, ...) = 0
    state["state"]["state"] = (target - inc) * pow(PCG64_MULT, -1, 2**128) % 2**128
    bitgen.state = state
    return bitgen


def test_rejected_value_is_redrawn_by_numpy(monkeypatch):
    # a 32-bit value of 0 is rejected by Lemire's method at every bound that
    # is not a power of two; the draw holding it, and its neighbours in the
    # same batch, must still be choice's own
    assert zero_first_word(1).random_raw() == 0
    d = dataset(np.random.default_rng(4), 3, 14)
    k = 6  # first bound n_t - k + 1 = 9
    loops, real_loop = [], data._choice_loop

    def loop(*args):
        loops.append(args)
        return real_loop(*args)

    monkeypatch.setattr(data, "_choice_loop", loop)
    bitgens = [np.random.PCG64(11), zero_first_word(1), np.random.PCG64(12)]
    want = [choice_draw(d, k, np.random.Generator(b))
            for b in (np.random.PCG64(11), zero_first_word(1), np.random.PCG64(12))]
    got = data._choice_batch(d, k, bitgens)
    assert len(loops) == 1 and loops[0][2] is bitgens[1]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
