"""Stratified draws are numpy's ``Generator.choice`` stream, drawn in one batch per curve."""

import math

import numpy as np
import pytest

from metricmi import LabeledDataset, derived_seed, subsample_indices
from metricmi import data

# numpy's PCG64 multiplier; a state s steps to s * MULT + inc (mod 2**128)
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def choice_draw(d, k, rng):
    """The indices that ``rng.choice(row, k, replace=False)`` picks from each stimulus, ascending."""
    return np.sort(np.concatenate([rng.choice(row, k, replace=False) for row in d.positions]))


def one_fraction(d, k, seeds):
    """Per seed, the one draw of a curve of one fraction, k trials, and one repeat."""
    return [curve[0][0] for curve in data.curve_subsamples(d, [k], 1, seeds)]


def seed_rng(seed):
    """The generator of that draw: its lane seed is derived_seed(seed, 0, 0)."""
    return np.random.default_rng(derived_seed(seed, 0, 0))


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
            got = one_fraction(d, k, seeds)
            assert len(got) == len(seeds)
            for seed, idx in zip(seeds, got):
                assert idx.dtype == np.intp
                assert np.array_equal(idx, choice_draw(d, k, seed_rng(seed)))
                checked += 1
    assert checked > 300


def test_one_seed_is_the_batch_of_one():
    # a lone draw at the lane seed is the batch's draw; a seed repeated in a
    # batch draws the same twice
    d = dataset(np.random.default_rng(3), 4, 10)
    seeds = [0, 7, 7, 2**32 - 1]
    batch = one_fraction(d, 5, seeds)
    for seed, idx in zip(seeds, batch):
        assert np.array_equal(idx, subsample_indices(d, 0.5, derived_seed(seed, 0, 0)))
    assert np.array_equal(batch[1], batch[2])
    assert all(np.array_equal(subsample_indices(d, 1.0, s), np.arange(d.n_r)) for s in seeds)
    with pytest.raises(ValueError, match="nonnegative"):
        subsample_indices(d, 0.5, -1)
    with pytest.raises(ValueError, match="leaves no trials"):
        subsample_indices(d, 0.05, 0)
    with pytest.raises(ValueError, match=r"must be in \(0, 1\]"):
        subsample_indices(d, 1.5, 0)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5, 2**200 + 1])
def test_lone_draw_is_numpy_choice_row_by_row(seed):
    # SeedSequence words of one to seven; every trial, and k past the tail-shuffle cutoff
    rng = np.random.default_rng(31)
    labels = np.repeat(np.arange(2), 10001)
    cutoff = LabeledDataset.from_vectors(np.zeros((labels.size, 1)), labels)
    cases = [(dataset(rng, 3, 12), 5, fraction(5, 12)), (dataset(rng, 4, 9), 9, 1.0),
             (cutoff, 201, fraction(201, 10001))]
    for d, k, lam in cases:
        idx = subsample_indices(d, lam, seed)
        assert idx.dtype == np.intp and idx.size == d.n_s * k
        want = np.random.default_rng(seed)
        for row in d.positions:
            picks = want.choice(row, k, replace=False)
            assert np.array_equal(idx[np.isin(idx, row)], np.sort(picks))


@pytest.mark.parametrize("n_t, k", [(10000, 200), (10000, 201), (10001, 200), (10001, 201)])
def test_both_sides_of_numpy_tail_shuffle_cutoff(n_t, k):
    # above n_t = 10000 and k = n_t // 50, choice shuffles a tail of the row
    # instead of running Floyd's algorithm; the batch then calls choice
    labels = np.repeat(np.arange(2), n_t)
    d = LabeledDataset.from_vectors(np.zeros((labels.size, 1)), labels)
    seeds = list(range(6))
    for seed, idx in zip(seeds, one_fraction(d, k, seeds)):
        assert np.array_equal(idx, choice_draw(d, k, seed_rng(seed)))


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
    # is not a power of two; the draw holding it, in a middle fraction, and its
    # neighbours in the same batch, must still be choice's own
    assert zero_first_word(1).random_raw() == 0
    d = dataset(np.random.default_rng(4), 3, 14)
    ks = [8, 6, 6, 6, 3]  # the zero lands on bound n_t - k + 1 = 9
    loops, real_loop = [], data._choice_loop

    def loop(*args):
        loops.append((args[1], args[2].state))
        return real_loop(*args)

    monkeypatch.setattr(data, "_choice_loop", loop)
    bitgens = [np.random.PCG64(11), np.random.PCG64(12), zero_first_word(1),
               np.random.PCG64(13), np.random.PCG64(14)]
    states = [(b.state["state"]["state"], b.state["state"]["inc"]) for b in bitgens]
    want = [choice_draw(d, k, np.random.Generator(b)) for k, b in zip(ks, bitgens)]
    got = data._choice_batch(d, ks, states)
    assert len(loops) == 1 and loops[0] == (6, zero_first_word(1).state)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


# seeds at the edges of SeedSequence's words: one word, two, three, five
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3]


def test_lane_seeds_are_derived_seed():
    # SeedSequence's hash in uint32 arithmetic, every multiply wrapping
    rng = np.random.default_rng(28)
    li = np.repeat(np.array([0, 3, 2**32 - 1, 2**32, 2**40 + 3], dtype=np.uint64), 6)
    ri = np.tile(np.array([0, 1, 7, 2**32 - 1, 2**32, 2**32 + 9], dtype=np.uint64), 5)
    for seed in [*EDGE_SEEDS, *(int(s) for s in rng.integers(0, 2**63, 6))]:
        want = [derived_seed(seed, int(a), int(b)) for a, b in zip(li, ri)]
        got = data._derived_seeds(seed, li, ri)
        assert got.dtype == np.uint32 and got.tolist() == want, seed


def test_lane_states_are_pcg64_states():
    rng = np.random.default_rng(29)
    seeds = [*EDGE_SEEDS, *(int(s) for s in rng.integers(0, 2**32, 20)), 2**200 + 1]
    # SeedSequence's words of each seed, least significant first, one column a
    # seed and zeros past its own; and their counts
    words = [[s >> at & 2**32 - 1 for at in range(0, max(s.bit_length(), 1), 32)] for s in seeds]
    entropy = np.zeros((max(map(len, words)), len(seeds)), dtype=np.uint32)
    for lane, w in enumerate(words):
        entropy[: len(w), lane] = w
    lengths = np.array([len(w) for w in words])
    for s, (state, inc) in zip(seeds, data._pcg64_states(entropy, lengths)):
        assert np.random.PCG64(s).state["state"] == {"state": state, "inc": inc}, s


@pytest.mark.parametrize("spikes", [False, True], ids=["vectors", "spike-trains"])
@pytest.mark.parametrize("n_s, n_t, sizes, repeats", [
    (4, 12, [11, 6, 12, 6, 1, 9], 3),  # all points, duplicate sizes, k from 1 to n_t - 1
    (1, 9, [2, 8, 9, 5], 4),  # one stimulus
    (6, 20, [18, 2, 10, 20], 1),  # one repeat
    (3, 25, [24, 20, 12, 3], 7),
], ids=["grid", "one-stimulus", "one-repeat", "seven-repeats"])
def test_curve_draws_are_numpy_choice(spikes, n_s, n_t, sizes, repeats):
    rng = np.random.default_rng(n_s * n_t)
    d = dataset(rng, n_s, n_t, spikes)
    for seed in (0, 2**32, int(rng.integers(0, 2**63))):
        [draws] = data.curve_subsamples(d, sizes, repeats, [seed])
        assert len(draws) == len(sizes)
        for li, (k, group) in enumerate(zip(sizes, draws)):
            if k == n_t:
                assert len(group) == 1 and np.array_equal(group[0], np.arange(d.n_r))
                continue
            assert len(group) == repeats
            for ri, idx in enumerate(group):
                assert idx.dtype == np.intp
                rng_ri = np.random.default_rng(derived_seed(seed, li, ri))
                assert np.array_equal(idx, choice_draw(d, k, rng_ri))


def test_tail_shuffle_rows_inside_a_multi_fraction_batch():
    # k = 201 of 10001 trials is past the cutoff, 200 and 3 are not; at 3 lanes
    # a bucket, the first holds both kinds
    n_t = 10001
    labels = np.repeat(np.arange(2), n_t)
    d = LabeledDataset.from_vectors(np.zeros((labels.size, 1)), labels)
    sizes = [3, 201, 200]
    assert data._BUCKET_CELLS // d.n_r == 3
    for li, (k, group) in enumerate(zip(sizes, data.curve_subsamples(d, sizes, 2, [5])[0])):
        for ri, idx in enumerate(group):
            rng = np.random.default_rng(derived_seed(5, li, ri))
            assert np.array_equal(idx, choice_draw(d, k, rng))


def same_curves(a, b) -> bool:
    return len(a) == len(b) and all(
        len(x) == len(y) and all(np.array_equal(u, v) for u, v in zip(x, y))
        for x, y in zip(a, b))


@pytest.mark.parametrize("n_s, n_t, sizes, repeats", [
    (10, 20, [2, 4, 6, 8, 10, 12, 14, 16, 18, 20], 5),  # the toy benchmark's grid, and all points
    (4, 12, [11, 6, 12, 6, 1, 9], 3),  # duplicate sizes, k of n_t inside the grid
    (6, 20, [18, 2, 10, 20], 1),  # one repeat
    (3, 9, [9, 9, 9], 4),  # every k is n_t: nothing to draw
], ids=["toy-grid", "grid", "one-repeat", "all-points"])
def test_many_seed_curves_are_one_seed_curves(n_s, n_t, sizes, repeats):
    # one-word seeds mixed with seeds of two and three words, and a repeated seed
    rng = np.random.default_rng(n_s + n_t)
    d = dataset(rng, n_s, n_t)
    seeds = [3, 2**32, 0, 2**64 + 5, 3, int(rng.integers(0, 2**32)), 2**32 - 1]
    curves = data.curve_subsamples(d, sizes, repeats, seeds)
    assert len(curves) == len(seeds)
    for seed, curve in zip(seeds, curves):
        assert same_curves(curve, data.curve_subsamples(d, sizes, repeats, [seed])[0]), seed
    assert same_curves(curves[0], curves[4])
    assert data.curve_subsamples(d, sizes, repeats, []) == []
    with pytest.raises(ValueError, match="nonnegative"):
        data.curve_subsamples(d, sizes, repeats, [1, -1])


def test_many_seed_batch_crosses_a_bucket():
    # 24 curves of 9 draws at 400 points a draw, in buckets of 163 draws: the
    # first bucket ends among the draws of k = 2, 72 for each fraction
    d = dataset(np.random.default_rng(30), 20, 20)
    sizes, repeats = [19, 10, 2], 3
    seeds = [2**64 + 5, 1, 2**32, 8] * 6
    per_fraction = len(seeds) * repeats
    assert 2 * per_fraction < data._BUCKET_CELLS // d.n_r < 3 * per_fraction
    curves = data.curve_subsamples(d, sizes, repeats, seeds)
    for seed, curve in zip(seeds, curves):
        for li, (k, group) in enumerate(zip(sizes, curve)):
            for ri, idx in enumerate(group):
                rng = np.random.default_rng(derived_seed(seed, li, ri))
                assert np.array_equal(idx, choice_draw(d, k, rng))


def test_memory_check_covers_every_curve_of_a_batch(monkeypatch):
    # sizes 2 and 5 of 6 trials at 3 repeats, and all 6: 8 * 3 * 27 bytes a curve
    d = dataset(np.random.default_rng(32), 3, 6)
    sizes, repeats = [2, 5, 6], 3
    monkeypatch.setattr(data, "memory_limit", lambda: 2 * 8 * 3 * 27)
    assert len(data.curve_subsamples(d, sizes, repeats, [1, 2])) == 2
    monkeypatch.setattr(data, "_choice_batch", None)  # nothing is drawn
    with pytest.raises(MemoryError, match="of 3 curves need 1944 bytes, more than the 1296"):
        data.curve_subsamples(d, sizes, repeats, [1, 2, 3])
    monkeypatch.setattr(data, "memory_limit", lambda: 8 * 3 * 27 - 1)
    with pytest.raises(MemoryError, match="repeats = 3: the subsample indices of one curve need 648"):
        data.curve_subsamples(d, sizes, repeats, [1])
