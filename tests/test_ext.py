"""Toeplitz extractor: matrix convention, universality, and the leftover-hash error."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetmoe.ext import ToeplitzExtractor, lhl_epsilon
from cosetmoe.gf2 import Gf2Vec


def all_vectors(n):
    for v in range(1 << n):
        yield Gf2Vec.from_int(v, n)


def test_frozen_matrix_example():
    ext = ToeplitzExtractor(3, 2)
    t = ext.matrix_from_seed(Gf2Vec((1, 0, 0, 0)))
    assert t.rows.tolist() == [[1, 0, 0], [0, 1, 0]]
    # exhaustively: extract must equal the explicit 2x3 multiply
    for x in all_vectors(3):
        z = ext.extract(x, Gf2Vec((1, 0, 0, 0)))
        assert z.bits.tolist() == ((t.rows @ x.bits) % 2).tolist()


def test_seed_layout_first_row_then_first_column():
    # seed bits 0..n_in-1 fill the first row, the rest continue down column 0
    ext = ToeplitzExtractor(3, 3)
    t = ext.matrix_from_seed(Gf2Vec((0, 0, 0, 1, 0)))
    assert t.rows.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    t2 = ext.matrix_from_seed(Gf2Vec((1, 1, 0, 0, 1)))
    assert t2.rows.tolist() == [[1, 1, 0], [0, 1, 1], [1, 0, 1]]


@pytest.mark.parametrize("n_in,ell", [(1, 1), (3, 2), (4, 4), (9, 3), (40, 7)])
def test_matrix_from_seed_matches_the_defining_formula(n_in, ell):
    ext = ToeplitzExtractor(n_in, ell)
    seed = np.random.default_rng(n_in * 100 + ell).integers(0, 2, ext.seed_len, dtype=np.uint8)
    t = ext.matrix_from_seed(Gf2Vec(seed)).rows
    assert t.shape == (ell, n_in)
    for i in range(ell):
        for j in range(n_in):
            assert t[i, j] == (seed[j - i] if j >= i else seed[n_in + i - j - 1]), (i, j)


def test_zero_input_extracts_to_zero_for_every_seed():
    ext = ToeplitzExtractor(4, 2)
    zero = Gf2Vec.zeros(4)
    for seed in all_vectors(ext.seed_len):
        assert ext.extract(zero, seed) == Gf2Vec.zeros(2)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_linearity(data):
    ext = ToeplitzExtractor(8, 3)
    bits = st.lists(st.integers(0, 1), min_size=8, max_size=8)
    x1 = Gf2Vec(data.draw(bits))
    x2 = Gf2Vec(data.draw(bits))
    seed = Gf2Vec(
        data.draw(st.lists(st.integers(0, 1), min_size=ext.seed_len, max_size=ext.seed_len))
    )
    assert ext.extract(x1, seed) + ext.extract(x2, seed) == ext.extract(x1 + x2, seed)


@pytest.mark.parametrize("n_in", [2, 3, 4, 5, 6])
def test_two_universality_exhaustive(n_in):
    # By linearity collision probability for x1 != x2 is Pr_seed[T(x1+x2) = 0].
    for ell in range(1, n_in + 1):
        ext = ToeplitzExtractor(n_in, ell)
        n_seeds = 1 << ext.seed_len
        seeds = ((np.arange(n_seeds)[:, None] >> np.arange(ext.seed_len - 1, -1, -1)) & 1).astype(
            np.uint8
        )
        for delta_int in range(1, 1 << n_in):
            delta = Gf2Vec.from_int(delta_int, n_in).bits
            xs = np.tile(delta, (n_seeds, 1))
            outs = ext.extract_batch(xs, seeds)
            collisions = int((~outs.any(axis=1)).sum())
            assert collisions <= n_seeds / (1 << ell), (n_in, ell, delta_int)


def test_flat_source_statistical_distance_within_leftover_hash_bound():
    # Uniform source on 32 of the 256 byte values: min-entropy exactly 5.
    ext = ToeplitzExtractor(8, 2)
    rng = np.random.default_rng(0)
    support = rng.choice(256, size=32, replace=False)
    xs = ((support[:, None] >> np.arange(7, -1, -1)) & 1).astype(np.uint8)
    n_seeds = 1 << ext.seed_len
    seeds = ((np.arange(n_seeds)[:, None] >> np.arange(ext.seed_len - 1, -1, -1)) & 1).astype(
        np.uint8
    )
    joint = np.zeros((4, n_seeds))
    for s in range(n_seeds):
        outs = ext.extract_batch(xs, np.tile(seeds[s], (32, 1)))
        vals = outs[:, 0] * 2 + outs[:, 1]
        for z in vals:
            joint[z, s] += 1.0 / (32 * n_seeds)
    uniform = 1.0 / (4 * n_seeds)
    sd = 0.5 * np.abs(joint - uniform).sum()
    assert sd <= lhl_epsilon(5, 2) + 1e-12
    assert lhl_epsilon(5, 2) == pytest.approx(2 ** (-2.5))


def test_lhl_epsilon_values():
    assert lhl_epsilon(10, 4) == 0.0625
    assert lhl_epsilon(4, 4) == 0.5  # vacuous regime reported raw
    assert lhl_epsilon(20, 8) == pytest.approx(2.0**-7)
    with pytest.raises(ValueError):
        lhl_epsilon(10, 0)


def test_extract_batch_matches_single_calls():
    ext = ToeplitzExtractor(7, 3)
    rng = np.random.default_rng(3)
    xs = rng.integers(0, 2, size=(50, 7), dtype=np.uint8)
    seeds = rng.integers(0, 2, size=(50, ext.seed_len), dtype=np.uint8)
    batch = ext.extract_batch(xs, seeds)
    assert ext.extract_batch(xs[:0], seeds[:0]).shape == (0, 3)
    for i in range(50):
        single = ext.extract(Gf2Vec(xs[i]), Gf2Vec(seeds[i]))
        assert batch[i].tolist() == single.bits.tolist()


@pytest.mark.parametrize("n_in,ell", [(1, 1), (7, 1), (7, 3), (7, 7), (1890, 2), (1890, 8)])
def test_extract_batch_on_a_stack_matches_single_calls(n_in, ell):
    # one seed build for three inputs; at 1890 bits the uint8 sums wrap.
    # ell = 1 has no reversed column tail, ell = n_in the longest one
    ext = ToeplitzExtractor(n_in, ell)
    rng = np.random.default_rng(n_in)
    xs = rng.integers(0, 2, size=(3, 5, n_in), dtype=np.uint8)
    xs[0, 0] = 1  # an all-ones input against an all-ones seed sums to n_in
    seeds = rng.integers(0, 2, size=(5, ext.seed_len), dtype=np.uint8)
    seeds[0] = 1
    stacked = ext.extract_batch(xs, seeds)
    assert stacked.shape == (3, 5, ell) and stacked.dtype == np.uint8
    for s in range(3):
        assert np.array_equal(ext.extract_batch(xs[s], seeds), stacked[s])
        for i in range(5):
            single = ext.extract(Gf2Vec(xs[s, i]), Gf2Vec(seeds[i]))
            assert stacked[s, i].tolist() == single.bits.tolist()


_WORD_EDGE_N_IN = (63, 64, 65, 128, 129, 200)
_WORD_EDGE_ELL = (1, 2, 63, 64, 65, 66, 130)


@pytest.mark.parametrize("n_in,ell", [(n_in, ell) for n_in in _WORD_EDGE_N_IN
                                      for ell in _WORD_EDGE_ELL if ell <= n_in])
def test_extract_batch_at_word_boundaries_matches_the_matrix(n_in, ell):
    # rows that start 63, 64, 65 and 129 bits into e, and inputs one bit
    # short of, on, and one bit past a 64-bit word, against the explicit
    # Toeplitz matrix of each trial's seed
    ext = ToeplitzExtractor(n_in, ell)
    rng = np.random.default_rng(1000 * n_in + ell)
    xs = rng.integers(0, 2, size=(3, 4, n_in), dtype=np.uint8)
    seeds = rng.integers(0, 2, size=(4, ext.seed_len), dtype=np.uint8)
    seeds[0] = 1
    xs[:, 0] = 1
    got = ext.extract_batch(xs, seeds)
    assert got.shape == (3, 4, ell) and got.dtype == np.uint8
    for i in range(4):
        t = ext.matrix_from_seed(Gf2Vec(seeds[i]))
        for s in range(3):
            assert got[s, i].tolist() == t.mulvec(Gf2Vec(xs[s, i])).bits.tolist(), (s, i)
    assert ext.extract_batch(xs[:, :0], seeds[:0]).shape == (3, 0, ell)


def test_extract_batch_reads_each_byte_by_its_low_bit():
    # a byte of 2 reads as 0 and a byte of 3 as 1, in the inputs and in the
    # seed, as Gf2Vec and matrix_from_seed read them
    ext = ToeplitzExtractor(7, 3)
    rng = np.random.default_rng(7)
    xs = rng.integers(0, 4, size=(3, 6, 7), dtype=np.uint8)
    seeds = rng.integers(0, 4, size=(6, ext.seed_len), dtype=np.uint8)
    xs[0, 0] = 2
    seeds[1] = 2
    got = ext.extract_batch(xs, seeds)
    assert got[0, 0].tolist() == [0, 0, 0]
    assert not got[:, 1].any()
    assert np.array_equal(got, ext.extract_batch(xs & 1, seeds & 1))
    for i in range(6):
        t = ext.matrix_from_seed(Gf2Vec(seeds[i]))
        assert np.array_equal(t.rows, ext.matrix_from_seed(Gf2Vec(seeds[i] & 1)).rows)
        for s in range(3):
            want = t.mulvec(Gf2Vec(xs[s, i])).bits
            assert got[s, i].tolist() == want.tolist()
            assert ext.extract(Gf2Vec(xs[s, i]), Gf2Vec(seeds[i])).bits.tolist() == want.tolist()


def test_validation_errors():
    with pytest.raises(ValueError):
        ToeplitzExtractor(3, 4)
    with pytest.raises(ValueError):
        ToeplitzExtractor(3, 0)
    ext = ToeplitzExtractor(4, 2)
    with pytest.raises(ValueError):
        ext.extract(Gf2Vec((1, 0, 1)), Gf2Vec.zeros(ext.seed_len))
    with pytest.raises(ValueError):
        ext.extract(Gf2Vec.zeros(4), Gf2Vec.zeros(2))
    for seed_len in (ext.seed_len - 1, ext.seed_len + 1):
        with pytest.raises(ValueError):
            ext.extract_batch(np.zeros((2, 4), np.uint8), np.zeros((2, seed_len), np.uint8))
