"""Linear-code families, coset-leader decoding, and syndrome-targeted alignment."""

import itertools

import numpy as np
import pytest

from cosetmoe.ecc import (
    LinearCode,
    align_batch,
    leader_batch,
    make_code,
    make_code_from_config,
    syndrome_batch,
)
from cosetmoe.gf2 import Gf2Vec, rref
from statevector_referee import mulmat


def codewords(code):
    """All 2^K codewords, via the generator span."""
    words = [Gf2Vec.zeros(code.length)]
    for i in range(code.dimension):
        row = Gf2Vec(code.generator.rows[i])
        words = words + [w + row for w in words]
    return words


# ---------------------------------------------------------------------------
# construction

def test_hamming74_parameters():
    c = make_code("hamming74")
    assert (c.length, c.dimension, c.syndrome_length, c.distance) == (7, 4, 3, 3)
    # parity check columns: nonzero and pairwise distinct
    cols = [tuple(c.parity_check.rows[:, j]) for j in range(7)]
    assert len(set(cols)) == 7 and (0, 0, 0) not in cols
    assert not mulmat(c.generator, c.parity_check.transpose()).rows.any()


def test_repetition_parameters():
    c = make_code("repetition", 5)
    assert (c.length, c.dimension, c.distance) == (5, 1, 5)
    assert len(codewords(c)) == 2
    assert not mulmat(c.generator, c.parity_check.transpose()).rows.any()


def test_block_repeat_parameters():
    c = make_code("block_repeat", 3, 2)
    assert (c.length, c.dimension, c.distance) == (6, 2, 3)
    words = codewords(c)
    assert len(words) == 4
    assert min(w.weight() for w in words if w.weight() > 0) == 3
    assert not mulmat(c.generator, c.parity_check.transpose()).rows.any()


def test_random_linear_construction():
    c = make_code("random_linear", 10, 4, 7)
    assert (c.length, c.dimension, c.syndrome_length) == (10, 4, 6)
    assert len(rref(c.generator)[1]) == 4
    assert len(rref(c.parity_check)[1]) == 6
    assert not mulmat(c.generator, c.parity_check.transpose()).rows.any()
    assert c.distance == min(w.weight() for w in codewords(c) if w.weight() > 0)
    again = make_code("random_linear", 10, 4, 7)
    assert again.generator == c.generator and again.parity_check == c.parity_check


def test_make_code_errors():
    with pytest.raises(ValueError):
        make_code("hamming74", 3)
    with pytest.raises(ValueError):
        make_code("repetition", 1)
    with pytest.raises(ValueError):
        make_code("block_repeat", 1, 4)
    with pytest.raises(ValueError):
        make_code("block_repeat", 3, 0)
    with pytest.raises(ValueError):
        make_code("random_linear", 5, 5, 0)
    with pytest.raises(ValueError):
        make_code("random_linear", 40, 21, 0)
    for seed in (-1, 3.0, "3", 1 << 128):  # the seed is a Philox key
        with pytest.raises(ValueError):
            make_code("random_linear", 10, 4, seed)
    with pytest.raises(ValueError):
        make_code("golay", 23)


def test_config_builds_the_named_code():
    c = make_code_from_config({"kind": "block_repeat", "params": [3, 2]})
    assert c.kind == ("block_repeat", 3, 2)
    assert (c.length, c.dimension, c.syndrome_length) == (6, 2, 4)
    with pytest.raises(ValueError):
        make_code_from_config({"kind": "hamming74", "flavor": "extra"})


def test_config_returns_the_code_already_built():
    cfg = {"kind": "block_repeat", "params": [63, 30]}
    code = make_code_from_config(cfg)
    assert make_code_from_config(dict(cfg)) is code
    assert make_code_from_config({"kind": "hamming74"}).kind == ("hamming74",)
    assert make_code_from_config(cfg) is code  # two codes are kept
    # only exact ints are parameters: 63.0 == 63 must not find block_repeat(63, ..)
    for bad in ({"kind": "block_repeat", "params": [63.0, 30]},
                {"kind": "repetition", "params": [True]},
                {"kind": 7, "params": []}):
        with pytest.raises(ValueError):
            make_code_from_config(bad)


# ---------------------------------------------------------------------------
# syndromes

def _syndromes(code, words):
    """Reference syndromes: one H·x product per row."""
    return np.array([code.parity_check.mulvec(Gf2Vec(w)).bits for w in words], dtype=np.uint8)


def test_syndrome_of_codewords_is_zero():
    for c in (make_code("hamming74"), make_code("block_repeat", 3, 2)):
        words = np.array([w.bits for w in codewords(c)])
        assert not syndrome_batch(c, words).any()


def test_syndrome_of_single_flip_reads_parity_check_column():
    c = make_code("hamming74")
    base = codewords(c)[5].bits
    syns = syndrome_batch(c, base ^ np.eye(7, dtype=np.uint8))
    assert np.array_equal(syns.T, c.parity_check.rows)
    assert syns.any(axis=1).all()
    assert len({tuple(s) for s in syns.tolist()}) == 7


def test_syndrome_linearity_and_length_check():
    c = make_code("hamming74")
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2, (50, 7), dtype=np.uint8)
    y = rng.integers(0, 2, (50, 7), dtype=np.uint8)
    assert np.array_equal(syndrome_batch(c, x ^ y), syndrome_batch(c, x) ^ syndrome_batch(c, y))
    with pytest.raises(ValueError):
        syndrome_batch(c, np.zeros(6, dtype=np.uint8))


# ---------------------------------------------------------------------------
# leaders and correction

def _leader_table(code):
    """Syndrome -> coset leader, one entry per row of the dense lookup."""
    s = code.syndrome_length
    return {Gf2Vec.from_int(key, s): Gf2Vec(row) for key, row in enumerate(code._dense_leaders)}


def _decode(code, words):
    """Nearest codewords: each row aligned onto the zero syndrome."""
    words = np.asarray(words, dtype=np.uint8)
    return align_batch(code, words, np.zeros((len(words), code.syndrome_length), dtype=np.uint8))


def test_leader_table_exhaustively_minimal_hamming74():
    c = make_code("hamming74")
    table = _leader_table(c)
    assert len(table) == 8
    words = codewords(c)
    for syn, leader in table.items():
        assert c.parity_check.mulvec(leader) == syn
        coset_weights = [(leader + w).weight() for w in words]
        assert leader.weight() == min(coset_weights)


def test_leader_closed_form_matches_table():
    # the per-block closed form and the weight-scan table must agree everywhere,
    # including the even-length tie cases
    for c in (
        make_code("repetition", 4),
        make_code("repetition", 7),
        make_code("block_repeat", 3, 3),
        make_code("block_repeat", 4, 2),
    ):
        every = np.array([syn.bits for syn in _leader_table(c)], dtype=np.uint8)
        assert np.array_equal(leader_batch(c, every), c._dense_leaders), c.kind


def test_leader_tie_break_is_lexicographic():
    c = make_code("repetition", 4)
    every = np.array(list(itertools.product((0, 1), repeat=3)), dtype=np.uint8)
    for row in leader_batch(c, every):
        leader = Gf2Vec(row)
        coset = [leader + w for w in codewords(c)]
        ties = [v for v in coset if v.weight() == leader.weight()]
        assert min(tuple(v.bits) for v in ties) == tuple(leader.bits)


def _scan_leaders(code):
    """Reference leader lookup: one word at a time, by increasing weight,
    keeping the lexicographically smallest word of the least weight."""
    s = code.syndrome_length
    h = code.parity_check.rows
    place = 1 << np.arange(s - 1, -1, -1, dtype=np.int64)
    best, found_weight = {}, {}
    for w in range(code.length + 1):
        if len(best) == 1 << s:
            break
        for pos in itertools.combinations(range(code.length), w):
            v = np.zeros(code.length, dtype=np.uint8)
            v[list(pos)] = 1
            key = int(((h @ v) & 1) @ place)
            if key not in best:
                best[key], found_weight[key] = v, w
            elif found_weight[key] == w and tuple(v) < tuple(best[key]):
                best[key] = v
    return np.array([best[key] for key in range(1 << s)], dtype=np.uint8)


@pytest.mark.parametrize("args", [
    ("hamming74",), ("repetition", 5), ("repetition", 6), ("block_repeat", 3, 2),
    ("random_linear", 10, 3, 1), ("random_linear", 12, 2, 4), ("random_linear", 15, 4, 2),
    ("random_linear", 18, 2, 0),  # 16 syndrome bits
])
def test_leader_lookup_matches_the_word_by_word_scan(args):
    code = make_code(*args)
    assert np.array_equal(code._dense_leaders, _scan_leaders(code))


def test_correct_examples():
    c = make_code("hamming74")
    words = np.array([w.bits for w in codewords(c)])
    assert np.array_equal(_decode(c, words), words)
    # every single flip of every codeword decodes back to it
    flipped = (words[:, None, :] ^ np.eye(7, dtype=np.uint8)).reshape(-1, 7)
    assert np.array_equal(_decode(c, flipped), np.repeat(words, 7, axis=0))
    rng = np.random.default_rng(1)
    x = rng.integers(0, 2, (50, 7), dtype=np.uint8)
    w = words[rng.integers(16, size=50)]
    assert np.array_equal(_decode(c, x ^ w), _decode(c, x) ^ w)


def test_correct_needs_a_decoder():
    c = make_code("random_linear", 30, 4, 2)
    assert c.syndrome_length == 26 and not c.has_decoder()
    with pytest.raises(ValueError):
        _decode(c, np.zeros((1, 30)))
    with pytest.raises(ValueError):
        c._dense_leaders


def test_one_decoder_limit_at_twenty_syndrome_bits():
    over = make_code("random_linear", 23, 2, 0)
    assert over.syndrome_length == 21 and not over.has_decoder()
    with pytest.raises(ValueError):
        leader_batch(over, np.zeros((1, 21), dtype=np.uint8))
    with pytest.raises(ValueError):
        align_batch(over, np.zeros((1, 23)), np.zeros((1, 21)))
    with pytest.raises(ValueError):
        over._dense_leaders
    at = make_code("random_linear", 22, 2, 0)
    assert at.syndrome_length == 20 and at.has_decoder()
    # a one-row stand-in for the 2^20-row lookup, which is slow to build:
    # leader_batch must get past its limit check and read the lookup
    at.__dict__["_dense_leaders"] = np.ones((1, 22), dtype=np.uint8)
    assert leader_batch(at, np.zeros((3, 20), dtype=np.uint8)).tolist() == [[1] * 22] * 3


# ---------------------------------------------------------------------------
# align_batch

_ALL_SEVEN_BIT = np.array(list(itertools.product((0, 1), repeat=7)), dtype=np.uint8)


def test_align_fixed_point():
    c = make_code("hamming74")
    x = _ALL_SEVEN_BIT
    assert np.array_equal(align_batch(c, x, _syndromes(c, x)), x)


def test_align_from_codeword_adds_the_leader():
    c = make_code("hamming74")
    units = np.eye(7, dtype=np.uint8)
    words = np.array([w.bits for w in codewords(c)])
    starts = np.repeat(words, 7, axis=0)
    targets = np.tile(_syndromes(c, units), (len(words), 1))
    assert np.array_equal(align_batch(c, starts, targets), starts ^ np.tile(units, (len(words), 1)))


def test_align_syndrome_postcondition_random():
    c = make_code("hamming74")
    rng = np.random.default_rng(5)
    tp = rng.integers(0, 2, (1000, 7), dtype=np.uint8)
    target = rng.integers(0, 2, (1000, 3), dtype=np.uint8)
    assert np.array_equal(_syndromes(c, align_batch(c, tp, target)), target)


def test_align_recovers_within_packing_radius_exhaustive():
    # radius floor((d-1)/2) = 1 for hamming74: every single-bit perturbation of
    # any t' is reconstructed exactly from its syndrome
    c = make_code("hamming74")
    errors = np.vstack([np.zeros((1, 7), dtype=np.uint8), np.eye(7, dtype=np.uint8)])
    tp = np.repeat(_ALL_SEVEN_BIT, len(errors), axis=0)
    that = tp ^ np.tile(errors, (len(_ALL_SEVEN_BIT), 1))
    assert np.array_equal(align_batch(c, tp, _syndromes(c, that)), that)


def test_align_recovers_within_packing_radius_sampled_block_repeat():
    c = make_code("block_repeat", 7, 3)
    radius = (c.distance - 1) // 2
    rng = np.random.default_rng(9)
    tp = np.empty((200, c.length), dtype=np.uint8)
    err = np.zeros((200, c.length), dtype=np.uint8)
    for i in range(200):
        tp[i] = rng.integers(0, 2, c.length, dtype=np.uint8)
        nflips = int(rng.integers(0, radius + 1))
        err[i, rng.choice(c.length, size=nflips, replace=False)] = 1
    that = tp ^ err
    assert np.array_equal(align_batch(c, tp, _syndromes(c, that)), that)


def test_equal_syndromes_differ_by_at_least_the_distance():
    for c in (make_code("hamming74"), make_code("block_repeat", 3, 2)):
        words = np.array([w.bits for w in codewords(c)])
        rng = np.random.default_rng(11)
        that = rng.integers(0, 2, (100, c.length), dtype=np.uint8)
        tbar = that ^ words[rng.integers(1, len(words), size=100)]
        assert np.array_equal(_syndromes(c, tbar), _syndromes(c, that))
        assert ((tbar ^ that).sum(axis=1) >= c.distance).all()


def test_align_length_validation():
    c = make_code("hamming74")
    with pytest.raises(ValueError):
        align_batch(c, np.zeros((1, 7)), np.zeros((1, 4)))
    with pytest.raises(ValueError):
        leader_batch(c, np.zeros((1, 2)))
    # a target row shorter than the syndrome is refused, not broadcast
    for short in ([1], 1, np.zeros((2, 1))):
        with pytest.raises(ValueError, match="target row length 3"):
            align_batch(c, np.zeros((2, 7)), short)


# ---------------------------------------------------------------------------
# misc

def test_min_weight_codeword():
    c = make_code("hamming74")
    w = c.min_weight_codeword
    assert w.weight() == 3 and c.parity_check.mulvec(w) == Gf2Vec.zeros(3)
    assert make_code("repetition", 4).min_weight_codeword == Gf2Vec((1, 1, 1, 1))
    assert make_code("block_repeat", 3, 2).min_weight_codeword == Gf2Vec((0, 0, 0, 1, 1, 1))
    c = make_code("random_linear", 10, 4, 7)
    w = c.min_weight_codeword
    assert w.weight() == c.distance and c.parity_check.mulvec(w) == Gf2Vec.zeros(6)
    smallest = min(tuple(v.bits) for v in codewords(c) if v.weight() == c.distance)
    assert tuple(w.bits) == smallest
    assert c.min_weight_codeword is w  # built once per code


def _block_rule_leader(code, syn):
    """Per block, the lighter of the coset's two words (sigma, 0) and
    (~sigma, 1), the lexicographically smaller one on a tie."""
    b, k = code.block_params
    out = []
    for sig in np.asarray(syn, dtype=np.uint8).reshape(k, b - 1).tolist():
        words = (sig + [0], [1 - v for v in sig] + [1])
        out += min(words, key=lambda w: (sum(w), w))
    return out


def test_batch_operations_match_references():
    rng = np.random.default_rng(21)
    # block_repeat(63, 30) is criterion 12's code; block_repeat(4, 5) has even
    # blocks, where 3/8 of the random block syndromes are ties
    for c in (make_code("hamming74"), make_code("block_repeat", 5, 3),
              make_code("block_repeat", 63, 30), make_code("block_repeat", 4, 5)):
        table = _leader_table(c) if c.block_params is None else None

        def leader_of(syn):
            if table is None:
                return _block_rule_leader(c, syn)
            return table[Gf2Vec(syn)].bits.tolist()

        words = rng.integers(0, 2, size=(40, c.length), dtype=np.uint8)
        syns = syndrome_batch(c, words)
        targets = rng.integers(0, 2, size=(40, c.syndrome_length), dtype=np.uint8)
        leaders = leader_batch(c, targets)
        aligned = align_batch(c, words, targets)
        want_syns = _syndromes(c, words)
        assert np.array_equal(syns, want_syns)
        for i in range(40):
            assert leaders[i].tolist() == leader_of(targets[i])
            gap_leader = np.array(leader_of(want_syns[i] ^ targets[i]), dtype=np.uint8)
            assert aligned[i].tolist() == (words[i] ^ gap_leader).tolist()


def test_syndrome_batch_matches_per_word_syndrome():
    # hamming74 and random_linear have no block structure: both take the
    # floating-point product and its integer parity
    rng = np.random.default_rng(29)
    random = rng.integers(0, 2, size=(500, 40), dtype=np.uint8)
    for c, words in ((make_code("hamming74"), _ALL_SEVEN_BIT),
                     (make_code("random_linear", 40, 20, 1), random)):
        syns = syndrome_batch(c, words)
        assert syns.dtype == np.uint8
        assert np.array_equal(syns, _syndromes(c, words))


def test_batch_shape_validation():
    c = make_code("hamming74")
    with pytest.raises(ValueError):
        syndrome_batch(c, np.zeros((3, 6), dtype=np.uint8))
    with pytest.raises(ValueError):
        leader_batch(c, np.zeros((3, 4), dtype=np.uint8))
