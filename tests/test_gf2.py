import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetmoe import gf2
from cosetmoe.gf2 import (
    Gf2Matrix,
    Gf2Subspace,
    Gf2Vec,
    IndexSubset,
    complement,
    coset_rep,
    rref,
    sample_subspace,
    sample_subspaces,
    subspace_fields,
)
from cosetmoe.mc import (
    TrialReader,
    bits_from_words,
    key_threshold,
    keys_from_words,
    stream_key,
    top_k_mask,
    words_for,
)
from statevector_referee import (contains, intersect, inverse, mulmat, solve_coset_membership,
                                 vectors)


def span(n, *rows):
    return Gf2Subspace(n, [Gf2Vec(r) for r in rows])


def e(i, n):
    v = np.zeros(n, dtype=np.uint8)
    v[i] = 1
    return Gf2Vec(v)


def test_constructors_own_their_bits():
    """A vector or matrix never shares or freezes the caller's array."""
    v_src = np.array([1, 0, 3], dtype=np.uint8)
    m_src = np.array([[1, 0], [2, 1]], dtype=np.uint8)
    v, m = Gf2Vec(v_src), Gf2Matrix(m_src)
    v_src[:] = 0
    m_src[:] = 0
    assert v.bits.tolist() == [1, 0, 1] and m.rows.tolist() == [[1, 0], [0, 1]]
    assert v_src.flags.writeable and m_src.flags.writeable
    assert not v.bits.flags.writeable and not m.rows.flags.writeable
    # a source already in {0, 1} is copied as well; larger entries keep their low bit
    w_src = np.array([1, 0, 1], dtype=np.uint8)
    w = Gf2Vec(w_src)
    w_src[:] = 0
    assert w.bits.tolist() == [1, 0, 1] and not w.bits.flags.writeable
    assert Gf2Vec(np.array([255, 254, 2, 1], dtype=np.uint8)).bits.tolist() == [1, 0, 0, 1]


# ---------------------------------------------------------------- rref


def test_rref_duplicate_rows():
    red, piv = rref(Gf2Matrix([[1, 1], [1, 1]]))
    assert red.rows[0].tolist() == [1, 1]
    assert piv == (0,)


def test_rref_identity():
    red, piv = rref(Gf2Matrix(np.eye(5, dtype=np.uint8)))
    assert np.array_equal(red.rows, np.eye(5, dtype=np.uint8))
    assert piv == tuple(range(5))


def test_rref_hand_example():
    red, piv = rref(Gf2Matrix([[0, 1, 1], [1, 1, 0]]))
    assert red.rows[:2].tolist() == [[1, 0, 1], [0, 1, 1]]
    assert piv == (0, 1)


def test_rref_preserves_span():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = Gf2Matrix(rng.integers(0, 2, size=(3, 6), dtype=np.uint8))
        a = Gf2Subspace(6, m)
        b = Gf2Subspace(6, a.basis)
        assert a == b
        for row in m.rows:
            assert contains(a, Gf2Vec(row))


def _loop_rref(rows):
    """Elimination one row at a time: the reference for ``rref``."""
    work = rows.copy()
    pivots = []
    for col in range(work.shape[1]):
        row = len(pivots)
        piv = next((i for i in range(row, work.shape[0]) if work[i, col]), None)
        if row == work.shape[0] or piv is None:
            continue
        work[[row, piv]] = work[[piv, row]]
        for i in range(work.shape[0]):
            if i != row and work[i, col]:
                work[i] ^= work[row]
        pivots.append(col)
    return work, tuple(pivots)


def _loop_free(pivots, n):
    return [j for j in range(n) if j not in pivots]


def _loop_complement(basis, pivots):
    """a⊥ one free coordinate f at a time: the generator e_f plus a's entries
    (i, f) at its pivots, reduced by ``_loop_rref``: the reference for
    ``complements``."""
    n = basis.shape[1]
    gens = np.zeros((n - len(pivots), n), dtype=np.uint8)
    for row, f in enumerate(_loop_free(pivots, n)):
        gens[row, f] = 1
        for i, p in enumerate(pivots):
            gens[row, p] = basis[i, f]
    return _loop_rref(gens)


def _loop_coset_element(basis, pivots, t, c):
    """coset_rep(a, t) ⊕ c·A one coordinate and one basis row at a time: the
    reference for ``coset_elements``."""
    v = np.zeros(basis.shape[1], dtype=np.uint8)
    for f, bit in zip(_loop_free(pivots, basis.shape[1]), t):
        v[f] = bit
    for coeff, row in zip(c, basis):
        if coeff:
            v ^= row
    return v


def _loop_coset_label(basis, pivots, v):
    """(t, c) of v = coset_rep(a, t) ⊕ c·A, reducing v by each basis row
    whose pivot it holds: the reference for ``coset_labels``."""
    c = v[list(pivots)]
    residue = v.copy()
    for coeff, row in zip(c, basis):
        if coeff:
            residue ^= row
    return residue[_loop_free(pivots, basis.shape[1])], c


def test_rref_and_complement_equal_their_loop_references():
    rng = np.random.default_rng(11)
    for n in range(1, 13):
        for rows in range(1, n + 3):
            m = rng.integers(0, 2, size=(rows, n), dtype=np.uint8)
            red, piv = rref(Gf2Matrix(m))
            ref, ref_piv = _loop_rref(m)
            assert np.array_equal(red.rows, ref) and piv == ref_piv
            a = Gf2Subspace(n, Gf2Matrix(m))
            b = complement(a)
            ref, ref_piv = _loop_complement(a.basis.rows, a.pivots)
            assert np.array_equal(b.basis.rows, ref) and b.pivots == ref_piv
    # blocks whose matrices differ in rank and pivot set: densities from 0
    # (an all-zero matrix) to 1, and rows both fewer and more than columns
    for shape in [(40, 5, 9), (40, 7, 4)]:
        m = (rng.random(shape) < rng.random((shape[0], 1, 1))).astype(np.uint8)
        m[0] = 0
        reduced, is_pivot = gf2.eliminate(m)
        ranks = set()
        for i in range(shape[0]):
            ref, ref_piv = _loop_rref(m[i])
            assert np.array_equal(reduced[i], ref)
            assert tuple(np.flatnonzero(is_pivot[i])) == ref_piv
            ranks.add(len(ref_piv))
        assert 0 in ranks and len(ranks) >= 3


@pytest.mark.parametrize("n,rows", [(8, 300), (64, 60)])
def test_batched_coset_maps_equal_their_loop_references(n, rows):
    # sample_subspaces blocks: complements, coset elements and labels row by
    # row against the one-row loops, and each label decode inverts its element
    k = n // 2
    words = np.random.Philox(key=stream_key(n, 26)).random_raw(
        (rows, words_for(bit_fields=(*subspace_fields(n, k)[0], n - k, k),
                         key_fields=subspace_fields(n, k)[1])))
    r = TrialReader(words)
    basis, pivots = sample_subspaces(r, n, k)
    t, c = r.bits(n - k), r.bits(k)
    perp_basis, perp_pivots = gf2.complements(basis, pivots)
    v = gf2.coset_elements(basis, pivots, t, c)
    t_hat, c_hat = gf2.coset_labels(basis, pivots, v)
    free = gf2.free_mask(n, pivots)
    for i in range(rows):
        ref, ref_piv = _loop_complement(basis[i], tuple(pivots[i]))
        assert np.array_equal(perp_basis[i], ref) and tuple(perp_pivots[i]) == ref_piv
        assert np.array_equal(v[i], _loop_coset_element(basis[i], pivots[i], t[i], c[i]))
        ref_t, ref_c = _loop_coset_label(basis[i], pivots[i], v[i])
        assert np.array_equal(t_hat[i], ref_t) and np.array_equal(c_hat[i], ref_c)
        assert np.array_equal(t_hat[i], t[i]) and np.array_equal(c_hat[i], c[i])
        assert np.flatnonzero(free[i]).tolist() == _loop_free(tuple(pivots[i]), n)


# ---------------------------------------------------------- complement


def test_complement_register():
    a = span(6, e(0, 6).bits, e(1, 6).bits, e(2, 6).bits)
    assert complement(a) == span(6, e(3, 6).bits, e(4, 6).bits, e(5, 6).bits)


def test_complement_self_dual_diagonal():
    a = span(2, [1, 1])
    assert complement(a) == a


def test_complement_dims_and_orthogonality():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = sample_subspace(6, "all", rng)
        b = complement(a)
        assert b.dim == 6 - a.dim
        for u in vectors(a):
            for v in vectors(b):
                assert (u.bits & v.bits).sum() % 2 == 0


def test_complement_involution():
    rng = np.random.default_rng(13)
    for n, family in [(4, "register"), (6, "all"), (8, "all")]:
        for _ in range(25):
            a = sample_subspace(n, family, rng)
            assert complement(complement(a)) == a
            assert a.dim + complement(a).dim == n


def test_register_sum_with_complement_is_full_space():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = sample_subspace(6, "register", rng)
        b = complement(a)
        joined = Gf2Subspace(6, list(vectors(a)) + list(vectors(b)))
        assert joined.dim == 6
    # the diagonal line is its own complement, so a + a⊥ can be a proper
    # subspace for non-register a — keep this as a regression case
    a = span(2, [1, 1])
    joined = Gf2Subspace(2, list(vectors(a)) + list(vectors(complement(a))))
    assert joined.dim == 1


# ------------------------------------------------------------ intersect


def test_intersect_idempotent():
    rng = np.random.default_rng(19)
    a = sample_subspace(6, "all", rng)
    assert intersect(a, a) == a


def test_intersect_register_example():
    a = span(4, e(0, 4).bits, e(1, 4).bits)
    b = span(4, e(1, 4).bits, e(2, 4).bits)
    assert intersect(a, b) == span(4, e(1, 4).bits)


def test_intersect_matches_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = sample_subspace(8, "all", rng)
        b = sample_subspace(8, "all", rng)
        cap = intersect(a, b)
        members = {v.to_int() for v in vectors(a)} & {v.to_int() for v in vectors(b)}
        assert {v.to_int() for v in vectors(cap)} == members


def test_intersect_ambient_mismatch():
    rng = np.random.default_rng(29)
    with pytest.raises(ValueError):
        intersect(sample_subspace(4, "all", rng), sample_subspace(6, "all", rng))


# ------------------------------------------------------------ coset_rep


def test_coset_rep_register_convention():
    # a⊥ spanned by the 2nd and 4th canonical vectors => a is the register
    # subspace on coordinates {0, 2}; the label bits land at coordinates 1, 3.
    a = span(4, e(0, 4).bits, e(2, 4).bits)
    assert complement(a) == span(4, e(1, 4).bits, e(3, 4).bits)
    assert coset_rep(a, Gf2Vec([1, 0])) == e(1, 4)
    assert coset_rep(a, Gf2Vec([0, 1])) == e(3, 4)


def test_coset_rep_zero():
    rng = np.random.default_rng(31)
    a = sample_subspace(6, "all", rng)
    assert coset_rep(a, Gf2Vec.zeros(6 - a.dim)) == Gf2Vec.zeros(6)


def test_coset_rep_distinct_cosets():
    rng = np.random.default_rng(37)
    a = sample_subspace(6, "all", rng)
    reps = [coset_rep(a, Gf2Vec.from_int(t, 3)) for t in range(8)]
    for i in range(8):
        for j in range(i + 1, 8):
            assert not contains(a, reps[i] + reps[j])


def test_coset_rep_linear():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.choice([4, 6, 8]))
        a = sample_subspace(n, "all", rng)
        k = n - a.dim
        t1 = Gf2Vec(rng.integers(0, 2, size=k, dtype=np.uint8))
        t2 = Gf2Vec(rng.integers(0, 2, size=k, dtype=np.uint8))
        assert coset_rep(a, t1 + t2) == coset_rep(a, t1) + coset_rep(a, t2)


def test_coset_rep_length_check():
    rng = np.random.default_rng(43)
    a = sample_subspace(4, "register", rng)
    with pytest.raises(ValueError):
        coset_rep(a, Gf2Vec([1, 0, 1]))


# ------------------------------------------------------ sample_subspace


def test_sample_subspace_all_n2_uniform():
    rng = np.random.default_rng(47)
    counts = {}
    for _ in range(3000):
        a = sample_subspace(2, "all", rng)
        counts[a] = counts.get(a, 0) + 1
    assert len(counts) == 3
    sigma = np.sqrt(3000 * (1 / 3) * (2 / 3))
    for c in counts.values():
        assert abs(c - 1000) <= 3 * sigma


def test_sample_subspace_register_support():
    rng = np.random.default_rng(53)
    seen = {sample_subspace(4, "register", rng) for _ in range(500)}
    assert len(seen) == 6
    for a in seen:
        assert a == Gf2Subspace.register(4, a.pivots) and a.dim == 2


def test_sample_subspace_deterministic():
    a = sample_subspace(8, "all", np.random.default_rng(99))
    b = sample_subspace(8, "all", np.random.default_rng(99))
    assert a == b


@functools.lru_cache(maxsize=None)
def _q_binomial(m, r):
    """The Gaussian binomial [m choose r]_2, by the q-Pascal rule."""
    if r in (0, m):
        return 1
    if not 0 < r < m:
        return 0
    return _q_binomial(m - 1, r) + 2 ** (m - r) * _q_binomial(m - 1, r - 1)


def _pivot_threshold(m, r):
    """The key threshold of a pivot with m columns and r pivots left: its
    probability is the share 2^(m-r) [m-1 choose r-1]_2 / [m choose r]_2 of
    the canonical forms that finish the draw."""
    return key_threshold(float(Fraction(2 ** (m - r) * _q_binomial(m - 1, r - 1),
                                        _q_binomial(m, r))))


@pytest.mark.parametrize("n", [2, 8, 64])
def test_sample_subspace_reads_pivot_keys_then_fill_bits(n):
    # a copy of the generator replays the raw words: n keys decide the pivot
    # columns left to right, then a k x n bit field fills the free entries
    k = n // 2
    for seed in range(20):
        rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
        a = sample_subspace(n, "all", rng)
        words = replay.bit_generator.random_raw(words_for(*subspace_fields(n, k)))
        keys = keys_from_words(words, n).tolist()
        fill = bits_from_words(words[None, -(-n // 2):], k * n)[0].reshape(k, n)
        pivots, left = [], k
        for j in range(n):
            if keys[j] < _pivot_threshold(n - j, left):
                pivots.append(j)
                left -= 1
        basis = np.zeros((k, n), dtype=np.uint8)
        for i, p in enumerate(pivots):
            basis[i, p] = 1
            free = [j for j in range(p + 1, n) if j not in pivots]
            basis[i, free] = fill[i, free]
        assert a.pivots == tuple(pivots) and np.array_equal(a.basis.rows, basis)
        # the draw is already canonical: elimination leaves it as it is
        b = Gf2Subspace(n, Gf2Matrix(a.basis.rows))
        assert a == b and a.pivots == b.pivots
        # both took the same raw words
        assert rng.bit_generator.random_raw() == replay.bit_generator.random_raw()
        # the register family: the n/2 largest of n keys
        reg = sample_subspace(n, "register", rng)
        keys = keys_from_words(replay.bit_generator.random_raw(-(-n // 2))[None, :], n)
        assert reg.pivots == tuple(np.flatnonzero(top_k_mask(keys, k)[0]))


@pytest.mark.parametrize("n,k", [(2, 1), (4, 1), (4, 2), (4, 3)])
def test_random_rref_exact_law(n, k):
    # every pivot set, each with the exact probability of its key decisions
    # (a decision at threshold th is a key below th, probability th/2^32),
    # driven by the keys on either side of each threshold, and every fill
    fills = ((np.arange(1 << (k * n))[:, None] >> np.arange(k * n)) & 1).astype(np.uint8)
    law = {}
    for support in itertools.combinations(range(n), k):
        prob, keys, left = Fraction(1), [], k
        for j in range(n):
            th = _pivot_threshold(n - j, left)
            pivot = j in support
            prob *= Fraction(th, 1 << 32) if pivot else 1 - Fraction(th, 1 << 32)
            keys.append(th - 1 if pivot else th)
            left -= pivot
        if prob == 0:
            continue
        block = np.tile(np.array(keys, dtype=np.uint32), (len(fills), 1))
        basis, pivots = gf2._random_rref(block, fills, k)
        assert (pivots == support).all()
        for rows in gf2.eliminate(basis)[0]:  # each subspace's canonical basis
            law[rows.tobytes()] = law.get(rows.tobytes(), 0) + prob / len(fills)
    assert sum(law.values()) == 1
    assert len(law) == _q_binomial(n, k)
    uniform = Fraction(1, _q_binomial(n, k))
    assert all(abs(p - uniform) <= Fraction(n, 1 << 32) for p in law.values())


def test_sample_subspaces_chi_squared_over_all_35_at_n4():
    rows = 20_000
    words = np.random.Philox(key=stream_key(4, 35)).random_raw(
        (rows, words_for(*subspace_fields(4, 2))))
    counts = {}
    basis, _ = sample_subspaces(TrialReader(words), 4, 2)
    for a in basis:  # a canonical basis names its subspace
        counts[a.tobytes()] = counts.get(a.tobytes(), 0) + 1
    assert len(counts) == 35
    observed = np.array(list(counts.values()))
    chi2 = float(((observed - rows / 35) ** 2 / (rows / 35)).sum())
    assert chi2 < 65.25  # the 0.999 quantile of χ² at 34 degrees of freedom


def test_sample_subspace_odd_n():
    with pytest.raises(ValueError):
        sample_subspace(5, "register", np.random.default_rng(1))


# ---------------------------------------------- solve_coset_membership


def test_solve_trivial_and_roundtrip():
    rng = np.random.default_rng(71)
    a = sample_subspace(6, "all", rng)
    t, u = solve_coset_membership(a, Gf2Vec.zeros(6))
    assert t == Gf2Vec.zeros(3) and u == Gf2Vec.zeros(6)
    lbl = Gf2Vec([1, 0, 1])
    t, u = solve_coset_membership(a, coset_rep(a, lbl))
    assert t == lbl and u == Gf2Vec.zeros(6)


def test_solve_reconstruction():
    rng = np.random.default_rng(73)
    for _ in range(50):
        a = sample_subspace(8, "all", rng)
        v = Gf2Vec(rng.integers(0, 2, size=8, dtype=np.uint8))
        t, u = solve_coset_membership(a, v)
        assert contains(a, u)
        assert coset_rep(a, t) + u == v


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_solve_inverts_coset_rep_exhaustively(n):
    rng = np.random.default_rng(79 + n)
    for family in ("register", "all"):
        a = sample_subspace(n, family, rng)
        k = n - a.dim
        for val in range(1 << k):
            lbl = Gf2Vec.from_int(val, k)
            for u in vectors(a):
                t, res = solve_coset_membership(a, coset_rep(a, lbl) + u)
                assert t == lbl
                assert res == u


# ------------------------------------------------------- canonical form


def test_canonicalization_of_generating_sets():
    rng = np.random.default_rng(83)
    a = sample_subspace(8, "all", rng)
    vecs = list(vectors(a))
    reference = None
    for _ in range(100):
        # random generating set: random vectors from a until they span it
        gens = []
        while Gf2Subspace(8, gens or None).dim < a.dim:
            gens.append(vecs[rng.integers(0, len(vecs))])
        b = Gf2Subspace(8, gens)
        if reference is None:
            reference = b
        assert b == a
        assert b.basis.rows.tobytes() == reference.basis.rows.tobytes()


@pytest.mark.parametrize("n", [2, 4, 6])
def test_register_equals_elimination_of_unit_vectors(n):
    for k in range(n + 1):
        for support in itertools.combinations(range(n), k):
            a = Gf2Subspace.register(n, support)
            b = Gf2Subspace(n, [e(i, n) for i in support])
            assert a == b
            assert a.pivots == b.pivots == support
            assert a.to_json() == b.to_json()


def test_register_positions():
    assert Gf2Subspace.register(4, (3, 1, 3)) == Gf2Subspace.register(4, (1, 3))
    with pytest.raises(ValueError):
        Gf2Subspace.register(4, (4,))
    with pytest.raises(ValueError):
        Gf2Subspace.register(4, (-1,))


# -------------------------------------------------------- serialization


def _from_hex(text, n):
    """Reader of ``Gf2Vec.to_hex`` (the program writes hex and never reads it)."""
    return Gf2Vec.from_int(int(text, 16), n)


def test_subspace_json_roundtrip():
    rng = np.random.default_rng(89)
    for _ in range(200):
        a = sample_subspace(8, "all", rng)
        payload = a.to_json()
        assert payload["n"] == 8
        assert Gf2Subspace(8, [_from_hex(h, 8) for h in payload["basis"]]) == a
    rng = np.random.default_rng(97)
    for n in (1, 5, 8, 14, 70):
        for _ in range(20):
            a = Gf2Subspace.register(n, np.flatnonzero(rng.integers(0, 2, size=n)))
            payload = a.to_json()
            assert payload["n"] == n
            assert Gf2Subspace(n, [_from_hex(h, n) for h in payload["basis"]]) == a


def test_hex_is_msb_first():
    v = Gf2Vec([1, 0, 0, 0, 0, 0, 0, 1])
    assert v.to_hex() == "81"
    assert _from_hex("81", 8) == v
    # width pads to ceil(n/4) nibbles
    assert Gf2Vec([0, 0, 0, 1, 1]).to_hex() == "03"
    assert _from_hex("03", 5) == Gf2Vec([0, 0, 0, 1, 1])


# ------------------------------------------------------------ misc bits


def test_index_subset_basics():
    s = IndexSubset(6, (4, 1, 1))
    assert s.indices == (1, 4)
    with pytest.raises(ValueError):
        IndexSubset(3, (5,))


@given(st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=50, deadline=None)
def test_vec_xor_group_laws(x, y):
    vx, vy = Gf2Vec.from_int(x, 8), Gf2Vec.from_int(y, 8)
    assert vx + vx == Gf2Vec.zeros(8)
    assert vx + vy == vy + vx
    assert (vx + vy).to_int() == x ^ y


@given(st.integers(0, 2**12 - 1))
@settings(max_examples=50, deadline=None)
def test_vec_int_roundtrip(x):
    assert Gf2Vec.from_int(x, 12).to_int() == x
    assert _from_hex(Gf2Vec.from_int(x, 12).to_hex(), 12).to_int() == x


@given(st.lists(st.integers(0, 1), max_size=200))
@settings(max_examples=200, deadline=None)
def test_vec_conversions_match_per_bit_reference(bits):
    # n = 0, n % 8 != 0 and n > 64 all occur
    n = len(bits)
    value = 0
    for b in bits:
        value = (value << 1) | b
    padded = [0] * (-n % 4) + bits
    nibbles = [padded[i:i + 4] for i in range(0, len(padded), 4)]
    digits = "".join("0123456789abcdef"[8 * a + 4 * b + 2 * c + d] for a, b, c, d in nibbles)
    v = Gf2Vec(bits)
    assert v.to_int() == value
    assert v.to_hex() == (digits or "0")
    assert Gf2Vec.from_int(value, n).bits.tolist() == bits
    assert _from_hex(v.to_hex(), n) == v
    with pytest.raises(ValueError):
        Gf2Vec.from_int(1 << n, n)


def test_matrix_inverse():
    rng = np.random.default_rng(97)
    found = 0
    while found < 10:
        m = Gf2Matrix(rng.integers(0, 2, size=(5, 5), dtype=np.uint8))
        if len(rref(m)[1]) < 5:
            continue
        found += 1
        assert np.array_equal(mulmat(m, inverse(m)).rows, np.eye(5, dtype=np.uint8))
    with pytest.raises(ValueError):
        inverse(Gf2Matrix([[1, 1], [1, 1]]))
