import numpy as np
import pytest

from cosetmoe import moe
from cosetmoe.cli import _half_subspaces
from cosetmoe.gf2 import (
    Gf2Subspace,
    Gf2Vec,
    complement,
    coset_rep,
    sample_subspace,
)
from cosetmoe.mc import TrialReader, coordinate_rows, trial_words, words_for
from cosetmoe.proto import PauliNoise
from cosetmoe.qsim import STATEVECTOR_QUBIT_LIMIT, CosetDescriptor, StateVec, prepare_coset_state
from statevector_referee import (
    AdversaryChannel,
    QuantumReg,
    _coset_change_of_basis,
    append_ancilla,
    apply_adversary,
    apply_unitary,
    assign_ownership,
    coset_overlap,
    intersect,
    measure_computational,
    measure_coset_basis,
    measure_qubits,
    prepare,
    solve_coset_membership,
    vectors,
)


def e(i, n):
    v = np.zeros(n, dtype=np.uint8)
    v[i] = 1
    return Gf2Vec(v)


def span(n, *rows):
    return Gf2Subspace(n, [Gf2Vec(r) for r in rows])


def random_descriptor(n, family, rng):
    a = sample_subspace(n, family, rng)
    t = Gf2Vec(rng.integers(0, 2, size=n // 2, dtype=np.uint8))
    tp = Gf2Vec(rng.integers(0, 2, size=n // 2, dtype=np.uint8))
    return CosetDescriptor(a, t, tp)


def wiesner_statevector(x, theta):
    """Independent oracle: explicit tensor product of H^θ_i |x_i⟩."""
    acc = np.array([1.0 + 0j])
    for xi, ti in zip(x, theta):
        if ti == 0:
            q = np.array([1.0, 0.0]) if xi == 0 else np.array([0.0, 1.0])
        else:
            q = np.array([1.0, 1.0]) / np.sqrt(2) if xi == 0 else np.array([1.0, -1.0]) / np.sqrt(2)
        acc = np.kron(acc, q.astype(np.complex128))
    return acc


def packed(bits):
    """(T, h) bits as ``TrialReader.packed`` words: bit 0 on top of word 0."""
    padded = np.zeros((bits.shape[0], 64 * -(-bits.shape[1] // 64)), dtype=np.uint8)
    padded[:, : bits.shape[1]] = bits
    return np.packbits(padded, axis=1).view(">u8").astype(np.uint64)


def register_records(theta, t, tp):
    """Data bits x of register coset states' conjugate-coding records, one per
    row of (θ, t, t'), deposited as the moe register kernels deposit them: t
    on the θ=0 coordinates and t' on the θ=1 ones, each in ascending order."""
    pivots = coordinate_rows(theta)
    free_off, pivot_off = moe._coset_offsets(pivots)
    x = (moe._deposit(packed(t), coordinate_rows(1 - theta), free_off)
         | moe._deposit(packed(tp), pivots, pivot_off))
    return np.unpackbits(x.view(np.uint8), axis=1, count=theta.shape[1])


def pauli_noise(reg, dx, dz, rng):
    """Noise oracle: independently per qubit, X with probability dx and Z
    with probability dz (one sampled Pauli trajectory)."""
    n = reg.payload.n
    fx = rng.random(n) < dx
    fz = rng.random(n) < dz
    weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    index = np.arange(1 << n)
    amps = reg.payload.amps[index ^ int((fx * weights).sum())]
    amps = amps * (1.0 - 2.0 * (np.bitwise_count(index & int((fz * weights).sum())) & 1))
    return QuantumReg(StateVec(n, amps), reg.owner)


def raw_coset_statevector(a, v, vp):
    """Independent oracle: 2^{-n/4} Σ_{u∈a} (−1)^{u·v'} |u+v⟩ for ambient
    labels v, v' (not reduced to canonical form)."""
    amps = np.zeros(1 << a.n, dtype=np.complex128)
    for u in vectors(a):
        amps[(u + v).to_int()] += (-1) ** int((u.bits & vp.bits).sum()) / np.sqrt(float(1 << a.dim))
    return amps


# ----------------------------------------------------------- prepare


def test_prepare_plus_zero_example():
    d = CosetDescriptor(span(2, [1, 0]), Gf2Vec([0]), Gf2Vec([0]))
    assert np.allclose(prepare_coset_state(d).amps, [1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0])


def test_prepare_matches_wiesner_tensor_product():
    rng = np.random.default_rng(3)
    for n in (2, 4, 6, 10, 12):
        for _ in range(10):
            d = random_descriptor(n, "register", rng)
            sv = prepare_coset_state(d).amps
            theta = np.zeros(n, dtype=np.uint8)
            theta[list(d.a.pivots)] = 1
            x, = register_records(theta[None], d.t.bits[None], d.t_prime.bits[None])
            overlap = abs(np.vdot(wiesner_statevector(x, theta), sv))
            assert abs(overlap - 1.0) < 1e-10


def test_prepare_wiesner_labels():
    # the record of the chi-squared test below: θ marks the pivots {0, 2},
    # t lands on the free coordinates {1, 3} and t' on the pivots
    a = span(4, e(0, 4).bits, e(2, 4).bits)
    theta = np.zeros(4, dtype=np.uint8)
    theta[list(a.pivots)] = 1
    assert theta.tolist() == [1, 0, 1, 0]
    x = register_records(theta[None], np.array([[1, 0]], np.uint8), np.array([[0, 1]], np.uint8))
    assert x.tolist() == [[0, 1, 1, 0]]


def test_orthonormal_basis_small():
    rng = np.random.default_rng(5)
    for a in [span(2, [1, 0]), span(2, [0, 1]), span(2, [1, 1])]:
        states = []
        for t in range(2):
            for tp in range(2):
                d = CosetDescriptor(a, Gf2Vec([t]), Gf2Vec([tp]))
                states.append(prepare_coset_state(d).amps)
        gram = np.array([[np.vdot(u, v) for v in states] for u in states])
        assert np.allclose(gram, np.eye(4), atol=1e-10)
    a = sample_subspace(4, "all", rng)
    states = [
        prepare_coset_state(
            CosetDescriptor(a, Gf2Vec.from_int(t, 2), Gf2Vec.from_int(tp, 2))
        ).amps
        for t in range(4)
        for tp in range(4)
    ]
    gram = np.array([[np.vdot(u, v) for v in states] for u in states])
    assert np.allclose(gram, np.eye(16), atol=1e-10)


def test_global_phase_insensitivity():
    rng = np.random.default_rng(7)
    for n in (4, 6):
        for _ in range(10):
            a = sample_subspace(n, "all", rng)
            v = Gf2Vec(rng.integers(0, 2, size=n, dtype=np.uint8))
            vp = Gf2Vec(rng.integers(0, 2, size=n, dtype=np.uint8))
            t, _ = solve_coset_membership(a, v)
            tp, _ = solve_coset_membership(complement(a), vp)
            canonical = prepare_coset_state(CosetDescriptor(a, t, tp)).amps
            raw = raw_coset_statevector(a, v, vp)
            assert abs(abs(np.vdot(raw, canonical)) - 1.0) < 1e-10


# ------------------------------------------------------- measurement


def test_measure_roundtrip_statevector():
    rng = np.random.default_rng(11)
    for n, family in [(2, "all"), (4, "all"), (6, "register"), (6, "all")]:
        for _ in range(5):
            d = random_descriptor(n, family, rng)
            reg = prepare(d)
            t_hat, tp_hat = measure_coset_basis(reg, d.a, rng)
            assert t_hat == d.t
            assert tp_hat == d.t_prime


def test_cached_change_of_basis_equals_a_fresh_build():
    subspaces = list(_half_subspaces(4, "all"))
    assert len(subspaces) == 35
    for a in subspaces:
        perm, s_inv = _coset_change_of_basis(a)
        fresh_perm, fresh_s_inv = _coset_change_of_basis.__wrapped__(a)
        assert np.array_equal(perm, fresh_perm) and s_inv == fresh_s_inv
        assert _coset_change_of_basis(a)[0] is perm  # a hit returns the cached arrays
        assert not perm.flags.writeable


def test_measure_zero_state_in_register_basis():
    rng = np.random.default_rng(17)
    a = span(4, e(0, 4).bits, e(1, 4).bits)
    reg0 = QuantumReg(StateVec(4, np.eye(1, 16, 0, dtype=np.complex128).ravel()), ("bob",) * 4)
    counts = {}
    for _ in range(2000):
        t_hat, tp_hat = measure_coset_basis(reg0, a, rng)
        assert t_hat == Gf2Vec([0, 0])
        counts[tp_hat.to_int()] = counts.get(tp_hat.to_int(), 0) + 1
    sigma = np.sqrt(2000 * 0.25 * 0.75)
    for v in range(4):
        assert abs(counts.get(v, 0) - 500) <= 3 * sigma


def test_measure_computational_collapse():
    rng = np.random.default_rng(23)
    # (|00⟩ + |11⟩)/√2: measuring qubit 0 fixes qubit 1
    bell = np.zeros(4, dtype=np.complex128)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    for _ in range(20):
        reg = QuantumReg(StateVec(2, bell.copy()), ("eve",) * 2)
        out0, collapsed = measure_computational(reg, rng, (0,))
        out1, _ = measure_computational(collapsed, rng, (1,))
        assert out0 == out1


# ------------------------------------------------------------- noise


def test_noise_identity():
    rng = np.random.default_rng(29)
    d = random_descriptor(4, "register", rng)
    reg = prepare(d)
    out = pauli_noise(reg, 0.0, 0.0, rng)
    assert np.allclose(out.payload.amps, reg.payload.amps)


def test_noise_statevector_paulis():
    rng = np.random.default_rng(37)
    zero = QuantumReg(StateVec(2, np.eye(1, 4, 0, dtype=np.complex128).ravel()), ("a",) * 2)
    flipped = pauli_noise(zero, 1.0, 0.0, rng)
    assert abs(flipped.payload.amps[3]) == pytest.approx(1.0)
    plus = QuantumReg(StateVec(1, np.array([1, 1], dtype=np.complex128) / np.sqrt(2)), ("a",))
    minus = pauli_noise(plus, 0.0, 1.0, rng)
    assert np.allclose(minus.payload.amps, np.array([1, -1]) / np.sqrt(2))


# --------------------------------------------------------- adversary


def test_adversary_assign_all():
    rng = np.random.default_rng(47)
    d = random_descriptor(4, "register", rng)
    reg = prepare(d)
    ch = AdversaryChannel([assign_ownership(range(4), "bob")])
    out = apply_adversary(reg, ch, rng)
    assert out.owner == ("bob",) * 4
    assert np.allclose(out.payload.amps, reg.payload.amps)


def test_adversary_measure_all():
    rng = np.random.default_rng(53)
    d = random_descriptor(4, "register", rng)
    reg = prepare(d)
    ch = AdversaryChannel(
        [measure_qubits(range(4)), assign_ownership(range(4), "bob")]
    )
    out = apply_adversary(reg, ch, rng)
    (targets, outcome), = ch.log
    assert targets == (0, 1, 2, 3)
    # outcome must land in the prepared coset
    t, _ = solve_coset_membership(d.a, outcome)
    assert t == d.t
    # post-measurement state is the observed basis state
    assert abs(out.payload.amps[outcome.to_int()]) == pytest.approx(1.0)


def test_adversary_cnot_born_table():
    rng = np.random.default_rng(59)
    alpha, beta = np.cos(0.3), np.sin(0.3) * np.exp(0.7j)
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
    )
    counts = {0: 0, 1: 0, 2: 0, 3: 0}
    trials = 4000
    for _ in range(trials):
        reg = QuantumReg(StateVec(1, np.array([alpha, beta])), ("alice",))
        ch = AdversaryChannel(
            [
                append_ancilla(1),
                apply_unitary(cnot, (0, 1)),
                assign_ownership((0,), "bob"),
                assign_ownership((1,), "charlie"),
            ]
        )
        out = apply_adversary(reg, ch, rng)
        assert out.owner == ("bob", "charlie")
        bits, _ = measure_computational(out, rng)
        counts[bits.to_int()] += 1
    # hand-computed Born table: CNOT copies the data bit onto the ancilla
    assert counts[1] == 0 and counts[2] == 0
    p0 = abs(alpha) ** 2
    sigma = np.sqrt(trials * p0 * (1 - p0))
    assert abs(counts[0] - trials * p0) <= 3 * sigma


def test_adversary_validation():
    rng = np.random.default_rng(61)
    d = random_descriptor(4, "register", rng)
    with pytest.raises(ValueError):
        AdversaryChannel([apply_unitary(np.array([[1, 1], [0, 1]]), (0,))])
    reg = prepare(d)
    with pytest.raises(ValueError):
        apply_adversary(reg, AdversaryChannel([assign_ownership((0, 1), "bob")]), rng)
    with pytest.raises(ValueError):
        apply_adversary(
            reg,
            AdversaryChannel(
                [
                    assign_ownership(range(4), "bob"),
                    assign_ownership((0,), "eve"),
                ]
            ),
            rng,
        )


def test_unitary_preserves_norm():
    rng = np.random.default_rng(67)
    d = random_descriptor(6, "all", rng)
    reg = prepare(d)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(mat)
    ch = AdversaryChannel(
        [apply_unitary(q, (1, 4)), assign_ownership(range(6), "bob")]
    )
    out = apply_adversary(reg, ch, rng)
    assert abs(np.vdot(out.payload.amps, out.payload.amps).real - 1.0) < 1e-10


# ----------------------------------------------------- backend parity


def test_backend_equivalence_chi_squared():
    # one state, |a_{t,t'}> with record (x, θ) written out, read two ways:
    # the statevector after the noise oracle, measured in the coset basis,
    # and the register read x ^ PauliNoise.flips(θ, keys) on an mc window.
    # With dx != dz a read that mixes up the θ=0 and θ=1 qubits fails.
    n, trials = 4, 20_000
    a = span(n, e(0, n).bits, e(2, n).bits)
    d = CosetDescriptor(a, Gf2Vec([1, 0]), Gf2Vec([0, 1]))
    x = np.array([0, 1, 1, 0], dtype=np.uint8)
    theta = np.array([1, 0, 1, 0], dtype=np.uint8)
    cells = np.unpackbits(np.arange(16, dtype=np.uint8)[:, None], axis=1)[:, 8 - n:]
    base = prepare(d)
    threshold = 37.70  # χ², 15 dof, 0.999 quantile
    for dx, dz in ((0.25, 0.25), (0.1, 0.3)):
        # exact per-qubit outcome distribution: a flip lands on a stored bit
        # when the sampled Pauli anticommutes with its basis
        flip = np.where(theta == 0, dx, dz)
        expected = np.where(cells != x, flip, 1 - flip).prod(axis=1) * trials
        rng = np.random.default_rng(71)
        sv_counts = np.zeros(16)
        for _ in range(trials):
            t_hat, tp_hat = measure_coset_basis(pauli_noise(base, dx, dz, rng), a, rng)
            # reassemble the raw outcome string for binning
            v = coset_rep(a, t_hat) + Gf2Vec([tp_hat[0], 0, tp_hat[1], 0])
            sv_counts[v.to_int()] += 1
        keys = TrialReader(trial_words(71, words_for(key_fields=(n,)), 0, trials)).keys(n)
        reads = x ^ PauliNoise(dx, dz).flips(theta, keys)
        register_counts = np.bincount(reads @ (1 << np.arange(n - 1, -1, -1)), minlength=16)
        for name, counts in (("statevector", sv_counts), ("register", register_counts)):
            chi2 = float(((counts - expected) ** 2 / expected).sum())
            assert chi2 < threshold, f"{name} at (dx, dz) = ({dx}, {dz}): χ² = {chi2}"


# ------------------------------------------------------ coset overlap


def test_coset_overlap_same_subspace():
    rng = np.random.default_rng(73)
    d = random_descriptor(6, "all", rng)
    assert coset_overlap(d, d.a, d.t) == pytest.approx(1.0)
    other = Gf2Vec(d.t.bits ^ np.array([1, 0, 0], dtype=np.uint8))
    assert coset_overlap(d, d.a, other) == 0.0


def _projector_mass(d, b, u):
    """⟨a_{t,t'}| Π_{b+u_b} |a_{t,t'}⟩ read off the prepared statevector."""
    amps = prepare_coset_state(d).amps
    u_b = coset_rep(b, u)
    return sum(float(abs(amps[(w + u_b).to_int()]) ** 2) for w in vectors(b))


def test_coset_overlap_bound_and_cross_check():
    rng = np.random.default_rng(79)
    for _ in range(50):
        d = random_descriptor(6, "all", rng)
        b = sample_subspace(6, "all", rng)
        u = Gf2Vec(rng.integers(0, 2, size=3, dtype=np.uint8))
        val = coset_overlap(d, b, u)
        cap = (1 << intersect(d.a, b).dim) / 2 ** 3
        assert val <= cap + 1e-12
    for _ in range(20):
        d = random_descriptor(4, "all", rng)
        b = sample_subspace(4, "all", rng)
        u = Gf2Vec(rng.integers(0, 2, size=2, dtype=np.uint8))
        assert abs(_projector_mass(d, b, u) - coset_overlap(d, b, u)) <= 1e-10


def test_coset_overlap_dimension_check():
    rng = np.random.default_rng(83)
    d = random_descriptor(4, "all", rng)
    with pytest.raises(ValueError):
        coset_overlap(d, sample_subspace(6, "all", rng), Gf2Vec([0, 0, 0]))


# ------------------------------------------------------------- misc


def test_statevec_validation():
    with pytest.raises(ValueError):
        StateVec(2, np.ones(4))  # unnormalized
    with pytest.raises(ValueError):
        StateVec(STATEVECTOR_QUBIT_LIMIT + 1, np.zeros(2))


def test_quantum_reg_validation():
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = 1.0
    with pytest.raises(ValueError):
        QuantumReg(StateVec(2, amps), ("bob",))
    reg = QuantumReg(StateVec(2, amps), ("bob", "eve"))
    assert reg.qubits_of("eve") == (1,)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        CosetDescriptor(span(4, e(0, 4).bits), Gf2Vec([0, 0, 0]), Gf2Vec([0]))
    with pytest.raises(ValueError):
        CosetDescriptor(
            span(4, e(0, 4).bits, e(1, 4).bits), Gf2Vec([0]), Gf2Vec([0, 0])
        )
