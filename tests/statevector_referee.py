"""The statevector referee of the monogamy game: the oracle for ``moe``'s
closed-form kernels, with the statevector tools that only tests read: the
register with its per-qubit ownership map (``QuantumReg``), the GF(2)
matrix product and inverse, subspace membership, coset decomposition,
enumeration and intersection, the coset-basis measurement and the coset
overlap.

Measuring in the coset basis of a subspace ``a`` is done in three steps:
relabel amplitude indices by the inverse of the invertible map
(t, w) ↦ coset_rep(a,t) + w·basis(a) (a pure index permutation), apply
Hadamards to the w block (a Walsh–Hadamard transform), and sample.  The
sampled high bits are t̂ directly; the low bits ŝ relate to the phase label
through the invertible matrix S = basis(a) · inj(a⊥), where inj(a⊥) injects
phase labels into ambient space, so t̂' = S⁻¹ŝ.

A round prepares the coset state |a_{t,t'}> on ``qsim``'s dense statevector,
runs a strategy's channel as an ordered dilation (append ancillas, act
unitarily, measure, hand every qubit to a party), and Born-samples each
party's answer, one trial at a time, for n <= ``qsim.STATEVECTOR_QUBIT_LIMIT``.
``rules_for`` gives each built-in kind its per-trial rules; ``play`` runs any
rules on ``moe``'s counter stream, a window holding the 128-bit key of the
round's own generator (``TrialReader.packed(128)``) and the labels (t, t').

Strategies whose split is not a product across the Bob/Charlie cut must do
all their measuring inside the channel (the party registers are measured
independently, which samples the correct marginals only for product states
or for rules that read the channel log).  Every built-in obeys this.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from cosetmoe import moe
from cosetmoe.gf2 import (Gf2Matrix, Gf2Subspace, Gf2Vec, complement, coset_labels, coset_rep,
                          rref, sample_subspace)
from cosetmoe.mc import TrialReader, run_blocks, stream_key, words_for
from cosetmoe.qsim import (
    _ATOL,
    STATEVECTOR_QUBIT_LIMIT,
    CosetDescriptor,
    StateVec,
    WiesnerRecord,
    _phase_inject,
    prepare_coset_state,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


class QuantumReg:
    """A register: a statevector plus a per-qubit ownership map."""

    __slots__ = ("payload", "owner")

    def __init__(self, payload: StateVec, owner: Sequence[str]):
        owner = tuple(owner)
        if len(owner) != payload.n:
            raise ValueError("ownership map must assign every qubit")
        self.payload = payload
        self.owner = owner

    def qubits_of(self, party: str) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.owner) if p == party)


def prepare(d: CosetDescriptor) -> QuantumReg:
    """The coset state of ``d`` (``qsim.prepare_coset_state``), every qubit
    owned by Alice."""
    return QuantumReg(prepare_coset_state(d), ("alice",) * d.n)


# ------------------------------------------------------------------
# matrix product and inverse
# ------------------------------------------------------------------


def mulmat(a: Gf2Matrix, b: Gf2Matrix) -> Gf2Matrix:
    """The product a·b over GF(2)."""
    if a.shape[1] != b.shape[0]:
        raise ValueError("dimension mismatch")
    return Gf2Matrix((a.rows.astype(np.uint32) @ b.rows) & 1)


def inverse(m: Gf2Matrix) -> Gf2Matrix:
    """Inverse of a square invertible matrix: [M | I] reduces to
    [I | M^-1], and M is singular unless the pivots are 0..r-1."""
    r, c = m.shape
    if r != c:
        raise ValueError("matrix is not square")
    augmented = np.concatenate([m.rows, np.eye(r, dtype=np.uint8)], axis=1)
    reduced, pivots = rref(Gf2Matrix(augmented))
    if pivots != tuple(range(r)):
        raise ValueError("matrix is singular")
    return Gf2Matrix(reduced.rows[:, r:])


# ------------------------------------------------------------------
# subspace membership, decomposition, enumeration and intersection
# ------------------------------------------------------------------


def solve_coset_membership(a: Gf2Subspace, v: Gf2Vec) -> tuple[Gf2Vec, Gf2Vec]:
    """Decompose v = coset_rep(a, t) + u with u in a; returns (t, u):
    ``gf2.coset_labels`` of one string, with u = c·A."""
    if v.n != a.n:
        raise ValueError("ambient dimension mismatch")
    pivots = np.array(a.pivots, dtype=np.intp).reshape(1, -1)
    t, c = coset_labels(a.basis.rows[None], pivots, v.bits[None])
    return Gf2Vec(t[0]), Gf2Vec((c[0] @ a.basis.rows) & 1)


def contains(a: Gf2Subspace, v: Gf2Vec) -> bool:
    """Whether v lies in a; raises on ambient mismatch."""
    if v.n != a.n:
        raise ValueError("ambient dimension mismatch")
    # Reduce v against the basis; membership iff it cancels to zero.
    residue = v.bits.copy()
    for r, col in zip(a.basis.rows, a.pivots):
        if residue[col]:
            residue ^= r
    return not residue.any()


def vectors(a: Gf2Subspace) -> Iterator[Gf2Vec]:
    """All 2^dim elements of a, ordered by coefficient integer."""
    rows = a.basis.rows
    k = a.dim
    for coeff in range(1 << k):
        v = np.zeros(a.n, dtype=np.uint8)
        for i in range(k):
            if (coeff >> (k - 1 - i)) & 1:
                v ^= rows[i]
        yield Gf2Vec(v)


def intersect(a: Gf2Subspace, b: Gf2Subspace) -> Gf2Subspace:
    """Intersection of two subspaces; raises on ambient mismatch."""
    if a.n != b.n:
        raise ValueError("ambient dimension mismatch")
    # a ∩ b = (a⊥ + b⊥)⊥, exact over GF(2).
    joined = list(Gf2Vec(r) for r in complement(a).basis.rows if r.any())
    joined += list(Gf2Vec(r) for r in complement(b).basis.rows if r.any())
    return complement(Gf2Subspace(a.n, joined))


# ------------------------------------------------------------------
# the coset-basis measurement and the coset overlap
# ------------------------------------------------------------------


def _xor_dp(generators_low_to_high: list[int], nbits: int) -> np.ndarray:
    """perm[v] = XOR of generators chosen by the bits of v (int bit p of v
    selects generators_low_to_high[p])."""
    perm = np.zeros(1, dtype=np.int64)
    for p in range(nbits):
        perm = np.concatenate([perm, perm ^ generators_low_to_high[p]])
    return perm


def _fwht_axis0(mat: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh–Hadamard transform along axis 0:
    out[s] = Σ_w (−1)^{popcount(s & w)} mat[w]."""
    m = mat.shape[0]
    out = mat.copy()
    h = 1
    while h < m:
        out = out.reshape(m // (2 * h), 2, h, -1)
        top = out[:, 0, :, :] + out[:, 1, :, :]
        bot = out[:, 0, :, :] - out[:, 1, :, :]
        out = np.stack([top, bot], axis=1).reshape(m, -1)
        h *= 2
    return out.reshape(mat.shape)


# A perm holds 2^n int64 entries: 32 of them take at most 256 MiB, at n = 20.
@functools.lru_cache(maxsize=32)
def _coset_change_of_basis(a: Gf2Subspace):
    """Returns (perm, s_inv) for the coset-basis measurement of ``a``:
    perm relabels every amplitude index v to (t, w) packed high/low, and
    s_inv maps sampled Hadamard-block labels back to phase labels.  Cached
    per subspace; perm is read-only, as the cache shares it."""
    n, k = a.n, a.dim
    free = a.free_coords
    # columns of M: first the label injection e_{free_j}, then the basis rows
    m_cols = np.zeros((n, n), dtype=np.uint8)
    for j, f in enumerate(free):
        m_cols[f, j] = 1
    m_cols[:, n - k:] = a.basis.rows.T
    m_inv = inverse(Gf2Matrix(m_cols))
    # generator for int bit position p: image of basis vector of qubit n−1−p
    gens = []
    for p in range(n):
        col = m_inv.rows[:, n - 1 - p]
        gens.append(Gf2Vec(col).to_int())
    perm = _xor_dp(gens, n)
    perm.setflags(write=False)
    return perm, inverse(mulmat(a.basis, _phase_inject(a)))


def _moveaxis_front(amps: np.ndarray, n_total: int, targets: Sequence[int]) -> np.ndarray:
    """View of the state tensor with target qubit axes first, flattened to
    (2^|targets|, 2^rest)."""
    tensor = amps.reshape((2,) * n_total)
    rest = [i for i in range(n_total) if i not in targets]
    tensor = np.moveaxis(tensor, list(targets) + rest, range(n_total))
    return tensor.reshape(1 << len(targets), -1)


def measure_coset_basis(
    reg: QuantumReg, a: Gf2Subspace, rng: np.random.Generator,
    qubits: Sequence[int] | None = None,
) -> tuple[Gf2Vec, Gf2Vec]:
    """Measure n qubits in the coset basis of ``a``; Born-rule sampled.

    The measured register is consumed: no post-measurement state is exposed.
    When the register holds extra qubits (adversary ancillas), ``qubits``
    selects the n measured ones and the rest are traced out.
    """
    n, k = a.n, a.dim
    if k * 2 != n:
        raise ValueError("subspace dimension must be half the ambient dimension")
    sv: StateVec = reg.payload
    targets = tuple(qubits) if qubits is not None else tuple(range(sv.n))
    if len(targets) != n:
        raise ValueError("measured qubit count must equal the ambient dimension")
    perm, s_inv = _coset_change_of_basis(a)
    block = _moveaxis_front(sv.amps, sv.n, targets)
    relabeled = np.empty_like(block)
    relabeled[perm] = block
    cube = relabeled.reshape(1 << (n - k), 1 << k, -1)  # [t, w, env]
    transformed = _fwht_axis0(
        np.ascontiguousarray(cube.transpose(1, 0, 2)).reshape(1 << k, -1)
    ).reshape(1 << k, 1 << (n - k), -1)  # [s, t, env], unnormalized
    joint = (np.abs(transformed) ** 2).sum(axis=2) / float(1 << k)
    flat = joint.T.reshape(-1)  # index = t·2^k + s
    if abs(float(flat.sum()) - 1.0) > 1e-8:
        raise AssertionError("probability mass of a unit state differs from 1")
    flat = np.clip(flat, 0.0, None)
    flat = flat / flat.sum()
    pick = int(rng.choice(flat.size, p=flat))
    t_hat = Gf2Vec.from_int(pick >> k, n - k)
    s_hat = Gf2Vec.from_int(pick & ((1 << k) - 1), k)
    t_prime_hat = s_inv.mulvec(s_hat)
    return t_hat, t_prime_hat


def coset_overlap(d: CosetDescriptor, b: Gf2Subspace, u: Gf2Vec) -> float:
    """⟨a_{t,t'}| Π_{b+u_b} |a_{t,t'}⟩ = |(a + t_a) ∩ (b + u_b)| / 2^{n/2}.

    The two cosets either miss each other or meet in a coset of a∩b, so the
    value is |a∩b|/2^{n/2} when t_a + u_b ∈ a + b and 0 otherwise.
    """
    a = d.a
    n = a.n
    if b.n != n or b.dim * 2 != n:
        raise ValueError("subspace dimension mismatch")
    t_a = coset_rep(a, d.t)
    u_b = coset_rep(b, u)
    joined = Gf2Subspace(n, [Gf2Vec(r) for r in a.basis.rows] + [Gf2Vec(r) for r in b.basis.rows])
    if contains(joined, t_a + u_b):
        return float(1 << intersect(a, b).dim) / float(1 << (n // 2))
    return 0.0


# ------------------------------------------------------------------
# adversary channel primitives
# ------------------------------------------------------------------


def append_ancilla(k: int) -> tuple:
    return ("append", int(k))


def apply_unitary(matrix: np.ndarray, qubits: Sequence[int]) -> tuple:
    return ("unitary", np.asarray(matrix, dtype=np.complex128), tuple(qubits))


def measure_qubits(qubits: Sequence[int]) -> tuple:
    return ("measure", tuple(qubits))


def assign_ownership(qubits: Sequence[int], party: str) -> tuple:
    return ("assign", tuple(qubits), str(party))


@dataclass
class AdversaryChannel:
    """An ordered dilation: append ancillas, act unitarily, optionally
    measure, then hand every qubit to some party exactly once.

    Measurement outcomes land in ``log`` (reset on each application)."""

    actions: list
    log: list = field(default_factory=list)

    def __post_init__(self):
        for act in self.actions:
            if act[0] == "unitary":
                u = act[1]
                dim = u.shape[0]
                if u.shape != (dim, dim) or dim != (1 << len(act[2])):
                    raise ValueError("unitary dimension does not match qubit count")
                if not np.allclose(u @ u.conj().T, np.eye(dim), atol=_ATOL):
                    raise ValueError("matrix is not unitary within tolerance")
            elif act[0] not in ("append", "measure", "assign"):
                raise ValueError(f"unknown adversary action {act[0]!r}")


def measure_computational(
    reg: QuantumReg, rng: np.random.Generator, qubits: Sequence[int] | None = None
) -> tuple[Gf2Vec, QuantumReg]:
    """Computational-basis measurement of a qubit subset; returns the
    outcome and the collapsed register (measured qubits left in place)."""
    sv: StateVec = reg.payload
    n_total = sv.n
    targets = tuple(qubits) if qubits is not None else tuple(range(n_total))
    block = _moveaxis_front(sv.amps, n_total, targets)
    probs = (np.abs(block) ** 2).sum(axis=1)
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    pick = int(rng.choice(probs.size, p=probs))
    out = Gf2Vec.from_int(pick, len(targets))
    # collapse: zero all other outcome slices, renormalize
    tensor = sv.amps.reshape((2,) * n_total).copy()
    idx = [slice(None)] * n_total
    for q, b in zip(targets, out.bits):
        idx[q] = 1 - int(b)
        tensor[tuple(idx)] = 0.0
        idx[q] = slice(None)
    flat = tensor.reshape(-1)
    flat = flat / np.sqrt(float(np.vdot(flat, flat).real))
    return out, QuantumReg(StateVec(n_total, flat), reg.owner)


def apply_unitary_statevec(amps: np.ndarray, n_total: int, u: np.ndarray,
                           targets: Sequence[int]) -> np.ndarray:
    q = len(targets)
    tensor = amps.reshape((2,) * n_total)
    rest = [i for i in range(n_total) if i not in targets]
    tensor = np.moveaxis(tensor, list(targets) + rest, range(n_total))
    mat = tensor.reshape(1 << q, -1)
    mat = u @ mat
    tensor = mat.reshape((2,) * n_total)
    tensor = np.moveaxis(tensor, range(n_total), list(targets) + rest)
    return tensor.reshape(-1)


def apply_adversary(
    reg: QuantumReg, ch: AdversaryChannel, rng: np.random.Generator
) -> QuantumReg:
    """Run the channel's dilation. Every qubit must be assigned to a party
    exactly once across the channel's assign actions."""
    sv: StateVec = reg.payload
    amps = sv.amps
    n_total = sv.n
    ch.log = []
    assigned: dict[int, str] = {}
    for act in ch.actions:
        kind = act[0]
        if kind == "append":
            k = act[1]
            if n_total + k > STATEVECTOR_QUBIT_LIMIT:
                raise ValueError("ancillas exceed statevector qubit limit")
            grown = np.zeros(amps.size << k, dtype=np.complex128)
            # new qubits are appended at the bottom (least significant bits)
            grown[np.arange(amps.size) << k] = amps
            amps = grown
            n_total += k
        elif kind == "unitary":
            _, u, targets = act
            if any(t >= n_total for t in targets):
                raise ValueError("unitary target out of range")
            amps = apply_unitary_statevec(amps, n_total, u, targets)
        elif kind == "measure":
            targets = act[1]
            tmp = QuantumReg(StateVec(n_total, amps), ("tmp",) * n_total)
            outcome, collapsed = measure_computational(tmp, rng, targets)
            ch.log.append((targets, outcome))
            amps = collapsed.payload.amps
        elif kind == "assign":
            _, targets, party = act
            for t in targets:
                if t in assigned:
                    raise ValueError(f"qubit {t} assigned twice")
                assigned[t] = party
    if set(assigned) != set(range(n_total)):
        raise ValueError("every qubit must be assigned exactly once")
    owner = tuple(assigned[i] for i in range(n_total))
    return QuantumReg(StateVec(n_total, amps), owner)


# ------------------------------------------------------------------
# per-trial strategy rules
# ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PartyView:
    """What one party holds when asked to answer: its qubits of the
    post-channel register and the channel's measurement log."""

    reg: QuantumReg
    qubits: tuple[int, ...]
    log: tuple

    def measure_coset(self, a: Gf2Subspace, rng: np.random.Generator) -> tuple[Gf2Vec, Gf2Vec]:
        """Measure this party's qubits in the coset basis of ``a``."""
        if len(self.qubits) != a.n:
            raise ValueError("party register size does not match the subspace")
        return measure_coset_basis(self.reg, a, rng, qubits=self.qubits)


@dataclass(frozen=True, eq=False)
class Rules:
    """A splitting channel plus the two answering rules: ``split(n, rng)``
    builds the channel for one round; ``bob(a, view, rng)`` returns the
    position guess; ``charlie(a, t_b, view, rng)`` returns the phase guess
    (t_b is None when the leak is off)."""

    split: Callable[[int, np.random.Generator], AdversaryChannel]
    bob: Callable[[Gf2Subspace, PartyView, np.random.Generator], Gf2Vec]
    charlie: Callable[[Gf2Subspace, Optional[Gf2Vec], PartyView, np.random.Generator], Gf2Vec]


def _uniform_guess(rng: np.random.Generator, k: int) -> Gf2Vec:
    return Gf2Vec(rng.integers(0, 2, size=k, dtype=np.uint8))


def _assign_all(n: int, party: str) -> AdversaryChannel:
    return AdversaryChannel([assign_ownership(range(n), party)])


def _coset_t(a, view, rng):
    return view.measure_coset(a, rng)[0]


def _coset_tp(a, t_b, view, rng):
    return view.measure_coset(a, rng)[1]


def _uniform_bob(a, view, rng):
    return _uniform_guess(rng, a.dim)


def _uniform_charlie(a, t_b, view, rng):
    return _uniform_guess(rng, a.dim)


def _logged_outcome(view: PartyView) -> Gf2Vec:
    if not view.log:
        raise ValueError("strategy expected a measurement in the channel log")
    return view.log[0][1]


def _zero_record(n: int) -> WiesnerRecord:
    return WiesnerRecord(x=Gf2Vec.zeros(n), theta=Gf2Vec.zeros(n))


def _wiesner_split(theta_hat: Gf2Vec):
    def split(n, rng):
        if theta_hat.n != n:
            raise ValueError("basis-choice length must match the game")
        actions = [apply_unitary(HADAMARD, (i,)) for i in range(n) if theta_hat.bits[i]]
        actions.append(measure_qubits(range(n)))
        actions.append(assign_ownership(range(n), "bob"))
        return AdversaryChannel(actions)

    return split


def _substitute_split(record: Optional[WiesnerRecord]):
    def split(n, rng):
        rec = record if record is not None else _zero_record(n)
        if rec.n != n:
            raise ValueError("substitute record length must match the game")
        actions = [append_ancilla(n)]
        for i in range(n):
            if rec.x.bits[i]:
                actions.append(apply_unitary(PAULI_X, (n + i,)))
        for i in range(n):
            if rec.theta.bits[i]:
                actions.append(apply_unitary(HADAMARD, (n + i,)))
        actions.append(assign_ownership(range(n, 2 * n), "bob"))
        actions.append(assign_ownership(range(n), "charlie"))
        return AdversaryChannel(actions)

    return split


def rules_for(kind: str, *, q: float = 0.5, theta_hat: Optional[Gf2Vec] = None,
              substitute: Optional[WiesnerRecord] = None) -> Rules:
    """The per-trial rules of a built-in kind, with ``builtin_strategy``'s
    options."""
    if kind == "bob_all":
        return Rules(lambda n, rng: _assign_all(n, "bob"), _coset_t, _uniform_charlie)
    if kind == "charlie_all":
        return Rules(lambda n, rng: _assign_all(n, "charlie"), _uniform_bob, _coset_tp)
    if kind == "mix":
        def split(n, rng):
            return _assign_all(n, "bob" if rng.random() < q else "charlie")

        def bob_rule(a, view, rng):
            return _coset_t(a, view, rng) if view.qubits else _uniform_guess(rng, a.dim)

        def charlie_rule(a, t_b, view, rng):
            return _coset_tp(a, t_b, view, rng) if view.qubits else _uniform_guess(rng, a.dim)

        return Rules(split, bob_rule, charlie_rule)
    if kind == "measure_computational":
        def split(n, rng):
            return AdversaryChannel([measure_qubits(range(n)), assign_ownership(range(n), "bob")])

        def bob_rule(a, view, rng):
            # the outcome is a coset element, so decoding recovers t exactly
            return solve_coset_membership(a, _logged_outcome(view))[0]

        def charlie_rule(a, t_b, view, rng):
            _, u = solve_coset_membership(a, _logged_outcome(view))
            return Gf2Vec(u.bits[list(a.pivots)])

        return Rules(split, bob_rule, charlie_rule)
    if kind == "measure_wiesner":
        def bob_rule(a, view, rng):
            return Gf2Vec(_logged_outcome(view).bits[list(a.free_coords)])

        def charlie_rule(a, t_b, view, rng):
            return Gf2Vec(_logged_outcome(view).bits[list(a.pivots)])

        return Rules(_wiesner_split(theta_hat), bob_rule, charlie_rule)
    if kind == "keep_and_substitute":
        return Rules(_substitute_split(substitute), _coset_t, _coset_tp)
    if kind == "leak_smuggle":
        def bob_rule(a, view, rng):
            return _coset_tp(a, None, view, rng)  # position answer doubles as a covert channel

        def charlie_rule(a, t_b, view, rng):
            return t_b if t_b is not None else _uniform_guess(rng, a.dim)

        return Rules(lambda n, rng: _assign_all(n, "bob"), bob_rule, charlie_rule)
    raise ValueError(f"unknown built-in strategy {kind!r}")


# ------------------------------------------------------------------
# the referee
# ------------------------------------------------------------------


def kernel(params: moe.MoeParams, rules: Rules, leak: bool):
    """The referee as a (words_per_trial, kernel) pair.  A round's window
    holds the key of its own generator and the labels (t, t'); the generator
    samples a, then drives the channel and the parties' answers."""
    half = params.half
    wpt = words_for(bit_fields=(128, half, half))

    def run(words):
        r = TrialReader(words)
        rngs = [np.random.Generator(np.random.Philox(key=key)) for key in r.packed(128)]
        t, tp = r.bits(half), r.bits(half)
        t_b, t_c = np.empty_like(t), np.empty_like(tp)
        for i, rng in enumerate(rngs):
            a = sample_subspace(params.n, params.family, rng)
            reg = prepare(CosetDescriptor(a, Gf2Vec(t[i]), Gf2Vec(tp[i])))
            channel = rules.split(params.n, rng)
            reg = apply_adversary(reg, channel, rng)
            log = tuple(channel.log)
            bob = rules.bob(a, PartyView(reg, reg.qubits_of("bob"), log), rng)
            charlie_view = PartyView(reg, reg.qubits_of("charlie"), log)
            t_b[i] = bob.bits
            t_c[i] = rules.charlie(a, bob if leak else None, charlie_view, rng).bits
        bob_ok = (t_b != t).sum(axis=1) <= params.m
        win = bob_ok & ((t_c != tp).sum(axis=1) <= params.m_prime)
        return np.array([int(win.sum()), int(bob_ok.sum())], dtype=np.int64)

    return wpt, run


def play(params: moe.MoeParams, strategy, *, leak: bool = True, threads: int = 1) -> moe.GameResult:
    """``moe.play_leaky`` on the statevector: ``strategy`` is a built-in
    ``moe.Strategy``, whose kind and options pick its rules, or ``Rules``."""
    rules = strategy if isinstance(strategy, Rules) else rules_for(
        strategy.kind, **(strategy.options or {}))
    wpt, run = kernel(params, rules, leak)
    wins, bob_ok = (int(c) for c in run_blocks(
        params.trials, wpt, stream_key(params.seed, moe._MOE_STREAM), run, threads=threads))
    return moe.GameResult.from_counts(wins, bob_ok, params.trials)
