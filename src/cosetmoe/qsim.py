"""Dense statevector simulation of coset states, for any half-dimension
subspace up to 20 qubits.

It runs the exact enumerations, and it is the oracle for the closed-form
reads of the protocols (``proto``) and the games (``moe``), which simulate
both subspace families without it.  A register subspace's coset state is a
conjugate-coding (Wiesner) state, a product of computational and Hadamard
qubits, and the register kernels run on classical records (x, θ);
``WiesnerRecord`` is the type of such a record.

Basis-vector indexing is most-significant-bit first: qubit 0 corresponds to
the top bit of the amplitude index, matching Gf2Vec.to_int.

Measuring in the coset basis of a subspace ``a`` is done in three steps:
relabel amplitude indices by the inverse of the invertible map
(t, w) ↦ coset_rep(a,t) + w·basis(a) (a pure index permutation), apply
Hadamards to the w block (a Walsh–Hadamard transform), and sample.  The
sampled high bits are t̂ directly; the low bits ŝ relate to the phase label
through the invertible matrix S = basis(a) · inj(a⊥), where inj(a⊥) injects
phase labels into ambient space, so t̂' = S⁻¹ŝ.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gf2 import (
    Gf2Matrix,
    Gf2Subspace,
    Gf2Vec,
    complement,
    coset_rep,
)

__all__ = [
    "STATEVECTOR_QUBIT_LIMIT",
    "CosetDescriptor",
    "StateVec",
    "WiesnerRecord",
    "QuantumReg",
    "prepare_coset_state",
    "measure_coset_basis",
    "coset_overlap",
]

STATEVECTOR_QUBIT_LIMIT = 20
_ATOL = 1e-10


@dataclass(frozen=True)
class CosetDescriptor:
    """Labels the coset state of subspace ``a`` with position label t and
    phase label t', each of length n/2."""

    a: Gf2Subspace
    t: Gf2Vec
    t_prime: Gf2Vec

    def __post_init__(self):
        n = self.a.n
        if self.a.dim * 2 != n:
            raise ValueError("subspace dimension must be half the ambient dimension")
        if self.t.n != n - self.a.dim:
            raise ValueError("position label length mismatch")
        if self.t_prime.n != self.a.dim:
            raise ValueError("phase label length mismatch")

    @property
    def n(self) -> int:
        return self.a.n


class StateVec:
    """Dense complex amplitudes of a unit vector over 2^n computational basis
    states."""

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amps: np.ndarray):
        if n > STATEVECTOR_QUBIT_LIMIT:
            raise ValueError(f"statevector limited to {STATEVECTOR_QUBIT_LIMIT} qubits")
        amps = np.asarray(amps, dtype=np.complex128)
        if amps.shape != (1 << n,):
            raise ValueError("amplitude count must be 2^n")
        norm2 = float(np.vdot(amps, amps).real)
        if abs(norm2 - 1.0) > _ATOL:
            raise ValueError(f"squared norm {norm2} differs from 1")
        self.n = n
        self.amps = amps


@dataclass(frozen=True)
class WiesnerRecord:
    """Classical record of a conjugate-coding state: data bits x prepared in
    bases θ (0 = computational, 1 = Hadamard)."""

    x: Gf2Vec
    theta: Gf2Vec

    def __post_init__(self):
        if self.x.n != self.theta.n:
            raise ValueError("x and θ length mismatch")

    @property
    def n(self) -> int:
        return self.x.n


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


# ------------------------------------------------------------------
# basis-change helpers
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


def _phase_inject(a: Gf2Subspace) -> Gf2Matrix:
    """Matrix (n × n/2) sending a phase label t' to its ambient
    representative t'_{a⊥} = coset_rep(a⊥, t')."""
    perp = complement(a)
    cols = []
    k = a.dim
    for j in range(k):
        lbl = Gf2Vec([1 if i == j else 0 for i in range(k)])
        cols.append(coset_rep(perp, lbl).bits)
    return Gf2Matrix(np.array(cols, dtype=np.uint8).T)


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
    m_inv = Gf2Matrix(m_cols).inverse()
    # generator for int bit position p: image of basis vector of qubit n−1−p
    gens = []
    for p in range(n):
        col = m_inv.rows[:, n - 1 - p]
        gens.append(Gf2Vec(col).to_int())
    perm = _xor_dp(gens, n)
    perm.setflags(write=False)
    s_mat = a.basis.mulmat(_phase_inject(a))
    return perm, s_mat.inverse()


# ------------------------------------------------------------------
# preparation
# ------------------------------------------------------------------


def prepare_coset_state(d: CosetDescriptor) -> QuantumReg:
    """Prepare |a_{t,t'}⟩ = 2^{-n/4} Σ_{u∈a} (−1)^{u·t'_{a⊥}} |u + t_a⟩, every
    qubit owned by Alice."""
    n, k = d.n, d.a.dim
    if n > STATEVECTOR_QUBIT_LIMIT:
        raise ValueError("ambient dimension exceeds statevector limit")
    t_a = coset_rep(d.a, d.t).bits
    tp_amb = _phase_inject(d.a).mulvec(d.t_prime).bits
    rows = d.a.basis.rows
    # enumerate u ∈ a by coefficient bits
    coeffs = ((np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.uint8)
    u_all = (coeffs @ rows) & 1
    phases = 1.0 - 2.0 * ((u_all @ tp_amb) & 1).astype(np.float64)
    weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    idx = (u_all ^ t_a) @ weights
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[idx] = phases / np.sqrt(float(1 << k))
    return QuantumReg(StateVec(n, amps), ("alice",) * n)


# ------------------------------------------------------------------
# measurement
# ------------------------------------------------------------------


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


# ------------------------------------------------------------------
# overlaps
# ------------------------------------------------------------------


def coset_overlap(d: CosetDescriptor, b: Gf2Subspace, u: Gf2Vec) -> float:
    """⟨a_{t,t'}| Π_{b+u_b} |a_{t,t'}⟩ = |(a + t_a) ∩ (b + u_b)| / 2^{n/2}.

    The two cosets either miss each other or meet in a coset of a∩b, so the
    value is |a∩b|/2^{n/2} when t_a + u_b ∈ a + b and 0 otherwise.
    """
    a = d.a
    n = a.n
    if b.n != n or b.dim * 2 != n:
        raise ValueError("subspace dimension mismatch")
    from .gf2 import intersect  # local import to keep module load light

    t_a = coset_rep(a, d.t)
    u_b = coset_rep(b, u)
    joined = Gf2Subspace(n, [Gf2Vec(r) for r in a.basis.rows] + [Gf2Vec(r) for r in b.basis.rows])
    if joined.contains(t_a + u_b):
        return float(1 << intersect(a, b).dim) / float(1 << (n // 2))
    return 0.0

