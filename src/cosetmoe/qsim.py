"""Dense statevector preparation of coset states, for any half-dimension
subspace up to 20 qubits.

It serves the exact enumerations (``proto._pad_blocks``) and selftest's
orthonormality check, and the tests' statevector referee runs its channels
and measurements on it; the protocols (``proto``) and the games (``moe``)
read every coset state in closed form without it.  A register subspace's
coset state is a conjugate-coding (Wiesner) state, a product of
computational and Hadamard qubits, and the register kernels run on
classical records (x, θ); ``WiesnerRecord`` is the type of such a record.

Basis-vector indexing is most-significant-bit first: qubit 0 corresponds to
the top bit of the amplitude index, matching Gf2Vec.to_int.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

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
    "prepare_coset_state",
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


# The exact enumerations prepare every label pair (t, t') of each subspace.
@functools.lru_cache(maxsize=256)
def _phase_inject(a: Gf2Subspace) -> Gf2Matrix:
    """Matrix (n × n/2) sending a phase label t' to its ambient
    representative t'_{a⊥} = coset_rep(a⊥, t'): label bit j goes to the
    j-th free coordinate of a⊥.  Cached per subspace."""
    inject = np.zeros((a.n, a.dim), dtype=np.uint8)
    inject[list(complement(a).free_coords), np.arange(a.dim)] = 1
    return Gf2Matrix(inject)


# ------------------------------------------------------------------
# preparation
# ------------------------------------------------------------------


def prepare_coset_state(d: CosetDescriptor) -> StateVec:
    """Prepare |a_{t,t'}⟩ = 2^{-n/4} Σ_{u∈a} (−1)^{u·t'_{a⊥}} |u + t_a⟩."""
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
    return StateVec(n, amps)
