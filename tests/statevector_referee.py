"""The statevector referee of the monogamy game: the oracle for ``moe``'s
closed-form kernels.

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

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from cosetmoe import moe
from cosetmoe.gf2 import Gf2Subspace, Gf2Vec, sample_subspace, solve_coset_membership
from cosetmoe.mc import TrialReader, run_blocks, stream_key, words_for
from cosetmoe.qsim import (
    _ATOL,
    STATEVECTOR_QUBIT_LIMIT,
    CosetDescriptor,
    QuantumReg,
    StateVec,
    WiesnerRecord,
    _moveaxis_front,
    measure_coset_basis,
    prepare_coset_state,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


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
            reg = prepare_coset_state(CosetDescriptor(a, Gf2Vec(t[i]), Gf2Vec(tp[i])))
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
