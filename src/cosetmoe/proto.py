"""Interactive protocol runners over simulated eavesdropped channels.

Four protocols share the plumbing here:

* interactive encryption (``run_qecm_id``): Alice one-time-pads a message
  with extracted key material, sends the pad and a coset state, and releases
  the extraction inputs only after the holder proves itself by returning the
  position label;
* uncloneable commitment (``run_urbc``): commit = base-commit the extraction
  inputs and park the committed string inside a coset state; check certifies
  the receiver holds the state; reveal opens everything under a syndrome and
  spot check;
* receiver-independent key distribution (``run_riqkd``): only Alice may
  abort; Bob's device answers challenges (position string, phase syndrome,
  spot bits) and both sides extract;
* the reference one-sided protocol (``run_tfkw``) with the
  intercept-and-substitute attack that motivates the receiver-independent
  design.

Every run returns an outcome dataclass carrying the full message transcript.
Classical messages are always eavesdropper-visible; an eavesdropper's quantum
side information comes only from how she split the state in transit.

Each protocol is one batch function (``_qecm_batch``, ``_urbc_batch``,
``_riqkd_batch``, ``_tfkw_batch``) from a block of trial windows to per-trial
arrays: the experiments reduce them to counters through ``mc.run_blocks``,
and a single run calls the same function on one window and builds its
transcript from row 0.  Only the quantum step depends on the subspace family
(``_CosetStates``), and it reads every coset state in closed form: a
coset-basis measurement returns the labels (t, t'), and a computational one
a uniform element of the coset.  The register (conjugate-coding) family runs
on classical Wiesner records, read through θ masks, and scales to thousands
of qubits.  The general family (interactive encryption and commitment)
draws each row's subspace, in canonical form, and coefficients from window
keys and bits, and keeps the block's bases and pivots as arrays
(``gf2.sample_subspaces``) for gf2's batched coset maps; a ``Gf2Subspace``
is built only for a transcript's row.  Abort semantics: downstream fields
of an aborted run are ``None``, never zero-filled.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Hashable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .ecc import LinearCode, align_batch, syndrome_batch
from .ext import ToeplitzExtractor, lhl_epsilon
from .gf2 import (Gf2Subspace, Gf2Vec, IndexSubset, check_family, coset_elements,
                  sample_subspaces, subspace_fields)
from .info import NEG_LG_COS_PI_8, DensityOp, protocol_bounds, trace_distance
from .mc import (
    TrialReader,
    binomial_sigma,
    coordinate_rows,
    key_threshold,
    run_blocks,
    stream_key,
    top_k_mask,
    wilson_interval,
    words_for,
    words_to_bytes,
)
from .qsim import CosetDescriptor, prepare_coset_state

__all__ = [
    "Message",
    "Transcript",
    "PauliNoise",
    "MessageSource",
    "QecmParams",
    "QecmOutcome",
    "run_qecm_id",
    "qecm_experiment",
    "UrbcParams",
    "UrbcOutcome",
    "run_urbc",
    "urbc_experiment",
    "urbc_hiding_exact",
    "QkdParams",
    "QkdOutcome",
    "KeepAndSubstitute",
    "InterceptResend",
    "SyndromeFault",
    "run_riqkd",
    "riqkd_experiment",
    "TfkwParams",
    "run_tfkw",
    "tfkw_experiment",
    "secrecy_probe",
    "secrecy_exact",
    "trial_rng",
]

_MAX_SEED = 1 << 64


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The per-trial generator: Philox keyed by the (seed, trial) pair."""
    if not 0 <= seed < _MAX_SEED:
        raise ValueError("seed must fit in 64 bits")
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Protocol runs draw every trial's randomness from one fixed window of raw
# Philox words, read field by field through a TrialReader.  An experiment
# reads trial i's window from its own stream, ``stream_key(seed, id)``, at
# words [i*W, (i+1)*W); a single run reads the next W words of the generator
# it is given.  Both feed the same batch function, so a run given a generator
# positioned at trial i's window reproduces trial i of the experiment.  The
# games (``moe``) take stream id 4.
_QECM_STREAM, _URBC_STREAM, _QKD_STREAM, _TFKW_STREAM = 1, 2, 3, 5


def _window(rng: np.random.Generator, words: int) -> TrialReader:
    """A one-trial block: the next ``words`` raw words of ``rng``."""
    return TrialReader(rng.bit_generator.random_raw(words)[None, :])


def _run_trials(
    trials: int,
    words: int,
    seed: int,
    stream: int,
    kernel: Callable[[np.ndarray], np.ndarray],
    threads: int,
) -> tuple[int, ...]:
    """Sum ``kernel``'s counters over the windows of trials [0, trials), as ints."""
    return tuple(int(c) for c in run_blocks(
        trials, words, stream_key(seed, stream), kernel, threads))


def _counters(*flags: np.ndarray) -> np.ndarray:
    return np.array([np.count_nonzero(f) for f in flags], dtype=np.int64)


# ------------------------------------------------------------------
# transcripts
# ------------------------------------------------------------------


class Message(NamedTuple):
    """One protocol message; classical payloads are always Eve-visible."""

    idx: int
    sender: str
    receiver: str
    label: str
    payload: object
    quantum: bool = False
    eve_visible: bool = True


_esc = json.encoder.encode_basestring_ascii


def _json(value) -> str:
    """A payload's sorted-key compact JSON: a Gf2Vec is its hex string, an
    IndexSubset its index list, a tuple a list, bytes their hex string, and
    a dict's keys are strings; any other type but str, int, bool and None
    raises TypeError."""
    if isinstance(value, str):
        return _esc(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, Gf2Vec):
        return f'"{value.to_hex()}"'
    if isinstance(value, IndexSubset):
        return f"[{','.join(map(_json, value.indices))}]"
    if isinstance(value, (tuple, list)):
        return f"[{','.join(map(_json, value))}]"
    if isinstance(value, dict):
        items = {str(k): v for k, v in value.items()}
        return "{" + ",".join(f"{_esc(k)}:{_json(items[k])}" for k in sorted(items)) + "}"
    if isinstance(value, bytes):
        return f'"{value.hex()}"'
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize payload of type {type(value).__name__}")


class Transcript:
    """Append-only ordered message log.

    Quantum registers are never copied into the log; a ``send_quantum`` entry
    records the ownership transfer by handle only and is invisible to Eve
    (her access to the state is whatever her channel kept)."""

    def __init__(self):
        self._messages: list[Message] = []

    def __len__(self) -> int:
        return len(self._messages)

    @property
    def messages(self) -> tuple[Message, ...]:
        return tuple(self._messages)

    def send(self, sender: str, receiver: str, label: str, payload) -> None:
        self._messages.append(
            Message(len(self._messages), sender, receiver, label, payload)
        )

    def send_quantum(self, sender: str, receiver: str, label: str, handle: str) -> None:
        self._messages.append(
            Message(len(self._messages), sender, receiver, label, handle,
                    quantum=True, eve_visible=False)
        )

    def value(self, label: str):
        """Payload of the unique message with this label."""
        hits = [m.payload for m in self._messages if m.label == label]
        if len(hits) != 1:
            raise KeyError(f"{len(hits)} messages labelled {label!r}")
        return hits[0]

    def has(self, label: str) -> bool:
        return any(m.label == label for m in self._messages)

    def to_jsonl(self) -> str:
        """One compact JSON object per message, in order, joined by newlines:
        keys ``idx, from, to, label``, then ``qreg_id`` (a quantum message's
        handle) or ``payload_hex``, then ``eve_visible``; separators ``,``
        and ``:`` without spaces, strings ASCII-escaped.  ``payload_hex`` is
        a Gf2Vec payload's own hex, or else the hex of the UTF-8 bytes of
        the payload's sorted-key compact JSON."""
        lines = []
        for idx, sender, receiver, label, payload, quantum, eve_visible in self._messages:
            if quantum:
                field = f'"qreg_id":{_esc(payload)}'
            elif isinstance(payload, Gf2Vec):
                field = f'"payload_hex":"{payload.to_hex()}"'
            else:
                field = f'"payload_hex":"{_json(payload).encode().hex()}"'
            lines.append(f'{{"idx":{idx},"from":{_esc(sender)},"to":{_esc(receiver)},'
                         f'"label":{_esc(label)},{field},'
                         f'"eve_visible":{"true" if eve_visible else "false"}}}')
        return "\n".join(lines)


# ------------------------------------------------------------------
# shared helpers
# ------------------------------------------------------------------


@dataclass(frozen=True)
class PauliNoise:
    """iid per-qubit flips: X with probability dx, Z with probability dz.

    On a conjugate-coding record an X flip changes the data bit only where
    the qubit is in the computational basis, a Z flip only where it is in the
    Hadamard basis.  So one draw per qubit gives the joint law of the record:
    the bit flips with probability dx where θ=0 and dz where θ=1."""

    dx: float = 0.0
    dz: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.dx <= 1.0 and 0.0 <= self.dz <= 1.0):
            raise ValueError("flip probabilities must lie in [0, 1]")

    def flips(self, theta: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Flip indicator from one draw key per qubit (see
        ``mc.TrialReader.keys``).  Only an X flip changes a θ=0 bit and only a
        Z flip a θ=1 bit, so one key serves both: a qubit flips where its
        uniform key * 2^-32 is below dx (θ=0) or dz (θ=1)."""
        flips = keys < key_threshold(self.dx)
        if self.dz != self.dx:  # the θ=1 qubits read the dz threshold instead
            flips ^= (flips ^ (keys < key_threshold(self.dz))) & (theta != 0)
        return flips.view(np.uint8)


def _coset_fields(family: str, n: int, computational: bool = False):
    """(bit_fields, key_fields) that ``_CosetStates`` reads from a window."""
    bits, keys = subspace_fields(n, n // 2) if family != "register" else ((), (n,))
    return (*bits, *((n // 2,) if computational else ())), keys


class _CosetStates:
    """The coset states |a_{t,t'}> of a block of trials and the quantum step
    that reads them, one row per trial.

    Both reads are the closed forms of an intact coset state: a measurement
    in the coset basis of a returns (t, t') with certainty, and one in the
    computational basis returns a uniform element coset_rep(a, t) ⊕ c·A of
    the coset, for A the canonical basis of a and c uniform on n/2 bits.

    The subspace draw comes first in a window.  On the register family it is
    the Hadamard positions θ, from n draw keys.  On the general family it is
    a's canonical basis, from n pivot keys and an n/2 x n fill field, kept
    as the block's (T, n/2, n) bases and (T, n/2) pivots
    (``gf2.sample_subspaces``).  On both, c is n/2 window bits.
    """

    def __init__(self, family: str, n: int, r: TrialReader):
        self.n = n
        self.theta = self.basis = self.pivots = self.forwarded = None
        if family == "register":
            self.theta = top_k_mask(r.keys(n), n // 2)
        else:
            self.basis, self.pivots = sample_subspaces(r, n, n // 2)

    def read(self, t: np.ndarray, tp: np.ndarray, r: TrialReader,
             computational: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """(t̂, t̂') of whoever holds each intact state: (t, t') in the coset
        basis of a, or (``computational``) (t, c), decoded from the strings
        v = coset_rep(a, t) ⊕ c·A kept in ``forwarded``."""
        if not computational:
            return t, tp
        c = r.bits(self.n // 2)
        if self.theta is None:
            self.forwarded = coset_elements(self.basis, self.pivots, t, c)
        else:  # the free positions read t, the Hadamard ones read c
            self.forwarded = np.empty(self.theta.shape, dtype=np.uint8)
            self.forwarded[self.theta == 0] = t.ravel()
            self.forwarded[self.theta == 1] = c.ravel()
        return t, c

    def subspace(self, row: int) -> Gf2Subspace:
        """The subspace a of one row, for its transcript: on the general
        family the row's canonical draw, on the register family the span of
        e_i at the Hadamard positions θ_i = 1 (``Gf2Subspace.register``)."""
        if self.theta is None:
            return Gf2Subspace.from_rref(self.basis[row], self.pivots[row])
        return Gf2Subspace.register(self.n, self.theta[row].nonzero()[0].tolist())


class _CosetParams:
    """The shape the coset-state protocols share: n ambient qubits, n even,
    and the Toeplitz extractor from the n/2 phase bits to ell bits.  A frozen
    dataclass with fields n and ell, and an ``extractor`` field that is not
    an init argument, runs this check first in its ``__post_init__``."""

    def __post_init__(self):
        if self.n < 2 or self.n % 2:
            raise ValueError("ambient dimension must be even and >= 2")
        object.__setattr__(self, "extractor", ToeplitzExtractor(self.half, self.ell))
        object.__setattr__(self, "_window_sizes", {})

    @property
    def half(self) -> int:
        return self.n // 2

    def _window_size(self, mode: Hashable, words: Callable[[], int]) -> int:
        """``words()``, the window size of one run in ``mode``, computed once
        per params object and mode; ``mode`` must fix the size.  The sizes
        are kept on the object: a cache keyed on the params would hash their
        code's matrices on every run."""
        size = self._window_sizes.get(mode)
        if size is None:
            size = self._window_sizes[mode] = words()
        return size


class _SpotParams(_CosetParams):
    """Coset parameters with an eta-fraction spot check of the n/2 phase
    bits (field eta)."""

    def __post_init__(self):
        super().__post_init__()
        self.spot_size  # raises unless eta gives a whole spot in (0, n/2]

    @property
    def spot_size(self) -> int:
        """eta * n/2, which must be an integer in (0, n/2]."""
        size = self.eta * self.half
        if abs(size - round(size)) > 1e-9:
            raise ValueError("eta times half the dimension must be an integer")
        size = int(round(size))
        if not 0 < size <= self.half:
            raise ValueError("spot-check size out of range")
        return size


def _uncloneable_eps(n: int, ell: int) -> float:
    """The slack term in the uncloneability bound: the larger of the
    extractor error at the minimum tolerable source entropy and the
    game-bound term carried by the half-dimension register."""
    kappa_min = protocol_bounds(n).values["kappa_min_interactive_encryption"]
    eps_ext = lhl_epsilon(kappa_min, ell)
    return max(eps_ext, math.exp(0.25) * math.cos(math.pi / 8) ** (n / 2))


def _report_interval(report: dict, wins: int, trials: int, prefix: str = "") -> None:
    low, high = wilson_interval(wins, trials)
    report[prefix + "estimate"] = wins / trials
    report[prefix + "wilson_low"] = low
    report[prefix + "wilson_high"] = high


# ------------------------------------------------------------------
# interactive encryption
# ------------------------------------------------------------------


@dataclass(frozen=True)
class QecmParams(_CosetParams):
    """Interactive-encryption configuration: n ambient qubits carry the coset
    state; messages are ell-bit strings padded by extractor output + h."""

    n: int
    ell: int
    family: str = "register"
    extractor: ToeplitzExtractor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()  # the extractor rejects ell < 1
        check_family(self.family)


@dataclass(frozen=True)
class QecmOutcome:
    """One interactive-encryption run: Alice's message m, Bob's decryption
    m_hat (None unless Alice accepted), Eve's guess m_check (None without an
    eavesdropper), the accept flag, and the transcript."""

    m: Gf2Vec
    m_hat: Optional[Gf2Vec]
    m_check: Optional[Gf2Vec]
    f: int
    transcript: Transcript


@dataclass(frozen=True)
class MessageSource:
    """A biased message source: the message with integer value j (as an
    ell-bit word, most significant bit first) has probability probs[j].

    A draw inverts the CDF at one uniform, exactly as
    ``Generator.choice(len(probs), p=probs)`` does.
    """

    probs: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        count = len(probs)
        if count < 2 or count & (count - 1):
            raise ValueError("message distribution must cover all messages")
        if min(probs) < 0 or abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError("message probabilities must be a distribution")
        object.__setattr__(self, "probs", probs)

    @property
    def ell(self) -> int:
        return len(self.probs).bit_length() - 1

    def bits(self, u: np.ndarray) -> np.ndarray:
        """(T, ell) message bits for T uniforms in [0, 1)."""
        cdf = np.cumsum(self.probs)
        cdf /= cdf[-1]
        picks = np.searchsorted(cdf, u, side="right")
        shifts = np.arange(self.ell - 1, -1, -1)
        return ((picks[:, None] >> shifts) & 1).astype(np.uint8)


def _qecm_words(
    params: QecmParams, eve: Optional[str], message, lead_bits: tuple[int, ...] = ()
) -> int:
    """Window size of one run (see ``_qecm_batch``), after the leading bit
    fields ``lead_bits`` that a caller reads first (the distinguishing
    game's referee fields)."""
    half, ell = params.half, params.ell
    eve_bits = {None: (), "keep_all": (half, half, ell), "measure_computational": (ell,)}
    if eve not in eve_bits:
        raise ValueError(f"unknown eavesdropper kind {eve!r}")
    state_bits, state_keys = _coset_fields(params.family, params.n,
                                           eve == "measure_computational")
    return words_for(
        bit_fields=(*lead_bits, *state_bits, half, half, params.extractor.seed_len, ell,
                    *((ell,) if message is None else ()), *eve_bits[eve]),
        key_fields=state_keys,
        float_fields=(1,) if isinstance(message, MessageSource) else (),
    )


def _qecm_batch(
    params: QecmParams, r: TrialReader, eve: Optional[str], message
) -> SimpleNamespace:
    """Interactive encryption, one trial per row.

    ``message`` is None (uniform, drawn from the window), a MessageSource
    (one uniform from the window), or fixed bits of shape (ell,) or (T, ell).
    """
    n, half, ell, ext = params.n, params.half, params.ell, params.extractor

    # key generation: the subspace a, labels, extractor seed and mask
    states = _CosetStates(params.family, n, r)
    t, tp = r.bits(half), r.bits(half)
    seed, h = r.bits(ext.seed_len), r.bits(ell)
    if message is None:
        m = r.bits(ell)
    elif isinstance(message, MessageSource):
        m = message.bits(r.floats(1)[:, 0])
    else:
        m = np.broadcast_to(np.asarray(message, dtype=np.uint8), (r.count, ell))

    # the channel: Bob reads the state on an honest channel, Eve under an
    # attack; under measure_computational Bob and Eve both decode her string
    if eve == "keep_all":
        t_hat, tp_hat = r.bits(half), r.bits(half)  # Bob holds no qubits
    else:
        t_hat, tp_hat = states.read(t, tp, r, eve == "measure_computational")
    f = (t_hat == t).all(axis=1)  # Alice accepts a correct position response

    # the pads T(seed)·t' ^ h of Alice and Bob, from one seed build
    pads = ext.extract_batch(np.stack([tp, tp_hat]), seed) ^ h
    m_bar = m ^ pads[0]
    m_hat = m_bar ^ pads[1]

    # Eve's guess once Alice releases the keys: under keep_all she reads t'
    # from the intact state, so her pad is Alice's; under
    # measure_computational she decodes her string as Bob does
    m_check = None
    if eve is not None:
        blind = r.bits(ell)
        m_check = np.where(f[:, None], m if eve == "keep_all" else m_hat, blind)
    return SimpleNamespace(states=states, seed=seed, h=h, m=m, m_bar=m_bar,
                           t_hat=t_hat, f=f, m_hat=m_hat, m_check=m_check)


def run_qecm_id(
    params: QecmParams,
    rng: np.random.Generator,
    *,
    eve: Optional[str] = None,
    message: Union[None, Gf2Vec, MessageSource] = None,
) -> QecmOutcome:
    """One full encrypt-then-interactively-decrypt run.

    eve=None: honest channel.  eve="keep_all": Eve keeps the whole state and
    forwards nothing, so honest Bob (holding no qubits) answers the challenge
    uniformly.  eve="measure_computational": Eve measures everything in the
    computational basis and forwards the classical string, which Bob uses to
    answer.  Eve guesses the message from her stash plus the classical
    transcript once the run ends.

    The run reads one window of raw words from ``rng`` (see
    ``_qecm_batch``).  ``message`` is None (uniform), a fixed Gf2Vec, or a
    MessageSource; either random message is drawn from that window.
    """
    mode = (eve, message is None, isinstance(message, MessageSource))
    reader = _window(rng, params._window_size(mode, lambda: _qecm_words(params, eve, message)))
    if isinstance(message, Gf2Vec):
        if message.n != params.ell:
            raise ValueError("message length mismatch")
        message = message.bits
    elif isinstance(message, MessageSource) and message.ell != params.ell:
        raise ValueError("message length mismatch")
    b = _qecm_batch(params, reader, eve, message)

    tr = Transcript()
    tr.send("alice", "bob", "ciphertext_pad", Gf2Vec(b.m_bar[0]))
    tr.send_quantum("alice", "bob", "coset_state", "qreg:0")
    if eve == "measure_computational":
        tr.send("eve", "bob", "forwarded_string", Gf2Vec(b.states.forwarded[0]))
    tr.send("alice", "bob", "subspace", b.states.subspace(0).to_json())
    tr.send("bob", "alice", "position_response", Gf2Vec(b.t_hat[0]))
    f = int(b.f[0])
    tr.send("alice", "bob", "accept_flag", f)
    m_hat = None
    if f:
        tr.send("alice", "bob", "key_release", (Gf2Vec(b.seed[0]), Gf2Vec(b.h[0])))
        m_hat = Gf2Vec(b.m_hat[0])
    m_check = None if b.m_check is None else Gf2Vec(b.m_check[0])
    return QecmOutcome(Gf2Vec(b.m[0]), m_hat, m_check, f, tr)


def _pad_blocks(params: Union[QecmParams, "UrbcParams"]):
    """Yield (Ext(t', r) + h, |a_{t,t'}><a_{t,t'}|) for every register
    subspace a, labels t and t', extractor seed r and mask h, in that nesting
    order; each averaged operator below accumulates in this order."""
    ext = params.extractor
    n, ell, half = params.n, params.ell, params.half
    for support in itertools.combinations(range(n), half):
        a = Gf2Subspace.register(n, support)
        for t_int, tp_int in itertools.product(range(1 << half), repeat=2):
            t = Gf2Vec.from_int(t_int, half)
            tp = Gf2Vec.from_int(tp_int, half)
            psi = prepare_coset_state(CosetDescriptor(a, t, tp)).amps
            block = np.outer(psi, psi.conj())
            for r_int in range(1 << ext.seed_len):
                pad = ext.extract(tp, Gf2Vec.from_int(r_int, ext.seed_len))
                for h_int in range(1 << ell):
                    yield pad + Gf2Vec.from_int(h_int, ell), block


def _qecm_cipher_operator(params: QecmParams, m: Gf2Vec) -> np.ndarray:
    """Exact averaged ciphertext operator on the pad ⊗ state space."""
    n = params.n
    dim = 1 << (params.ell + n)
    rho = np.zeros((dim, dim), dtype=np.complex128)
    count = 0
    for pad, block in _pad_blocks(params):
        off = (m + pad).to_int() << n
        rho[off : off + (1 << n), off : off + (1 << n)] += block
        count += 1
    return rho / count


def qecm_experiment(
    kind: str,
    params: QecmParams,
    *,
    adversary: Optional[str] = "keep_all",
    trials: int = 1000,
    seed: int = 0,
    message_probs: Optional[Sequence[float]] = None,
    threads: int = 1,
) -> dict:
    """Security-game experiments for the interactive encryption scheme.

    kind="correctness": honest runs, count disagreements.
    kind="indistinguishable": exact trace distance between averaged
    ciphertext operators for the fixed message vs every other message
    (register family, n <= 6 and ell <= 2 enumeration).
    kind="uncloneable": Monte Carlo Pr[M = M_check and F = 1] against the
    trivial-guess term plus the closed-form slack.
    kind="uncloneable_indistinguishable": Monte Carlo distinguishing game on
    accepted runs.  ``message_probs`` optionally biases the message source
    (uncloneable kind only); the bound then uses the source's min-entropy.

    Both families run as batch kernels over ``threads`` threads; the counts
    do not depend on the thread count.
    """
    report: dict = {"experiment": f"qecm_{kind}", "n": params.n, "ell": params.ell}
    n_messages = 1 << params.ell

    if kind == "indistinguishable":
        if params.family != "register":
            raise ValueError("exact enumeration covers the register family")
        if params.n > 6 or params.ell > 2:
            raise ValueError("enumeration too large")
        rho0 = _qecm_cipher_operator(params, Gf2Vec.zeros(params.ell))
        worst = 0.0
        for m_int in range(1, n_messages):
            rho1 = _qecm_cipher_operator(params, Gf2Vec.from_int(m_int, params.ell))
            worst = max(worst, trace_distance(DensityOp(rho0), DensityOp(rho1)))
        report["max_trace_distance"] = worst
        report["pass"] = worst <= 1e-9
        return report

    if kind not in ("correctness", "uncloneable", "uncloneable_indistinguishable"):
        raise ValueError(f"unknown experiment kind {kind!r}")
    report["trials"] = trials
    report["seed"] = seed
    eve = None if kind == "correctness" else adversary
    source = None
    h_min = float(params.ell)
    if kind == "uncloneable" and message_probs is not None:
        if len(message_probs) != n_messages:
            raise ValueError("message distribution must cover all messages")
        source = MessageSource(tuple(message_probs))
        h_min = -math.log2(max(source.probs))
    accepts, hits = _qecm_counts(kind, params, eve, source, trials, seed, threads)

    if kind == "correctness":
        report["disagreements"] = hits
        report["disagreement_rate"] = hits / trials
        report["pass"] = hits == 0
        return report

    report["adversary"] = adversary
    report["accepts"] = accepts
    if kind == "uncloneable":
        eps2 = _uncloneable_eps(params.n, params.ell)
        report["accept_rate"] = accepts / trials
        report["wins"] = hits
        _report_interval(report, hits, trials)
        guess_scale = 2.0 ** (-h_min)
        report["min_entropy"] = h_min
        report["epsilon_slack"] = eps2
        report["bound"] = guess_scale * (accepts / trials) + n_messages * guess_scale * eps2
        sigma = binomial_sigma(report["bound"], trials)
        report["pass"] = hits / trials <= report["bound"] + 3 * sigma
        return report

    eps3 = n_messages * _uncloneable_eps(params.n, params.ell)
    report["wins"] = hits
    _report_interval(report, hits, trials)
    report["advantage"] = hits / trials - accepts / (2.0 * trials)
    report["epsilon_bound"] = eps3
    sigma = binomial_sigma(0.5, trials)
    report["pass"] = report["advantage"] <= eps3 + 3 * sigma
    return report


def _qecm_counts(
    kind: str,
    params: QecmParams,
    eve: Optional[str],
    source: Optional[MessageSource],
    trials: int,
    seed: int,
    threads: int,
) -> tuple[int, int]:
    """(accepts, hits) of an experiment: hits are the disagreements
    (correctness) or Eve's wins (the two games).

    In the distinguishing game a trial's window starts with the referee's
    bit y, the alternative message m1 and Eve's fallback coin, one field
    each, and the run's own fields follow, the whole rounded up to a Philox
    block once: so a run reading its window right after those fields
    replays the trial.
    """
    ell = params.ell
    game = kind == "uncloneable_indistinguishable"
    lead = (1, ell, 1) if game else ()
    words = _qecm_words(params, eve, np.zeros(ell) if game else source, lead)

    def kernel(block: np.ndarray) -> np.ndarray:
        r = TrialReader(block)
        if not game:
            b = _qecm_batch(params, r, eve, source)
            if kind == "correctness":
                return _counters(b.f, ~(b.f & (b.m_hat == b.m).all(axis=1)))
            if b.m_check is None:  # no eavesdropper: nobody guesses
                return _counters(b.f, np.zeros_like(b.f))
            return _counters(b.f, b.f & (b.m_check == b.m).all(axis=1))
        y, m1, coin = (r.bits(bits) for bits in lead)
        y, coin = y[:, 0], coin[:, 0]
        b = _qecm_batch(params, r, eve, np.where(y[:, None] == 1, m1, 0))
        # Eve names the message her guess matches, else guesses blind
        guess = coin
        if b.m_check is not None:
            said_m1 = (b.m_check == m1).all(axis=1)
            said_m0 = ~b.m_check.any(axis=1)
            named = ~(m1 == 0).all(axis=1) & (said_m1 | said_m0)
            guess = np.where(named, said_m1, coin)
        return _counters(b.f, b.f & (guess == y))

    return _run_trials(trials, words, seed, _QECM_STREAM, kernel, threads)


# ------------------------------------------------------------------
# uncloneable commitment
# ------------------------------------------------------------------


@dataclass(frozen=True)
class UrbcParams(_SpotParams):
    """Commitment configuration: the committed string is ell bits extracted
    from the phase label; the reveal is certified by a code syndrome plus an
    eta-fraction spot check.  ``family`` picks the subspaces of the coset
    states, as in QecmParams.

    ``scheme`` is the base string commitment that binds Alice to the
    extraction inputs (r, h).  It is assumed, not simulated: Alice always
    opens what she committed.  scheme="ideal" is a trusted functionality
    whose token is an opaque handle, so it is perfectly hiding and binding.
    scheme="hash_based" commits by sha256 of the pair and a 32-byte nonce;
    its hiding and binding are the usual computational properties of the
    digest and are documented, not proven, here."""

    n: int
    ell: int
    eta: float
    code: LinearCode
    scheme: str = "ideal"
    family: str = "register"
    extractor: ToeplitzExtractor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        if self.code.length != self.half:
            raise ValueError("code length must be n/2")
        if self.scheme not in ("ideal", "hash_based"):
            raise ValueError(f"unknown commitment kind {self.scheme!r}")
        check_family(self.family)


@dataclass(frozen=True)
class UrbcOutcome:
    """One commitment run: Alice's opened string y, Bob's computed string
    y_hat (None unless his reveal checks pass), the check flag g, the reveal
    flag f, and the transcript."""

    y: Gf2Vec
    y_hat: Optional[Gf2Vec]
    g: int
    f: int
    transcript: Transcript


def _urbc_words(params: UrbcParams) -> int:
    """Window size of one run (see ``_urbc_batch``)."""
    nonce = (256,) if params.scheme == "hash_based" else ()
    state_bits, state_keys = _coset_fields(params.family, params.n)
    return words_for(
        bit_fields=(*state_bits, params.half, params.half, params.extractor.seed_len,
                    params.ell, *nonce),
        key_fields=(*state_keys, params.half),
    )


def _urbc_batch(params: UrbcParams, r: TrialReader, alice: str) -> SimpleNamespace:
    """Commit, check and reveal, one trial per row."""
    n, half, ext, code = params.n, params.half, params.extractor, params.code

    # commit: the base commitment binds Alice to the extraction inputs (r, h);
    # a hash-based one draws its nonce here
    states = _CosetStates(params.family, n, r)
    t, tp = r.bits(half), r.bits(half)
    seed, h = r.bits(ext.seed_len), r.bits(params.ell)
    nonces = words_to_bytes(r.packed(256)) if params.scheme == "hash_based" else None

    # check: Bob measures the intact state in the coset basis of a
    t_hat, tp_hat = states.read(t, tp, r)
    g = (t_hat == t).all(axis=1)

    # reveal: Bob's spot subset, then Alice's syndrome, spot bits and opening
    spot = top_k_mask(r.keys(half), params.spot_size)
    reveal_tp = tp
    if alice == "binding_attack":
        reveal_tp = tp ^ code.min_weight_codeword.bits
    syn_sent = syndrome_batch(code, reveal_tp)
    syn_ok = (syndrome_batch(code, tp_hat) == syn_sent).all(axis=1)
    spot_ok = ~((tp_hat ^ reveal_tp) & spot).any(axis=1)
    # Alice opens the committed (r, h) in both roles, so the base commitment
    # verifies on every row and only the syndrome and spot checks can fail
    f = syn_ok & spot_ok

    y, y_hat = ext.extract_batch(np.stack([reveal_tp, tp_hat]), seed) ^ h
    return SimpleNamespace(states=states, seed=seed, h=h, nonces=nonces,
                           t_hat=t_hat, g=g, spot=spot, reveal_tp=reveal_tp,
                           syn_sent=syn_sent, f=f, y=y, y_hat=y_hat)


def _hash_token(r: Gf2Vec, h: Gf2Vec, nonce: bytes) -> str:
    """The hash-based base commitment to (r, h): the sha256 hex digest of
    the pair's JSON (a list of the two hex strings) followed by the nonce."""
    return hashlib.sha256(json.dumps([r.to_hex(), h.to_hex()]).encode() + nonce).hexdigest()


def run_urbc(
    params: UrbcParams, rng: np.random.Generator, *, alice: str = "honest"
) -> UrbcOutcome:
    """One commit / check / reveal interaction.

    alice="binding_attack": Alice plays commit and check honestly, then at
    reveal substitutes t'' = t' + (minimum-weight codeword), which preserves
    the syndrome, and hopes the spot check misses the support.  Her output y
    is the string she tried to open to.

    The run reads one window of raw words from ``rng`` (see
    ``_urbc_batch``).
    """
    if alice not in ("honest", "binding_attack"):
        raise ValueError(f"unknown Alice role {alice!r}")
    words = params._window_size((), lambda: _urbc_words(params))
    b = _urbc_batch(params, _window(rng, words), alice)
    seed, h = Gf2Vec(b.seed[0]), Gf2Vec(b.h[0])
    opening = b"" if b.nonces is None else b.nonces[0].tobytes()
    token = "ideal:0" if b.nonces is None else _hash_token(seed, h, opening)

    tr = Transcript()
    tr.send("alice", "bob", "base_commitment", token)
    tr.send_quantum("alice", "bob", "coset_state", "qreg:0")
    tr.send("alice", "bob", "subspace", b.states.subspace(0).to_json())
    tr.send("bob", "alice", "position_response", Gf2Vec(b.t_hat[0]))
    g = int(b.g[0])
    tr.send("alice", "bob", "check_flag", g)
    spot = b.spot[0].nonzero()[0]
    tr.send("bob", "alice", "spot_subset", IndexSubset(params.half, spot.tolist()))
    tr.send("alice", "bob", "syndrome", Gf2Vec(b.syn_sent[0]))
    tr.send("alice", "bob", "spot_bits", Gf2Vec(b.reveal_tp[0][spot]))
    tr.send("alice", "bob", "opening", (token, seed, h, opening))
    f = int(b.f[0])
    tr.send("bob", "alice", "reveal_flag", f)
    return UrbcOutcome(Gf2Vec(b.y[0]), Gf2Vec(b.y_hat[0]) if f else None, g, f, tr)


def urbc_hiding_exact(params: UrbcParams) -> float:
    """Exact distance between the joint (committed string, receiver view)
    state and (uniform string) ⊗ (view), for the ideal base commitment.

    The pre-reveal view is the coset state alone: the ideal token is an
    opaque handle carrying no information.  Register-family enumeration,
    n <= 6, ell <= 2.
    """
    if params.scheme != "ideal":
        raise ValueError("the exact probe models the ideal base commitment")
    if params.family != "register":
        raise ValueError("exact enumeration covers the register family")
    if params.n > 6 or params.ell > 2:
        raise ValueError("enumeration too large")
    n = params.n
    dim_state = 1 << n
    n_y = 1 << params.ell
    joint = np.zeros((n_y * dim_state, n_y * dim_state), dtype=np.complex128)
    view = np.zeros((dim_state, dim_state), dtype=np.complex128)
    count = 0
    for y, block in _pad_blocks(params):
        off = y.to_int() << n
        joint[off : off + dim_state, off : off + dim_state] += block
        view += block
        count += 1
    joint /= count
    view /= count
    product = np.zeros_like(joint)
    for y in range(n_y):
        off = y << n
        product[off : off + dim_state, off : off + dim_state] = view / n_y
    return trace_distance(DensityOp(joint), DensityOp(product))


def urbc_experiment(
    kind: str,
    params: UrbcParams,
    *,
    trials: int = 1000,
    seed: int = 0,
    threads: int = 1,
) -> dict:
    """kind="correctness": honest runs must agree everywhere.
    kind="binding": the syndrome-preserving substitution attack; reports the
    acceptance rate, its hypergeometric closed form, and the reveal bound.
    kind="hiding": exact trace-distance probe (no trials).  The trials run
    as batch kernels on params.family over ``threads`` threads; the counts
    do not depend on the thread count."""
    report: dict = {"experiment": f"urbc_{kind}", "n": params.n, "ell": params.ell}
    if kind == "hiding":
        dist = urbc_hiding_exact(params)
        report["trace_distance"] = dist
        report["pass"] = dist <= 1e-9
        return report
    if kind not in ("correctness", "binding"):
        raise ValueError(f"unknown experiment kind {kind!r}")

    report["trials"] = trials
    report["seed"] = seed
    alice = "binding_attack" if kind == "binding" else "honest"

    def kernel(block: np.ndarray) -> np.ndarray:
        b = _urbc_batch(params, TrialReader(block), alice)
        agree = b.g & b.f & (b.y_hat == b.y).all(axis=1)
        return _counters(b.f, ~agree)

    accepts, bad = _run_trials(trials, _urbc_words(params), seed, _URBC_STREAM, kernel, threads)
    if kind == "correctness":
        report["disagreements"] = bad
        report["pass"] = bad == 0
        return report

    half, js = params.half, params.spot_size
    w = int(params.code.min_weight_codeword.weight())
    report["accepts"] = accepts
    _report_interval(report, accepts, trials)
    report["analytic_rate"] = math.comb(half - w, js) / math.comb(half, js)
    report["binding_bound"] = protocol_bounds(
        params.n, d=params.code.distance, eta=params.eta).values["binding_bound"]
    sigma = binomial_sigma(report["analytic_rate"], trials)
    report["pass"] = (
        abs(accepts / trials - report["analytic_rate"]) <= 3 * sigma
        and accepts / trials <= report["binding_bound"] + 3 * sigma
    )
    return report


# ------------------------------------------------------------------
# receiver-independent key distribution
# ------------------------------------------------------------------


@dataclass(frozen=True)
class QkdParams(_SpotParams):
    """Key-distribution configuration over the register family: code and
    extractor act on the n/2 phase bits; gamma tolerates position errors at
    parameter estimation; eta sizes the reconciliation spot check."""

    n: int
    ell: int
    gamma: float
    eta: float
    code: LinearCode
    extractor: ToeplitzExtractor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.gamma <= 0.5:
            raise ValueError("gamma must lie in [0, 1/2]")
        if self.code.length != self.half:
            raise ValueError("code length must be n/2")
        if not self.code.has_decoder():
            raise ValueError("the code must support coset-leader decoding")


@dataclass(frozen=True)
class QkdOutcome:
    """One key-distribution run: Alice's key k, the device's key k_hat (both
    None on abort), the accept flag, Eve's key guess (None without an
    eavesdropper), the observed parameter-estimation distance, the
    reconciliation mismatch count (None if aborted earlier), and the
    transcript."""

    k: Optional[Gf2Vec]
    k_hat: Optional[Gf2Vec]
    f: int
    eve_guess: Optional[Gf2Vec]
    est_distance: int
    recon_mismatches: Optional[int]
    transcript: Transcript


@dataclass(frozen=True)
class KeepAndSubstitute:
    """Eve keeps the whole state and forwards the zero record: all-zero data
    bits, every one in the computational basis."""


@dataclass(frozen=True)
class InterceptResend:
    """Eve measures every qubit in fresh uniform bases, drawn per run, and
    resends her outcome."""


@dataclass(frozen=True)
class SyndromeFault:
    """Device fault: the device's phase word is corrupted by the code's
    minimum-weight codeword (so the reported syndrome is unchanged) before
    any of its responses."""


EveKind = Union[None, KeepAndSubstitute, InterceptResend]


def _riqkd_words(
    params: QkdParams, noise: Optional[PauliNoise], eve: EveKind, lead_bits: int = 0
) -> int:
    """Window size of one run (see ``_riqkd_batch``), after a leading field of
    ``lead_bits`` bits that a caller reads first (secrecy_probe's guess)."""
    n, half = params.n, params.half
    eve_bits: tuple[int, ...] = ()
    if isinstance(eve, InterceptResend):
        # basis guesses, wrong-basis reads, her final coins
        eve_bits = (n, n, half)
    return words_for(
        bit_fields=(lead_bits, half, half, *eve_bits, *((n,) if eve is not None else ()),
                    params.extractor.seed_len),
        key_fields=(n, *((n,) if noise is not None else ()), half),
    )


def _place_flips(
    theta: np.ndarray, t: np.ndarray, tp: np.ndarray, flips: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reads (t_hat, t_hat') of intact records (θ, t, t') under noise
    ``flips``, and each row's count of flips on θ=0 coordinates.

    Only the set flips are placed, each XORed into a copy of t or t'.  Every
    row holds n/2 coordinates of each basis, so ranks can be counted over
    the whole block read as one row: a flip at flat coordinate j, with c the
    number of θ=1 coordinates up to j, j included, lands at flat index c - 1
    of t' (θ_j = 1) or j - c of t (θ_j = 0).  c is counted on the block's
    coordinate row read as big-endian words: the running popcount at the end
    of j's word, less the ones after bit j in that word."""
    at = np.flatnonzero(flips.view(bool))
    words = coordinate_rows(theta.reshape(-1))
    word = at >> 6
    later = words.view(">u8")[word] << ((at & 63) + 1).astype(np.uint64)
    ones = np.cumsum(np.bitwise_count(words), dtype=np.intp)[word] - np.bitwise_count(later)
    hadamard = theta.reshape(-1)[at].view(bool)  # θ_j
    t_hat, tp_hat = t.copy(), tp.copy()
    tp_hat.reshape(-1)[ones[hadamard] - 1] ^= 1
    free = (at - ones)[~hadamard]
    t_hat.reshape(-1)[free] ^= 1
    return t_hat, tp_hat, np.bincount(free // t.shape[1], minlength=len(t))


def _riqkd_batch(
    params: QkdParams,
    r: TrialReader,
    noise: Optional[PauliNoise],
    device: Union[str, SyndromeFault],
    eve: EveKind,
) -> SimpleNamespace:
    """Receiver-independent key distribution, one trial per row.

    Fields are read in protocol order: state, channel, device coins, spot
    subset, extractor seed, Eve's coins.  Every trial reads every field; an
    aborted trial's later values are computed and ignored.
    """
    n, half, ext, code = params.n, params.half, params.extractor, params.code
    fault = isinstance(device, SyndromeFault)
    if not fault and device != "honest":
        raise ValueError(f"unknown device kind {device!r}")
    if eve is not None and not isinstance(eve, (KeepAndSubstitute, InterceptResend)):
        raise ValueError(f"unknown eavesdropper kind {eve!r}")

    # state preparation: basis pattern + labels, as a conjugate-coding record;
    # row by row, t fills the free (θ=0) and t' the Hadamard positions in
    # order, so bit r of t (t') sits at the row's r-th θ=0 (θ=1) position.
    theta = top_k_mask(r.keys(n), half)
    t, tp = r.bits(half), r.bits(half)

    # the channel: Eve and/or noise act on the record in transit, then the
    # device measures in the coset basis of a (bases = theta)
    if eve is None:  # the intact record reads (t, t') exactly, up to noise flips
        # only the set flips are placed, each at its rank in t or t'
        # (_place_flips); d(t_hat, t) counts those on θ=0 positions
        t_hat, tp_hat = t, tp
        est_distance = np.zeros(r.count, dtype=np.int64)
        if noise is not None:
            t_hat, tp_hat, est_distance = _place_flips(theta, t, tp, noise.flips(theta, r.keys(n)))
    else:
        # Eve's records are whole n-bit rows: free and pivots are the flat
        # position plans of the block, the row-major indices of the θ=0 and
        # θ=1 positions, half of them in each row
        hadamard = theta.view(bool)  # theta is a 0/1 mask
        free, pivots = np.flatnonzero(~hadamard), np.flatnonzero(hadamard)
        x = np.empty(theta.size, dtype=np.uint8)
        x[free], x[pivots] = t.ravel(), tp.ravel()
        x = x.reshape(theta.shape)
        if isinstance(eve, KeepAndSubstitute):
            eve_theta, eve_x = theta, x
            rec_theta = rec_x = np.zeros((1, n), dtype=np.uint8)
        else:
            eve_theta = r.bits(n)
            eve_x = np.where(eve_theta == theta, x, r.bits(n))
            rec_theta, rec_x = eve_theta, eve_x
        if noise is not None:
            rec_x = rec_x ^ noise.flips(rec_theta, r.keys(n))
        dev_read = np.where(rec_theta == theta, rec_x, r.bits(n))
        t_hat = np.take(dev_read, free).reshape(-1, half)
        tp_hat = np.take(dev_read, pivots).reshape(-1, half)
        # a 32-bit sum of bits is exact here and faster than a 64-bit one or
        # count_nonzero
        est_distance = (t_hat ^ t).sum(axis=1, dtype=np.int32)
    if fault:
        tp_hat = tp_hat ^ code.min_weight_codeword.bits  # same syndrome, different word

    # parameter estimation
    est_ok = est_distance <= params.gamma * half

    # error correction: the device reports its phase-word syndrome
    syn_hat = syndrome_batch(code, tp_hat)
    t_bar = align_batch(code, tp, syn_hat)

    # information reconciliation
    spot = top_k_mask(r.keys(half), params.spot_size)
    mismatches = ((tp_hat ^ t_bar) & spot).sum(axis=1, dtype=np.int32)
    f = est_ok & (mismatches == 0)

    # privacy amplification
    seed = r.bits(ext.seed_len)
    inputs = [t_bar, tp_hat]

    # Eve's guess from her records plus the classical transcript: her phase
    # read (exact from the genuine record she kept, or her intercepted reads
    # with coins where she measured the wrong basis), then Alice's public
    # correction
    if eve is not None:
        tp_eve = np.take(eve_x, pivots).reshape(-1, half)
        if isinstance(eve, InterceptResend):
            read_right = np.take(eve_theta, pivots).reshape(-1, half) == 1
            tp_eve = np.where(read_right, tp_eve, r.bits(half))
        inputs.append(align_batch(code, tp_eve, syn_hat))
    # the keys of Alice, the device and Eve, from one seed build
    k, k_hat, *eve_keys = ext.extract_batch(np.stack(inputs), seed)
    eve_guess = eve_keys[0] if eve_keys else None
    return SimpleNamespace(theta=theta, t_hat=t_hat, tp_hat=tp_hat, est_distance=est_distance,
                           est_ok=est_ok, syn_hat=syn_hat, spot=spot, mismatches=mismatches,
                           f=f, seed=seed, k=k, k_hat=k_hat, eve_guess=eve_guess)


def run_riqkd(
    params: QkdParams,
    rng: np.random.Generator,
    *,
    noise: Optional[PauliNoise] = None,
    device: Union[str, SyndromeFault] = "honest",
    eve: EveKind = None,
) -> QkdOutcome:
    """One receiver-independent key-distribution run on the register family.

    The conjugate-coding record is tracked classically, so runs scale to
    thousands of qubits.  Only Alice aborts; the device answers every
    challenge.  The run reads one window of raw words from ``rng`` (see
    ``_riqkd_batch``), making it replayable from the generator.
    """
    # the layout reads the noise's presence and Eve's kind
    mode = (noise is None, type(eve))
    words = params._window_size(mode, lambda: _riqkd_words(params, noise, eve))
    b = _riqkd_batch(params, _window(rng, words), noise, device, eve)
    half = params.half
    tr = Transcript()
    tr.send_quantum("alice", "bob", "coset_state", "qreg:0")

    # parameter estimation
    tr.send("alice", "bob", "subspace", Gf2Vec(b.theta[0]))
    tr.send("bob", "alice", "position_response", Gf2Vec(b.t_hat[0]))
    est_distance = int(b.est_distance[0])
    if not b.est_ok[0]:
        tr.send("alice", "bob", "estimate_flag", 0)
        return QkdOutcome(None, None, 0, None, est_distance, None, tr)
    tr.send("alice", "bob", "estimate_flag", 1)

    # error correction and information reconciliation
    tr.send("bob", "alice", "syndrome_response", Gf2Vec(b.syn_hat[0]))
    spot = b.spot[0].nonzero()[0]
    tr.send("alice", "bob", "spot_subset", IndexSubset(half, spot.tolist()))
    tr.send("bob", "alice", "spot_response", Gf2Vec(b.tp_hat[0][spot]))
    mismatches = int(b.mismatches[0])
    if mismatches:
        tr.send("alice", "bob", "reconcile_flag", 0)
        return QkdOutcome(None, None, 0, None, est_distance, mismatches, tr)
    tr.send("alice", "bob", "reconcile_flag", 1)

    # privacy amplification
    tr.send("alice", "bob", "extractor_seed", Gf2Vec(b.seed[0]))
    eve_guess = None if b.eve_guess is None else Gf2Vec(b.eve_guess[0])
    return QkdOutcome(Gf2Vec(b.k[0]), Gf2Vec(b.k_hat[0]), 1, eve_guess,
                      est_distance, mismatches, tr)


def riqkd_experiment(
    kind: str,
    params: QkdParams,
    *,
    trials: int = 1000,
    seed: int = 0,
    noise: Optional[PauliNoise] = None,
    threads: int = 1,
) -> dict:
    """kind="correctness": honest (optionally noisy) runs; counts aborts and
    accepted-key mismatches.  kind="completeness": abort rate against the
    closed-form completeness bound (requires noise).  kind="device_fault":
    Pr[K != K_hat and F = 1] under a syndrome-preserving fault, against the
    reveal bound.  The trials run as batch kernels over ``threads`` threads."""
    report: dict = {
        "experiment": f"riqkd_{kind}",
        "n": params.n,
        "ell": params.ell,
        "gamma": params.gamma,
        "eta": params.eta,
        "code": list(params.code.kind),
        "trials": trials,
        "seed": seed,
    }
    if noise is not None:
        report["noise"] = {"dx": noise.dx, "dz": noise.dz}
    if kind not in ("correctness", "completeness", "device_fault"):
        raise ValueError(f"unknown experiment kind {kind!r}")
    if kind == "completeness" and noise is None:
        raise ValueError("completeness needs a noise model")
    device = SyndromeFault() if kind == "device_fault" else "honest"

    def kernel(block: np.ndarray) -> np.ndarray:
        b = _riqkd_batch(params, TrialReader(block), noise, device, None)
        return _counters(b.f, b.f & (b.k != b.k_hat).any(axis=1))

    accepts, wrong_key = _run_trials(trials, _riqkd_words(params, noise, None), seed,
                                     _QKD_STREAM, kernel, threads)

    if kind in ("correctness", "completeness"):
        aborts = trials - accepts
        report["aborts"] = aborts
        report["key_mismatches_accepted"] = wrong_key
        _report_interval(report, aborts, trials, prefix="abort_")
        if kind == "completeness":
            delta = max(noise.dx, noise.dz)
            bounds = protocol_bounds(
                params.n, d=params.code.distance, gamma=params.gamma, delta=delta
            )
            report["completeness_bound"] = bounds.values["completeness_bound"]
            report["pass"] = aborts / trials <= report["completeness_bound"]
        else:
            report["pass"] = aborts == 0 and wrong_key == 0
        return report

    report["accepts"] = accepts
    report["wrong_key_accepts"] = wrong_key
    _report_interval(report, wrong_key, trials)
    bound = protocol_bounds(
        params.n, d=params.code.distance, eta=params.eta).values["binding_bound"]
    report["correctness_bound"] = bound
    sigma = binomial_sigma(bound, trials)
    report["pass"] = wrong_key / trials <= bound + 3 * sigma
    return report


# ------------------------------------------------------------------
# the reference one-sided protocol and its breaking attack
# ------------------------------------------------------------------


@dataclass(frozen=True)
class TfkwParams:
    """Reference-protocol configuration: n conjugate-coded qubits, a
    check_size-bit spot sample with threshold gamma*n, and code + extractor
    over the remaining bits."""

    n: int
    gamma: float
    code: LinearCode
    check_size: Optional[int] = None
    extractor: ToeplitzExtractor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two qubits")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.check_size is None:
            object.__setattr__(self, "check_size", self.n // 2)
        if isinstance(self.check_size, bool) or not isinstance(self.check_size, int):
            raise ValueError("check_size must be an integer")
        if not 0 < self.check_size < self.n:
            raise ValueError("check subset must be a proper nonempty subset")
        keep = self.n - self.check_size
        if self.code.length != keep:
            raise ValueError("code length must match the kept bits")
        if not self.code.has_decoder():
            raise ValueError("the code must support coset-leader decoding")
        object.__setattr__(self, "extractor", ToeplitzExtractor(keep, 2))


def _tfkw_words(params: TfkwParams, noise: Optional[PauliNoise]) -> int:
    """Window size of one run (see ``_tfkw_batch``)."""
    n = params.n
    return words_for(bit_fields=(n, n, params.extractor.seed_len),
                     key_fields=(n,) if noise is None else (n, n))


def _tfkw_batch(
    params: TfkwParams, r: TrialReader, noise: Optional[PauliNoise], eve: Optional[str]
) -> SimpleNamespace:
    """The reference protocol, one trial per row.

    Fields are read in protocol order: the data bits x and bases θ, one
    noise key per qubit (only with noise), the check subset, the extractor
    seed.  An aborted trial's later values are computed and ignored.
    """
    if eve not in (None, "substitute_zero"):
        raise ValueError(f"unknown eavesdropper kind {eve!r}")
    n, ext, code = params.n, params.extractor, params.code

    # state preparation and the channel.  An honest device measures in the
    # announced bases; under substitute_zero Eve kept the real state, her
    # read is exact once the bases are public, and the device (hers) repeats
    # it.  Either way the device reads the record as it arrived, y.
    x, theta = r.bits(n), r.bits(n)
    y = x if noise is None else x ^ noise.flips(theta, r.keys(n))

    # parameter estimation on Alice's check subset
    check = top_k_mask(r.keys(n), params.check_size)
    est_distance = ((x ^ y) & check).sum(axis=1)
    f = est_distance <= params.gamma * n

    # error correction and privacy amplification on the kept bits
    keep = np.flatnonzero(check == 0)
    x_keep = np.take(x, keep).reshape(r.count, -1)
    syn = syndrome_batch(code, x_keep)
    seed = r.bits(ext.seed_len)
    x_dev = align_batch(code, np.take(y, keep).reshape(r.count, -1), syn)
    k, k_hat = ext.extract_batch(np.stack([x_keep, x_dev]), seed)
    # Eve's read equals y and the correction is public: hers is the device's key
    eve_guess = k_hat if eve == "substitute_zero" else None
    return SimpleNamespace(x=x, theta=theta, check=check, est_distance=est_distance, f=f,
                           syn=syn, seed=seed, k=k, k_hat=k_hat, eve_guess=eve_guess)


def run_tfkw(
    params: TfkwParams,
    rng: np.random.Generator,
    *,
    eve: Optional[str] = None,
    noise: Optional[PauliNoise] = None,
) -> QkdOutcome:
    """One run of the reference protocol, honestly or under the
    substitute-the-state attack.

    eve="substitute_zero": Eve keeps the conjugate-coded state and hands the
    device |0...0⟩.  Once the bases are announced she reads the kept state
    perfectly and, controlling the device, supplies its answers — so the spot
    check passes and she computes the device's key exactly.

    The run reads one window of raw words from ``rng`` (see ``_tfkw_batch``).
    """
    b = _tfkw_batch(params, _window(rng, _tfkw_words(params, noise)), noise, eve)
    tr = Transcript()
    tr.send_quantum("alice", "bob", "wiesner_state", "qreg:0")
    # the receipt confirmation precedes the basis announcement: the device
    # commits to holding the state before it learns how to read it
    tr.send("bob", "alice", "receipt", 1)
    tr.send("alice", "bob", "basis_string", Gf2Vec(b.theta[0]))

    check = b.check[0].nonzero()[0]
    tr.send("alice", "bob", "spot_subset", IndexSubset(params.n, check.tolist()))
    tr.send("alice", "bob", "spot_bits", Gf2Vec(b.x[0][check]))
    est_distance = int(b.est_distance[0])
    if not b.f[0]:
        tr.send("bob", "alice", "estimate_flag", 0)
        return QkdOutcome(None, None, 0, None, est_distance, None, tr)
    tr.send("bob", "alice", "estimate_flag", 1)

    tr.send("alice", "bob", "syndrome", Gf2Vec(b.syn[0]))
    tr.send("alice", "bob", "extractor_seed", Gf2Vec(b.seed[0]))
    eve_guess = None if b.eve_guess is None else Gf2Vec(b.eve_guess[0])
    return QkdOutcome(Gf2Vec(b.k[0]), Gf2Vec(b.k_hat[0]), 1, eve_guess, est_distance, 0, tr)


def tfkw_experiment(
    params: TfkwParams,
    *,
    eve: Optional[str] = None,
    trials: int = 100,
    seed: int = 0,
    noise: Optional[PauliNoise] = None,
    threads: int = 1,
) -> dict:
    """Counts aborts, Alice/device key agreement, and (under the attack)
    how often Eve's computed key equals the device's, with the verdict
    ``pass``.  The trials run as batch kernels over ``threads`` threads."""
    report: dict = {
        "experiment": "tfkw",
        "n": params.n,
        "gamma": params.gamma,
        "eve": eve,
        "trials": trials,
        "seed": seed,
    }

    def kernel(block: np.ndarray) -> np.ndarray:
        b = _tfkw_batch(params, TrialReader(block), noise, eve)
        eve_match = np.zeros_like(b.f) if eve is None else (b.eve_guess == b.k_hat).all(axis=1)
        return _counters(~b.f, b.f & (b.k == b.k_hat).all(axis=1), b.f & eve_match)

    aborts, key_match, eve_match = _run_trials(trials, _tfkw_words(params, noise), seed,
                                               _TFKW_STREAM, kernel, threads)
    report["aborts"] = aborts
    report["key_matches"] = key_match
    report["eve_matches_device"] = eve_match
    report["broken"] = aborts == 0 and eve_match == trials
    # an honest run passes with no abort and every key matched, with noise
    # set too; an attack passes when it breaks the protocol, as it should
    report["pass"] = (aborts == 0 and key_match == trials) if eve is None else report["broken"]
    return report


# ------------------------------------------------------------------
# secrecy probe
# ------------------------------------------------------------------


def secrecy_probe(
    params: QkdParams,
    *,
    eve: EveKind = None,
    trials: int = 1000,
    seed: int = 0,
    noise: Optional[PauliNoise] = None,
    kappa: Optional[float] = None,
    threads: int = 1,
) -> dict:
    """Estimate how well an eavesdropper guesses the final key.

    Runs the protocol and reports Pr[guess and F=1] against the trivial term
    2^-ell * Pr[F=1] plus the closed-form secrecy bound (computed at
    min-entropy ``kappa``, defaulting to the half-dimension uncertainty
    rate).  Without an eavesdropper the guess is a uniform baseline.  A
    trial's window starts with that baseline guess (ell bits) and the run's
    own fields follow, the whole rounded up to a Philox block once; the
    trials run as batch kernels over ``threads`` threads.
    """
    report: dict = {
        "experiment": "secrecy_probe",
        "n": params.n,
        "ell": params.ell,
        "gamma": params.gamma,
        "eve": type(eve).__name__ if eve is not None else None,
        "trials": trials,
        "seed": seed,
    }
    ell = params.ell
    words = _riqkd_words(params, noise, eve, lead_bits=ell)

    def kernel(block: np.ndarray) -> np.ndarray:
        r = TrialReader(block)
        baseline = r.bits(ell)
        b = _riqkd_batch(params, r, noise, "honest", eve)
        guess = baseline if b.eve_guess is None else b.eve_guess
        return _counters(b.f, b.f & (guess == b.k).all(axis=1))

    if kappa is None:
        kappa = NEG_LG_COS_PI_8 * params.n / 2.0
    # the bound first: a kappa outside its domain raises before any trial runs
    eps = protocol_bounds(
        params.n,
        d=params.code.distance,
        s=params.code.syndrome_length,
        eta=params.eta,
        gamma=params.gamma,
        kappa=kappa,
        ell=params.ell,
    ).values["secrecy_bound"]
    accepts, hits = _run_trials(trials, words, seed, _QKD_STREAM, kernel, threads)
    report["accepts"] = accepts
    report["accept_rate"] = accepts / trials
    report["guess_and_accept"] = hits
    _report_interval(report, hits, trials, prefix="guess_")
    report["guess_rate_conditional"] = hits / accepts if accepts else None
    report["secrecy_bound"] = eps
    trivial = 2.0 ** (-params.ell) * (accepts / trials)
    report["trivial_term"] = trivial
    sigma = binomial_sigma(trivial + eps, trials)
    report["pass"] = hits / trials <= trivial + eps + 3 * sigma
    return report


def secrecy_exact(params: QkdParams) -> dict:
    """Noiseless, eavesdropper-free enumeration of the classical leakage
    (n <= 6, ell = 1): the exact trace distance between (key, Eve's view)
    and (uniform key) ⊗ (view).  At toy sizes the syndrome and spot bits can
    determine the key outright, so this reports a real and possibly large
    leak."""
    if params.n > 6 or params.ell != 1:
        raise ValueError("enumeration too large for the exact secrecy probe")
    ext = params.extractor
    half = params.half
    js = params.spot_size
    probs: dict[tuple, float] = {}
    thetas = list(itertools.combinations(range(params.n), half))
    spots = list(itertools.combinations(range(half), js))
    seeds = list(range(1 << ext.seed_len))
    weight = 1.0 / (
        len(thetas) * (1 << half) * (1 << half) * len(spots) * len(seeds)
    )
    for support in thetas:
        for t_int in range(1 << half):
            for tp_int in range(1 << half):
                tp = Gf2Vec.from_int(tp_int, half)
                syn_bits = tuple(int(b) for b in syndrome_batch(params.code, tp.bits[None, :])[0])
                for spot in spots:
                    spot_bits = tuple(int(tp.bits[i]) for i in spot)
                    for r_int in seeds:
                        r = Gf2Vec.from_int(r_int, ext.seed_len)
                        k = ext.extract(tp, r).to_int()
                        # noiseless and honest: t_hat = t, syndromes agree,
                        # the check passes; Eve's view is the classical flow
                        view = (support, t_int, syn_bits, spot, spot_bits, r_int)
                        key = (k, view)
                        probs[key] = probs.get(key, 0.0) + weight
    views: dict[tuple, float] = {}
    for (k, view), p in probs.items():
        views[view] = views.get(view, 0.0) + p
    dist = 0.0
    n_keys = 1 << params.ell
    for view, pv in views.items():
        for k in range(n_keys):
            dist += abs(probs.get((k, view), 0.0) - pv / n_keys)
    return {
        "experiment": "secrecy_exact",
        "n": params.n,
        "ell": params.ell,
        "trace_distance": 0.5 * dist,
    }
