"""Referee and strategy harness for the leaky monogamy-of-entanglement game.

One round: the referee samples a half-dimension subspace ``a`` and labels
(t, t'), hands the coset state to the adversary channel, which splits it
between Bob and Charlie.  Both then learn ``a``; Bob answers a position guess
t_B, and — after the referee forwards t_B to Charlie when the leak is on —
Charlie answers a phase guess t'_C.  The round is won iff d(t_B, t) <= m AND
d(t'_C, t') <= m' (m = m' = 0 is the exact game).

Every built-in channel is a Clifford circuit, and a Pauli-basis read of a
coset state is uniform on an affine set (Aaronson and Gottesman, PRA 70,
052328, 2004), so each built-in kind has one entry in ``_KINDS``: its
closed-form win probability, where one is known, and one kernel builder,
``(params, leak, **options) -> (words_per_trial, kernel)``, that reads its
game in closed form on both subspace families:

* five strategies (``bob_all``, ``charlie_all``, ``mix``,
  ``measure_computational``, ``leak_smuggle``) win by a law that does not
  depend on a: whoever holds the state reads (t, t') exactly, and every
  other answer is uniform.  Their kernels read no subspace and serve both
  families as they are;
* ``measure_wiesner`` and ``keep_and_substitute`` read the subspace.  On the
  register family every coset state is a conjugate-coding (Wiesner) record
  (basis bits, data bits, coins).  There the kernels work on whole 64-bit
  words: every bit field is read as packed uint64 words
  (``TrialReader.packed``), and every row over the n coordinates (basis,
  coins, fixed masks) is a coordinate row (``mc.coordinate_rows``), its
  ``np.packbits`` bytes zero-padded to 8 * ceil(n/64) and held as uint64
  words.  Zero padding adds no weight and takes no deposit.  Bitwise
  operations and popcounts do not depend on the byte order of a word, so
  every Hamming distance is the popcount of an XOR of words; the one piece of
  arithmetic, the byte prefix sums of ``_coset_offsets``, reads the bytes
  through ``'<u8'`` views, which give the same words on either host byte
  order.  Where the labels (t, t') must be laid onto the coordinates, a
  256 x 256 byte table deposits them onto the free and pivot masks of the
  basis row, so no per-trial sort or gather over coordinates runs.  On the
  general family (``_general_kernel``) a window holds a's draw in canonical
  form, as the protocols read it: ``gf2.sample_subspaces`` gives the block's
  bases and pivots as arrays, and the reads are gf2's batched coset maps
  (``complements``, ``coset_elements``, ``coset_labels``) over the whole
  block, with no Python loop over its rows.

Every kernel runs under ``mc.run_blocks`` on one counter stream,
``mc.stream_key(seed, _MOE_STREAM)``, so the counts do not depend on the
block size or the thread count.  ``moe_experiment`` turns a run into its
report, verdict included.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .gf2 import (Gf2Vec, check_family, complements, coset_elements, coset_labels, free_mask,
                  sample_subspaces, subspace_fields)
from .info import ball_volume, moe_bound
from .mc import (
    TrialReader,
    binomial_sigma,
    coordinate_rows,
    run_blocks,
    stream_key,
    top_k_mask,
    wilson_interval,
    words_for,
    words_to_bytes,
)
from .qsim import WiesnerRecord

__all__ = [
    "MoeParams",
    "GameResult",
    "Strategy",
    "builtin_strategy",
    "all_builtin_strategies",
    "alternating_basis",
    "play_leaky",
    "moe_experiment",
    "BUILTIN_KINDS",
]

_MAX_SEED = 1 << 64
# The games' counter stream, ``stream_key(seed, _MOE_STREAM)``, for every kernel;
# the protocol experiments use ids 1-3 and 5 (``proto._QECM_STREAM`` and on).
_MOE_STREAM = 4


@dataclass(frozen=True)
class MoeParams:
    """Game configuration: ambient dimension, subspace family, error radii
    (m for Bob's position guess, m' for Charlie's phase guess), and the
    Monte Carlo run length."""

    n: int
    family: str = "register"
    m: int = 0
    m_prime: int = 0
    trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.n < 2 or self.n % 2:
            raise ValueError("ambient dimension must be even and >= 2")
        check_family(self.family)
        half = self.n // 2
        if not 0 <= self.m <= half:
            raise ValueError("position radius m must lie in [0, n/2]")
        if not 0 <= self.m_prime <= half:
            raise ValueError("phase radius m' must lie in [0, n/2]")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must fit in 64 bits")

    @property
    def half(self) -> int:
        return self.n // 2


@dataclass(frozen=True)
class GameResult:
    """Counts from one run plus the 95% Wilson interval on the win rate.

    ``bob_correct`` counts rounds with d(t_B, t) <= m; conditioned on those,
    ``wins`` additionally requires Charlie's guess inside its radius."""

    wins: int
    trials: int
    bob_correct: int
    estimate: float
    wilson_low: float
    wilson_high: float

    @classmethod
    def from_counts(cls, wins: int, bob_correct: int, trials: int) -> "GameResult":
        if not 0 <= wins <= bob_correct <= trials:
            raise ValueError("need 0 <= wins <= bob_correct <= trials")
        low, high = wilson_interval(wins, trials)
        return cls(wins, trials, bob_correct, wins / trials, low, high)


# A kernel builder maps (params, leak) to (words_per_trial, kernel); the
# kernel turns a (T, words) block into int64 [wins, bob_correct].
KernelBuilder = Callable[[MoeParams, bool], tuple[int, Callable[[np.ndarray], np.ndarray]]]


@dataclass(frozen=True, eq=False)
class Strategy:
    """A built-in strategy: the builder of its kernel, which serves both
    subspace families, and the kind and options its closed form reads."""

    kernel: KernelBuilder
    kind: str
    options: Optional[dict] = None

    def analytic(self, params: MoeParams, leak: bool = True) -> Optional[float]:
        """Closed-form win probability with the position leak on or off, when
        one is known for this strategy."""
        return _KINDS[self.kind].win(params, leak, **(self.options or {}))


# ------------------------------------------------------------------
# shared helpers
# ------------------------------------------------------------------


def _row_bytes(rows: np.ndarray) -> np.ndarray:
    """(T, W) words, or (T, 8W) bytes, as (T, 8W) bytes in memory order."""
    return np.ascontiguousarray(rows).view(np.uint8)


def _le_words(rows: np.ndarray) -> np.ndarray:
    """(T, 8W) bytes, or (T, W) words, as (T, W) ``'<u8'`` words: byte j of a
    row is byte j % 8 of word j // 8 counted from the least significant end,
    on a host of either byte order."""
    return np.ascontiguousarray(rows).view("<u8")


def _le_bytes(words: np.ndarray) -> np.ndarray:
    """The bytes of (T, W) word values, least significant first: the inverse
    of ``_le_words``."""
    return words.astype("<u8", copy=False).view(np.uint8)


def _weight(rows: np.ndarray) -> np.ndarray:
    """Row-wise Hamming weight of (T, W) words or (T, 8W) bytes.  A word's
    popcount does not depend on the order of its bytes, so one ``'<u8'`` view
    serves packed and coordinate rows alike; a one-word row skips the sum."""
    count = np.bitwise_count(_le_words(rows))
    return count[:, 0] if count.shape[1] == 1 else count.sum(axis=1)


@functools.cache
def _deposit_table() -> np.ndarray:
    """Byte-wise bit deposit, flattened: entry (mask << 8) | src holds the
    top popcount(mask) bits of ``src``, in order, placed on the set bits of
    ``mask`` (MSB first).  Read-only, as the cache shares it."""
    lanes = np.arange(7, -1, -1, dtype=np.uint8)
    bits = (np.arange(256, dtype=np.uint8)[:, None] >> lanes) & 1  # bits[b, i]: lane i of b
    rank = np.cumsum(bits, axis=1, dtype=np.uint8) - bits  # set mask lanes before lane i
    # entry (mask, src): over the set lanes i of mask, src bit rank[mask, i] << (7 - i)
    placed = bits.T[rank] * (bits << lanes)[:, :, None]
    table = placed.sum(axis=1, dtype=np.uint8).reshape(-1)
    table.setflags(write=False)
    return table


# Byte k of w * _BYTE_ONES is the sum of bytes 0..k of w while no sum passes
# 255; byte k of _BYTE_EIGHTS is 8k.
_BYTE_ONES = np.uint64(0x0101010101010101)
_BYTE_EIGHTS = np.uint64(0x3830282018100800)


def _coset_offsets(pivots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bit offsets of t and t' at each byte of the coordinate rows ``pivots``,
    as (T, 8W) uint64: t fills the free (θ=0) coordinates and t' the pivots,
    each in ascending order, so the offset at byte j counts the free (resp.
    pivot) coordinates before it.

    Within a word, one multiplication of its ``'<u8'`` word of byte popcounts
    by 0x0101010101010101 gives their prefix sums, byte by byte (a word holds
    at most 64 pivots, so no byte carries); at byte k of a word, 8k less the
    pivots before it is the free count.  Rows of more than one word add the
    counts of the words before."""
    count = _le_words(np.bitwise_count(_row_bytes(pivots)))
    inclusive = count * _BYTE_ONES
    pivot_in = inclusive - count
    pivot_off = _le_bytes(pivot_in).astype(np.uint64)
    free_off = _le_bytes(_BYTE_EIGHTS - pivot_in).astype(np.uint64)
    if count.shape[1] > 1:
        total = inclusive >> np.uint64(56)  # the word's pivots
        before = np.cumsum(total, axis=1) - total
        pivot_off += np.repeat(before, 8, axis=1)
        free_off += np.repeat(np.arange(0, 64 * count.shape[1], 64, dtype=np.uint64) - before,
                              8, axis=1)
    return free_off, pivot_off


def _deposit(src: np.ndarray, mask: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Spread the bits of packed (T, W) uint64 rows ``src`` over the set bits
    of the coordinate rows ``mask``, in order, into coordinate rows: byte j
    takes popcount(mask byte j) bits starting at bit ``offset[:, j]``
    (uint64) of its source row.

    A one-word source (W = 1: n/2 <= 64, every paper size) reads byte j's
    8-bit window with one broadcast shift, (src << offset) >> 56; numpy
    shifts by 64 or more give 0, so a window past the end of the source reads
    zeros.  A longer source gathers the two words that the window spans.
    Either way the mask byte and the window index the deposit table."""
    t, w = src.shape
    if w == 1:
        window = (src << offset) >> np.uint64(56)
    else:
        # two zero words past each row: an offset may reach the end of the source
        flat = np.concatenate([src, np.zeros((t, 2), dtype=np.uint64)], axis=1).reshape(-1)
        word = (offset >> np.uint64(6)).astype(np.intp) + np.arange(0, t * (w + 2), w + 2)[:, None]
        shift = offset & np.uint64(63)
        window = (((flat[word] << shift) | (flat[word + 1] >> (np.uint64(64) - shift)))
                  >> np.uint64(56))
    index = _row_bytes(mask).astype(np.uint16) << 8
    index |= window.astype(np.uint16)
    return _deposit_table().take(index).view(np.uint64)


def _counters(win: np.ndarray, bob_ok: np.ndarray) -> np.ndarray:
    return np.array([int(win.sum()), int(bob_ok.sum())], dtype=np.int64)


# ------------------------------------------------------------------
# built-in strategies
# ------------------------------------------------------------------


def _general_kernel(params: MoeParams, fields: tuple[int, ...], reads):
    """The ``family=all`` kernel of a strategy whose read depends on a.  A
    window holds a's draw, as the protocols read it (``gf2.sample_subspaces``),
    the labels (t, t'), then ``fields`` bits; ``reads(basis, pivots, t, t',
    *fields)`` gives the guesses (t_B, t'_C) from the block's canonical bases
    and pivots."""
    n, half = params.n, params.half
    sub_bits, sub_keys = subspace_fields(n, half)
    wpt = words_for(bit_fields=(*sub_bits, half, half, *fields), key_fields=sub_keys)

    def kernel(words):
        r = TrialReader(words)
        basis, pivots = sample_subspaces(r, n, half)
        t, tp = r.bits(half), r.bits(half)
        t_b, t_c = reads(basis, pivots, t, tp, *(r.bits(b) for b in fields))
        bob_ok = (t_b != t).sum(axis=1) <= params.m
        win = bob_ok & ((t_c != tp).sum(axis=1) <= params.m_prime)
        return _counters(win, bob_ok)

    return wpt, kernel


def _wiesner_reads(theta_hat: Gf2Vec):
    """``measure_wiesner``'s guesses on any subspaces: each qubit read in its
    guessed basis.  A computational read of the whole state is the coset
    element s ⊕ c·A, s = coset_rep(a, t), and a Hadamard one the element
    σ ⊕ d·A⊥ of the phase coset, σ = coset_rep(a⊥, t'); a product-basis read
    takes each coordinate from the read of its basis, with c and d
    independent.  Bob answers the free coordinates of a, Charlie its
    pivots."""
    hat = theta_hat.bits.astype(bool)

    def reads(basis, pivots, t, tp, c, d):
        w = np.where(hat, coset_elements(*complements(basis, pivots), tp, d),
                     coset_elements(basis, pivots, t, c))
        free = free_mask(basis.shape[2], pivots)
        return w[free].reshape(t.shape), np.take_along_axis(w, pivots, axis=1)

    return reads


def _substitute_reads(rec: WiesnerRecord):
    """``keep_and_substitute``'s guesses on any subspaces: Bob's coset-basis
    read of the fake gives the coset label in a of its computational read v
    (the record's data bit, or a coin where it is a Hadamard qubit), and
    Charlie, who kept the state, reads t' exactly."""
    def reads(basis, pivots, t, tp, coins):
        v = np.where(rec.theta.bits.astype(bool), coins, rec.x.bits)
        return coset_labels(basis, pivots, v)[0], tp

    return reads


def _build_bob_all(params: MoeParams, leak: bool):
    half, m, mp = params.half, params.m, params.m_prime
    wpt = words_for(bit_fields=(half, half))

    def kernel(words):
        r = TrialReader(words)
        tp = r.packed(half)
        guess = r.packed(half)
        bob_ok = np.ones(r.count, dtype=bool)  # Bob measures his own state exactly
        win = _weight(guess ^ tp) <= mp
        return _counters(win, bob_ok)

    return wpt, kernel


def _build_charlie_all(params: MoeParams, leak: bool):
    half, m = params.half, params.m
    wpt = words_for(bit_fields=(half, half))

    def kernel(words):
        r = TrialReader(words)
        t = r.packed(half)
        guess = r.packed(half)
        bob_ok = _weight(guess ^ t) <= m
        return _counters(bob_ok, bob_ok)  # Charlie holds the state: exact

    return wpt, kernel


def _build_mix(params: MoeParams, leak: bool, q: float):
    half, m, mp = params.half, params.m, params.m_prime
    wpt = words_for(bit_fields=(half, half, half), float_fields=(1,))

    def kernel(words):
        r = TrialReader(words)
        coin = r.floats(1)[:, 0] < q
        t = r.packed(half)
        tp = r.packed(half)
        guess = r.packed(half)
        bob_ok = np.where(coin, True, _weight(guess ^ t) <= m)
        win = np.where(coin, _weight(guess ^ tp) <= mp, bob_ok)
        return _counters(win, bob_ok)

    return wpt, kernel


def _build_measure_computational(params: MoeParams, leak: bool):
    half, mp = params.half, params.m_prime
    wpt = words_for(bit_fields=(half, half))

    def kernel(words):
        r = TrialReader(words)
        tp = r.packed(half)
        pivot_bits = r.packed(half)  # Hadamard qubits read computationally: coins
        bob_ok = np.ones(r.count, dtype=bool)  # free coordinates carry t exactly
        win = _weight(pivot_bits ^ tp) <= mp
        return _counters(win, bob_ok)

    return wpt, kernel


def _build_measure_wiesner(params: MoeParams, leak: bool, theta_hat: Gf2Vec):
    n, half, m, mp = params.n, params.half, params.m, params.m_prime
    if theta_hat.n != n:
        raise ValueError("basis-choice length must match the game")
    if params.family == "all":
        return _general_kernel(params, (half, half), _wiesner_reads(theta_hat))
    hat = coordinate_rows(theta_hat.bits)
    coords = coordinate_rows(np.ones(n, dtype=np.uint8))  # the n real coordinates
    wpt = words_for(bit_fields=(half, half, n), key_fields=(n,))

    def kernel(words):
        r = TrialReader(words)
        t = r.packed(half)
        tp = r.packed(half)
        coins = words_to_bytes(r.packed(n)).view(np.uint64)
        pivots = coordinate_rows(top_k_mask(r.keys(n), half))  # the n/2 largest keys: θ = 1
        free = coords ^ pivots
        free_off, pivot_off = _coset_offsets(pivots)
        x = _deposit(t, free, free_off) | _deposit(tp, pivots, pivot_off)
        # a wrong-basis read is a coin; Bob answers the free coordinates,
        # Charlie the pivots, so each distance counts the wrong coins there
        miss = (pivots ^ hat) & (coins ^ x)
        bob_ok = _weight(miss & free) <= m
        win = bob_ok & (_weight(miss & pivots) <= mp)
        return _counters(win, bob_ok)

    return wpt, kernel


def _build_keep_and_substitute(params: MoeParams, leak: bool,
                               substitute: Optional[WiesnerRecord]):
    n, half, m = params.n, params.half, params.m
    rec = substitute if substitute is not None else _zero_record(n)
    if rec.n != n:
        raise ValueError("substitute record length must match the game")
    if params.family == "all":
        return _general_kernel(params, (n,), _substitute_reads(rec))
    rx = coordinate_rows(rec.x.bits)
    rtheta = coordinate_rows(rec.theta.bits)
    coords = coordinate_rows(np.ones(n, dtype=np.uint8))  # the n real coordinates
    wpt = words_for(bit_fields=(half, n), key_fields=(n,))

    def kernel(words):
        r = TrialReader(words)
        t = r.packed(half)
        coins = words_to_bytes(r.packed(n)).view(np.uint64)
        pivots = coordinate_rows(top_k_mask(r.keys(n), half))  # the n/2 largest keys: θ = 1
        free = coords ^ pivots
        free_off, _ = _coset_offsets(pivots)
        # Bob coset-measures the substitute: at each free coordinate he
        # sees the record's data bit when bases agree, a coin otherwise.
        agree = ~(rtheta ^ pivots)
        v = coins ^ ((coins ^ rx) & agree)
        bob_ok = _weight((v ^ _deposit(t, free, free_off)) & free) <= m
        return _counters(bob_ok, bob_ok)  # Charlie kept the state: exact

    return wpt, kernel


def _build_leak_smuggle(params: MoeParams, leak: bool):
    half, m, mp = params.half, params.m, params.m_prime
    wpt = words_for(bit_fields=(half, half, half))

    def kernel(words):
        r = TrialReader(words)
        t = r.packed(half)
        tp = r.packed(half)
        fallback = r.packed(half)
        # Bob answers his measured phase word as the position guess; with the
        # leak on, Charlie echoes it back as the phase guess.
        bob_ok = _weight(tp ^ t) <= m
        charlie = tp if leak else fallback
        win = bob_ok & (_weight(charlie ^ tp) <= mp)
        return _counters(win, bob_ok)

    return wpt, kernel


def _zero_record(n: int) -> WiesnerRecord:
    return WiesnerRecord(x=Gf2Vec.zeros(n), theta=Gf2Vec.zeros(n))


# ------------------------------------------------------------------
# closed forms and the table of kinds
# ------------------------------------------------------------------


def _ball_fraction(half: int, radius: int) -> float:
    """Pr[d(u, v) <= radius] for a uniform u over ``half`` bits and a fixed v."""
    return ball_volume(half, min(radius, half)) / float(1 << half)


def _wiesner_win(params: MoeParams, leak: bool, theta_hat: Gf2Vec) -> Optional[float]:
    """``measure_wiesner``'s win probability on the register family; None on
    the general family, where no closed form is known."""
    if params.family != "register":
        return None
    n, half, m, mp = params.n, params.half, params.m, params.m_prime
    w = theta_hat.weight()
    total = 0.0
    denom = math.comb(n, half)
    for j in range(max(0, half - (n - w)), min(w, half) + 1):
        weight = math.comb(w, j) * math.comb(n - w, half - j) / denom
        # j pivots read in the right basis; the rest are coin flips
        total += weight * _ball_fraction(w - j, m) * _ball_fraction(half - j, mp)
    return total


class _Kind(NamedTuple):
    """A built-in kind: its kernel builder and its closed-form win
    probability, both called as ``(params, leak, **options)``."""

    build: Callable
    win: Callable[..., Optional[float]]


_KINDS = {
    "bob_all": _Kind(_build_bob_all, lambda p, leak: _ball_fraction(p.half, p.m_prime)),
    "charlie_all": _Kind(_build_charlie_all, lambda p, leak: _ball_fraction(p.half, p.m)),
    "mix": _Kind(_build_mix, lambda p, leak, q: (q * _ball_fraction(p.half, p.m_prime)
                                                 + (1.0 - q) * _ball_fraction(p.half, p.m))),
    "measure_computational": _Kind(_build_measure_computational,
                                   lambda p, leak: _ball_fraction(p.half, p.m_prime)),
    "measure_wiesner": _Kind(_build_measure_wiesner, _wiesner_win),
    # the substitute's value never helps beyond chance: for every basis
    # overlap pattern Bob's extracted word is uniform against t
    "keep_and_substitute": _Kind(_build_keep_and_substitute,
                                 lambda p, leak, substitute: _ball_fraction(p.half, p.m)),
    "leak_smuggle": _Kind(_build_leak_smuggle, lambda p, leak: _ball_fraction(p.half, p.m) * (
        1.0 if leak else _ball_fraction(p.half, p.m_prime))),
}

BUILTIN_KINDS = tuple(_KINDS)


def builtin_strategy(
    kind: str,
    *,
    q: float = 0.5,
    theta_hat: Optional[Gf2Vec] = None,
    substitute: Optional[WiesnerRecord] = None,
) -> Strategy:
    """Construct one of the named built-in strategies.

    kinds: ``bob_all`` (Bob keeps everything), ``charlie_all``,
    ``mix`` (coin-weighted routing, weight ``q`` to Bob),
    ``measure_computational`` (measure now, both answer from the record),
    ``measure_wiesner`` (measure each qubit in the guessed basis
    ``theta_hat``), ``keep_and_substitute`` (Charlie keeps the state, Bob
    gets the fixed ``substitute`` fake), and ``leak_smuggle`` (Bob keeps
    everything and smuggles the phase word through his position answer for
    Charlie to echo).
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown built-in strategy {kind!r}")
    if kind == "mix" and not 0.0 <= q <= 1.0:
        raise ValueError("mixing weight q must lie in [0, 1]")
    if kind == "measure_wiesner" and theta_hat is None:
        raise ValueError("measure_wiesner needs a basis choice theta_hat")
    options = {"mix": {"q": q}, "measure_wiesner": {"theta_hat": theta_hat},
               "keep_and_substitute": {"substitute": substitute}}.get(kind)
    return Strategy(functools.partial(_KINDS[kind].build, **(options or {})), kind, options)


def alternating_basis(n: int) -> Gf2Vec:
    """The default basis guess of ``measure_wiesner``: Hadamard at the even
    positions, computational at the odd ones."""
    return Gf2Vec((np.arange(n) % 2 == 0).astype(np.uint8))


def all_builtin_strategies(n: int) -> list[Strategy]:
    """The canonical instance of every built-in kind for dimension n."""
    return [
        builtin_strategy("bob_all"),
        builtin_strategy("charlie_all"),
        builtin_strategy("mix", q=0.5),
        builtin_strategy("measure_computational"),
        builtin_strategy("measure_wiesner", theta_hat=alternating_basis(n)),
        builtin_strategy("keep_and_substitute", substitute=_zero_record(n)),
        builtin_strategy("leak_smuggle"),
    ]


# ------------------------------------------------------------------
# referee
# ------------------------------------------------------------------


def play_leaky(
    params: MoeParams,
    strategy: Strategy,
    *,
    leak: bool = True,
    threads: int = 1,
) -> GameResult:
    """Run the game ``params.trials`` times and tally wins: the strategy's
    kernel runs under ``mc.run_blocks`` over ``threads`` threads on the
    counter stream ``mc.stream_key(seed, _MOE_STREAM)``, so the counts do not
    depend on the thread count."""
    wpt, kernel = strategy.kernel(params, leak)
    wins, bob_ok = (int(c) for c in run_blocks(
        params.trials, wpt, stream_key(params.seed, _MOE_STREAM), kernel, threads=threads
    ))
    return GameResult.from_counts(wins, bob_ok, params.trials)


def moe_experiment(
    params: MoeParams,
    strategy: Strategy,
    *,
    leak: bool = True,
    threads: int = 1,
) -> dict:
    """The game's report: the counts of ``play_leaky``, the strategy's closed
    form, and the verdict against the register-family bound
    ``info.moe_bound``, which the estimate must not pass by more than three
    binomial standard deviations at the bound.  The bound is computed first,
    so radii outside its domain raise before any trial runs."""
    bound = moe_bound(params.n, params.m, params.m_prime)
    result = play_leaky(params, strategy, leak=leak, threads=threads)
    return {
        "experiment": "moe", "kind": strategy.kind, "n": params.n, "family": params.family,
        "m": params.m, "m_prime": params.m_prime, "leak": leak, "trials": params.trials,
        "wins": result.wins,
        "bob_correct": result.bob_correct,
        "estimate": result.estimate,
        "wilson_low": result.wilson_low,
        "wilson_high": result.wilson_high,
        "analytic": strategy.analytic(params, leak),
        "bound": bound,
        "pass": result.estimate <= bound + 3 * binomial_sigma(bound, params.trials),
    }
