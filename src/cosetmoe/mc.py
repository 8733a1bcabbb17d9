"""Counter-based Monte Carlo plumbing shared by the game and protocol harnesses.

Every experiment draws its randomness from its own Philox counter stream,
keyed by ``stream_key(seed, id)`` (key words [seed, 2^63 | id]): the games
(``moe``) and each protocol experiment have their own id, so no two
experiments share words, and none shares words with the per-trial generator
``proto.trial_rng(seed, trial)`` (key words [seed, trial]), which no
experiment uses.  Trial i owns the fixed word window [i*W, (i+1)*W), where W,
the per-trial word budget, is a whole number of Philox blocks (4 x 64-bit
words).  Because the window depends only on (seed, trial index), results are
bit-identical no matter how trials are grouped into blocks or spread over
threads.

``run_blocks`` cuts every run, games and protocols alike, into blocks of
``_BLOCK_WORDS // W`` trials (at least one).  The budget of 2^17 words
(1 MiB) keeps a block's words in a core's L2 cache, so each pass a kernel
makes over the block reads cache, not L3 or memory, whatever the window
width W.  The block size changes speed, never a count.

Every trial, on either subspace family, reads a fixed number of words.  A
general-family subspace of dimension k in GF(2)^n takes n draw keys, each
deciding whether its column is a pivot of the canonical basis, then a k x n
bit field that fills the free entries (``gf2.subspace_fields``).  Each
decision is off by less than 2^-32, so the subspace is within total
variation n * 2^-32 of uniform.

A bit field is read packed: whole uint64 words, bit 0 of the field in the
most significant bit of the first word, with the bits past the field's
length zeroed in a copy (``TrialReader.packed``).  Kernels that only XOR,
mask and count bits work on these words directly (``np.bitwise_count``);
``bits`` is the same field unpacked to one uint8 per bit.

A draw that ranks a subset or decides a noise flip is read as a 32-bit key,
two to a word (``TrialReader.keys``): key 2j of a field is the low 32 bits
of its word j (word & 0xFFFFFFFF) and key 2j+1 the high 32 bits (word >> 32),
so a field of c keys takes ceil(c/2) words and, for odd c, leaves the high
half of its last word unread.  On a little-endian host these are the uint32
halves of the window in memory order, and the keys are a view of it.  A key
k stands for the uniform k * 2^-32: ``u < p`` holds exactly when k is below
``key_threshold(p)`` = ceil(p * 2^32).  Subsets are the k largest keys of a
row (``top_k_mask``); a tie at the k-th key, the only way the subset can
differ from a uniform one, is broken by position, so the total-variation
distance from uniform is at most P[another key ties the k-th key], about
n * 2^-32 (8.8e-7 at n = 3780).  The noise model reads one key per qubit
(``proto.PauliNoise``).  ``floats`` reads the two scalar coins (qecm's
message source, moe's ``mix`` coin) as 53-bit uniforms, one per word.
"""

from __future__ import annotations

import concurrent.futures
import math
import sys
import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "PHILOX_BLOCK_WORDS",
    "round_up_words",
    "stream_key",
    "trial_words",
    "words_to_bytes",
    "bits_from_words",
    "coordinate_rows",
    "keys_from_words",
    "floats_from_words",
    "key_threshold",
    "TrialReader",
    "top_k_mask",
    "words_for",
    "run_blocks",
    "wilson_interval",
    "binomial_sigma",
]

PHILOX_BLOCK_WORDS = 4
_KEY_MASK = (1 << 128) - 1
_WORD_MASK = (1 << 64) - 1
_KEY_BITS = 32
_LITTLE_ENDIAN = sys.byteorder == "little"
_Z_95 = 1.959963984540054
# Words per run_blocks block: 1 MiB, which fits in a core's L2 cache.
_BLOCK_WORDS = 1 << 17
# one Philox bit generator per thread, re-keyed for each window (_philox)
_THREAD_PHILOX = threading.local()


def round_up_words(words: int) -> int:
    """Smallest multiple of the Philox block size that is >= words."""
    return -(-words // PHILOX_BLOCK_WORDS) * PHILOX_BLOCK_WORDS


def stream_key(seed: int, stream: int) -> int:
    """The 128-bit Philox key of a numbered stream of a run seed.

    The key words are [seed, 2^63 | stream].  A plain ``seed`` key is
    [seed, 0] and a (seed, trial) key is [seed, trial], so for any trial
    below 2^63 a numbered stream shares no words with either.
    """
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must fit in 64 bits")
    if not 0 <= stream < 1 << 63:
        raise ValueError("stream id must fit in 63 bits")
    return seed | ((1 << 63 | stream) << 64)


def trial_words(seed: int, words_per_trial: int, start: int, count: int) -> np.ndarray:
    """Raw 64-bit words for trials [start, start+count); row i is trial start+i.

    Philox's counter steps in 4-word blocks, hence the budget must be a block
    multiple for windows to be seekable.
    """
    if words_per_trial <= 0 or words_per_trial % PHILOX_BLOCK_WORDS:
        raise ValueError("words_per_trial must be a positive multiple of 4")
    if start < 0 or count <= 0:
        raise ValueError("trial window must be non-empty and non-negative")
    gen = _philox(seed & _KEY_MASK, start * words_per_trial // PHILOX_BLOCK_WORDS)
    return gen.random_raw(count * words_per_trial).reshape(count, words_per_trial)


def _philox(key: int, counter: int) -> np.random.Philox:
    """This thread's Philox bit generator, set to ``key`` and ``counter``:
    the state of ``Philox(key=key)`` advanced by ``counter`` blocks.  A
    counter-based stream is fixed by its key and counter alone, so one
    generator a thread serves every window and none is built per block.
    Each call sets the whole state: nothing carries over between windows."""
    gen = getattr(_THREAD_PHILOX, "gen", None)
    if gen is None:
        gen = _THREAD_PHILOX.gen = np.random.Philox(key=0)
    gen.state = {
        "bit_generator": "Philox",
        "state": {"counter": _words_of(counter, 4), "key": _words_of(key, 2)},
        "buffer": np.zeros(PHILOX_BLOCK_WORDS, dtype=np.uint64),
        "buffer_pos": PHILOX_BLOCK_WORDS,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def _words_of(value: int, count: int) -> np.ndarray:
    """The ``count`` 64-bit words of a non-negative int, least significant first."""
    return np.array([(value >> (64 * i)) & _WORD_MASK for i in range(count)], dtype=np.uint64)


def words_to_bytes(words: np.ndarray) -> np.ndarray:
    """The big-endian bytes of (T, W) uint64 rows as (T, 8W) uint8: byte 0 of
    a row holds the most significant 8 bits of its first word."""
    return np.ascontiguousarray(words, dtype=">u8").view(np.uint8)


def bits_from_words(words: np.ndarray, nbits: int) -> np.ndarray:
    """Unpack (T, W) uint64 rows into (T, nbits) uint8 bits, MSB first."""
    if nbits > 64 * words.shape[1]:
        raise ValueError("not enough words for requested bits")
    return np.unpackbits(words_to_bytes(words), axis=1, count=nbits)


def coordinate_rows(bits: np.ndarray) -> np.ndarray:
    """(..., n) 0/1 coordinates as coordinate rows: their ``np.packbits``
    bytes, zero-padded to 8 * ceil(n/64), as (..., ceil(n/64)) uint64 words.
    Viewed as ``'>u8'``, bit j of a row is bit 63 - j % 64 of word j // 64."""
    n = bits.shape[-1]
    rows = np.zeros((*bits.shape[:-1], 8 * -(-n // 64)), dtype=np.uint8)
    rows[..., : -(-n // 8)] = np.packbits(bits, axis=-1)
    return rows.view(np.uint64)


def keys_from_words(words: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` 32-bit draw keys of (..., W) uint64 words as
    uint32: key 2j is the low half of word j, key 2j+1 its high half.  A view
    of the words where the host's byte order lays the halves out that way."""
    if count > 2 * words.shape[-1]:
        raise ValueError("not enough words for requested keys")
    if _LITTLE_ENDIAN and words.strides[-1] == words.itemsize:
        return words.view(np.uint32)[..., :count]
    keys = np.empty((*words.shape[:-1], 2 * words.shape[-1]), dtype=np.uint32)
    keys[..., 0::2] = words & np.uint64(0xFFFFFFFF)
    keys[..., 1::2] = words >> np.uint64(_KEY_BITS)
    return keys[..., :count]


def floats_from_words(words: np.ndarray) -> np.ndarray:
    """Map uint64 words to float64 in [0, 1): their top 53 bits times 2^-53."""
    return (words >> np.uint64(11)) * 2.0**-53


def key_threshold(p: float) -> int:
    """The integer ceil(p * 2^32): a key k has k * 2^-32 < p exactly when
    k < key_threshold(p), since scaling by 2^32 is exact.  At p = 1 it is
    2^32, which no uint32 holds: it stays a Python int, which numpy compares
    with uint32 keys exactly."""
    return math.ceil(p * 2.0**_KEY_BITS)


class TrialReader:
    """Carves a block of trial words into named fields, in declaration order.

    The same sequence of ``packed``/``bits``/``keys``/``floats`` calls must
    be made every time a kernel runs, so a field's position in the stream is
    a function of the layout alone.
    """

    def __init__(self, words: np.ndarray):
        self._words = words
        self._pos = 0

    @property
    def count(self) -> int:
        return self._words.shape[0]

    def _take(self, nwords: int) -> np.ndarray:
        if self._pos + nwords > self._words.shape[1]:
            raise ValueError("per-trial word budget exceeded")
        out = self._words[:, self._pos : self._pos + nwords]
        self._pos += nwords
        return out

    def packed(self, nbits: int) -> np.ndarray:
        """The next ``nbits`` bits as (T, ceil(nbits/64)) uint64 words, MSB
        first, with the bits past ``nbits`` zeroed.  The words are a copy, so
        the caller's block is never written."""
        out = self._take(-(-nbits // 64)).copy()
        if nbits % 64:
            out[:, -1] &= np.uint64(_WORD_MASK ^ ((1 << (64 - nbits % 64)) - 1))
        return out

    def bits(self, nbits: int) -> np.ndarray:
        """The next ``nbits`` bits unpacked to (T, nbits) uint8, MSB first."""
        return bits_from_words(self._take(-(-nbits // 64)), nbits)

    def keys(self, count: int) -> np.ndarray:
        """The next ``count`` draws as (T, count) uint32 keys, two to a word
        (``keys_from_words``): a view of the block, never to be written."""
        return keys_from_words(self._take(-(-count // 2)), count)

    def floats(self, count: int) -> np.ndarray:
        """The next ``count`` draws as (T, count) float64 uniforms in [0, 1)."""
        return floats_from_words(self._take(count))


def top_k_mask(keys: np.ndarray, k: int) -> np.ndarray:
    """Uniform k-subsets from iid uint32 draw keys: row-wise uint8 indicators
    of the k largest keys, 1 <= k <= n.  They are the keys at or above the
    row's k-th largest key, found by a partition.  In a row where that key is
    tied, equal keys rank by position, the earlier one higher: the row is
    ranked on the distinct values key * 2^32 + (n - 1 - position), a rule
    that depends on the row alone."""
    if keys.dtype != np.uint32:
        raise ValueError("draw keys must be uint32")
    t, n = keys.shape
    kth = np.partition(keys, n - k, axis=1)[:, n - k, None]
    mask = (keys >= kth).view(np.uint8)
    if np.count_nonzero(mask) != k * t:  # some row holds more than k
        tied = np.flatnonzero(np.count_nonzero(mask, axis=1) != k)
        order = np.arange(n - 1, -1, -1, dtype=np.uint64)
        rank = (keys[tied].astype(np.uint64) << np.uint64(_KEY_BITS)) | order
        mask[tied] = rank >= np.partition(rank, n - k, axis=1)[:, n - k, None]
    return mask


def words_for(
    bit_fields: Sequence[int] = (),
    key_fields: Sequence[int] = (),
    float_fields: Sequence[int] = (),
) -> int:
    """Word budget for a layout: a bit field of b bits takes ceil(b/64) words,
    a key field of c keys ceil(c/2) words, and a float field one word a draw."""
    total = (sum(-(-b // 64) for b in bit_fields) + sum(-(-c // 2) for c in key_fields)
             + sum(float_fields))
    return round_up_words(max(total, 1))


def run_blocks(
    trials: int,
    words_per_trial: int,
    seed: int,
    kernel: Callable[[np.ndarray], np.ndarray],
    threads: int = 1,
) -> np.ndarray:
    """Evaluate ``kernel`` over blocks of trial windows and sum its counters.

    ``kernel`` maps a (T, words_per_trial) uint64 array to an int64 counter
    vector.  A block holds ``max(1, _BLOCK_WORDS // words_per_trial)``
    trials, so its words fit in L2 whatever the window width.  Counters are
    integer sums accumulated in block order, so the total is independent of
    the block size and the thread count.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    block = max(1, _BLOCK_WORDS // words_per_trial)
    spans = [(s, min(block, trials - s)) for s in range(0, trials, block)]

    def one(span: tuple[int, int]) -> np.ndarray:
        start, count = span
        out = np.asarray(kernel(trial_words(seed, words_per_trial, start, count)))
        if out.dtype != np.int64:
            raise ValueError("kernel must return int64 counters")
        return out

    if threads <= 1 or len(spans) == 1:
        parts = [one(span) for span in spans]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(one, spans))
    total = np.zeros_like(parts[0])
    for part in parts:
        total += part
    return total


def wilson_interval(wins: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= wins <= trials:
        raise ValueError("wins must lie in [0, trials]")
    p = wins / trials
    denom = 1.0 + _Z_95 * _Z_95 / trials
    center = (p + _Z_95 * _Z_95 / (2.0 * trials)) / denom
    half = _Z_95 * np.sqrt(
        p * (1.0 - p) / trials + _Z_95 * _Z_95 / (4.0 * trials * trials)) / denom
    low = 0.0 if wins == 0 else max(0.0, float(center - half))
    high = 1.0 if wins == trials else min(1.0, float(center + half))
    return low, high


def binomial_sigma(p: float, trials: int) -> float:
    """Standard deviation of a rate over ``trials`` Bernoulli(p) trials.

    The factor 1 - p uses min(p, 1) and the variance is floored at 1e-12, so
    a band of a few sigma around p in {0, 1}, or around a bound above 1, is
    never empty.
    """
    return math.sqrt(max(p * (1 - min(p, 1.0)), 1e-12) / trials)
