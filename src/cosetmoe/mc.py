"""Counter-based Monte Carlo plumbing shared by the game and protocol harnesses.

Every batch experiment draws its randomness from a Philox counter stream keyed
by the run seed (the games, key words [seed, 0]) or by ``stream_key(seed, id)``
(each protocol experiment, key words [seed, 2^63 | id]), so no two batch
experiments share words.  The games' key is also the key of the per-trial
generator ``proto.trial_rng(seed, 0)``: a games stream and trial 0 of ``tfkw``
or of a statevector path start on the same words.  Trial i owns the fixed word
window [i*W, (i+1)*W), where W, the per-trial word budget, is a whole number
of Philox blocks (4 x 64-bit words).  Because the window depends only on
(seed, trial index), results are bit-identical no matter how trials are
grouped into blocks or spread over threads.

A bit field is read packed: whole uint64 words, bit 0 of the field in the
most significant bit of the first word, with the bits past the field's
length zeroed in a copy (``TrialReader.packed``).  Kernels that only XOR,
mask and count bits work on these words directly (``np.bitwise_count``);
``bits`` is the same field unpacked to one uint8 per bit.

A draw is read as a key: the top 53 bits of one word as an integer
(``TrialReader.keys``).  ``floats`` scales the same keys by 2^-53, so keys
rank and tie exactly as those uniforms do, and ``u < p`` holds exactly when
the key is below ceil(p * 2^53) (``key_threshold``).  Subsets are ranked on
keys (``top_k_mask``), and noise flips compare keys with integer thresholds
(``proto.PauliNoise``).
"""

from __future__ import annotations

import concurrent.futures
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "PHILOX_BLOCK_WORDS",
    "round_up_words",
    "stream_key",
    "trial_words",
    "words_to_bytes",
    "bits_from_words",
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
_Z_95 = 1.959963984540054


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

    ``Philox.advance`` steps the counter in 4-word blocks, hence the budget
    must be a block multiple for windows to be seekable.
    """
    if words_per_trial <= 0 or words_per_trial % PHILOX_BLOCK_WORDS:
        raise ValueError("words_per_trial must be a positive multiple of 4")
    if start < 0 or count <= 0:
        raise ValueError("trial window must be non-empty and non-negative")
    gen = np.random.Philox(key=seed & _KEY_MASK)
    gen.advance(start * words_per_trial // PHILOX_BLOCK_WORDS)
    raw = gen.random_raw(count * words_per_trial)
    return raw.reshape(count, words_per_trial)


def words_to_bytes(words: np.ndarray) -> np.ndarray:
    """The big-endian bytes of (T, W) uint64 rows as (T, 8W) uint8: byte 0 of
    a row holds the most significant 8 bits of its first word."""
    return np.ascontiguousarray(words, dtype=">u8").view(np.uint8)


def bits_from_words(words: np.ndarray, nbits: int) -> np.ndarray:
    """Unpack (T, W) uint64 rows into (T, nbits) uint8 bits, MSB first."""
    if nbits > 64 * words.shape[1]:
        raise ValueError("not enough words for requested bits")
    return np.unpackbits(words_to_bytes(words), axis=1, count=nbits)


def keys_from_words(words: np.ndarray) -> np.ndarray:
    """The draw keys of uint64 words: their top 53 bits, as uint64."""
    return words >> np.uint64(11)


def floats_from_words(words: np.ndarray) -> np.ndarray:
    """Map uint64 words to float64 in [0, 1): their keys times 2^-53."""
    return keys_from_words(words) * 2.0**-53


def key_threshold(p: float) -> np.uint64:
    """The integer ceil(p * 2^53): a key k has k * 2^-53 < p exactly when
    k < key_threshold(p), since scaling by 2^53 is exact."""
    return np.uint64(math.ceil(p * 2.0**53))


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
        """The next ``count`` draws as (T, count) uint64 keys in [0, 2^53)."""
        return keys_from_words(self._take(count))

    def floats(self, count: int) -> np.ndarray:
        """The next ``count`` draws as (T, count) float64 uniforms in [0, 1)."""
        return floats_from_words(self._take(count))


def top_k_mask(keys: np.ndarray, k: int) -> np.ndarray:
    """Uniform k-subsets from iid draw keys: row-wise uint8 indicators of the
    k largest keys, 1 <= k <= n.  They are the keys at or above the row's
    k-th largest key, found by a partition.  A row where that key is tied,
    which 53-bit keys almost never produce, takes its k from an argpartition
    of its draws as floats instead, a rule that depends on the row alone."""
    t, n = keys.shape
    kth = np.partition(keys, n - k, axis=1)[:, n - k, None]
    mask = (keys >= kth).view(np.uint8)
    if np.count_nonzero(mask) != k * t:  # some row holds more than k
        tied = np.flatnonzero(np.count_nonzero(mask, axis=1) != k)
        top = np.argpartition(keys[tied] * 2.0**-53, n - k, axis=1)[:, n - k :]
        mask[tied] = 0
        mask[tied[:, None], top] = 1
    return mask


def words_for(bit_fields: Sequence[int] = (), float_fields: Sequence[int] = ()) -> int:
    """Word budget for a layout; each bit field occupies whole words."""
    total = sum(-(-b // 64) for b in bit_fields) + sum(float_fields)
    return round_up_words(max(total, 1))


def run_blocks(
    trials: int,
    words_per_trial: int,
    seed: int,
    kernel: Callable[[np.ndarray], np.ndarray],
    threads: int = 1,
    block: int = 1 << 14,
) -> np.ndarray:
    """Evaluate ``kernel`` over blocks of trial windows and sum its counters.

    ``kernel`` maps a (T, words_per_trial) uint64 array to an int64 counter
    vector.  Counters are integer sums accumulated in block order, so the
    total is independent of the thread count.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
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


def wilson_interval(wins: int, trials: int, z: float = _Z_95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= wins <= trials:
        raise ValueError("wins must lie in [0, trials]")
    p = wins / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * np.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
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
