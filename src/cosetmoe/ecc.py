"""Binary linear codes: syndromes, coset-leader decoding, and syndrome-targeted correction.

Four code families cover everything the protocol stack needs:

* ``hamming74``          -- the [7,4,3] Hamming code (small-n protocol demos)
* ``repetition(b)``      -- the [b,1,b] repetition code
* ``block_repeat(b,k)``  -- k independent repetition blocks, a [bk,k,b] code whose
                            decoding stays per-block and therefore scales to the
                            key-distribution completeness experiment
* ``random_linear(N,K,seed)`` -- a uniform random [N,K] code with enumerated distance

Coset-leader decoding uses the minimum-weight representative of each syndrome's
coset, ties broken toward the lexicographically smallest vector.  The explicit
leader table is only materialised for syndrome lengths <= 20 bits; repetition
and block-repeat codes decode through a closed form instead, so they work at
any size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .gf2 import (Gf2Matrix, Gf2Subspace, Gf2Vec, complement, complements, sample_subspaces,
                  subspace_fields)
from .mc import TrialReader, words_for

__all__ = [
    "LinearCode",
    "make_code",
    "make_code_from_config",
    "syndrome_batch",
    "leader_batch",
    "align_batch",
]

# Largest syndrome length a code without block structure can be decoded at:
# its dense (2^s, N) leader lookup has at most 2^20 rows.
_DECODER_MAX_SYNDROME_BITS = 20

# Words per chunk of the leader scan: bounds its memory at any weight.
_SCAN_CHUNK = 1 << 16

# Codeword enumeration guard: dimension cap and total-byte cap.
_ENUM_MAX_DIMENSION = 20
_ENUM_MAX_BYTES = 1 << 27


@dataclass(frozen=True)
class LinearCode:
    """An [N, K, d] binary linear code with parity-check and generator matrices.

    Immutable after construction; instances may be shared freely across
    threads.  ``kind`` records the family and its parameters, e.g.
    ``("block_repeat", 63, 30)``.
    """

    kind: tuple
    length: int
    dimension: int
    parity_check: Gf2Matrix
    generator: Gf2Matrix
    distance: int

    @property
    def syndrome_length(self) -> int:
        return self.length - self.dimension

    @property
    def block_params(self) -> tuple[int, int] | None:
        """(block length, block count) for repetition-structured codes, else None."""
        if self.kind[0] == "repetition":
            return self.kind[1], 1
        if self.kind[0] == "block_repeat":
            return self.kind[1], self.kind[2]
        return None

    def has_decoder(self) -> bool:
        """Whether coset-leader decoding is available for this code."""
        return (
            self.block_params is not None
            or self.syndrome_length <= _DECODER_MAX_SYNDROME_BITS
        )

    @cached_property
    def _dense_leaders(self) -> np.ndarray:
        """(2^s, N) uint8 leader lookup; row σ is the leader of syndrome σ.

        Scans words in order of increasing weight, every word of one weight
        at once (in chunks).  Within one weight, ``itertools.combinations``
        yields the 0/1 words in decreasing lexicographic order, so the last
        word met with a syndrome is the smallest: it wins the tie.
        """
        s = self.syndrome_length
        if s > _DECODER_MAX_SYNDROME_BITS:
            raise ValueError(
                f"leader table needs syndrome length <= {_DECODER_MAX_SYNDROME_BITS}, got {s}"
            )
        n = self.length
        place = 1 << np.arange(s - 1, -1, -1, dtype=np.int64)
        column_keys = self.parity_check.rows.T.astype(np.int64) @ place
        leaders = np.zeros((1 << s, n), dtype=np.uint8)
        found_weight = np.full(1 << s, -1, dtype=np.int64)
        found_weight[0] = 0  # the zero word
        for w in range(1, n + 1):
            if (found_weight >= 0).all():
                break
            words = itertools.combinations(range(n), w)
            while True:
                flat = np.fromiter(
                    itertools.chain.from_iterable(itertools.islice(words, _SCAN_CHUNK)),
                    dtype=np.intp,
                )
                if not flat.size:
                    break
                support = flat.reshape(-1, w)
                keys = np.bitwise_xor.reduce(column_keys[support], axis=1)
                uniq, first_from_end = np.unique(keys[::-1], return_index=True)
                last = keys.shape[0] - 1 - first_from_end
                open_ = (found_weight[uniq] < 0) | (found_weight[uniq] == w)
                uniq, last = uniq[open_], last[open_]
                found_weight[uniq] = w
                leaders[uniq] = 0
                leaders[uniq[:, None], support[last]] = 1
        if (found_weight < 0).any():
            raise AssertionError("parity-check matrix is not full row rank")
        return leaders

    @cached_property
    def min_weight_codeword(self) -> Gf2Vec:
        """A nonzero codeword of minimum weight (deterministic choice).

        Block-structured codes return the last block set to ones (the
        lexicographically smallest minimum-weight codeword); other codes
        enumerate and return the lexicographically smallest one.
        """
        bp = self.block_params
        if bp is not None:
            b, _ = bp
            bits = np.zeros(self.length, dtype=np.uint8)
            bits[self.length - b :] = 1
            return Gf2Vec(bits)
        words = _codewords(self.generator.rows)
        candidates = words[words.sum(axis=1) == self.distance]
        order = np.lexsort(candidates.T[::-1])
        return Gf2Vec(candidates[order[0]])

    def __repr__(self) -> str:  # pragma: no cover
        tag = ",".join(str(p) for p in self.kind[1:])
        return (
            f"LinearCode({self.kind[0]}({tag}) "
            f"[{self.length},{self.dimension},{self.distance}])"
        )


def _codewords(gen: np.ndarray) -> np.ndarray:
    """All 2^k codewords spanned by the k rows of ``gen``, one per row."""
    k, n = gen.shape
    if k > _ENUM_MAX_DIMENSION or (1 << k) * n > _ENUM_MAX_BYTES:
        raise ValueError("codeword enumeration too large (dimension must be <= 20)")
    words = np.zeros((1, n), dtype=np.uint8)
    for row in gen:
        words = np.concatenate([words, words ^ row], axis=0)
    return words


def _min_nonzero_weight(gen: np.ndarray) -> int:
    """Minimum weight over all nonzero codewords, by full enumeration."""
    weights = _codewords(gen).sum(axis=1)
    return int(weights[weights > 0].min())


def _repetition_parity_check(b: int) -> np.ndarray:
    """Rows x_i + x_{b-1} for i < b-1: the canonical parity check of [b,1,b]."""
    h = np.zeros((b - 1, b), dtype=np.uint8)
    h[np.arange(b - 1), np.arange(b - 1)] = 1
    h[:, b - 1] = 1
    return h


def make_code(kind: str, *params: int) -> LinearCode:
    """Construct one of the supported code families.

    make_code("hamming74")
    make_code("repetition", b)
    make_code("block_repeat", b, k)
    make_code("random_linear", N, K, seed)
    """
    if kind == "hamming74":
        if params:
            raise ValueError("hamming74 takes no parameters")
        # Column j is the 3-bit binary expansion of j+1: nonzero and distinct.
        cols = [[(j >> (2 - r)) & 1 for j in range(1, 8)] for r in range(3)]
        h = Gf2Matrix(np.array(cols, dtype=np.uint8))
        g = complement(Gf2Subspace(7, h)).basis
        code = LinearCode(("hamming74",), 7, 4, h, g, _min_nonzero_weight(g.rows))
        if code.distance != 3:
            raise AssertionError("hamming74 distance enumeration disagrees")
        return code
    if kind == "repetition":
        (b,) = params
        if b < 2:
            raise ValueError("repetition code needs block length >= 2")
        g = Gf2Matrix(np.ones((1, b), dtype=np.uint8))
        return LinearCode(
            ("repetition", b), b, 1, Gf2Matrix(_repetition_parity_check(b)), g, b
        )
    if kind == "block_repeat":
        b, k = params
        if b < 2 or k < 1:
            raise ValueError("block_repeat needs block length >= 2 and >= 1 blocks")
        n = b * k
        g = np.zeros((k, n), dtype=np.uint8)
        h = np.zeros((k * (b - 1), n), dtype=np.uint8)
        hb = _repetition_parity_check(b)
        for j in range(k):
            g[j, j * b : (j + 1) * b] = 1
            h[j * (b - 1) : (j + 1) * (b - 1), j * b : (j + 1) * b] = hb
        code = LinearCode(
            ("block_repeat", b, k), n, k, Gf2Matrix(h), Gf2Matrix(g), b
        )
        if k <= _ENUM_MAX_DIMENSION and (1 << k) * n <= _ENUM_MAX_BYTES:
            if _min_nonzero_weight(g) != b:
                raise AssertionError("block_repeat distance enumeration disagrees")
        return code
    if kind == "random_linear":
        n, k, seed = params
        if not (1 <= k < n and type(seed) is int and 0 <= seed < 1 << 128):
            raise ValueError("random_linear needs 1 <= K < N and an integer seed below 2^128")
        if k > _ENUM_MAX_DIMENSION:
            raise ValueError("random_linear dimension must be <= 20 (distance enumeration)")
        words = np.random.Philox(key=seed).random_raw(words_for(*subspace_fields(n, k)))
        basis, pivots = sample_subspaces(TrialReader(words[None, :]), n, k)
        g = Gf2Matrix(basis[0])
        h = Gf2Matrix(complements(basis, pivots)[0][0])
        return LinearCode(
            ("random_linear", n, k, seed), n, k, h, g, _min_nonzero_weight(g.rows)
        )
    raise ValueError(f"unknown code kind {kind!r}")


def make_code_from_config(cfg: dict) -> LinearCode:
    """Build a code from a config mapping {"kind": ..., "params": [...]}.

    Codes are immutable, so a config seen in one of the last two calls
    returns the code already built, with its leader lookup: repeated runs
    in one process (sweeps, the benchmark) skip rebuilding, for example,
    the 3.5 MB parity check of block_repeat(63, 30).
    """
    if not isinstance(cfg, dict):
        raise ValueError(f"code config must be a mapping, not {cfg!r}")
    extra = set(cfg) - {"kind", "params"}
    if extra:
        raise ValueError(f"unknown code config keys: {sorted(extra)}")
    kind, params = cfg.get("kind"), cfg.get("params", [])
    if not isinstance(kind, str):
        raise ValueError(f"code kind must be a string, not {kind!r}")
    if not isinstance(params, (list, tuple)) or any(type(p) is not int for p in params):
        raise ValueError(f"code params must be a list of integers, not {params!r}")
    return _cached_code(kind, tuple(params))


@lru_cache(maxsize=2)
def _cached_code(kind: str, params: tuple[int, ...]) -> LinearCode:
    return make_code(kind, *params)


def _block_leader(block_params: tuple[int, int], syn_bits: np.ndarray) -> np.ndarray:
    """Closed-form per-block leaders for repetition-structured codes.

    Per block the syndrome sigma fixes the coset {(sigma, 0), (~sigma, 1)},
    whose words weigh w and b − w for w = |sigma|.  The leader is the lighter
    one, ties (2w = b, even block length) going to the lexicographically
    smaller one, which is decided by sigma's first bit.  So one flag per block,
    flip = 2w > b or (2w = b and sigma_0 = 1), picks the leader: it is
    (sigma ^ flip, flip).  w is summed in 32 bits: exact, since no block has
    2^31 bits, and faster than a 64-bit sum or ``np.count_nonzero``.
    """
    b, k = block_params
    sig = syn_bits.reshape(*syn_bits.shape[:-1], k, b - 1)
    w2 = 2 * sig.sum(axis=-1, dtype=np.int32)
    flip = ((w2 > b) | ((w2 == b) & (sig[..., 0] != 0))).view(np.uint8)
    out = np.empty(sig.shape[:-1] + (b,), dtype=np.uint8)
    np.bitwise_xor(sig, flip[..., None], out=out[..., : b - 1])
    out[..., b - 1] = flip
    return out.reshape(*syn_bits.shape[:-1], k * b)


# ---------------------------------------------------------------------------
# The coding operations, one trial per row of `words` / `syns` / `targets`.

def syndrome_batch(code: LinearCode, words: np.ndarray) -> np.ndarray:
    words = np.asarray(words, dtype=np.uint8)
    if words.shape[-1] != code.length:
        raise ValueError(f"expected row length {code.length}")
    bp = code.block_params
    if bp is not None:
        b, k = bp
        blk = words.reshape(*words.shape[:-1], k, b)
        sig = blk[..., : b - 1] ^ blk[..., b - 1 :]
        return sig.reshape(*words.shape[:-1], k * (b - 1))
    h = code.parity_check.rows
    # float matmul hits BLAS; exact for counts below 2^53
    prod = words.astype(np.float64) @ h.T.astype(np.float64)
    return (prod.astype(np.int64) & 1).astype(np.uint8)


def leader_batch(code: LinearCode, syns: np.ndarray) -> np.ndarray:
    syns = np.asarray(syns, dtype=np.uint8)
    if syns.shape[-1] != code.syndrome_length:
        raise ValueError(f"expected syndrome row length {code.syndrome_length}")
    bp = code.block_params
    if bp is not None:
        return _block_leader(bp, syns)
    if not code.has_decoder():
        raise ValueError("no vectorised decoder for this code")
    place = 1 << np.arange(code.syndrome_length - 1, -1, -1, dtype=np.int64)
    return code._dense_leaders[syns @ place]


def align_batch(code: LinearCode, t_primes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Move each row t' onto its target syndrome by adding the leader of the
    syndrome gap: tbar = t' + leader(syndrome(t') + target).

    Always satisfies syndrome(tbar) = target, so tbar and any other string
    with that syndrome differ by a codeword; and whenever the target is the
    syndrome of a string within the packing radius of t', tbar recovers that
    string exactly.  A target row must hold ``syndrome_length`` bits.
    """
    targets = np.asarray(targets, dtype=np.uint8)
    if targets.shape[-1:] != (code.syndrome_length,):
        raise ValueError(f"expected target row length {code.syndrome_length}")
    gaps = syndrome_batch(code, t_primes) ^ targets
    return np.asarray(t_primes, dtype=np.uint8) ^ leader_batch(code, gaps)
