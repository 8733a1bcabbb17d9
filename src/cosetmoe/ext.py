"""Two-universal hashing via Toeplitz matrices, and the leftover-hash error.

A Toeplitz matrix over GF(2) with ``ell`` rows and ``n_in`` columns is fixed
by its first row and first column, so a seed of n_in + ell − 1 bits picks one
uniformly.  Seed layout: bits 0..n_in−1 are the first row left to right; the
remaining bits continue down the first column from row 1.

So row i of T(seed) is the slice seed[0 : n_in − i] on columns i..n_in−1,
after the tail seed[n_in : n_in + i] reversed on columns 0..i−1.  Both are
pieces of one string, e = (seed[n_in:] reversed, then seed[:n_in]): row i is
the contiguous slice e[ell − 1 − i : ell − 1 − i + n_in].  The extractor never
builds the matrix.  It reads the ell slices of e as a strided view, and each
output bit is the parity of the input's dot product with its slice.
"""

from __future__ import annotations

import numpy as np

from .gf2 import Gf2Matrix, Gf2Vec

__all__ = ["ToeplitzExtractor", "lhl_epsilon"]


class ToeplitzExtractor:
    """Linear extractor x ↦ T(seed)·x mapping n_in bits to ell bits."""

    def __init__(self, n_in: int, ell: int):
        if not 1 <= ell <= n_in:
            raise ValueError("output length must satisfy 1 ≤ ell ≤ n_in")
        self.n_in = n_in
        self.ell = ell
        self.seed_len = n_in + ell - 1

    def _slices(self, seeds) -> np.ndarray:
        """(trials, n_in, ell) uint8 view whose column i, for trial t, is the
        slice e[ell − 1 − i : ell − 1 − i + n_in] of that trial's e: row i of
        T(seeds[t])."""
        seeds = np.asarray(seeds, dtype=np.uint8)
        if seeds.shape[-1] != self.seed_len:
            raise ValueError(f"seed must have {self.seed_len} bits")
        n_in, ell = self.n_in, self.ell
        e = np.concatenate([seeds[:, : n_in - 1 : -1], seeds[:, :n_in]], axis=1)
        start = ell - 1 if e.size else 0  # an empty block has no slice to start
        return np.ndarray((e.shape[0], n_in, ell), np.uint8, e, start, (e.strides[0], 1, -1))

    def matrix_from_seed(self, seed: Gf2Vec) -> Gf2Matrix:
        return Gf2Matrix(self._slices(seed.bits[None, :])[0].T)

    def extract(self, x: Gf2Vec, seed: Gf2Vec) -> Gf2Vec:
        if x.n != self.n_in:
            raise ValueError(f"input must have {self.n_in} bits")
        return self.matrix_from_seed(seed).mulvec(x)

    def extract_batch(self, xs: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        """Vectorized extract: seeds (trials × seed_len) and xs (trials × n_in),
        or a stack (... × trials × n_in) of inputs that share the seeds, whose
        slices are then read once.  Returns uint8 bits shaped like xs with
        ell columns.  Each input row is one uint8 matmul with its trial's
        slices; the sums wrap mod 256 and so keep their parity, and every
        byte of xs and seeds counts by its low bit, as in ``Gf2Vec``."""
        return (np.asarray(xs, dtype=np.uint8)[..., None, :] @ self._slices(seeds))[..., 0, :] & 1


def lhl_epsilon(kappa: float, ell: int) -> float:
    """Leftover-hash error 2^{(ell − kappa)/2 − 1} for hashing a source of
    min-entropy kappa down to ell bits with a two-universal family."""
    if ell < 1:
        raise ValueError("output length must be positive")
    return float(2.0 ** ((ell - kappa) / 2.0 - 1.0))
