"""Two-universal hashing via Toeplitz matrices, and the leftover-hash error.

A Toeplitz matrix over GF(2) with ``ell`` rows and ``n_in`` columns is fixed
by its first row and first column, so a seed of n_in + ell − 1 bits picks one
uniformly.  Seed layout: bits 0..n_in−1 are the first row left to right; the
remaining bits continue down the first column from row 1.
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
        # entry (i, j) of T(seed) is seed bit _index[i, j]
        rows = np.arange(ell)[:, None]
        cols = np.arange(n_in)[None, :]
        self._index = np.where(cols >= rows, cols - rows, n_in + (rows - cols) - 1)

    def matrix_from_seed(self, seed: Gf2Vec) -> Gf2Matrix:
        if seed.n != self.seed_len:
            raise ValueError(f"seed must have {self.seed_len} bits")
        return Gf2Matrix(seed.bits[self._index])

    def extract(self, x: Gf2Vec, seed: Gf2Vec) -> Gf2Vec:
        if x.n != self.n_in:
            raise ValueError(f"input must have {self.n_in} bits")
        return self.matrix_from_seed(seed).mulvec(x)

    def extract_batch(self, xs: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        """Vectorized extract: seeds (trials × seed_len) and xs (trials × n_in),
        or a stack (... × trials × n_in) of inputs that share the seeds, whose
        matrices are then built once.  Returns uint8 bits shaped like xs with
        ell columns.  The products sum uint8 bits, which wrap mod 256 and so
        keep their parity."""
        mats = np.asarray(seeds, dtype=np.uint8)[:, self._index]
        return np.einsum("tij,...tj->...ti", mats, np.asarray(xs, dtype=np.uint8)) & 1


def lhl_epsilon(kappa: float, ell: int) -> float:
    """Leftover-hash error 2^{(ell − kappa)/2 − 1} for hashing a source of
    min-entropy kappa down to ell bits with a two-universal family."""
    if ell < 1:
        raise ValueError("output length must be positive")
    return float(2.0 ** ((ell - kappa) / 2.0 - 1.0))
