"""Linear algebra over GF(2): vectors, matrices, subspaces, and coset maps.

Everything in here is exact.  Vectors and matrices are immutable wrappers
around uint8 numpy arrays with entries in {0, 1}; addition is XOR.  Subspaces
are stored in canonical form (reduced row echelon basis with zero rows
dropped), so two subspaces are equal iff their stored bases are bit-identical.

The coset-representative map ``coset_rep(a, t)`` injects a label t of length
``n - dim(a)`` into the ambient space by placing its bits, in order, at the
non-pivot coordinates of a's canonical basis.  Distinct labels land in
distinct cosets of ``a``, and the map is linear.  For a register subspace
(one spanned by standard basis vectors) the non-pivot coordinates are exactly
the complementary coordinate positions in increasing order, so the label bits
are simply scattered into those slots.

Every operation on subspaces has one batched form, over a block of T
subspaces held as arrays: (T, k, n) canonical bases and (T, k) pivots.
``eliminate`` reduces a block of matrices, ``complements`` gives the
orthogonal complements, ``coset_elements`` the coset elements
coset_rep(a, t) ⊕ c·A and ``coset_labels`` their inverse (c is v at the
pivots, t is v ⊕ c·A at the free coordinates).  The one-subspace API
(``rref``, ``complement``, ``coset_rep`` and ``Gf2Subspace.free_coords``) is
each form's one-row case.

Random subspaces are drawn in canonical form, as such a block
(``sample_subspaces``): pivot columns from one 32-bit key each, then free
entries from a k x n bit field.  ``Gf2Subspace.from_rref`` wraps one row of
a block where a single subspace object is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .mc import TrialReader, bits_from_words, coordinate_rows, top_k_mask, words_for

__all__ = [
    "Gf2Vec",
    "Gf2Matrix",
    "Gf2Subspace",
    "IndexSubset",
    "eliminate",
    "rref",
    "free_mask",
    "complements",
    "complement",
    "coset_elements",
    "coset_labels",
    "coset_rep",
    "subspace_fields",
    "sample_subspaces",
    "check_family",
    "sample_subspace",
]


_U8 = np.dtype(np.uint8)
# byte -> its low bit, and bit -> ASCII digit, for ``bytes.translate``
_LOW_BIT = bytes(i & 1 for i in range(256))
_DIGIT = bytes.maketrans(b"\x00\x01", b"01")


def _frozen(arr: np.ndarray) -> np.ndarray:
    """The low bits of a uint8 array, flattened, as a fresh read-only array:
    it reads an immutable bytes copy, so it never shares the caller's memory."""
    raw = arr.tobytes()
    if raw.translate(None, b"\x00\x01"):  # an entry above 1: keep its low bit
        raw = raw.translate(_LOW_BIT)
    return np.frombuffer(raw, _U8)


def _hex_width(n: int) -> int:
    """Hex digits that write an n-bit integer: ceil(n/4), at least one."""
    return (n + 3) // 4 or 1


class Gf2Vec:
    """An immutable bit vector.  ``+`` and ``^`` both mean XOR."""

    __slots__ = ("_bits",)

    def __init__(self, bits: Iterable[int]):
        arr = np.asarray(bits, _U8)
        if arr.ndim != 1:
            raise ValueError("expected a one-dimensional bit sequence")
        object.__setattr__(self, "_bits", _frozen(arr))

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, n: int) -> "Gf2Vec":
        return cls(np.zeros(n, dtype=np.uint8))

    @classmethod
    def from_int(cls, value: int, n: int) -> "Gf2Vec":
        """Unpack an integer, most significant bit first (bit 0 of the
        vector is the most significant bit of the integer)."""
        if value < 0 or value >= (1 << n):
            raise ValueError(f"value {value} out of range for {n} bits")
        raw = np.frombuffer(int(value).to_bytes(-(-n // 8), "big"), dtype=np.uint8)
        return cls(np.unpackbits(raw)[-n % 8:])

    # -- views --------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._bits)

    @property
    def bits(self) -> np.ndarray:
        """Read-only uint8 view of the underlying bits."""
        return self._bits

    def to_int(self) -> int:
        return int(self._bits.tobytes().translate(_DIGIT) or b"0", 2)

    def to_hex(self) -> str:
        """Hex string, most significant bit first, width ceil(n/4) digits."""
        return "%0*x" % (_hex_width(len(self._bits)), self.to_int())

    def weight(self) -> int:
        return int(self._bits.sum())

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "Gf2Vec") -> "Gf2Vec":
        if other.n != self.n:
            raise ValueError("length mismatch")
        return Gf2Vec(self._bits ^ other._bits)

    __xor__ = __add__

    # -- protocol plumbing --------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        return int(self._bits[i])

    def __iter__(self) -> Iterator[int]:
        return iter(int(b) for b in self._bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, Gf2Vec) and np.array_equal(self._bits, other._bits)

    def __hash__(self) -> int:
        return hash((self.n, self._bits.tobytes()))

    def __repr__(self) -> str:
        return f"Gf2Vec({''.join(str(int(b)) for b in self._bits)})"


class Gf2Matrix:
    """An immutable matrix over GF(2), stored row-major as uint8."""

    __slots__ = ("_rows",)

    def __init__(self, rows):
        arr = np.asarray(rows, _U8)
        if arr.ndim != 2:
            raise ValueError("expected a two-dimensional bit array")
        object.__setattr__(self, "_rows", _frozen(arr).reshape(arr.shape))

    @property
    def shape(self) -> tuple[int, int]:
        return tuple(self._rows.shape)

    @property
    def rows(self) -> np.ndarray:
        return self._rows

    def transpose(self) -> "Gf2Matrix":
        return Gf2Matrix(self._rows.T)

    def mulvec(self, v: Gf2Vec) -> Gf2Vec:
        if v.n != self.shape[1]:
            raise ValueError("dimension mismatch")
        return Gf2Vec((self._rows @ v.bits) & 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Gf2Matrix) and np.array_equal(self._rows, other._rows)

    def __hash__(self) -> int:
        return hash((self.shape, self._rows.tobytes()))

    def __repr__(self) -> str:
        body = ";".join("".join(str(int(b)) for b in row) for row in self._rows)
        return f"Gf2Matrix({body})"


def eliminate(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon forms of a block of (T, r, c) 0/1 uint8 matrices,
    and the (T, c) mask of their pivot columns; the matrices may differ in
    rank and pivot set.  Each row is held as coordinate-row words
    (``mc.coordinate_rows``: column j is bit 63 - j % 64 of word j // 64), so
    a row operation XORs ceil(c/64) words.  One column at a time over the
    whole block, every matrix with a 1 at or below its next pivot row swaps
    the first such row up and clears the column everywhere else; the loop
    stops once every matrix's pivots fill its rows."""
    t, nrows, ncols = m.shape
    work = coordinate_rows(m).view(">u8").astype(np.uint64)
    is_pivot = np.zeros((t, ncols), dtype=bool)
    row = np.zeros(t, dtype=np.intp)  # each matrix's next pivot row
    below = np.arange(nrows)
    for col in range(ncols):
        if (row == nrows).all():
            break
        hits = (work[:, :, col // 64] & np.uint64(1 << (63 - col % 64))) != 0
        candidates = hits & (below >= row[:, None])
        sel = np.flatnonzero(candidates.any(axis=1))
        if not sel.size:
            continue
        top, first = row[sel], candidates[sel].argmax(axis=1)
        pivot = work[sel, first]
        work[sel, first] = work[sel, top]
        work[sel, top] = pivot
        # every other row with a 1 here: the hits less the pivot row, which
        # the swap moved from ``first`` to ``top``, where the column held 0
        clear = hits[sel]
        clear[np.arange(sel.size), first] = False
        work[sel] ^= clear[:, :, None] * pivot[:, None, :]
        is_pivot[sel, col] = True
        row[sel] += 1
    reduced = bits_from_words(work.reshape(t * nrows, work.shape[2]), ncols)
    return reduced.reshape(t, nrows, ncols), is_pivot


def rref(m: Gf2Matrix) -> tuple[Gf2Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices: ``eliminate``
    on a block of one matrix."""
    reduced, is_pivot = eliminate(m.rows[None])
    return Gf2Matrix(reduced[0]), tuple(np.flatnonzero(is_pivot[0]).tolist())


@dataclass(frozen=True)
class IndexSubset:
    """A sorted subset of coordinate positions within an ambient length n."""

    n: int
    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(set(self.indices)))
        if idx and (idx[0] < 0 or idx[-1] >= self.n):
            raise ValueError("index out of range")
        object.__setattr__(self, "indices", idx)

    @property
    def size(self) -> int:
        return len(self.indices)


class Gf2Subspace:
    """A linear subspace of GF(2)^n in canonical (RREF basis) form.

    The stored basis has no zero rows and its pivot columns are strictly
    increasing, so equality of subspaces is equality of stored bytes.
    ``Gf2Subspace.register`` builds a register subspace without elimination.
    """

    __slots__ = ("_n", "_basis", "_pivots")

    def __init__(self, n: int, generators: Sequence[Gf2Vec] | Gf2Matrix | None):
        if isinstance(generators, Gf2Matrix):
            mat = generators
        elif generators:
            mat = Gf2Matrix([g.bits for g in generators])
        else:
            mat = Gf2Matrix(np.zeros((1, n), dtype=np.uint8))
        if mat.shape[1] != n:
            raise ValueError("generator length does not match ambient dimension")
        reduced, pivots = rref(mat)
        self._store(n, reduced.rows[: len(pivots)], pivots)

    def _store(self, n: int, basis: np.ndarray, pivots: tuple[int, ...]) -> "Gf2Subspace":
        """Set the fields from a basis already in RREF with these pivots."""
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_basis", Gf2Matrix(basis.reshape(len(pivots), n)))
        object.__setattr__(self, "_pivots", pivots)
        return self

    @classmethod
    def register(cls, n: int, positions: Iterable[int]) -> "Gf2Subspace":
        """The register subspace spanned by e_i for i in ``positions``.  Its
        unit rows in increasing position order are the canonical basis, with
        the positions as pivots, so no elimination is needed."""
        pivots = tuple(sorted(set(map(int, positions))))
        if pivots and (pivots[0] < 0 or pivots[-1] >= n):
            raise ValueError("position out of range")
        basis = bytearray(len(pivots) * n)
        for row, col in enumerate(pivots):
            basis[row * n + col] = 1
        return cls.__new__(cls)._store(n, np.frombuffer(basis, _U8), pivots)

    @classmethod
    def from_rref(cls, basis: np.ndarray, pivots: Iterable[int]) -> "Gf2Subspace":
        """The span of a (k, n) basis already in RREF with these k pivot
        columns, such as one row of a ``sample_subspaces`` or ``complements``
        block, stored as it is: no elimination runs."""
        return cls.__new__(cls)._store(basis.shape[1], basis, tuple(map(int, pivots)))

    # -- structure ----------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def dim(self) -> int:
        return len(self._pivots)

    @property
    def basis(self) -> Gf2Matrix:
        return self._basis

    @property
    def pivots(self) -> tuple[int, ...]:
        return self._pivots

    @property
    def free_coords(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(free_mask(self._n, self._pivot_row())[0]).tolist())

    def _pivot_row(self) -> np.ndarray:
        """The pivots as a (1, dim) block."""
        return np.array(self._pivots, dtype=np.intp).reshape(1, -1)

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        """``{"n": n, "basis": [...]}``, each basis row as ``Gf2Vec.to_hex``
        writes it."""
        n, width = self._n, _hex_width(self._n)
        digits = self._basis.rows.tobytes().translate(_DIGIT)
        return {
            "n": n,
            "basis": ["%0*x" % (width, int(digits[i * n:(i + 1) * n], 2))
                      for i in range(self.dim)],
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Gf2Subspace)
            and self._n == other._n
            and self._basis == other._basis
        )

    def __hash__(self) -> int:
        return hash((self._n, self._basis))

    def __repr__(self) -> str:
        rows = ["".join(str(int(b)) for b in r) for r in self._basis.rows]
        return f"Gf2Subspace(n={self._n}, basis=[{', '.join(rows)}])"


def free_mask(n: int, pivots: np.ndarray) -> np.ndarray:
    """The (T, n) mask of the non-pivot coordinates of a block of (T, k)
    pivot columns in GF(2)^n.  Read in row-major order, its set entries are
    each row's free coordinates in ascending order, the slots of its label."""
    free = np.ones((len(pivots), n), dtype=bool)
    free[np.arange(len(pivots))[:, None], pivots] = False
    return free


def complements(basis: np.ndarray, pivots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The orthogonal complements, under the standard bilinear form, of a
    block of (T, k, n) canonical bases with (T, k) pivots, as the (T, n - k,
    n) canonical bases and (T, n - k) pivots of a⊥.  a⊥ is the null space of
    the basis A: its generator for free coordinate f is e_f plus A's entry
    (i, f) at each pivot p_i, so ``complements`` of its output gives a back."""
    t, k, n = basis.shape
    free = np.nonzero(free_mask(n, pivots))[1].reshape(t, n - k)
    rows, gen = np.arange(t)[:, None], np.arange(n - k)
    gens = np.zeros((t, n - k, n), dtype=np.uint8)
    gens[rows, gen, free] = 1
    # entry (j, p_i) of generator j is A's entry (i, f_j)
    gens[rows[:, :, None], gen[:, None], pivots[:, None, :]] = np.take_along_axis(
        basis, free[:, None, :], axis=2).transpose(0, 2, 1)
    reduced, is_pivot = eliminate(gens)
    return reduced, np.nonzero(is_pivot)[1].reshape(t, n - k)


def complement(a: Gf2Subspace) -> Gf2Subspace:
    """The orthogonal complement, ``complements`` of a block of one, so
    ``complement(complement(a)) == a`` exactly."""
    basis, pivots = complements(a.basis.rows[None], a._pivot_row())
    return Gf2Subspace.from_rref(basis[0], pivots[0])


def coset_elements(basis: np.ndarray, pivots: np.ndarray, t: np.ndarray,
                   c: np.ndarray) -> np.ndarray:
    """Row i is the coset element s_i ⊕ c_i·A_i, for A_i the i-th of a block
    of (T, k, n) canonical bases with (T, k) pivots and s_i = coset_rep(a_i,
    t_i): (T, n - k) labels and (T, k) coefficients to (T, n) uint8."""
    v = np.einsum("ti,tij->tj", c, basis) & 1
    v[free_mask(basis.shape[2], pivots)] ^= t.ravel()
    return v


def coset_labels(basis: np.ndarray, pivots: np.ndarray,
                 v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inverse of ``coset_elements``: (T, n) strings v to their labels t
    and coefficients c, where c is v at the pivots and t is v ⊕ c·A at the
    free coordinates (A is the identity at its pivots)."""
    t_rows, k, n = basis.shape
    c = np.take_along_axis(v, pivots, axis=1)
    u = np.einsum("ti,tij->tj", c, basis) & 1
    return (v ^ u)[free_mask(n, pivots)].reshape(t_rows, n - k), c


def coset_rep(a: Gf2Subspace, t: Gf2Vec) -> Gf2Vec:
    """Canonical representative of the coset labelled t, for t of length
    ``n - dim(a)``: label bits go to the non-pivot coordinates of a's
    canonical basis, zeros elsewhere (``coset_elements`` with c = 0)."""
    if t.n != a.n - a.dim:
        raise ValueError(f"label length {t.n} != {a.n - a.dim} free coordinates")
    c = np.zeros((1, a.dim), dtype=np.uint8)
    return Gf2Vec(coset_elements(a.basis.rows[None], a._pivot_row(), t.bits[None], c)[0])


def subspace_fields(n: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(bit_fields, key_fields) of a subspace draw: n pivot keys, then a k x n fill field."""
    return (k * n,), (n,)


def _random_rref(keys: np.ndarray, fill: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(T, n) uint32 keys and (T, k*n) fill bits to (T, k, n) RREF bases and
    (T, k) pivots.  With m columns and r pivots left, a column is a pivot with
    the share 2^(m-r) [m-1 choose r-1]_2 / [m choose r]_2 = (1 - 2^-r) / (1 - 2^-m)
    of the canonical forms, when its key is below ``mc.key_threshold`` of that.
    Entry (i, j), j a non-pivot column right of pivot i, is fill bit i*n + j."""
    t, n = keys.shape
    left = np.full(t, k, dtype=np.int32)
    is_pivot = np.empty((t, n), dtype=bool)
    for j in range(n):
        p = (1 - np.ldexp(1.0, -left)) / (1 - math.ldexp(1.0, j - n))
        is_pivot[:, j] = keys[:, j] < np.ceil(p * 2.0**32)
        left -= is_pivot[:, j]
    pivots = np.nonzero(is_pivot)[1].reshape(t, k)
    free = (np.arange(n) > pivots[:, :, None]) & ~is_pivot[:, None, :]
    basis = fill.reshape(t, k, n) & free
    basis[np.arange(t)[:, None], np.arange(k), pivots] = 1
    return basis, pivots


def sample_subspaces(r: TrialReader, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """A uniform k-dimensional subspace of GF(2)^n per row of a block, from
    the fields ``subspace_fields`` lays out, as (T, k, n) canonical bases and
    (T, k) pivots, within total variation n * 2^-32 of uniform (each pivot
    decision is off by < 2^-32); no elimination runs."""
    return _random_rref(r.keys(n), r.bits(k * n), k)


def check_family(family: str) -> None:
    """Raise unless ``family`` names a subspace family: "register" (spanned
    by unit vectors) or "all"."""
    if family not in ("register", "all"):
        raise ValueError(f"unknown subspace family {family!r}")


def sample_subspace(n: int, family: str, rng: np.random.Generator) -> Gf2Subspace:
    """A uniform dimension-n/2 subspace from the next raw words of ``rng``'s
    bit generator: on family "register" spanned by the unit vectors at the
    n/2 largest of n keys (``mc.top_k_mask``), on "all" the one row of a
    ``sample_subspaces`` block."""
    if n % 2:
        raise ValueError("ambient dimension must be even")
    check_family(family)
    half = n // 2
    fields = subspace_fields(n, half) if family == "all" else ((), (n,))
    r = TrialReader(rng.bit_generator.random_raw(words_for(*fields))[None, :])
    if family == "register":
        return Gf2Subspace.register(n, np.flatnonzero(top_k_mask(r.keys(n), half)[0]))
    basis, pivots = sample_subspaces(r, n, half)
    return Gf2Subspace.from_rref(basis[0], pivots[0])
