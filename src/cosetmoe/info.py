"""Information measures and every closed-form security bound used here.

Covers: binary entropy, Hamming-ball volumes, the monogamy-game winning
bounds (plain and distance-robust), the exact combinatorial sum they rest
on, binding/correctness and completeness bounds for the interactive
protocols, the key-secrecy bound, the noise-tolerance root, trace distance,
and the fixed-measurement sequential min-entropy of a state measured by one
party and then, on success, by another.

Exact pieces (ball volumes, the combinatorial sum) use integer/rational
arithmetic; the sum's odd terms carry √½ symbolically as pairs p + q·√½ of
rationals, and comparisons against the transcendental bound go through
mpmath at high precision.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np

from .ext import lhl_epsilon

__all__ = [
    "DensityOp",
    "BoundsReport",
    "HalfRootPair",
    "binary_entropy",
    "ball_volume",
    "moe_bound",
    "combinatorial_sum",
    "verify_combinatorial_bound",
    "protocol_bounds",
    "gamma_star",
    "trace_distance",
    "sequential_min_entropy_fixed",
    "SequentialMinEntropy",
    "psd_sqrt",
    "NEG_LG_COS_PI_8",
]

_ATOL = 1e-10
_DIM_CAP = 1 << 12
# mpmath digits for the exact side of the combinatorial bound; the margin
# dwarfs the rounding error at this precision
_DPS = 60
# bisection width at which gamma_star stops
_GAMMA_TOL = 1e-9

#: −lg cos(π/8), the per-qubit rate every security statement is built from.
NEG_LG_COS_PI_8 = -math.log2(math.cos(math.pi / 8))


# ------------------------------------------------------------------
# scalar bounds
# ------------------------------------------------------------------


def binary_entropy(x: float) -> float:
    """h(x) = −x·lg x − (1−x)·lg(1−x), with h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("binary entropy argument must lie in [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def ball_volume(n: int, m: int) -> int:
    """|B(n, m)| = Σ_{k≤m} C(n, k), exact."""
    if not 0 <= m <= n:
        raise ValueError("radius must satisfy 0 ≤ m ≤ n")
    return sum(math.comb(n, k) for k in range(m + 1))


def moe_bound(n: int, m: int = 0, m_prime: int = 0) -> float:
    """Winning-probability bound for the leaky monogamy game over register
    subspaces: √e·(cos π/8)^n, with robustness factors
    2^{(n/2)h(2m/n) + (n/4)h(2m'/n)} when the players only need to land
    within Hamming distance m (first player) and m' (second)."""
    if n % 2:
        raise ValueError("ambient dimension must be even")
    if m < 0 or m_prime < 0:
        raise ValueError("radii must be nonnegative")
    if (m or m_prime) and (m > n / 4 or m_prime > n / 4):
        raise ValueError("robust radii must not exceed n/4")
    base = math.sqrt(math.e) * math.cos(math.pi / 8) ** n
    if m == 0 and m_prime == 0:
        return base
    exponent = (n / 2) * binary_entropy(2 * m / n) + (n / 4) * binary_entropy(
        2 * m_prime / n
    )
    return base * 2.0 ** exponent


@dataclass(frozen=True)
class HalfRootPair:
    """Exact element p + q·√½ of the ring of rationals extended by √½."""

    p: Fraction
    q: Fraction

    def __add__(self, other: "HalfRootPair") -> "HalfRootPair":
        return HalfRootPair(self.p + other.p, self.q + other.q)

    def scale(self, c: Fraction) -> "HalfRootPair":
        return HalfRootPair(self.p * c, self.q * c)

    def to_mpf(self) -> mpmath.mpf:
        with mpmath.workdps(_DPS):
            return mpmath.mpf(self.p.numerator) / self.p.denominator + (
                mpmath.mpf(self.q.numerator) / self.q.denominator
            ) * mpmath.sqrt(mpmath.mpf(1) / 2)

    def __float__(self) -> float:
        return float(self.p) + float(self.q) / math.sqrt(2.0)


def combinatorial_sum(n: int) -> HalfRootPair:
    """The exact average (1/C(n, n/2)) Σ_{k=0}^{n/2} C(n/2, k)² 2^{−k/2},
    carried in Z[√½]."""
    if n % 2 or n < 2:
        raise ValueError("n must be even and at least 2")
    half = n // 2
    total = HalfRootPair(Fraction(0), Fraction(0))
    for k in range(half + 1):
        c2 = Fraction(math.comb(half, k) ** 2)
        if k % 2 == 0:
            term = HalfRootPair(c2 / (1 << (k // 2)), Fraction(0))
        else:
            term = HalfRootPair(Fraction(0), c2 / (1 << ((k - 1) // 2)))
        total = total + term
    return total.scale(Fraction(1, math.comb(n, half)))


def verify_combinatorial_bound(n: int) -> bool:
    """Exact-side check that combinatorial_sum(n) ≤ √e·(cos π/8)^n, with the
    transcendental side evaluated at ``_DPS`` digits."""
    lhs = combinatorial_sum(n).to_mpf()
    with mpmath.workdps(_DPS):
        rhs = mpmath.sqrt(mpmath.e) * mpmath.cos(mpmath.pi / 8) ** n
        return bool(lhs <= rhs)


@functools.cache
def gamma_star() -> float:
    """Root of h(γ) = −lg cos(π/8) on (0, 1/2): the largest tolerated error
    rate before the key-secrecy exponent goes nonnegative.  A constant, so
    the bisection runs once per process."""
    target = NEG_LG_COS_PI_8
    lo, hi = 1e-15, 0.5
    while hi - lo > _GAMMA_TOL:
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ------------------------------------------------------------------
# aggregated report
# ------------------------------------------------------------------

#: bound names whose values are probabilities (reported raw and clamped)
_PROB_FIELDS = (
    "moe_bound",
    "robust_moe_bound",
    "binding_bound",
    "completeness_bound",
    "secrecy_bound",
    "extractor_epsilon",
)


@dataclass
class BoundsReport:
    """Every closed-form bound computable from one parameter set."""

    params: dict
    values: dict = field(default_factory=dict)

    def clamped(self, name: str) -> float:
        return min(1.0, max(0.0, self.values[name]))

    def to_json(self) -> dict:
        out: dict = {"params": dict(self.params)}
        for name, val in self.values.items():
            out[name] = val
            if name in _PROB_FIELDS:
                out[name + "_clamped"] = self.clamped(name)
        return out


def protocol_bounds(
    n: int,
    m: int | None = None,
    m_prime: int | None = None,
    d: int | None = None,
    s: int | None = None,
    eta: float | None = None,
    gamma: float | None = None,
    delta: float | None = None,
    kappa: float | None = None,
    ell: int | None = None,
    epsilon: float | None = None,
) -> BoundsReport:
    """Assemble every bound the supplied parameters allow.

    n: ambient dimension (the quantum register size; code words live on n/2
    bits).  d: code distance.  s: syndrome length.  eta: fraction of the n/2
    block revealed for spot checks.  gamma: tolerated error fraction.
    delta: physical flip probability per qubit per basis.  kappa: assumed
    min-entropy at the extractor input; ell: extracted key length; epsilon:
    extractor error (derived from kappa/ell when absent).

    Raises on parameters no code, source or probability can have: n must be
    even and positive, 1 <= d <= n/2 (so the binding base 1 - 2d/n is not
    negative), s and kappa must lie in [0, n/2] (a syndrome of, and the
    min-entropy of, an n/2-bit string), kappa must be a real number and not
    a bool, and eta, gamma, delta and epsilon must lie in [0, 1].
    """
    if n <= 0 or n % 2:
        raise ValueError("ambient dimension must be even and positive")
    if d is not None and not 1 <= d <= n // 2:
        raise ValueError("code distance d must lie in [1, n/2]")
    if kappa is not None and (isinstance(kappa, bool) or not isinstance(kappa, numbers.Real)):
        raise ValueError("kappa must be a real number")
    for name, value in (("syndrome length s", s), ("kappa", kappa)):
        if value is not None and not 0 <= value <= n // 2:
            raise ValueError(f"{name} must lie in [0, n/2]")
    for name, value in (("eta", eta), ("gamma", gamma), ("delta", delta),
                        ("epsilon", epsilon)):
        if value is not None and not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    params = {
        k: v
        for k, v in [
            ("n", n), ("m", m), ("m_prime", m_prime), ("d", d), ("s", s),
            ("eta", eta), ("gamma", gamma), ("delta", delta),
            ("kappa", kappa), ("ell", ell), ("epsilon", epsilon),
        ]
        if v is not None
    }
    rep = BoundsReport(params=params)
    vals = rep.values
    vals["moe_bound"] = moe_bound(n)
    if m is not None or m_prime is not None:
        vals["robust_moe_bound"] = moe_bound(n, m or 0, m_prime or 0)
    if d is not None and eta is not None:
        vals["binding_bound"] = (1.0 - 2.0 * d / n) ** (eta * n / 2.0)
    if gamma is not None and delta is not None and d is not None:
        # two Hoeffding tails exp(-(c - delta)^2 n), c = gamma and c = 2d/n;
        # each holds only for delta < c, and is the trivial bound 1 otherwise
        vals["completeness_bound"] = sum(
            math.exp(-((cut - delta) ** 2) * n) if delta < cut else 1.0
            for cut in (gamma, 2.0 * d / n)
        )
    eps = epsilon
    if eps is None and kappa is not None and ell is not None:
        eps = lhl_epsilon(kappa, ell)
    if eps is not None:
        vals["extractor_epsilon"] = eps
    if gamma is not None and eps is not None:
        vals["secrecy_bound"] = max(
            2.0 ** ((n / 2.0) * binary_entropy(gamma)) * eps,
            2.0
            ** (
                -(NEG_LG_COS_PI_8 - binary_entropy(gamma) - 1.0 / (2.0 * math.log(2) * n))
                * n
                / 2.0
            ),
        )
    vals["kappa_min_interactive_encryption"] = (
        NEG_LG_COS_PI_8 / 2.0 * n - 1.0 / (4.0 * math.log(2))
    )
    if s is not None and eta is not None:
        vals["kappa_max_commitment"] = (
            NEG_LG_COS_PI_8 / 2.0 * n - 1.0 / (4.0 * math.log(2)) - s - eta * n / 2.0
        )
        rate = (
            NEG_LG_COS_PI_8
            - 2.0 * s / n
            - 2.0 * eta
            - 1.0 / (2.0 * math.log(2) * n)
        )
        # the two displayed prefactor conventions are both surfaced: the
        # half-block form is the one the key-secrecy statement uses
        vals["kappa_max_key_distribution"] = rate * n / 2.0
        vals["kappa_max_key_distribution_ambient"] = rate * n
    vals["gamma_star"] = gamma_star()
    return rep


# ------------------------------------------------------------------
# density operators
# ------------------------------------------------------------------


class DensityOp:
    """A (possibly subnormalized) density operator with validation."""

    __slots__ = ("mat", "dim")

    def __init__(self, mat: np.ndarray):
        mat = np.asarray(mat, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density operator must be square")
        if mat.shape[0] > _DIM_CAP:
            raise ValueError("dimension exceeds cap")
        if np.abs(mat - mat.conj().T).max() > _ATOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        eigs = np.linalg.eigvalsh(mat)
        if eigs.min() < -_ATOL:
            raise ValueError("matrix has a negative eigenvalue beyond tolerance")
        if eigs.sum() > 1.0 + 1e-9:
            raise ValueError("trace exceeds 1")
        self.mat = mat
        self.dim = mat.shape[0]

    @property
    def trace(self) -> float:
        return float(self.mat.trace().real)


def trace_distance(rho: DensityOp, sigma: DensityOp) -> float:
    """½ Σ |eigenvalues of ρ − σ|."""
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    eigs = np.linalg.eigvalsh(rho.mat - sigma.mat)
    return float(0.5 * np.abs(eigs).sum())


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD matrix (small negative eigenvalues
    from roundoff are clipped)."""
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


# ------------------------------------------------------------------
# sequential min-entropy at fixed measurements
# ------------------------------------------------------------------


@dataclass(frozen=True)
class SequentialMinEntropy:
    """−lg of the nested conditioned trace, with its two-term split:
    first the guessing entropy of X from M(A), then that of Y from N(B) on
    the state conditioned on the first guess having succeeded."""

    value: float
    first_term: float
    second_term: float
    success_trace: float


def _validate_povm(povm: Sequence[np.ndarray], dim: int) -> None:
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for p in povm:
        p = np.asarray(p)
        if p.shape != (dim, dim):
            raise ValueError("POVM element dimension mismatch")
        if np.abs(p - p.conj().T).max() > _ATOL:
            raise ValueError("POVM element is not Hermitian")
        if np.linalg.eigvalsh(p).min() < -_ATOL:
            raise ValueError("POVM element is not positive semidefinite")
        acc = acc + p
    if np.abs(acc - np.eye(dim)).max() > _ATOL:
        raise ValueError("POVM does not sum to the identity")


def sequential_min_entropy_fixed(
    rho: DensityOp,
    dims: tuple[int, int, int, int],
    m_povm: Sequence[np.ndarray],
    n_povm: Sequence[np.ndarray],
) -> SequentialMinEntropy:
    """Sequential min-entropy of (X, Y) against measurements M on A then N
    on B, at these fixed POVMs.

    ``rho`` lives on X ⊗ Y ⊗ A ⊗ B with X, Y classical (block diagonal);
    ``dims`` = (|X|, |Y|, dim A, dim B); m_povm has |X| elements on A and
    n_povm has |Y| elements on B.

    The value applies the nondestructive measurement of M, keeps the
    branches where the outcome equals X, then does the same with N against
    Y, and takes −lg of the surviving trace.  The decomposition terms are
    computed from the success probability of the first stage and the
    normalized post-success state.
    """
    nx, ny, da, db = dims
    if rho.dim != nx * ny * da * db:
        raise ValueError("state dimension does not match dims")
    if len(m_povm) != nx or len(n_povm) != ny:
        raise ValueError("POVM count must match classical alphabet size")
    _validate_povm(m_povm, da)
    _validate_povm(n_povm, db)
    tensor = rho.mat.reshape(nx, ny, da, db, nx, ny, da, db)
    # classicality of X, Y: off-diagonal classical blocks must vanish
    for x in range(nx):
        for y in range(ny):
            for x2 in range(nx):
                for y2 in range(ny):
                    if (x, y) != (x2, y2):
                        if np.abs(tensor[x, y, :, :, x2, y2, :, :]).max() > 1e-8:
                            raise ValueError("X, Y registers are not classical")
    m_roots = [psd_sqrt(p) for p in m_povm]
    n_roots = [psd_sqrt(q) for q in n_povm]
    first_trace = 0.0
    total_trace = 0.0
    for x in range(nx):
        for y in range(ny):
            block = tensor[x, y, :, :, x, y, :, :].reshape(da * db, da * db)
            ma = np.kron(m_roots[x], np.eye(db))
            after_m = ma @ block @ ma
            first_trace += float(after_m.trace().real)
            nb = np.kron(np.eye(da), n_roots[y])
            after_n = nb @ after_m @ nb
            total_trace += float(after_n.trace().real)
    value = -math.log2(total_trace)
    first_term = -math.log2(first_trace)
    # second stage evaluated on the normalized post-success state
    second_term = -math.log2(total_trace / first_trace)
    return SequentialMinEntropy(value, first_term, second_term, total_trace)
