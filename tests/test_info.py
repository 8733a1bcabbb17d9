import math
from fractions import Fraction

import numpy as np
import pytest

from cosetmoe.info import (
    NEG_LG_COS_PI_8,
    BoundsReport,
    DensityOp,
    ball_volume,
    binary_entropy,
    combinatorial_sum,
    gamma_star,
    moe_bound,
    protocol_bounds,
    psd_sqrt,
    sequential_min_entropy_fixed,
    trace_distance,
    verify_combinatorial_bound,
)


def random_density(dim, rng, trace=1.0):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = x @ x.conj().T
    return m * (trace / m.trace().real)


def random_onb_projectors(dim, rng):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(x)
    return [np.outer(q[:, i], q[:, i].conj()) for i in range(dim)]


def nondestructive_measure(rho, povm):
    """Branches √P_s ρ √P_s of the nondestructive measurement channel,
    in POVM order; they sum to a valid state when ρ is one."""
    roots = [psd_sqrt(p) for p in povm]
    return [r @ rho @ r for r in roots]


# -------------------------------------------------------------- scalars


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0)
    assert binary_entropy(0.25) == pytest.approx(0.811278, abs=1e-6)
    assert binary_entropy(0.3) == binary_entropy(0.7)
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


def test_ball_volume():
    assert ball_volume(7, 0) == 1
    assert ball_volume(4, 1) == 5
    assert ball_volume(6, 6) == 64
    with pytest.raises(ValueError):
        ball_volume(4, 5)
    for n in range(1, 65):
        for m in range(0, n // 2 + 1):
            assert ball_volume(n, m) <= 2.0 ** (n * binary_entropy(m / n)) * (1 + 1e-12)


def test_moe_bound_values():
    assert moe_bound(10) == pytest.approx(0.747, abs=1e-3)
    for n in (4, 10, 30):
        ratio = moe_bound(n + 2) / moe_bound(n)
        assert ratio == pytest.approx(math.cos(math.pi / 8) ** 2, rel=1e-12)
    assert moe_bound(8, 1, 0) == pytest.approx(8.30, abs=5e-3)
    with pytest.raises(ValueError):
        moe_bound(7)
    with pytest.raises(ValueError):
        moe_bound(8, 3, 0)  # radius beyond n/4
    with pytest.raises(ValueError):
        moe_bound(8, 0, -1)


def test_combinatorial_sum_exact_small_case():
    pair = combinatorial_sum(2)
    assert pair.p == Fraction(1, 2) and pair.q == Fraction(1, 2)
    assert float(pair) == pytest.approx((1 + 2**-0.5) / 2)
    assert abs(float(pair) - math.cos(math.pi / 8) ** 2) < 1e-12


def test_combinatorial_sum_float_cross_check():
    for n in (2, 6, 14, 40):
        direct = sum(
            math.comb(n // 2, k) ** 2 * 2.0 ** (-k / 2) for k in range(n // 2 + 1)
        ) / math.comb(n, n // 2)
        assert float(combinatorial_sum(n)) == pytest.approx(direct, rel=1e-12)


def test_combinatorial_sum_below_moe_bound():
    for n in range(2, 61, 2):
        assert verify_combinatorial_bound(n)
        assert float(combinatorial_sum(n)) <= moe_bound(n)


def test_gamma_star():
    g = gamma_star()
    assert 0.0150 <= g <= 0.0156
    assert abs(binary_entropy(g) - NEG_LG_COS_PI_8) < 1e-8
    assert binary_entropy(g - 0.001) < NEG_LG_COS_PI_8 < binary_entropy(g + 0.001)


# ------------------------------------------------------ protocol_bounds


def test_binding_bound_example():
    rep = protocol_bounds(n=14, d=3, eta=2 / 7)
    assert rep.values["binding_bound"] == pytest.approx(16 / 49, rel=1e-9)


def test_completeness_bound_example():
    n = 3780
    rep = protocol_bounds(n=n, d=63, gamma=0.03, delta=0.005)
    expected = math.exp(-((0.03 - 0.005) ** 2) * n) + math.exp(
        -((2 * 63 / n - 0.005) ** 2) * n
    )
    assert rep.values["completeness_bound"] == pytest.approx(expected, rel=1e-12)
    assert rep.values["completeness_bound"] == pytest.approx(0.142, abs=1e-3)
    vacuous = protocol_bounds(n=100, d=10, gamma=0.05, delta=0.05)
    assert vacuous.values["completeness_bound"] >= 1.0
    assert vacuous.clamped("completeness_bound") == 1.0


@pytest.mark.parametrize("d, gamma, delta, expected", [
    # delta >= gamma: the estimate's tail is the trivial 1
    (8, 0.05, 0.1, 1.0 + math.exp(-((2 * 8 / 64 - 0.1) ** 2) * 64)),
    # delta >= 2d/n: the decoding tail is the trivial 1
    (2, 0.3, 0.1, math.exp(-((0.3 - 0.1) ** 2) * 64) + 1.0),
    # both: formerly exp(-0.0625 * 64) + exp(-0.0025 * 64) = 0.870
    (8, 0.05, 0.3, 2.0),
])
def test_completeness_bound_outside_its_hypotheses_is_vacuous(d, gamma, delta, expected):
    rep = protocol_bounds(n=64, d=d, gamma=gamma, delta=delta)
    assert rep.values["completeness_bound"] == pytest.approx(expected, rel=1e-12)
    assert rep.clamped("completeness_bound") == 1.0


def test_secrecy_bound_and_kappas():
    rep = protocol_bounds(n=64, s=8, eta=1 / 16, gamma=0.01, kappa=4.0, ell=2)
    v = rep.values
    assert v["extractor_epsilon"] == pytest.approx(2.0 ** ((2 - 4) / 2 - 1))
    lhs = 2.0 ** (32 * binary_entropy(0.01)) * v["extractor_epsilon"]
    rhs = 2.0 ** (
        -(NEG_LG_COS_PI_8 - binary_entropy(0.01) - 1 / (2 * math.log(2) * 64)) * 32
    )
    assert v["secrecy_bound"] == pytest.approx(max(lhs, rhs), rel=1e-12)
    assert v["kappa_min_interactive_encryption"] == pytest.approx(
        NEG_LG_COS_PI_8 / 2 * 64 - 1 / (4 * math.log(2))
    )
    assert v["kappa_max_commitment"] == pytest.approx(
        v["kappa_min_interactive_encryption"] - 8 - 2.0
    )
    rate = NEG_LG_COS_PI_8 - 2 * 8 / 64 - 2 / 16 - 1 / (2 * math.log(2) * 64)
    assert v["kappa_max_key_distribution"] == pytest.approx(rate * 32)
    assert v["kappa_max_key_distribution_ambient"] == pytest.approx(rate * 64)


def test_bounds_report_shape():
    rep = protocol_bounds(n=8, m=1, m_prime=0)
    js = rep.to_json()
    assert js["robust_moe_bound"] > 1.0
    assert js["robust_moe_bound_clamped"] == 1.0
    assert js["moe_bound_clamped"] == js["moe_bound"]
    assert js["params"]["n"] == 8
    with pytest.raises(ValueError):
        protocol_bounds(n=7)


# ------------------------------------------------------- density algebra


def test_density_op_validation():
    with pytest.raises(ValueError):
        DensityOp(np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOp(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityOp(np.eye(2))  # trace 2
    sub = DensityOp(0.25 * np.eye(2))
    assert sub.trace == pytest.approx(0.5)


def test_trace_distance_examples():
    rng = np.random.default_rng(3)
    rho = DensityOp(random_density(4, rng))
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)
    p0 = DensityOp(np.diag([1.0, 0.0]))
    p1 = DensityOp(np.diag([0.0, 1.0]))
    assert trace_distance(p0, p1) == pytest.approx(1.0)
    a = DensityOp(np.diag([0.6, 0.4]))
    b = DensityOp(np.diag([0.5, 0.5]))
    assert trace_distance(a, b) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        trace_distance(p0, DensityOp(np.eye(4) / 4))


def test_trace_distance_triangle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        r = DensityOp(random_density(3, rng))
        s = DensityOp(random_density(3, rng))
        t = DensityOp(random_density(3, rng))
        assert trace_distance(r, t) <= trace_distance(r, s) + trace_distance(s, t) + 1e-10


def test_psd_sqrt_and_measure_channel():
    rng = np.random.default_rng(7)
    m = random_density(4, rng)
    root = psd_sqrt(m)
    assert np.allclose(root @ root, m, atol=1e-10)
    povm = random_onb_projectors(4, rng)
    branches = nondestructive_measure(m, povm)
    total = sum(b.trace().real for b in branches)
    assert total == pytest.approx(1.0, abs=1e-10)
    for b in branches:
        assert np.linalg.eigvalsh(b).min() > -1e-10


# ------------------------------------------- sequential min-entropy


def _classical_copy_state():
    """X uniform 1 bit copied into A; Y uniform 1 bit copied into B."""
    dim = 2 * 2 * 2 * 2
    rho = np.zeros((dim, dim), dtype=np.complex128)
    t = rho.reshape(2, 2, 2, 2, 2, 2, 2, 2)
    for x in range(2):
        for y in range(2):
            t[x, y, x, y, x, y, x, y] = 0.25
    return DensityOp(rho)


def test_sequential_perfect_copies():
    comp = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    out = sequential_min_entropy_fixed(_classical_copy_state(), (2, 2, 2, 2), comp, comp)
    assert out.value == pytest.approx(0.0, abs=1e-12)
    assert out.first_term == pytest.approx(0.0, abs=1e-12)
    assert out.second_term == pytest.approx(0.0, abs=1e-12)


def test_sequential_trivial_side_information():
    # A is 1-dimensional: best fixed M is the uniform split {I/2, I/2};
    # B carries a perfect copy of Y
    dim = 2 * 2 * 1 * 2
    rho = np.zeros((dim, dim), dtype=np.complex128)
    t = rho.reshape(2, 2, 1, 2, 2, 2, 1, 2)
    for x in range(2):
        for y in range(2):
            t[x, y, 0, y, x, y, 0, y] = 0.25
    m_povm = [np.array([[0.5]]), np.array([[0.5]])]
    n_povm = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    out = sequential_min_entropy_fixed(DensityOp(rho), (2, 2, 1, 2), m_povm, n_povm)
    assert out.first_term == pytest.approx(1.0)
    assert out.second_term == pytest.approx(0.0, abs=1e-12)
    assert out.value == pytest.approx(1.0)


def random_ccqq_state(rng, nx=2, ny=2, da=2, db=2):
    dim = nx * ny * da * db
    rho = np.zeros((dim, dim), dtype=np.complex128)
    t = rho.reshape(nx, ny, da, db, nx, ny, da, db)
    weights = rng.random((nx, ny))
    weights /= weights.sum()
    for x in range(nx):
        for y in range(ny):
            t[x, y, :, :, x, y, :, :] = random_density(da * db, rng, weights[x, y]).reshape(
                da, db, da, db
            )
    return DensityOp(rho)


def nested_trace_oracle(rho, dims, m_povm, n_povm):
    """Independent route: explicit nondestructive-measurement branches."""
    nx, ny, da, db = dims
    t = rho.mat.reshape(nx, ny, da, db, nx, ny, da, db)
    total = 0.0
    for x in range(nx):
        for y in range(ny):
            block = t[x, y, :, :, x, y, :, :].reshape(da * db, da * db)
            branch_m = nondestructive_measure(
                block, [np.kron(p, np.eye(db)) for p in m_povm]
            )[x]
            branch_n = nondestructive_measure(
                branch_m, [np.kron(np.eye(da), q) for q in n_povm]
            )[y]
            total += branch_n.trace().real
    return -math.log2(total)


def test_sequential_decomposition_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        rho = random_ccqq_state(rng)
        m_povm = random_onb_projectors(2, rng)
        n_povm = random_onb_projectors(2, rng)
        out = sequential_min_entropy_fixed(rho, (2, 2, 2, 2), m_povm, n_povm)
        assert out.value == pytest.approx(
            nested_trace_oracle(rho, (2, 2, 2, 2), m_povm, n_povm), abs=1e-10
        )
        assert out.value == pytest.approx(out.first_term + out.second_term, abs=1e-10)


def test_sequential_povm_validation():
    rho = _classical_copy_state()
    bad = [np.diag([1.0, 0.0]), np.diag([0.0, 0.5])]
    with pytest.raises(ValueError):
        sequential_min_entropy_fixed(rho, (2, 2, 2, 2), bad, bad)


# --------------------------------------------- shift-averaging lemma


def test_swap_meet_identity_small():
    rng = np.random.default_rng(13)
    nbits = 2
    nx = 1 << nbits
    m = 1
    ball = [0]
    for i in range(nbits):
        ball.append(1 << i)  # integer XOR masks of weight ≤ 1
    for _ in range(5):
        blocks = [random_density(3, rng, trace=1.0 / nx) for _ in range(nx)]
        povm = random_onb_projectors(3, rng)[:nx] if nx <= 3 else None
        if povm is None:
            # need nx outcomes on A: use dimension nx for the measured register
            blocks = [random_density(nx, rng, trace=1.0 / nx) for _ in range(nx)]
            povm = random_onb_projectors(nx, rng)
        roots = [psd_sqrt(p) for p in povm]
        for y in range(nx):
            lhs = np.zeros_like(blocks[0])
            for x in range(nx):
                if bin(x ^ y).count("1") <= m:
                    lhs = lhs + roots[y] @ blocks[x] @ roots[y]
            avg = sum(blocks[y ^ u] for u in ball) / len(ball)
            rhs = len(ball) * (roots[y] @ avg @ roots[y])
            assert np.abs(lhs - rhs).max() < 1e-10


# ------------------------------------------------- conditioning lemma


def test_and_tropy_classical_small():
    rng = np.random.default_rng(17)
    for _ in range(20):
        probs = rng.random((3, 3, 3))
        probs /= probs.sum()
        y0 = int(rng.integers(0, 3))
        # guessing mass of X from A on the Y=y0 partial state
        partial = sum(probs[:, y0, a].max() for a in range(3))
        # guessing mass of X from (A, Y) on the full state
        full = sum(probs[:, y, a].max() for y in range(3) for a in range(3))
        assert -math.log2(partial) >= -math.log2(full) - 1e-12
