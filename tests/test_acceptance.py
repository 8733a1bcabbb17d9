"""Acceptance gate: one test per stated criterion, at the stated sizes.

Each test computes its measurement, prints a single ``criterion NN: PASS/FAIL``
line with the observed value, and then asserts.  Run with ``-v`` to get the
per-criterion verdicts from the test names as well.  A criterion that
``selftest`` also checks runs its row of ``cli.CHECKS`` at the row's full size.
"""

import inspect
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from cosetmoe import cli, moe
from cosetmoe.ecc import make_code
from cosetmoe.ext import ToeplitzExtractor, lhl_epsilon
from cosetmoe.gf2 import Gf2Vec, coset_rep, sample_subspace
from cosetmoe.info import DensityOp, moe_bound, sequential_min_entropy_fixed
from cosetmoe.mc import coordinate_rows
from cosetmoe.moe import MoeParams, all_builtin_strategies, play_leaky
from cosetmoe.proto import (
    PauliNoise,
    QecmParams,
    QkdParams,
    UrbcParams,
    qecm_experiment,
    riqkd_experiment,
    urbc_hiding_exact,
)
from cosetmoe.qsim import CosetDescriptor, prepare_coset_state
from statevector_referee import coset_overlap, intersect, vectors

SEED = 20260817


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _full_size(num: int, seed: int = SEED) -> tuple[bool, str]:
    """Run criterion ``num``'s row of the check table at its full size."""
    row = next(r for r in cli.CHECKS if r.criterion == num)
    ok, value = row.run(row.full, seed, 1)
    return ok, f"{row.name} at its full size: {value:.6g}"


def test_criterion_01_coset_basis_orthonormality():
    # the full size covers every subspace: [2 choose 1]_2 = 3, [4 choose 2]_2 = 35
    assert [len(list(cli._half_subspaces(n, "all"))) for n in (2, 4)] == [3, 35]
    _verdict(1, *_full_size(1))


def _wiesner_product(x, theta):
    acc = np.array([1.0 + 0j])
    for xi, ti in zip(x, theta):
        if ti == 0:
            q = np.array([1.0, 0.0]) if xi == 0 else np.array([0.0, 1.0])
        else:
            q = np.array([1.0, 1.0 - 2.0 * xi]) / math.sqrt(2)
        acc = np.kron(acc, q.astype(np.complex128))
    return acc


def _register_records(theta, t, tp):
    """Data bits x of the conjugate-coding records of register coset states,
    one per row of (θ, t, t'), deposited as the moe register kernels deposit
    them: t on the θ=0 coordinates and t' on the θ=1 ones, in order."""
    def packed(bits):  # as TrialReader.packed words: bit 0 on top of word 0
        padded = np.zeros((bits.shape[0], 64 * -(-bits.shape[1] // 64)), dtype=np.uint8)
        padded[:, : bits.shape[1]] = bits
        return np.packbits(padded, axis=1).view(">u8").astype(np.uint64)

    pivots = coordinate_rows(theta)
    free_off, pivot_off = moe._coset_offsets(pivots)
    x = (moe._deposit(packed(t), coordinate_rows(1 - theta), free_off)
         | moe._deposit(packed(tp), pivots, pivot_off))
    return np.unpackbits(x.view(np.uint8), axis=1, count=theta.shape[1])


def test_criterion_02_wiesner_equivalence():
    # every (t, t') label of a subspace in one block, t in the top three bits
    labels = np.unpackbits(np.arange(64, dtype=np.uint8)[:, None], axis=1)[:, 2:]
    rng = np.random.default_rng(SEED)
    worst = 1.0
    for _ in range(50):
        a = sample_subspace(6, "register", rng)
        theta = np.zeros(6, dtype=np.uint8)
        theta[list(a.pivots)] = 1
        records = _register_records(np.tile(theta, (64, 1)), labels[:, :3], labels[:, 3:])
        for x, label in zip(records, labels):
            d = CosetDescriptor(a, Gf2Vec(label[:3]), Gf2Vec(label[3:]))
            sv = prepare_coset_state(d).amps
            worst = min(worst, abs(np.vdot(_wiesner_product(x, theta), sv)))
    _verdict(2, abs(worst - 1.0) <= 1e-10,
             f"min |overlap| {worst:.12f} over 50 subspaces x 64 labels at n=6")


def test_criterion_03_combinatorial_bound_exact():
    _verdict(3, *_full_size(3))


def test_criterion_04_overlap_lemma():
    rng = np.random.default_rng(SEED + 1)
    worst_slack = -1.0
    for n in (4, 6):
        half = n // 2
        for _ in range(100):
            a = sample_subspace(n, "all", rng)
            b = sample_subspace(n, "all", rng)
            d = CosetDescriptor(
                a,
                Gf2Vec(rng.integers(0, 2, half, dtype=np.uint8)),
                Gf2Vec(rng.integers(0, 2, half, dtype=np.uint8)),
            )
            u = Gf2Vec(rng.integers(0, 2, half, dtype=np.uint8))
            value = coset_overlap(d, b, u)
            if n == 4:  # the statevector's projector expectation agrees
                amps = prepare_coset_state(d).amps
                u_b = coset_rep(b, u)
                mass = sum(float(abs(amps[(w + u_b).to_int()]) ** 2) for w in vectors(b))
                assert abs(mass - value) <= 1e-10
            cap = float(1 << intersect(a, b).dim) / float(1 << half)
            assert value <= cap + 1e-12
            worst_slack = max(worst_slack, value - cap)
    _verdict(4, worst_slack <= 1e-12,
             f"max (overlap - |a^b|/2^(n/2)) = {worst_slack:.2e} over 200 draws")


def test_criterion_05_moe_harness():
    # single-party strategies at n=4 sit exactly on 1/4
    details = []
    ok = True
    trials = 100_000
    sigma = math.sqrt(0.25 * 0.75 / trials)
    strategies = {s.kind: s for s in all_builtin_strategies(4)}
    for kind in ("bob_all", "charlie_all"):
        params = MoeParams(n=4, trials=trials, seed=SEED + 2)
        est = play_leaky(params, strategies[kind], threads=2).estimate
        ok &= abs(est - 0.25) <= 3 * sigma
        details.append(f"{kind}={est:.4f}")
    # no built-in beats the game bound at n in {4, 8, 12}
    for n in (4, 8, 12):
        bound = moe_bound(n)
        params = MoeParams(n=n, trials=20_000, seed=SEED + 3)
        bsig = math.sqrt(max(bound * (1 - min(bound, 1.0)), 1e-12) / params.trials)
        for strategy in all_builtin_strategies(n):
            est = play_leaky(params, strategy, threads=2).estimate
            ok &= est <= bound + 3 * bsig
    _verdict(5, ok, ", ".join(details) + " (+-3 sigma); all built-ins under the bound")


def test_criterion_06_qecm_honest_correctness():
    _verdict(6, *_full_size(6, SEED + 4))


def test_criterion_07_qecm_perfect_indistinguishability():
    rep = qecm_experiment("indistinguishable", QecmParams(4, 2))
    dist = rep["max_trace_distance"]
    _verdict(7, dist <= 1e-9,
             f"max trace distance {dist:.2e} over message pairs (n=4, ell=2)")


def test_criterion_08_eve_keeps_all_accept_rate():
    rep = qecm_experiment(
        "uncloneable", QecmParams(8, 2), adversary="keep_all",
        trials=100_000, seed=SEED + 5,
    )
    rate = rep["accept_rate"]
    sigma = math.sqrt(0.0625 * (1 - 0.0625) / 100_000)
    _verdict(8, abs(rate - 0.0625) <= 3 * sigma,
             f"Pr[F=1] = {rate:.5f} vs 0.0625 +- {3 * sigma:.5f}")


def test_criterion_09_urbc_binding_attack():
    _verdict(9, *_full_size(9, SEED + 6))


def test_criterion_10_urbc_hiding_exact():
    dist = urbc_hiding_exact(UrbcParams(4, 2, 0.5, make_code("repetition", 2)))
    _verdict(10, dist <= 1e-9, f"trace distance {dist:.2e} (n=4, ell=2, ideal)")


def test_criterion_11_riqkd_honest():
    _verdict(11, *_full_size(11, SEED + 7))


def test_criterion_12_riqkd_completeness():
    params = QkdParams(3780, 2, 0.03, 0.1, make_code("block_repeat", 63, 30))
    rep = riqkd_experiment(
        "completeness", params, trials=1000, seed=SEED + 8,
        noise=PauliNoise(dx=0.005, dz=0.005),
    )
    bound = rep["completeness_bound"]
    ok = rep["abort_estimate"] <= bound and abs(bound - 0.1422) < 2e-3
    _verdict(12, ok,
             f"abort rate {rep['abort_estimate']:.4f} <= bound {bound:.4f} (n=3780)")


def test_criterion_13_riqkd_device_fault_bound():
    _verdict(13, *_full_size(13, SEED + 9))


def test_criterion_14_gamma_star_window():
    _verdict(14, *_full_size(14))


def test_criterion_15_tfkw_substitution_attack():
    _verdict(15, *_full_size(15, SEED + 10))


def test_criterion_16_extractor_guarantees():
    # exhaustive two-universality, for inputs of 2..6 bits and 1 or 2 output bits
    two_universal_ok, two_universal = _full_size(16)
    # flat five-bit source on eight bits, two extracted bits, full enumeration
    ext = ToeplitzExtractor(8, 2)
    support = np.array(
        [[int(b) for b in format(v, "08b")] for v in range(32)], dtype=np.uint8
    )
    n_seeds = 1 << ext.seed_len
    seeds = np.array(
        [[int(b) for b in format(s, f"0{ext.seed_len}b")] for s in range(n_seeds)],
        dtype=np.uint8,
    )
    xs = np.repeat(support, n_seeds, axis=0)
    ss = np.tile(seeds, (32, 1))
    outs = ext.extract_batch(xs, ss).reshape(32, n_seeds, 2)
    keys = outs[..., 0] * 2 + outs[..., 1]
    distance = 0.0
    for s in range(n_seeds):
        counts = np.bincount(keys[:, s], minlength=4) / 32.0
        distance += 0.5 * float(np.abs(counts - 0.25).sum()) / n_seeds
    eps = lhl_epsilon(5, 2)
    ok = two_universal_ok and distance <= eps
    _verdict(16, ok,
             f"{two_universal}; flat-source distance {distance:.5f} <= {eps:.5f}")


def _random_onb_projectors(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(z)
    return [np.outer(q[:, i], q[:, i].conj()) for i in range(dim)]


def _random_ccqq_state(rng):
    weights = rng.dirichlet(np.ones(4))
    mat = np.zeros((16, 16), dtype=np.complex128)
    tensor = mat.reshape(2, 2, 2, 2, 2, 2, 2, 2)
    for idx, (x, y) in enumerate(itertools.product(range(2), range(2))):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        block = z @ z.conj().T
        block *= weights[idx] / block.trace().real
        tensor[x, y, :, :, x, y, :, :] = block.reshape(2, 2, 2, 2)
    return DensityOp(mat)


def test_criterion_17_entropy_identities():
    rng = np.random.default_rng(SEED + 11)
    # (a) two-stage decomposition of the sequential guessing exponent
    worst_decomp = 0.0
    for _ in range(50):
        rho = _random_ccqq_state(rng)
        out = sequential_min_entropy_fixed(
            rho, (2, 2, 2, 2),
            _random_onb_projectors(2, rng), _random_onb_projectors(2, rng),
        )
        worst_decomp = max(
            worst_decomp, abs(out.value - (out.first_term + out.second_term))
        )
    # (b) shifted-ball averaging identity for measurement branches
    worst_swap = 0.0
    masks = [0, 1, 2]  # XOR masks of weight <= 1 on two bits
    for _ in range(5):
        blocks = []
        for _ in range(4):
            z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            b = z @ z.conj().T
            blocks.append(b / (4.0 * b.trace().real))
        povm = _random_onb_projectors(4, rng)
        roots = povm  # rank-one projectors are their own PSD square roots
        for y in range(4):
            lhs = np.zeros((4, 4), dtype=np.complex128)
            for x in range(4):
                if bin(x ^ y).count("1") <= 1:
                    lhs += roots[y] @ blocks[x] @ roots[y]
            avg = sum(blocks[y ^ u] for u in masks) / len(masks)
            rhs = len(masks) * (roots[y] @ avg @ roots[y])
            worst_swap = max(worst_swap, float(np.abs(lhs - rhs).max()))
    # (c) conditioning can only lower the guessing exponent
    worst_gap = 0.0
    for _ in range(100):
        probs = rng.random((3, 3, 3))
        probs /= probs.sum()
        y0 = int(rng.integers(0, 3))
        partial = sum(probs[:, y0, a].max() for a in range(3))
        full = sum(probs[:, y, a].max() for y in range(3) for a in range(3))
        worst_gap = max(worst_gap, (-math.log2(full)) - (-math.log2(partial)))
    ok = worst_decomp <= 1e-10 and worst_swap <= 1e-10 and worst_gap <= 1e-12
    _verdict(17, ok,
             f"decomposition gap {worst_decomp:.2e}, branch identity "
             f"{worst_swap:.2e}, conditioning slack {worst_gap:.2e}")


def test_criterion_18_selftest_determinism():
    # the child imports the package this process imported, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    outputs = []
    for threads in (1, 8):
        proc = subprocess.run(
            [sys.executable, "-m", "cosetmoe.cli", "selftest",
             "--seed", "202608", "--threads", str(threads)],
            capture_output=True, timeout=600, env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _verdict(18, ok,
             f"selftest bytes identical across thread counts "
             f"({len(outputs[0])} bytes)")


def test_every_criterion_has_one_verdict():
    # one test per criterion 01-18, each calling _verdict once with its number
    tests = {name: fn for name, fn in globals().items() if name.startswith("test_criterion_")}
    numbers = sorted(int(name.split("_")[2]) for name in tests)
    assert numbers == list(range(1, 19))
    for name, fn in tests.items():
        calls = re.findall(r"\b_verdict\((\d+),", inspect.getsource(fn))
        assert calls == [str(int(name.split("_")[2]))], name
    # a table row with a criterion replaces that criterion's own check
    table = [row.criterion for row in cli.CHECKS if row.criterion is not None]
    assert len(set(table)) == len(table)
    for num in table:
        (fn,) = (fn for name, fn in tests.items() if int(name.split("_")[2]) == num)
        assert f"_full_size({num}" in inspect.getsource(fn)
