"""Monogamy-game harness tests: closed forms vs Monte Carlo on the kernels
and the statevector referee, the general-family reads against the
referee's exact law, leak behaviour, determinism, and the counter-stream
plumbing underneath."""

import functools
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetmoe import mc, moe
from cosetmoe.cli import _half_subspaces
from cosetmoe.gf2 import Gf2Subspace, Gf2Vec, coset_rep, sample_subspace
from cosetmoe.info import ball_volume, moe_bound
from cosetmoe.mc import (
    TrialReader,
    bits_from_words,
    floats_from_words,
    keys_from_words,
    run_blocks,
    stream_key,
    top_k_mask,
    trial_words,
    wilson_interval,
    words_for,
)
from cosetmoe.moe import (
    BUILTIN_KINDS,
    GameResult,
    MoeParams,
    all_builtin_strategies,
    alternating_basis,
    builtin_strategy,
    play_leaky,
)
from cosetmoe.qsim import CosetDescriptor, WiesnerRecord, prepare_coset_state
import statevector_referee as referee


def three_sigma(p, trials):
    return 3.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / trials)


# ------------------------------------------------------------------
# counter-stream plumbing
# ------------------------------------------------------------------


def test_trial_windows_are_position_stable():
    full = trial_words(123, 8, 0, 10)
    tail = trial_words(123, 8, 3, 4)
    assert np.array_equal(full[3:7], tail)


def test_trial_words_rejects_ragged_budget():
    with pytest.raises(ValueError):
        trial_words(1, 6, 0, 4)
    with pytest.raises(ValueError):
        trial_words(1, 8, -1, 4)


def _fresh_philox_words(key, words_per_trial, start, count):
    """``trial_words``' reference: a new Philox, advanced to the window and drawn."""
    gen = np.random.Philox(key=key & ((1 << 128) - 1))
    gen.advance(start * words_per_trial // 4)
    return gen.random_raw(count * words_per_trial).reshape(count, words_per_trial)


# (key, words per trial, start, count): keys interleaved, counters that span
# more than one 64-bit word, a negative seed read as its low 128 bits
_WINDOWS = [
    (123, 8, 0, 10),
    (stream_key(5, 3), 36, 3640, 7),
    (123, 8, 3, 4),
    ((1 << 128) - 1, 4, 1 << 40, 2),
    (stream_key(5, 3), 36, 0, 1),
    (9, 8, (1 << 65) - 1, 3),
    (-7, 12, 5, 3),
    (1 << 64, 4816, 27, 2),
]


def test_trial_words_equal_a_fresh_philox_advanced_and_drawn():
    for key, words, start, count in _WINDOWS * 2:
        assert np.array_equal(trial_words(key, words, start, count),
                              _fresh_philox_words(key, words, start, count))


def test_run_blocks_windows_equal_fresh_philox_draws_on_two_threads(monkeypatch):
    monkeypatch.setattr(mc, "_BLOCK_WORDS", 16 * 8)  # 16-trial blocks of 8 words
    blocks = []

    def kernel(words):
        # a draw of another key between blocks re-keys this thread's generator
        key, width, start, count = _WINDOWS[len(blocks) % len(_WINDOWS)]
        other = trial_words(key, width, start, count)
        assert np.array_equal(other, _fresh_philox_words(key, width, start, count))
        blocks.append(words.copy())
        return np.zeros(1, dtype=np.int64)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so their draws interleave
    try:
        run_blocks(16 * 9 + 5, 8, 77, kernel, threads=2)
    finally:
        sys.setswitchinterval(interval)
    fresh = _fresh_philox_words(77, 8, 0, 16 * 9 + 5)
    row_of = {int(row[0]): i for i, row in enumerate(fresh)}
    starts = sorted(row_of[int(block[0, 0])] for block in blocks)
    assert starts == list(range(0, 16 * 9 + 5, 16))
    for block in blocks:
        start = row_of[int(block[0, 0])]
        assert np.array_equal(block, fresh[start:start + len(block)])


def test_run_blocks_builds_at_most_one_philox_on_one_thread(monkeypatch):
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(args or kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    monkeypatch.setattr(mc, "_BLOCK_WORDS", 16 * 8)
    rows = []

    def kernel(words):
        rows.append(words.shape[0])
        return np.zeros(1, dtype=np.int64)

    run_blocks(5 * 16, 8, 7, kernel, threads=1)
    assert rows == [16] * 5
    assert len(built) <= 1


def test_bits_unpack_msb_first():
    words = np.array([[1 << 63, 1]], dtype=np.uint64)
    bits = bits_from_words(words, 128)
    assert bits[0, 0] == 1 and bits[0, 1:64].sum() == 0
    assert bits[0, 127] == 1 and bits[0, 64:127].sum() == 0


def _shift_bits(words, nbits):
    """The defining unpack: bit j of a row is bit 63 - j % 64 of word j // 64."""
    shifts = np.arange(63, -1, -1, dtype=np.uint64)
    bits = ((words[:, :, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return bits.reshape(words.shape[0], -1)[:, :nbits]


def _shift_keys(words, count):
    """The defining key read: key 2j of a row is the low 32 bits of word j,
    key 2j + 1 its high 32 bits."""
    low = words & np.uint64(0xFFFFFFFF)
    high = words >> np.uint64(32)
    return np.stack([low, high], axis=-1).reshape(words.shape[0], -1)[:, :count]


def _argpartition_top_k(keys, k):
    """Row-wise indicators of the k largest keys, picked by argpartition on
    the distinct values key * 2^32 + (n - 1 - position): equal keys rank
    the earlier position higher."""
    t, n = keys.shape
    ranks = keys.astype(np.uint64) * 2**32 + np.arange(n - 1, -1, -1, dtype=np.uint64)
    top = np.argpartition(ranks, n - k, axis=1)[:, n - k :]
    mask = np.zeros(keys.shape, dtype=np.uint8)
    mask[np.arange(t)[:, None], top] = 1
    return mask


@pytest.mark.parametrize("nbits", [1, 7, 63, 64, 65, 100, 3780])
@pytest.mark.parametrize("trials", [1, 9])
def test_bits_from_words_equals_shift_formula(nbits, trials):
    nwords = -(-nbits // 64)
    words = trial_words(11, 4 * -(-nwords // 4), 0, trials)[:, :nwords]
    got = bits_from_words(words, nbits)
    assert got.dtype == np.uint8 and got.shape == (trials, nbits)
    assert np.array_equal(got, _shift_bits(words, nbits))
    assert np.array_equal(TrialReader(words).bits(nbits), got)


@pytest.mark.parametrize("nbits", [1, 7, 63, 64, 65, 100, 3780])
def test_packed_read_zeroes_the_tail_and_copies(nbits):
    block = trial_words(12, 128, 0, 5)
    before = block.copy()
    r = TrialReader(block)
    first = r.packed(nbits)
    second = r.packed(nbits)
    nwords = -(-nbits // 64)
    assert first.dtype == np.uint64 and first.shape == (5, nwords)
    assert np.array_equal(block, before)  # the caller's window is never masked
    for got, start in ((first, 0), (second, nwords)):
        field = block[:, start : start + nwords]
        assert np.array_equal(_shift_bits(got, 64 * nwords)[:, :nbits], _shift_bits(field, nbits))
        assert not _shift_bits(got, 64 * nwords)[:, nbits:].any()
    first[:] = 0
    assert np.array_equal(block, before)


def test_floats_use_the_top_53_bits():
    words = trial_words(13, 8, 0, 50)
    words[0, :3] = [0, (1 << 64) - 1, 1 << 11]
    expected = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
    assert np.array_equal(floats_from_words(words), expected)


@pytest.mark.parametrize("count", [1, 2, 7, 64, 65, 3780])
@pytest.mark.parametrize("trials", [1, 9])
def test_keys_equal_shift_and_mask(count, trials):
    block = trial_words(count + trials, 4 * (-(-count // 8) + 2), 0, trials)
    r = TrialReader(block)
    r.bits(64)  # the key field starts at word 1, inside the first Philox block
    got = r.keys(count)
    nwords = -(-count // 2)
    field = block[:, 1 : 1 + nwords]
    assert got.dtype == np.uint32 and got.shape == (trials, count)
    assert np.array_equal(got, _shift_keys(field, count))
    # a view of the window where memory holds the low half of a word first
    assert np.shares_memory(got, block) == (sys.byteorder == "little")
    # the words that follow are the next field's: an odd count leaves the
    # high half of its last word unread
    assert np.array_equal(r.bits(64), bits_from_words(block[:, 1 + nwords : 2 + nwords], 64))
    # the arithmetic read, taken for words whose halves are not laid out in
    # memory order, gives the same keys
    spaced = np.repeat(field, 2, axis=1)[:, ::2]
    assert spaced.strides[-1] == 16
    assert np.array_equal(keys_from_words(spaced, count), got)
    with pytest.raises(ValueError):
        keys_from_words(field, 2 * nwords + 1)


@pytest.mark.parametrize("n", [1, 2, 7, 14, 64, 130])
def test_top_k_mask_equals_argpartition(n):
    keys = TrialReader(trial_words(n, 4 * n, 0, 300)).keys(n)
    # rows with few distinct values tie at the k-th largest draw
    ties = np.random.default_rng(n).integers(0, 3, size=(300, n)).astype(np.uint32)
    for k in sorted({1, max(1, n // 2), n}):
        for draws in (keys, ties):
            got = top_k_mask(draws, k)
            assert got.dtype == np.uint8
            assert np.array_equal(got, _argpartition_top_k(draws, k))
    with pytest.raises(ValueError):
        top_k_mask(keys.astype(np.uint64), 1)


def _float_sort_top_k(floats, k):
    """The tie rule on the keys as floats: the draws at or above each row's
    k-th largest, read off a sort, and for a tied row the first k of a
    stable descending sort, which puts the earlier of equal draws first."""
    t, n = floats.shape
    ranked = np.sort(floats, axis=1)
    mask = (floats >= ranked[:, n - k, None]).view(np.uint8)
    tied = np.flatnonzero(np.count_nonzero(mask, axis=1) != k)
    top = np.argsort(-floats[tied], axis=1, kind="stable")[:, :k]
    mask[tied] = 0
    mask[tied[:, None], top] = 1
    return mask, tied.size


@pytest.mark.parametrize("n", [8, 64])
def test_top_k_mask_on_tied_keys_equals_float_sort(n):
    words = trial_words(n + 1, 4 * n, 0, 300)[:, : n // 2]
    # in two rows of three the keys take four values, the lowest and the
    # highest among them
    values = np.array([0, 1, 2, 2**32 - 1], dtype=np.uint64)
    picks = np.random.default_rng(n).integers(0, 4, size=(300, n))
    tied = np.arange(300) % 3 != 0
    low, high = values[picks[:, 0::2]], values[picks[:, 1::2]]
    words[tied] = (low | (high << np.uint64(32)))[tied]
    keys = TrialReader(words).keys(n)
    for k in range(1, n + 1):
        want, ties = _float_sort_top_k(keys.astype(np.float64), k)
        assert ties > 0 or k == n  # some row ties at the k-th key
        got = top_k_mask(keys, k)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), k


@pytest.mark.parametrize("n", [1, 2, 5, 64, 3780])
def test_top_k_mask_keeps_k_under_ties_row_by_row(n):
    rng = np.random.default_rng(n)
    rows = [
        np.full(n, 7, dtype=np.uint32),  # all equal
        np.zeros(n, dtype=np.uint32),
        np.full(n, 2**32 - 1, dtype=np.uint32),
        rng.integers(0, 2, n).astype(np.uint32),
        rng.integers(0, 2**32, n, dtype=np.uint64).astype(np.uint32),  # untied
    ]
    for k in sorted({1, max(1, n // 3), max(1, n // 2), n}):
        # a tie straddling the k-th key: keys above it, a run of equal keys
        # across positions k-1 and k of the ranking, keys below it
        straddle = np.arange(n, 0, -1, dtype=np.uint32) * 4
        straddle[max(0, k - 2) : k + 2] = straddle[k - 1]
        block = np.stack([*rows, straddle, rng.permutation(straddle)])
        mask = top_k_mask(block, k)
        assert np.array_equal(np.count_nonzero(mask, axis=1), np.full(len(block), k))
        assert np.array_equal(mask, _argpartition_top_k(block, k))
        # a row is ranked as it is alone, wherever it sits in a block
        for i, row in enumerate(block):
            assert np.array_equal(top_k_mask(row[None, :], k)[0], mask[i])
        assert np.array_equal(top_k_mask(block[::-1], k), mask[::-1])
    # all equal: the first k positions
    assert np.array_equal(top_k_mask(rows[0][None, :], 1)[0], np.eye(1, n, dtype=np.uint8)[0])


def test_trial_reader_budget_enforced():
    r = TrialReader(trial_words(5, 4, 0, 2))
    r.bits(200)  # 4 words
    with pytest.raises(ValueError):
        r.floats(1)


def test_run_blocks_threads_and_block_size_invariant(monkeypatch):
    def kernel(words):
        return np.array([int(words.sum() % 97), words.shape[0]], dtype=np.int64)

    monkeypatch.setattr(mc, "_BLOCK_WORDS", 64 * 8)  # 64-trial blocks of 8 words
    a = run_blocks(1000, 8, 7, kernel, threads=1)
    b = run_blocks(1000, 8, 7, kernel, threads=8)
    monkeypatch.setattr(mc, "_BLOCK_WORDS", 17 * 8)
    c = run_blocks(1000, 8, 7, kernel, threads=3)
    assert np.array_equal(a, b)
    # per-block modular sums differ with block size, trial counts cannot
    assert b[1] == c[1] == 1000


@pytest.mark.parametrize("words, block", [
    (36, 3640),  # moe measure_wiesner and keep_and_substitute at n=64
    (4, 32768),  # moe bob_all at n=64
    (4816, 27),  # noisy qkd completeness at n=3780
    (mc._BLOCK_WORDS + 4, 1),  # a window wider than the budget
])
def test_run_blocks_spans_are_the_word_budget_over_the_window(words, block):
    rows = []

    def kernel(w):
        rows.append(w.shape[0])
        return np.zeros(1, dtype=np.int64)

    run_blocks(2 * block + 1, words, 7, kernel)
    assert rows == [block, block, 1]


def test_wilson_interval_edges():
    low, high = wilson_interval(0, 50)
    assert low == 0.0 and 0 < high < 0.2
    low, high = wilson_interval(50, 50)
    assert high == 1.0 and low > 0.8
    low, high = wilson_interval(25, 100)
    assert low < 0.25 < high
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(7, 3)


def test_words_for_layouts():
    assert words_for(bit_fields=(4, 4)) == 4
    assert words_for(bit_fields=(64, 65), float_fields=(2,)) == 8
    assert words_for() == 4


# ------------------------------------------------------------------
# parameter and result plumbing
# ------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=5),
        dict(n=0),
        dict(n=4, family="diagonal"),
        dict(n=4, m=3),
        dict(n=4, m_prime=-1),
        dict(n=4, trials=0),
        dict(n=4, seed=-1),
        dict(n=4, seed=1 << 64),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        MoeParams(**kwargs)


def test_game_result_fields_and_json():
    r = GameResult.from_counts(30, 70, 200)
    assert r.estimate == 30 / 200
    assert 0.0 <= r.wilson_low <= r.estimate <= r.wilson_high <= 1.0
    assert (r.wins, r.trials, r.bob_correct) == (30, 200, 70)
    with pytest.raises(ValueError):
        GameResult.from_counts(10, 5, 200)  # wins cannot exceed bob_correct


def test_unknown_strategy_kind():
    with pytest.raises(ValueError):
        builtin_strategy("teleport_everything")


def test_mix_weight_validated():
    with pytest.raises(ValueError):
        builtin_strategy("mix", q=1.5)
    with pytest.raises(ValueError):
        builtin_strategy("mix", q=-0.1)


def test_measure_wiesner_needs_basis():
    with pytest.raises(ValueError):
        builtin_strategy("measure_wiesner")
    bad = builtin_strategy("measure_wiesner", theta_hat=Gf2Vec.from_int(0b101, 3))
    with pytest.raises(ValueError):
        play_leaky(MoeParams(n=4, trials=10), bad)


# ------------------------------------------------------------------
# closed forms vs the vectorised path
# ------------------------------------------------------------------


def test_exact_game_quarter_rate():
    # the benchmark point: n=4, exact radii, either single-party strategy
    p = MoeParams(n=4, trials=100_000, seed=20260401)
    for kind in ("bob_all", "charlie_all"):
        est = play_leaky(p, builtin_strategy(kind)).estimate
        assert abs(est - 0.25) <= three_sigma(0.25, p.trials)


@pytest.mark.parametrize("kind", BUILTIN_KINDS)
def test_builtins_match_their_closed_forms(kind):
    p = MoeParams(n=8, trials=50_000, seed=77)
    s = _canonical(kind, p.n)
    expected = s.analytic(p)
    assert expected is not None
    est = play_leaky(p, s).estimate
    assert abs(est - expected) <= three_sigma(expected, p.trials) + 1e-12


@pytest.mark.parametrize(
    "kind,m,mp",
    [("bob_all", 0, 1), ("charlie_all", 2, 0), ("mix", 1, 1), ("measure_wiesner", 1, 1)],
)
def test_robust_radii_match_closed_forms(kind, m, mp):
    p = MoeParams(n=8, m=m, m_prime=mp, trials=50_000, seed=3)
    s = _canonical(kind, p.n)
    expected = s.analytic(p)
    est = play_leaky(p, s).estimate
    assert abs(est - expected) <= three_sigma(expected, p.trials) + 1e-12


def test_bob_all_robust_values():
    # spot values: Charlie guessing within radius m' of a uniform word
    p = MoeParams(n=8, m_prime=1, trials=4)
    bob_all = builtin_strategy("bob_all")
    assert bob_all.analytic(p) == ball_volume(4, 1) / 16 == 5 / 16
    assert bob_all.analytic(MoeParams(n=8, m=1)) == 1 / 16


def test_measure_wiesner_analytic_spot_value():
    # n=4, alternating basis guess, exact radii: 0.34375 by direct counting
    p = MoeParams(n=4, trials=4)
    got = builtin_strategy("measure_wiesner", theta_hat=Gf2Vec.from_int(0b1010, 4)).analytic(p)
    assert abs(got - 0.34375) < 1e-15


def test_measure_wiesner_analytic_none_outside_register():
    p = MoeParams(n=4, family="all", trials=4)
    s = builtin_strategy("measure_wiesner", theta_hat=Gf2Vec.from_int(0b1010, 4))
    assert s.analytic(p) is None


def test_mix_endpoints_equal_single_party_strategies():
    p = MoeParams(n=6, trials=30_000, seed=8, m_prime=1)
    ends = [builtin_strategy("mix", q=q).analytic(p) for q in (1.0, 0.0)]
    assert ends == [builtin_strategy(kind).analytic(p) for kind in ("bob_all", "charlie_all")]
    est_mix = play_leaky(p, builtin_strategy("mix", q=1.0)).estimate
    est_bob = play_leaky(p, builtin_strategy("bob_all")).estimate
    assert abs(est_mix - est_bob) <= 2 * three_sigma(est_bob, p.trials)


@pytest.mark.parametrize("n", [4, 8, 12])
def test_no_builtin_beats_the_game_bound(n):
    p = MoeParams(n=n, trials=10_000, seed=5)
    bound = moe_bound(n)
    for s in all_builtin_strategies(n):
        est = play_leaky(p, s).estimate
        assert est <= bound + three_sigma(max(est, 0.01), p.trials)


# ------------------------------------------------------------------
# the leak
# ------------------------------------------------------------------


def test_leak_never_hurts():
    p = MoeParams(n=8, trials=20_000, seed=13)
    for s in all_builtin_strategies(p.n):
        with_leak = play_leaky(p, s, leak=True).estimate
        without = play_leaky(p, s, leak=False).estimate
        assert with_leak >= without - three_sigma(max(without, 0.01), p.trials)


def test_smuggler_exploits_the_leak():
    p = MoeParams(n=8, trials=20_000, seed=14)
    s = builtin_strategy("leak_smuggle")
    on = play_leaky(p, s, leak=True).estimate
    off = play_leaky(p, s, leak=False).estimate
    assert abs(on - 1 / 16) <= three_sigma(1 / 16, p.trials)
    assert abs(off - 1 / 256) <= three_sigma(1 / 256, p.trials)
    assert s.analytic(p, leak=False) == 1 / 256 and s.analytic(p) == 1 / 16


def test_smuggler_wins_always_when_bob_radius_is_vacuous():
    # with m = n/2 Bob cannot miss, so the echoed phase word wins every round
    p = MoeParams(n=8, m=4, trials=5_000, seed=1)
    r = play_leaky(p, builtin_strategy("leak_smuggle"))
    assert r.wins == r.trials and r.estimate == 1.0


def test_vacuous_charlie_radius_wins_always():
    p = MoeParams(n=6, m_prime=3, trials=5_000, seed=2)
    r = play_leaky(p, builtin_strategy("bob_all"))
    assert r.estimate == 1.0


# ------------------------------------------------------------------
# determinism
# ------------------------------------------------------------------


def test_same_seed_same_result_kernel_and_statevector():
    p = MoeParams(n=8, trials=20_000, seed=99)
    s = builtin_strategy("measure_wiesner", theta_hat=Gf2Vec.from_int(0b10101010, 8))
    assert play_leaky(p, s) == play_leaky(p, s)
    p_sv = MoeParams(n=4, trials=300, seed=99)
    sv = builtin_strategy("bob_all")
    assert referee.play(p_sv, sv) == referee.play(p_sv, sv)


def test_thread_count_does_not_change_counts(monkeypatch):
    p = MoeParams(n=12, trials=100_000, seed=42)
    for s in (all_builtin_strategies(12)[4], builtin_strategy("mix", q=0.3)):
        r1 = play_leaky(p, s, threads=1)
        r8 = play_leaky(p, s, threads=8)
        assert r1 == r8
    # the general-family kernels, in 16-trial blocks so that the threads split them
    p_all = MoeParams(n=4, family="all", trials=40, seed=42)
    for s in all_builtin_strategies(4)[4:6]:
        one = play_leaky(p_all, s, threads=1)
        monkeypatch.setattr(mc, "_BLOCK_WORDS", 16 * s.kernel(p_all, True)[0])
        assert play_leaky(p_all, s, threads=2) == one


def test_different_seeds_decorrelate():
    p1 = MoeParams(n=8, trials=30_000, seed=0)
    p2 = MoeParams(n=8, trials=30_000, seed=1)
    s = builtin_strategy("bob_all")
    assert play_leaky(p1, s).wins != play_leaky(p2, s).wins


# ------------------------------------------------------------------
# the statevector referee against the same closed forms
# ------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind,trials",
    [
        ("bob_all", 2000),
        ("measure_computational", 2000),
        ("measure_wiesner", 800),
        ("keep_and_substitute", 800),
        ("leak_smuggle", 2000),
    ],
)
def test_statevector_matches_closed_forms(kind, trials):
    p = MoeParams(n=4, trials=trials, seed=31)
    s = _canonical(kind, p.n)
    expected = s.analytic(p)
    est = referee.play(p, s).estimate
    assert abs(est - expected) <= three_sigma(expected, trials)


def test_statevector_smuggle_blind():
    p = MoeParams(n=4, trials=1500, seed=17)
    est = referee.play(p, builtin_strategy("leak_smuggle"), leak=False).estimate
    assert abs(est - 1 / 16) <= three_sigma(1 / 16, p.trials)


def test_custom_split_strategy_runs_and_is_uniform():
    # hold two qubits each, answer uniformly: the two guesses are independent
    def split(n, rng):
        return referee.AdversaryChannel([referee.assign_ownership(range(n // 2), "bob"),
                                         referee.assign_ownership(range(n // 2, n), "charlie")])

    s = referee.Rules(
        split=split,
        bob=lambda a, view, rng: Gf2Vec(rng.integers(0, 2, a.dim, dtype=np.uint8)),
        charlie=lambda a, t_b, view, rng: Gf2Vec(rng.integers(0, 2, a.dim, dtype=np.uint8)),
    )
    p = MoeParams(n=4, trials=2000, seed=23)
    est = referee.play(p, s).estimate
    assert abs(est - 1 / 16) <= three_sigma(1 / 16, p.trials)


def test_party_view_size_mismatch_raises():
    def split(n, rng):
        return referee.AdversaryChannel([referee.assign_ownership(range(n - 1), "bob"),
                                         referee.assign_ownership([n - 1], "charlie")])

    s = referee.Rules(
        split=split,
        bob=lambda a, view, rng: view.measure_coset(a, rng)[0],
        charlie=lambda a, t_b, view, rng: Gf2Vec.zeros(a.dim),
    )
    with pytest.raises(ValueError):
        referee.play(MoeParams(n=4, trials=2), s)


# ------------------------------------------------------------------
# general-family oracle: measure-everything enumerated exactly
# ------------------------------------------------------------------


def _all_half_subspaces_n4():
    seen = {}
    for v1, v2 in itertools.combinations(range(1, 16), 2):
        key = frozenset({0, v1, v2, v1 ^ v2})
        if key not in seen:
            seen[key] = Gf2Subspace(4, [Gf2Vec.from_int(v1, 4), Gf2Vec.from_int(v2, 4)])
    return list(seen.values())


def test_measure_computational_enumerated_over_all_subspaces():
    # every dim-2 subspace of F_2^4, every labelling, every coset element:
    # decoding always recovers t, and the membership coefficients match the
    # phase label exactly a quarter of the time
    subspaces = _all_half_subspaces_n4()
    assert len(subspaces) == 35
    wins = cases = 0
    for a in subspaces:
        for t_int, tp_int in itertools.product(range(4), repeat=2):
            t = Gf2Vec.from_int(t_int, 2)
            tp = Gf2Vec.from_int(tp_int, 2)
            base = coset_rep(a, t)
            for u in referee.vectors(a):
                v = base + u
                t_hat, u_hat = referee.solve_coset_membership(a, v)
                assert t_hat == t and u_hat == u
                guess = Gf2Vec(u.bits[list(a.pivots)])
                wins += int(guess == tp)
                cases += 1
    assert cases == 35 * 4 * 4 * 4
    assert wins / cases == 0.25


def test_measure_computational_all_family_monte_carlo():
    p = MoeParams(n=4, family="all", trials=4000, seed=5)
    est = play_leaky(p, builtin_strategy("measure_computational")).estimate
    assert abs(est - 0.25) <= three_sigma(0.25, p.trials)


# ------------------------------------------------------------------
# general-family kernels against the statevector referee
# ------------------------------------------------------------------


def _outcome_bits(n):
    """Row v of the 2^n x n table is the bits of amplitude index v."""
    return (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1


@functools.cache
def _fake_label_law(a, rec):
    """P(t̂) of a coset-basis read of the fake |x>_θ, as
    Σ_t'' |<a_{t̂,t''}|fake>|²: one entry per label t̂ in index order."""
    n, half = a.n, a.n // 2
    fake = np.eye(1, 1 << n, dtype=np.complex128).ravel()
    for gate, bits in ((referee.PAULI_X, rec.x.bits), (referee.HADAMARD, rec.theta.bits)):
        for i in np.flatnonzero(bits):
            fake = referee.apply_unitary_statevec(fake, n, gate, (i,))
    return [sum(abs(np.vdot(prepare_coset_state(CosetDescriptor(
        a, Gf2Vec.from_int(t_hat, half), Gf2Vec.from_int(t_pp, half))).amps, fake)) ** 2
                for t_pp in range(1 << half)) for t_hat in range(1 << half)]


def _statevector_law(kind, a, t, tp, option):
    """The exact law of a round's guesses (t_B, t'_C) as bytes, read off the
    statevector.  ``measure_wiesner``: Hadamards on the guessed qubits of
    |a_{t,t'}>, then a computational read, answered at a's free coordinates
    and its pivots.  ``keep_and_substitute``: Bob's coset-basis read of the
    fake and Charlie's exact t'."""
    n, half = a.n, a.n // 2
    law = {}
    if kind == "measure_wiesner":
        amps = prepare_coset_state(CosetDescriptor(a, Gf2Vec(t), Gf2Vec(tp))).amps
        for i in np.flatnonzero(option.bits):
            amps = referee.apply_unitary_statevec(amps, n, referee.HADAMARD, (i,))
        w = _outcome_bits(n).astype(np.uint8)
        free, pivots = w[:, list(a.free_coords)], w[:, list(a.pivots)]
        for f, c, p in zip(free, pivots, np.abs(amps) ** 2):
            law[f.tobytes(), c.tobytes()] = law.get((f.tobytes(), c.tobytes()), 0.0) + p
    else:
        labels = _outcome_bits(half).astype(np.uint8)
        law = {(label.tobytes(), tp.tobytes()): p
               for label, p in zip(labels, _fake_label_law(a, option))}
    return {key: p for key, p in law.items() if p > 1e-12}


def _general_reads(kind, option):
    """A kind's read rule and the window fields it reads after (t, t')."""
    if kind == "measure_wiesner":
        return moe._wiesner_reads(option), lambda n: (n // 2, n // 2)
    return moe._substitute_reads(option), lambda n: (n,)


@pytest.mark.parametrize("kind", ["measure_wiesner", "keep_and_substitute"])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_general_reads_equal_the_statevector_law(kind, n):
    # every subspace at n = 2 and 4, four at n = 6, each with its own random
    # basis guess or fake record, over every label (t, t'); the kernel's law
    # enumerates every value of the window bits it reads after (t, t')
    half, rng = n // 2, np.random.default_rng(n)
    subspaces = (list(_half_subspaces(n, "all")) if n < 6
                 else [sample_subspace(n, "all", rng) for _ in range(4)])
    for a in subspaces:
        bits = rng.integers(0, 2, (2, n), dtype=np.uint8)
        option = (Gf2Vec(bits[0]) if kind == "measure_wiesner"
                  else WiesnerRecord(x=Gf2Vec(bits[0]), theta=Gf2Vec(bits[1])))
        reads, layout = _general_reads(kind, option)
        widths = layout(n)
        values = (np.arange(1 << sum(widths))[:, None] >> np.arange(sum(widths))) & 1
        fields = np.split(values.astype(np.uint8), np.cumsum(widths)[:-1], axis=1)
        rows = len(values)
        basis, pivots = np.tile(a.basis.rows, (rows, 1, 1)), np.tile(a.pivots, (rows, 1))
        for t_int, tp_int in itertools.product(range(1 << half), repeat=2):
            t, tp = Gf2Vec.from_int(t_int, half).bits, Gf2Vec.from_int(tp_int, half).bits
            t_b, t_c = reads(basis, pivots, np.tile(t, (rows, 1)), np.tile(tp, (rows, 1)), *fields)
            law = {}
            for key in zip(map(bytes, t_b), map(bytes, t_c)):
                law[key] = law.get(key, 0) + 1 / rows
            expected = _statevector_law(kind, a, t, tp, option)
            assert law.keys() == expected.keys()
            assert all(abs(law[key] - p) < 1e-9 for key, p in expected.items())


@pytest.mark.parametrize("kind", ["measure_wiesner", "keep_and_substitute"])
def test_general_kernel_rows_chi_squared(monkeypatch, kind):
    # 10^4 rows of the kernel play_leaky runs at n = 4, recorded as its read
    # rule returns them; a cell expects the sum over rows of its statevector
    # probability
    n, rows = 4, []
    name = "_wiesner_reads" if kind == "measure_wiesner" else "_substitute_reads"
    make_reads = getattr(moe, name)

    def recording(option):
        reads = make_reads(option)

        def record(basis, pivots, t, tp, *fields):
            guesses = reads(basis, pivots, t, tp, *fields)
            rows.extend(zip(map(Gf2Subspace.from_rref, basis, pivots), t, tp, *guesses))
            return guesses

        return record

    monkeypatch.setattr(moe, name, recording)
    if kind == "measure_wiesner":
        option = alternating_basis(n)
        s = builtin_strategy(kind, theta_hat=option)
    else:
        option = WiesnerRecord(x=Gf2Vec([0, 1, 1, 0]), theta=Gf2Vec([0, 0, 1, 1]))
        s = builtin_strategy(kind, substitute=option)
    play_leaky(MoeParams(n=n, family="all", trials=10_000, seed=61), s)
    assert len(rows) == 10_000

    # two binnings by the subspace and a 4-bit pattern: the guesses
    # (t_B, t'_C), and their errors (t_B ^ t, t'_C ^ t'); each catches
    # misreads the other does not
    ids, laws = {}, {}
    weights = 1 << np.arange(n)

    def patterns(t, tp, t_b, t_c):
        return np.array([np.concatenate([t_b, t_c]) @ weights,
                         np.concatenate([t_b ^ t, t_c ^ tp]) @ weights])

    observed, expected = np.zeros((2, 35 * 16)), np.zeros((2, 35 * 16))
    for a, t, tp, t_b, t_c in rows:
        base = 16 * ids.setdefault(a, len(ids))
        observed[[0, 1], base + patterns(t, tp, t_b, t_c)] += 1
        key = (a, t.tobytes(), tp.tobytes())
        if key not in laws:
            laws[key] = np.zeros((2, 16))
            for (b, c), p in _statevector_law(kind, a, t, tp, option).items():
                cells = patterns(t, tp, np.frombuffer(b, np.uint8), np.frombuffer(c, np.uint8))
                laws[key][[0, 1], cells] += p
        expected[:, base : base + 16] += laws[key]
    assert len(ids) == 35  # every subspace drawn
    for obs, exp in zip(observed, expected):
        support = exp > 1e-9
        assert not obs[~support].any()
        chi2 = float(((obs - exp)[support] ** 2 / exp[support]).sum())
        # the 0.999 quantile of χ² at the support's degrees of freedom, by
        # the Wilson-Hilferty cube: within 1% of it from 10 degrees up
        dof = int(support.sum()) - 1
        assert chi2 < dof * (1 - 2 / (9 * dof) + 3.0902 * math.sqrt(2 / (9 * dof))) ** 3


# ------------------------------------------------------------------


def _canonical(kind, n):
    if kind == "measure_wiesner":
        return builtin_strategy(
            "measure_wiesner",
            theta_hat=Gf2Vec((np.arange(n) % 2 == 0).astype(np.uint8)),
        )
    if kind == "keep_and_substitute":
        return builtin_strategy(
            "keep_and_substitute",
            substitute=WiesnerRecord(x=Gf2Vec.zeros(n), theta=Gf2Vec.zeros(n)),
        )
    if kind == "mix":
        return builtin_strategy("mix", q=0.5)
    return builtin_strategy(kind)


# ------------------------------------------------------------------
# packed register kernels against the uint8 kernels they replaced
# ------------------------------------------------------------------


class _ReferenceReader:
    """Fields off a word block in order, unpacked by the defining formulas."""

    def __init__(self, words):
        self.words, self.pos = words, 0

    def _take(self, nwords):
        out = self.words[:, self.pos : self.pos + nwords]
        self.pos += nwords
        return out

    def bits(self, nbits):
        return _shift_bits(self._take(-(-nbits // 64)), nbits)

    def keys(self, count):
        return _shift_keys(self._take(-(-count // 2)), count)

    def floats(self, count):
        return (self._take(count) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _reference_kernel(kind, params, leak, q=0.5, theta_hat=None, substitute=None):
    """The uint8 register kernels: one byte per bit, distances as sums of
    bytes, and (t, t') laid onto the coordinates by a stable sort of θ."""
    n, half, m, mp = params.n, params.half, params.m, params.m_prime

    def hamming_rows(a, b):
        return (a ^ b).sum(axis=1)

    def theta_and_order(r):
        theta = _argpartition_top_k(r.keys(n), half)
        return theta, np.argsort(theta, axis=1, kind="stable")

    def kernel(words):
        r = _ReferenceReader(words)
        count = words.shape[0]
        if kind in ("bob_all", "measure_computational"):
            tp, guess = r.bits(half), r.bits(half)
            bob_ok = np.ones(count, dtype=bool)
            win = hamming_rows(guess, tp) <= mp
        elif kind == "charlie_all":
            t, guess = r.bits(half), r.bits(half)
            bob_ok = win = hamming_rows(guess, t) <= m
        elif kind == "mix":
            coin = r.floats(1)[:, 0] < q
            t, tp, guess = r.bits(half), r.bits(half), r.bits(half)
            bob_ok = np.where(coin, True, hamming_rows(guess, t) <= m)
            win = np.where(coin, hamming_rows(guess, tp) <= mp, bob_ok)
        elif kind == "measure_wiesner":
            t, tp, coins = r.bits(half), r.bits(half), r.bits(n)
            theta, order = theta_and_order(r)
            x = np.empty_like(theta)
            np.put_along_axis(x, order, np.concatenate([t, tp], axis=1), axis=1)
            v = np.where(theta == theta_hat.bits[None, :], x, coins)
            t_b = np.take_along_axis(v, order[:, :half], axis=1)
            tp_c = np.take_along_axis(v, order[:, half:], axis=1)
            bob_ok = hamming_rows(t_b, t) <= m
            win = bob_ok & (hamming_rows(tp_c, tp) <= mp)
        elif kind == "keep_and_substitute":
            rec = substitute or WiesnerRecord(x=Gf2Vec.zeros(n), theta=Gf2Vec.zeros(n))
            t, coins = r.bits(half), r.bits(n)
            theta, order = theta_and_order(r)
            rx = np.broadcast_to(rec.x.bits[None, :], theta.shape)
            v = np.where(rec.theta.bits[None, :] == theta, rx, coins)
            t_b = np.take_along_axis(v, order[:, :half], axis=1)
            bob_ok = win = hamming_rows(t_b, t) <= m
        elif kind == "leak_smuggle":
            t, tp, fallback = r.bits(half), r.bits(half), r.bits(half)
            bob_ok = hamming_rows(tp, t) <= m
            win = bob_ok & (hamming_rows(tp if leak else fallback, tp) <= mp)
        else:
            raise ValueError(kind)
        return np.array([int(win.sum()), int(bob_ok.sum())], dtype=np.int64)

    return kernel


def _fixed_bits(fill, n, seed):
    if fill == "zeros":
        return Gf2Vec.zeros(n)
    if fill == "ones":
        return Gf2Vec(np.ones(n, dtype=np.uint8))
    return Gf2Vec(np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8))


@pytest.mark.parametrize("leak", [True, False])
@pytest.mark.parametrize("kind", BUILTIN_KINDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([2, 6, 8, 14, 64, 66, 128, 130, 256]),
    m_at=st.sampled_from([0, 1, 2]),
    mp_at=st.sampled_from([0, 1, 2]),
    seed=st.sampled_from([0, 7, 2**64 - 1]),
    fills=st.tuples(*[st.sampled_from(["default", "zeros", "ones", "random"])] * 2),
    q=st.sampled_from([0.0, 0.3, 1.0]),
    data=st.integers(0, 2**32 - 1),
)
def test_register_kernels_equal_uint8_reference(kind, leak, n, m_at, mp_at, seed, fills, q, data):
    half = n // 2
    radius = (0, half // 2, half)  # exact, mid and vacuous
    params = MoeParams(n=n, m=radius[m_at], m_prime=radius[mp_at], trials=45, seed=seed)
    theta_hat = substitute = None
    if kind == "measure_wiesner":
        theta_hat = (Gf2Vec((np.arange(n) % 2 == 0).astype(np.uint8)) if fills[0] == "default"
                     else _fixed_bits(fills[0], n, data))
    if kind == "keep_and_substitute" and fills != ("default", "default"):
        substitute = WiesnerRecord(x=_fixed_bits(fills[0], n, data),
                                   theta=_fixed_bits(fills[1], n, data + 1))
    strategy = builtin_strategy(kind, q=q, theta_hat=theta_hat, substitute=substitute)
    wpt, kernel = strategy.kernel(params, leak)
    reference = _reference_kernel(kind, params, leak, q, theta_hat, substitute)
    # 45 trials in blocks of 16: two whole blocks and a partial one
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc, "_BLOCK_WORDS", 16 * wpt)
        got = run_blocks(params.trials, wpt, seed, kernel)
        expected = run_blocks(params.trials, wpt, seed, reference)
    assert np.array_equal(got, expected)


# ------------------------------------------------------------------
# the whole-word row helpers against bit-by-bit formulas
# ------------------------------------------------------------------

_HELPER_NS = [2, 6, 8, 14, 64, 66, 126, 128, 130, 256]
_LAYOUTS = ["contiguous", "column_slice", "strided"]


def _rows(rng, rows, cols, dtype, layout):
    """Random (rows, cols) values, either contiguous or as a column slice of a
    wider array: one that skips a leading column (rows apart in memory, and
    byte rows off word alignment), or one that takes every other column."""
    high = np.iinfo(dtype).max
    wide = rng.integers(0, high, (rows, 2 * cols + 1), dtype=dtype, endpoint=True)
    if layout == "contiguous":
        return np.ascontiguousarray(wide[:, :cols])
    if layout == "column_slice":
        return wide[:, 1 : cols + 1]
    return wide[:, 1::2]


def _row_sizes(n):
    """(coordinate-row bytes, source words) at dimension n."""
    return 8 * -(-n // 64), -(-(n // 2) // 64)


@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize("n", _HELPER_NS)
def test_weight_equals_unpacked_sum(n, layout):
    rng = np.random.default_rng(n)
    nbytes, _ = _row_sizes(n)
    rows = _rows(rng, 7, nbytes, np.uint8, layout)
    rows[0] = 0xFF
    rows[1] = 0
    assert np.array_equal(moe._weight(rows), np.unpackbits(rows, axis=1).sum(axis=1))
    words = _rows(rng, 7, nbytes // 8, np.uint64, layout)
    words[0] = np.uint64(2**64 - 1)
    expected = _shift_bits(words, 64 * words.shape[1]).sum(axis=1)
    assert np.array_equal(moe._weight(words), expected)


def _offsets_by_bits(pivots):
    """(free, pivot) offsets at each byte of byte rows: the zero (resp. set)
    bits before it."""
    bits = np.unpackbits(pivots, axis=1).astype(np.uint64)
    pivot_off = (np.cumsum(bits, axis=1) - bits)[:, ::8]
    return np.arange(0, bits.shape[1], 8, dtype=np.uint64) - pivot_off, pivot_off


@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize("n", _HELPER_NS)
def test_coset_offsets_equal_bit_cumsum(n, layout):
    rng = np.random.default_rng(n + 1)
    nbytes, _ = _row_sizes(n)
    pivots = _rows(rng, 7, nbytes, np.uint8, layout)
    pivots[0] = 0xFF  # 64 pivots in every word: the largest in-word sum
    pivots[1] = 0
    words = _rows(rng, 7, nbytes // 8, np.uint64, layout)
    for rows, row_bytes in ((pivots, pivots), (words, np.ascontiguousarray(words).view(np.uint8))):
        got = moe._coset_offsets(rows)
        assert got[0].dtype == got[1].dtype == np.uint64
        for got_off, off in zip(got, _offsets_by_bits(row_bytes)):
            assert np.array_equal(got_off, off)


def _deposit_by_bits(src, mask, offset):
    """The deposit bit by bit: the set bits of mask byte j, in order, take
    source bits offset[j], offset[j] + 1, ...; bits past the source read 0."""
    src_bits = _shift_bits(src, 64 * src.shape[1])
    mask_bits = np.unpackbits(mask, axis=1)
    out = np.zeros_like(mask_bits)
    for i, j in itertools.product(range(mask.shape[0]), range(mask.shape[1])):
        k = int(offset[i, j])
        for bit in range(8 * j, 8 * j + 8):
            if mask_bits[i, bit]:
                out[i, bit] = src_bits[i, k] if k < src_bits.shape[1] else 0
                k += 1
    return np.packbits(out, axis=1)


@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize("n", _HELPER_NS)
def test_deposit_equals_bit_loop_on_coset_layouts(n, layout):
    # the kernels' use: t onto the free coordinates and t' onto the pivots,
    # each from the offsets of the bit-by-bit prefix counts
    rng = np.random.default_rng(n + 2)
    half, (nbytes, nwords) = n // 2, _row_sizes(n)
    theta = np.zeros((6, 8 * nbytes), dtype=np.uint8)
    for row in theta:
        row[rng.permutation(n)[:half]] = 1
    theta[0, :n] = np.arange(n) >= half  # every free coordinate first
    coords = (np.arange(8 * nbytes) < n).astype(np.uint8)
    for mask_bits in (theta, coords ^ theta):
        src = _rows(rng, 6, nwords, np.uint64, layout)
        # as ``TrialReader.packed`` leaves them, the bits past n/2 are zero
        src[:, -1] &= np.uint64(((1 << 64) - 1) ^ ((1 << (64 * nwords - half)) - 1))
        before = np.cumsum(mask_bits, axis=1, dtype=np.uint64) - mask_bits
        offset = before[:, ::8]
        mask = np.packbits(mask_bits, axis=1)
        expected = _deposit_by_bits(src, mask, offset)
        wide = np.zeros((6, 2 * nbytes), dtype=np.uint8)
        wide[:, nbytes:] = mask
        for rows in (mask, mask.view(np.uint64), wide[:, nbytes:]):
            got = moe._deposit(src, rows, offset)
            assert got.dtype == np.uint64
            assert np.array_equal(got.view(np.uint8), expected)


@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize("n", _HELPER_NS)
def test_deposit_equals_bit_loop_on_any_mask(n, layout):
    # any mask bytes, and offsets up to a word past the end of the source
    rng = np.random.default_rng(n + 3)
    nbytes, nwords = _row_sizes(n)
    src = _rows(rng, 6, nwords, np.uint64, layout)
    mask = _rows(rng, 6, nbytes, np.uint8, layout)
    offset = _rows(rng, 6, nbytes, np.uint64, layout) % np.uint64(64 * nwords + 64)
    offset[0] = 64 * nwords  # every window past the end
    got = moe._deposit(src, mask, offset)
    assert np.array_equal(got.view(np.uint8), _deposit_by_bits(src, mask, offset))
