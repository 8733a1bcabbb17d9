"""Protocol-level tests: transcripts, commitments, and the four protocols."""

import hashlib
import inspect
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetmoe import mc, moe, proto
from cosetmoe.ecc import align_batch, make_code, syndrome_batch
from cosetmoe.gf2 import Gf2Vec, IndexSubset, coset_elements
from cosetmoe.mc import (
    TrialReader,
    bits_from_words,
    stream_key,
    top_k_mask,
    trial_words,
    words_for,
)
from cosetmoe.proto import (
    InterceptResend,
    KeepAndSubstitute,
    MessageSource,
    PauliNoise,
    QecmParams,
    QkdParams,
    SyndromeFault,
    TfkwParams,
    Transcript,
    UrbcParams,
    qecm_experiment,
    riqkd_experiment,
    run_qecm_id,
    run_riqkd,
    run_tfkw,
    run_urbc,
    secrecy_exact,
    secrecy_probe,
    tfkw_experiment,
    trial_rng,
    urbc_experiment,
    urbc_hiding_exact,
)
from cosetmoe.qsim import CosetDescriptor
import statevector_referee as referee


def _sigma(p, trials):
    return math.sqrt(p * (1 - p) / trials)


def _window_rng(seed, stream, words, trial):
    """A generator positioned at the start of a trial's window."""
    bitgen = np.random.Philox(key=stream_key(seed, stream))
    bitgen.advance(trial * words // 4)
    return np.random.Generator(bitgen)


def _windows(seed, stream, words, trials):
    """The windows of trials [0, trials) of an experiment's stream, one per
    row, as the experiment's batch kernel reads them."""
    return TrialReader(trial_words(stream_key(seed, stream), words, 0, trials))


# ------------------------------------------------------------------
# plumbing
# ------------------------------------------------------------------


def test_trial_rng_is_deterministic_and_decorrelated():
    a = trial_rng(7, 3).integers(0, 2, size=64)
    b = trial_rng(7, 3).integers(0, 2, size=64)
    c = trial_rng(7, 4).integers(0, 2, size=64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        trial_rng(-1, 0)


def test_only_the_key_space_tests_call_trial_rng():
    # runs and statistics read the experiments' windows (_window_rng, or a
    # batch kernel on _windows), so no count rests on a second key space
    callers = {name for name, fn in globals().items()
               if inspect.isfunction(fn) and fn.__module__ == __name__
               and re.search(r"\btrial_rng\(", inspect.getsource(fn))}
    assert callers == {"test_trial_rng_is_deterministic_and_decorrelated",
                       "test_protocol_streams_do_not_alias_moe_or_trial_rng"}


def test_transcript_labels_and_serialisation():
    tr = Transcript()
    tr.send("alice", "bob", "greeting", Gf2Vec([1, 0, 1]))
    tr.send_quantum("alice", "bob", "state", "qreg:0")
    tr.send("bob", "alice", "reply", 1)
    assert len(tr) == 3
    assert tr.value("reply") == 1
    assert tr.has("state") and not tr.has("missing")
    with pytest.raises(KeyError):
        tr.value("missing")
    # quantum handles are not part of Eve's view
    assert [m.label for m in tr.messages if m.eve_visible] == ["greeting", "reply"]
    lines = tr.to_jsonl().splitlines()
    assert len(lines) == 3
    rows = [json.loads(line) for line in lines]
    assert rows[0]["payload_hex"] == Gf2Vec([1, 0, 1]).to_hex()
    assert rows[1]["qreg_id"] == "qreg:0"
    assert rows[1]["eve_visible"] is False
    assert [r["idx"] for r in rows] == [0, 1, 2]


def test_transcript_rejects_unserialisable_payloads():
    # numpy scalars and floats too, also inside containers
    for payload in (object(), np.int64(3), np.uint8(1), np.bool_(True), 0.5,
                    (1, np.int64(2)), {"k": [np.int32(0)]}, IndexSubset(4, np.array([1, 2]))):
        tr = Transcript()
        tr.send("a", "b", "bad", payload)
        with pytest.raises(TypeError):
            tr.to_jsonl()


def _jsonable(value):
    """The payload as plain JSON values, by the rule in ``to_jsonl``'s
    docstring: a Gf2Vec is its hex, an IndexSubset its index list, a tuple
    a list, bytes their hex and dict keys strings."""
    if isinstance(value, Gf2Vec):
        return value.to_hex()
    if isinstance(value, IndexSubset):
        return list(value.indices)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, bytes):
        return value.hex()
    return value


_vecs = st.lists(st.integers(0, 1), max_size=70).map(Gf2Vec)
_subsets = st.integers(1, 20).flatmap(
    lambda n: st.sets(st.integers(0, n - 1)).map(lambda idx: IndexSubset(n, tuple(idx))))
_payloads = st.recursive(
    st.integers() | st.booleans() | st.none() | st.text() | st.binary() | _vecs | _subsets,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text() | st.integers(), inner, max_size=4)),
    max_leaves=12,
)


@given(st.lists(st.tuples(st.text(), st.text(), _payloads, st.booleans()), max_size=5))
@settings(max_examples=300, deadline=None)
def test_transcript_jsonl_matches_the_documented_rule(sends):
    tr = Transcript()
    for sender, label, payload, quantum in sends:
        if quantum:
            tr.send_quantum(sender, "bob", label, label)
        else:
            tr.send(sender, "bob", label, payload)
    text = tr.to_jsonl()
    want = []
    for idx, (sender, label, payload, quantum) in enumerate(sends):
        row = {"idx": idx, "from": sender, "to": "bob", "label": label}
        if quantum:
            row["qreg_id"] = label
        elif isinstance(payload, Gf2Vec):
            row["payload_hex"] = payload.to_hex()
        else:
            body = json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"))
            row["payload_hex"] = body.encode().hex()
        row["eve_visible"] = not quantum
        want.append(json.dumps(row, separators=(",", ":")))
    assert text == "\n".join(want)


def test_pauli_noise_flips_only_matching_basis():
    theta = np.array([0, 0, 1, 1, 0, 1], dtype=np.uint8)
    keys = np.array([0, 1, 2**31, 7, 2**32 - 1, 0], dtype=np.uint32)
    flipped = PauliNoise(dx=1.0, dz=0.0).flips(theta, keys)
    assert np.array_equal(flipped, (theta == 0).astype(np.uint8))
    flipped = PauliNoise(dx=0.0, dz=1.0).flips(theta, keys)
    assert np.array_equal(flipped, theta)
    with pytest.raises(ValueError):
        PauliNoise(dx=1.5)


@pytest.mark.parametrize("d", [0.0, 2.0**-53, 0.005, 1.0 / 3.0, 1.0])
def test_pauli_noise_key_threshold_agrees_with_float_compare(d):
    edge = math.ceil(Fraction(d) * 2**32)  # 2^32 at d = 1: no uint32 holds it
    keys = np.array(sorted({k for k in (0, edge - 1, edge, edge + 1, 2**32 - 1)
                            if 0 <= k < 2**32}), dtype=np.uint32)
    want = keys.astype(np.float64) * 2.0**-32 < d
    for theta_bit in (0, 1):
        theta = np.full(keys.shape, theta_bit, dtype=np.uint8)
        got = PauliNoise(dx=d, dz=d).flips(theta, keys)
        assert np.array_equal(got, want.astype(np.uint8)), (d, theta_bit)


@pytest.mark.parametrize("dx,dz", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0),
                                   (0.3, 0.15), (2.0**-32, 1.0 - 2.0**-32),
                                   (0.005, 0.005)])
def test_pauli_noise_one_key_rule_equals_where(dx, dz):
    rng = np.random.default_rng(17)
    keys = rng.integers(0, 2**32, size=(7, 300), dtype=np.uint64).astype(np.uint32)
    keys[:, :4] = [0, 1, 2**32 - 2, 2**32 - 1]
    theta = rng.integers(0, 2, size=keys.shape, dtype=np.uint8)
    u = keys * 2.0**-32
    want = np.where(theta == 0, u < dx, u < dz).astype(np.uint8)
    got = PauliNoise(dx=dx, dz=dz).flips(theta, keys)
    assert got.dtype == np.uint8 and np.array_equal(got, want)
    if (dx, dz) == (1.0, 1.0):
        assert got.all()
    if (dx, dz) == (0.0, 0.0):
        assert not got.any()


def _plan_and_gather(theta, t, tp, flips):
    """Reference for ``proto._place_flips``: the flat position plans of the
    θ=0 and θ=1 coordinates, the flips gathered along them, and the distance
    as a dense XOR-sum."""
    half = t.shape[1]
    free, pivots = np.flatnonzero(theta == 0), np.flatnonzero(theta == 1)
    t_hat = t ^ np.take(flips, free).reshape(-1, half)
    tp_hat = tp ^ np.take(flips, pivots).reshape(-1, half)
    return t_hat, tp_hat, (t_hat ^ t).sum(axis=1)


@pytest.mark.parametrize("n", [2, 14, 62, 64, 66, 128, 130, 3780])
def test_place_flips_equals_plan_and_gather(n):
    half, trials = n // 2, 9
    words = trial_words(n, words_for(bit_fields=(half, half), key_fields=(n, n)), 0, trials)
    r = TrialReader(words)
    theta = top_k_mask(r.keys(n), half)
    t, tp = r.bits(half), r.bits(half)
    keys = r.keys(n)
    assert not keys.flags.c_contiguous  # a strided window of the block, as kernels read it
    boundary = np.zeros_like(theta)
    boundary[:, [c for c in (0, 63, 64, 127, n - 1) if c < n]] = 1
    cases = {"none": np.zeros_like(theta), "every": np.ones_like(theta), "boundary": boundary}
    for dx, dz in [(0.005, 0.005), (0.5, 0.5), (0.1, 0.9)]:  # sparse and dense: one path
        cases[f"noise {dx} {dz}"] = PauliNoise(dx, dz).flips(theta, keys)
    t_in, tp_in = t.copy(), tp.copy()
    for name, flips in cases.items():
        got = proto._place_flips(theta, t, tp, flips)
        want = _plan_and_gather(theta, t, tp, flips)
        for field, g, w in zip(("t_hat", "tp_hat", "est_distance"), got, want):
            assert np.array_equal(g, w), (name, field)
    assert np.array_equal(t, t_in) and np.array_equal(tp, tp_in)


# ------------------------------------------------------------------
# interactive encryption
# ------------------------------------------------------------------


def test_qecm_params_validation():
    with pytest.raises(ValueError):
        QecmParams(7, 2)
    with pytest.raises(ValueError):
        QecmParams(8, 0)
    with pytest.raises(ValueError):
        QecmParams(8, 2, family="diagonal")


def test_qecm_honest_runs_always_decrypt():
    params = QecmParams(8, 2)
    words = proto._qecm_words(params, None, None)
    for i in range(400):
        out = run_qecm_id(params, _window_rng(11, proto._QECM_STREAM, words, i))
        assert out.f == 1
        assert out.m_hat == out.m
        assert out.m_check is None
    # transcript shape of an accepted honest run
    labels = [m.label for m in out.transcript.messages]
    assert labels == [
        "ciphertext_pad", "coset_state", "subspace",
        "position_response", "accept_flag", "key_release",
    ]


def test_qecm_honest_runs_statevector_family():
    params = QecmParams(4, 1, family="all")
    words = proto._qecm_words(params, None, None)
    for i in range(60):
        out = run_qecm_id(params, _window_rng(12, proto._QECM_STREAM, words, i))
        assert out.f == 1 and out.m_hat == out.m


def test_qecm_keep_all_accept_rate_is_blind_guessing():
    trials = 20_000
    rep = qecm_experiment("uncloneable", QecmParams(8, 2), adversary="keep_all",
                          trials=trials, seed=13)
    p = 2.0 ** -4
    assert abs(rep["accepts"] / trials - p) <= 3 * _sigma(p, trials)


def test_qecm_keep_all_eve_decrypts_exactly_on_accept():
    params = QecmParams(8, 2)
    words = proto._qecm_words(params, "keep_all", None)
    seen_accept = False
    for i in range(600):
        out = run_qecm_id(params, _window_rng(14, proto._QECM_STREAM, words, i), eve="keep_all")
        if out.f == 1:
            seen_accept = True
            assert out.m_check == out.m  # she kept the whole state
    assert seen_accept


def test_qecm_measure_computational_never_aborts():
    trials = 3000
    rep = qecm_experiment("uncloneable", QecmParams(8, 2), adversary="measure_computational",
                          trials=trials, seed=15)
    assert rep["accepts"] == trials  # the forwarded string decodes the position exactly
    # Eve's phase read is a fresh coin string: the pad matches only by chance
    p = 2.0 ** -2 + 2.0 ** -4 * (1 - 2.0 ** -2)
    assert abs(rep["wins"] / trials - p) <= 4 * _sigma(p, trials)


def test_qecm_accept_is_message_independent():
    params = QecmParams(8, 2)
    trials = 5000
    accepts = []
    for m_int in (0, 3):
        fixed = Gf2Vec.from_int(m_int, 2).bits
        words = proto._qecm_words(params, "keep_all", fixed)
        windows = _windows(16, proto._QECM_STREAM, words, trials)
        accepts.append(proto._qecm_batch(params, windows, "keep_all", fixed).f)
    # both messages run on the same windows, so Alice accepts the same rows
    assert np.array_equal(accepts[0], accepts[1])
    rates = [f.mean() for f in accepts]
    p = 2.0 ** -4
    assert abs(rates[0] - rates[1]) <= 3 * math.sqrt(2 * p * (1 - p) / trials)


def test_qecm_message_length_and_eve_kind_validation():
    params = QecmParams(8, 2)
    rng = _window_rng(0, proto._QECM_STREAM, proto._qecm_words(params, None, None), 0)
    with pytest.raises(ValueError):
        run_qecm_id(params, rng, message=Gf2Vec([1, 0, 1]))
    with pytest.raises(ValueError):
        run_qecm_id(params, rng, eve="clone")


def test_qecm_correctness_experiment():
    rep = qecm_experiment("correctness", QecmParams(8, 2), trials=300, seed=17)
    assert rep["pass"] and rep["disagreements"] == 0


def test_qecm_uncloneable_experiment_under_both_adversaries():
    params = QecmParams(8, 2)
    for adversary in ("keep_all", "measure_computational"):
        rep = qecm_experiment(
            "uncloneable", params, adversary=adversary, trials=4000, seed=18
        )
        assert rep["pass"], rep
        assert rep["wins"] <= rep["accepts"]
        assert rep["min_entropy"] == 2.0


def test_qecm_uncloneable_with_biased_source():
    params = QecmParams(8, 2)
    rep = qecm_experiment(
        "uncloneable", params, adversary="keep_all", trials=3000, seed=19,
        message_probs=[0.7, 0.1, 0.1, 0.1],
    )
    assert rep["min_entropy"] == pytest.approx(-math.log2(0.7))
    assert rep["pass"], rep
    with pytest.raises(ValueError):
        qecm_experiment(
            "uncloneable", params, trials=10, seed=0, message_probs=[0.5, 0.5]
        )


def test_qecm_uncloneable_indistinguishable_experiment():
    rep = qecm_experiment(
        "uncloneable_indistinguishable", QecmParams(8, 2),
        adversary="keep_all", trials=4000, seed=20,
    )
    assert rep["pass"], rep
    assert rep["advantage"] <= rep["epsilon_bound"]


def test_qecm_indistinguishability_exact_small():
    # one-bit messages keep the enumeration quick; the padding bit makes the
    # averaged ciphertext operators for the two messages literally identical
    rep = qecm_experiment("indistinguishable", QecmParams(4, 1))
    assert rep["max_trace_distance"] <= 1e-9
    assert rep["pass"]


def test_qecm_indistinguishability_guards():
    with pytest.raises(ValueError):
        qecm_experiment("indistinguishable", QecmParams(8, 2))
    with pytest.raises(ValueError):
        qecm_experiment("indistinguishable", QecmParams(4, 1, family="all"))
    with pytest.raises(ValueError):
        qecm_experiment("warp", QecmParams(4, 1))


# ------------------------------------------------------------------
# uncloneable commitment
# ------------------------------------------------------------------


def _urbc_params(ell=2, scheme="ideal", family="register"):
    return UrbcParams(14, ell, 2.0 / 7.0, make_code("hamming74"), scheme=scheme, family=family)


def test_urbc_params_validation():
    code = make_code("hamming74")
    with pytest.raises(ValueError):
        UrbcParams(12, 2, 0.5, code)  # code length 7 != 6
    with pytest.raises(ValueError):
        UrbcParams(14, 2, 0.3, code)  # 0.3 * 7 is not an integer
    with pytest.raises(ValueError):
        UrbcParams(14, 2, 2.0 / 7.0, code, scheme="vault")
    with pytest.raises(ValueError):
        UrbcParams(14, 2, 2.0 / 7.0, code, family="diagonal")


def test_urbc_honest_roundtrip():
    params = _urbc_params()
    words = proto._urbc_words(params)
    for i in range(300):
        out = run_urbc(params, _window_rng(21, proto._URBC_STREAM, words, i))
        assert out.g == 1 and out.f == 1
        assert out.y_hat == out.y
    labels = [m.label for m in out.transcript.messages]
    assert labels == [
        "base_commitment", "coset_state", "subspace", "position_response",
        "check_flag", "spot_subset", "syndrome", "spot_bits", "opening",
        "reveal_flag",
    ]


def test_urbc_honest_roundtrip_hash_scheme():
    params = _urbc_params(scheme="hash_based")
    words = proto._urbc_words(params)
    for i in range(50):
        out = run_urbc(params, _window_rng(22, proto._URBC_STREAM, words, i))
        assert out.f == 1 and out.y_hat == out.y


def test_urbc_committed_string_is_uniform():
    # y = extract(t', r) + h with h uniform, so the opened string is exactly
    # uniform; chi-square over the four two-bit values
    params = _urbc_params()
    trials = 5000
    windows = _windows(23, proto._URBC_STREAM, proto._urbc_words(params), trials)
    y = proto._urbc_batch(params, windows, "honest").y
    counts = np.bincount(2 * y[:, 0] + y[:, 1], minlength=4)
    expected = trials / 4
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 16.27  # p ~ 1e-3 at three degrees of freedom


def test_urbc_binding_attack_rate_matches_hypergeometric():
    params = _urbc_params()
    trials = 10_000
    windows = _windows(24, proto._URBC_STREAM, proto._urbc_words(params), trials)
    b = proto._urbc_batch(params, windows, "binding_attack")
    assert b.g.all()  # the check phase is played honestly
    accepts = int(b.f.sum())
    mismatched_on_accept = int((b.f & (b.y_hat != b.y).any(axis=1)).sum())
    rate = accepts / trials
    target = math.comb(4, 2) / math.comb(7, 2)  # spot misses the codeword
    assert abs(rate - target) <= 3 * _sigma(target, trials)
    assert rate <= (4.0 / 7.0) ** 2 + 3 * _sigma(target, trials)
    # when the substituted word survives, the opened string usually differs
    cond = mismatched_on_accept / accepts
    assert abs(cond - 0.75) <= 4 * _sigma(0.75, accepts)


def test_urbc_binding_experiment_report():
    rep = urbc_experiment("binding", _urbc_params(), trials=4000, seed=25)
    assert rep["pass"], rep
    assert rep["analytic_rate"] == pytest.approx(6 / 21)
    assert rep["binding_bound"] == pytest.approx(16 / 49)


def test_urbc_correctness_experiment():
    rep = urbc_experiment("correctness", _urbc_params(), trials=200, seed=26)
    assert rep["pass"] and rep["disagreements"] == 0
    with pytest.raises(ValueError):
        urbc_experiment("bend", _urbc_params(), trials=10, seed=0)


def _urbc_all_params(scheme="ideal"):
    return UrbcParams(6, 1, 1.0 / 3.0, make_code("repetition", 3), scheme=scheme, family="all")


@pytest.mark.parametrize("scheme", ["ideal", "hash_based"])
def test_urbc_general_family_honest_runs(scheme):
    params = _urbc_all_params(scheme)
    words = proto._urbc_words(params)
    for i in range(40):
        out = run_urbc(params, _window_rng(28, proto._URBC_STREAM, words, i))
        assert out.g == 1 and out.f == 1
        assert out.y_hat == out.y


def test_urbc_general_family_binding_attack_never_opens():
    # the spot (one of three positions) always meets the weight-3 codeword's
    # support: the hypergeometric acceptance C(3-3, 1) / C(3, 1) is 0
    params = _urbc_all_params()
    w = params.code.min_weight_codeword.weight()
    assert math.comb(params.half - w, params.spot_size) == 0
    words = proto._urbc_words(params)
    for i in range(40):
        out = run_urbc(params, _window_rng(29, proto._URBC_STREAM, words, i),
                       alice="binding_attack")
        assert out.g == 1 and out.f == 0 and out.y_hat is None


@pytest.mark.parametrize("alice", ["honest", "binding_attack"])
def test_urbc_general_family_replays_its_window(alice):
    # one generator read run after run, a generator positioned at each
    # window, and the batch function on the block of windows all agree
    params = _urbc_all_params("hash_based")
    words = proto._urbc_words(params)
    key = stream_key(30, proto._URBC_STREAM)
    b = proto._urbc_batch(params, TrialReader(trial_words(key, words, 0, 6)), alice)
    sequential = _window_rng(30, proto._URBC_STREAM, words, 0)
    for i in range(6):
        out = run_urbc(params, sequential, alice=alice)
        again = run_urbc(params, _window_rng(30, proto._URBC_STREAM, words, i), alice=alice)
        assert out.transcript.to_jsonl() == again.transcript.to_jsonl()
        assert (out.y, out.g, out.f) == (again.y, again.g, again.f) == (
            Gf2Vec(b.y[i]), int(b.g[i]), int(b.f[i]))
        assert out.transcript.value("subspace") == b.states.subspace(i).to_json()


def test_general_family_runs_past_the_statevector_limit():
    # both closed-form reads at n = 64, beyond any 2^n statevector
    params = UrbcParams(64, 2, 0.25, make_code("block_repeat", 8, 4), family="all")
    qecm = QecmParams(64, 2, family="all")
    words = proto._urbc_words(params)
    for i in range(5):
        out = run_urbc(params, _window_rng(31, proto._URBC_STREAM, words, i))
        assert out.g == 1 and out.f == 1 and out.y_hat == out.y
    words = proto._qecm_words(qecm, "measure_computational", None)
    b = proto._qecm_batch(qecm, _windows(31, proto._QECM_STREAM, words, 5),
                          "measure_computational", None)
    assert b.f.all() and np.array_equal(b.m_check, b.m_hat)
    for i in range(5):  # each forwarded string lies in the coset of its t
        t, _ = referee.solve_coset_membership(b.states.subspace(i), Gf2Vec(b.states.forwarded[i]))
        assert np.array_equal(t.bits, b.t_hat[i])
    # c is n/2 window bits, so the read has no size limit: n = 108 reads 54
    over = QecmParams(108, 2, family="all")
    words = proto._qecm_words(over, "measure_computational", None)
    b = proto._qecm_batch(over, _windows(31, proto._QECM_STREAM, words, 5),
                          "measure_computational", None)
    assert b.f.all()
    for i in range(5):
        t, _ = referee.solve_coset_membership(b.states.subspace(i), Gf2Vec(b.states.forwarded[i]))
        assert np.array_equal(t.bits, b.t_hat[i])
    out = run_qecm_id(over, _window_rng(31, proto._QECM_STREAM, words, 0),
                      eve="measure_computational")
    assert out.f == 1


def test_urbc_hiding_exact_is_zero():
    params = UrbcParams(4, 1, 0.5, make_code("repetition", 2))
    assert urbc_hiding_exact(params) <= 1e-9
    with pytest.raises(ValueError):
        urbc_hiding_exact(UrbcParams(8, 1, 0.25, make_code("repetition", 4)))
    with pytest.raises(ValueError):
        urbc_hiding_exact(
            UrbcParams(4, 1, 0.5, make_code("repetition", 2), scheme="hash_based")
        )
    with pytest.raises(ValueError, match="register family"):
        urbc_hiding_exact(UrbcParams(4, 1, 0.5, make_code("repetition", 2), family="all"))


# ------------------------------------------------------------------
# receiver-independent key distribution
# ------------------------------------------------------------------


def _qkd_params(n=16, ell=2, gamma=0.0, eta=0.25, code=None):
    code = code if code is not None else make_code("repetition", n // 2)
    return QkdParams(n, ell, gamma, eta, code)


def test_qkd_params_validation():
    with pytest.raises(ValueError):
        _qkd_params(n=14)  # repetition(7) fine, but eta*7 not integral
    with pytest.raises(ValueError):
        QkdParams(16, 2, 0.7, 0.25, make_code("repetition", 8))
    with pytest.raises(ValueError):
        QkdParams(16, 2, 0.0, 0.25, make_code("repetition", 4))
    # 22 syndrome bits is past the decoder limit: refused here, not at run time
    with pytest.raises(ValueError, match="decoding"):
        QkdParams(60, 2, 0.0, 0.5, make_code("random_linear", 30, 8, 0))


def test_riqkd_honest_noiseless():
    params = _qkd_params()
    words = proto._riqkd_words(params, None, None)
    for i in range(200):
        out = run_riqkd(params, _window_rng(31, proto._QKD_STREAM, words, i))
        assert out.f == 1
        assert out.k == out.k_hat
        assert out.est_distance == 0 and out.recon_mismatches == 0
        assert out.eve_guess is None
    labels = [m.label for m in out.transcript.messages]
    # the extractor seed is the last message: nothing is extracted until the
    # device has passed every challenge
    assert labels == [
        "coset_state", "subspace", "position_response", "estimate_flag",
        "syndrome_response", "spot_subset", "spot_response", "reconcile_flag",
        "extractor_seed",
    ]


def test_riqkd_transcript_is_reproducible():
    params = _qkd_params()
    words = proto._riqkd_words(params, None, None)
    a = run_riqkd(params, _window_rng(32, proto._QKD_STREAM, words, 5)).transcript.to_jsonl()
    b = run_riqkd(params, _window_rng(32, proto._QKD_STREAM, words, 5)).transcript.to_jsonl()
    assert a == b


def test_riqkd_flags_match_transcript():
    params = _qkd_params(gamma=0.25, eta=0.25)
    noise = PauliNoise(dx=0.15, dz=0.05)
    words = proto._riqkd_words(params, noise, None)
    saw_abort = saw_accept = False
    for i in range(300):
        out = run_riqkd(params, _window_rng(33, proto._QKD_STREAM, words, i), noise=noise)
        tr = out.transcript
        est_ok = out.est_distance <= params.gamma * params.half
        assert tr.value("estimate_flag") == int(est_ok)
        if not est_ok:
            assert out.f == 0 and out.k is None and out.recon_mismatches is None
            assert not tr.has("extractor_seed")
            saw_abort = True
            continue
        assert tr.has("syndrome_response")
        if out.f:
            assert out.recon_mismatches == 0
            assert tr.value("reconcile_flag") == 1
            assert tr.messages[-1].label == "extractor_seed"
            saw_accept = True
        else:
            assert out.recon_mismatches > 0
            assert not tr.has("extractor_seed")
    assert saw_abort and saw_accept


def test_riqkd_tolerated_noise_still_yields_matching_keys():
    # phase flips at 2% against a repetition(8) block: correction is
    # essentially always within the decoding radius at this seed
    params = _qkd_params(gamma=0.25)
    noise = PauliNoise(dx=0.0, dz=0.02)
    windows = _windows(34, proto._QKD_STREAM, proto._riqkd_words(params, noise, None), 300)
    b = proto._riqkd_batch(params, windows, noise, "honest", None)
    assert (b.k == b.k_hat)[b.f].all()
    assert b.f.sum() > 250


def test_riqkd_position_noise_moves_the_estimate():
    params = _qkd_params(gamma=0.5)
    noise = PauliNoise(dx=0.2, dz=0.0)
    windows = _windows(35, proto._QKD_STREAM, proto._riqkd_words(params, noise, None), 200)
    mean = proto._riqkd_batch(params, windows, noise, "honest", None).est_distance.mean()
    assert 0.8 < mean < 2.6  # Binomial(8, 0.2) has mean 1.6


def test_riqkd_device_fault_matches_closed_form():
    params = QkdParams(14, 2, 0.0, 2.0 / 7.0, make_code("hamming74"))
    trials = 10_000
    rep = riqkd_experiment("device_fault", params, trials=trials, seed=36)
    # the fault codeword survives the spot check with the hypergeometric rate
    rate = rep["accepts"] / trials
    wrong = rep["wrong_key_accepts"]
    assert abs(rate - 6 / 21) <= 3 * _sigma(6 / 21, trials)
    # and the keys then disagree unless the extractor kills the codeword
    target = (6 / 21) * 0.75
    assert abs(wrong / trials - target) <= 3 * _sigma(target, trials)
    assert wrong / trials <= (4.0 / 7.0) ** 2 + 3 * _sigma(target, trials)


def test_riqkd_device_fault_experiment_report():
    params = QkdParams(14, 2, 0.0, 2.0 / 7.0, make_code("hamming74"))
    rep = riqkd_experiment("device_fault", params, trials=4000, seed=37)
    assert rep["pass"], rep
    assert rep["correctness_bound"] == pytest.approx((4 / 7) ** 2)


def test_riqkd_keep_and_substitute_is_mostly_caught():
    params = _qkd_params(n=8, eta=0.25, code=make_code("repetition", 4))
    trials = 20_000
    rep = secrecy_probe(params, eve=KeepAndSubstitute(), trials=trials, seed=38)
    # on the rare accept she holds the genuine record: her corrected phase
    # word is Alice's, so her key guess is exact, and both sit under the bound
    assert rep["guess_and_accept"] == rep["accepts"]
    assert rep["pass"], rep
    p = 2.0 ** -4
    assert rep["accepts"] / trials <= p + 3 * _sigma(p, trials)


def test_riqkd_intercept_resend_is_caught():
    params = _qkd_params(n=64, gamma=0.03, eta=0.25,
                         code=make_code("block_repeat", 8, 4))
    trials = 5000
    joint = secrecy_probe(params, eve=InterceptResend(), trials=trials, seed=39)["accepts"]
    assert riqkd_experiment("correctness", params, trials=200, seed=40)["aborts"] == 0
    assert joint / trials < 1e-2


def test_riqkd_completeness_experiment():
    params = QkdParams(420, 2, 0.05, 0.1, make_code("block_repeat", 21, 10))
    noise = PauliNoise(dx=0.01, dz=0.01)
    rep = riqkd_experiment("completeness", params, trials=300, seed=41, noise=noise)
    assert rep["pass"], rep
    assert rep["abort_estimate"] <= rep["completeness_bound"]
    with pytest.raises(ValueError):
        riqkd_experiment("completeness", params, trials=10, seed=0)


def test_riqkd_experiment_kind_and_device_validation():
    params = _qkd_params()
    rng = _window_rng(0, proto._QKD_STREAM, proto._riqkd_words(params, None, None), 0)
    with pytest.raises(ValueError):
        riqkd_experiment("entangle", params, trials=10, seed=0)
    with pytest.raises(ValueError):
        run_riqkd(params, rng, device="noisy")
    with pytest.raises(ValueError):
        run_riqkd(params, rng, eve="listen")


# ------------------------------------------------------------------
# the reference protocol and its attack
# ------------------------------------------------------------------


def _tfkw_params(n=16, gamma=0.0):
    return TfkwParams(n, gamma, make_code("repetition", n // 2))


def test_tfkw_params_validation():
    with pytest.raises(ValueError):
        TfkwParams(16, 0.0, make_code("repetition", 7))  # length mismatch
    with pytest.raises(ValueError):
        TfkwParams(16, 1.5, make_code("repetition", 8))
    with pytest.raises(ValueError):
        TfkwParams(16, 0.0, make_code("repetition", 8), check_size=16)
    with pytest.raises(ValueError, match="decoding"):
        TfkwParams(60, 0.0, make_code("random_linear", 30, 8, 0))  # 22 syndrome bits


def test_tfkw_honest_noiseless():
    params = _tfkw_params()
    words = proto._tfkw_words(params, None)
    for i in range(100):
        out = run_tfkw(params, _window_rng(51, proto._TFKW_STREAM, words, i))
        assert out.f == 1 and out.k == out.k_hat and out.est_distance == 0


def test_tfkw_substitution_attack_breaks_the_protocol():
    # the device never proves possession, so Eve swaps the state for |0...0>,
    # reads the real one after the bases go public, and scripts the device
    params = _tfkw_params()
    rep = tfkw_experiment(params, eve="substitute_zero", trials=100, seed=52)
    assert rep["aborts"] == 0
    assert rep["eve_matches_device"] == 100
    assert rep["broken"]


def test_tfkw_total_noise_aborts():
    params = _tfkw_params()
    noise = PauliNoise(dx=1.0, dz=1.0)
    rng = _window_rng(53, proto._TFKW_STREAM, proto._tfkw_words(params, noise), 0)
    out = run_tfkw(params, rng, noise=noise)
    assert out.f == 0 and out.k is None
    assert out.est_distance == params.check_size


def test_tfkw_honest_experiment_counts():
    rep = tfkw_experiment(_tfkw_params(), trials=50, seed=54)
    assert rep["aborts"] == 0 and rep["key_matches"] == 50
    assert not rep["broken"]
    rng = _window_rng(0, proto._TFKW_STREAM, proto._tfkw_words(_tfkw_params(), None), 0)
    with pytest.raises(ValueError):
        run_tfkw(_tfkw_params(), rng, eve="substitute_one")


# ------------------------------------------------------------------
# secrecy probes
# ------------------------------------------------------------------


def test_secrecy_exact_toy_leak_is_half():
    # at this size the syndrome and the single spot bit pin the phase word
    # exactly, so the one-bit key is a deterministic function of Eve's view
    params = QkdParams(6, 1, 0.0, 1.0 / 3.0, make_code("repetition", 3))
    rep = secrecy_exact(params)
    assert rep["trace_distance"] == pytest.approx(0.5, abs=1e-12)


def test_secrecy_exact_size_guard():
    params = QkdParams(8, 1, 0.0, 0.25, make_code("repetition", 4))
    with pytest.raises(ValueError):
        secrecy_exact(params)


def test_secrecy_probe_monte_carlo_honest_baseline():
    params = _qkd_params()
    rep = secrecy_probe(params, trials=3000, seed=55)
    assert rep["accepts"] == 3000
    assert rep["pass"], rep
    p = 2.0 ** -2
    assert abs(rep["guess_estimate"] - p) <= 3 * _sigma(p, 3000)


def test_secrecy_probe_window_is_rounded_once(monkeypatch):
    # n=16: the run's fields take 15 words, so the one-word guess fits in
    # its padding and a trial reads 16 words, not 1 + 16 rounded up to 20
    sizes = []
    real = proto._run_trials

    def recording(trials, words, *args):
        sizes.append(words)
        return real(trials, words, *args)

    monkeypatch.setattr(proto, "_run_trials", recording)
    params = _qkd_params()
    secrecy_probe(params, trials=10, seed=0)
    assert sizes == [16] == [proto._riqkd_words(params, None, None)]


# ------------------------------------------------------------------
# batch kernels against per-trial runs on the same windows
# ------------------------------------------------------------------

ORACLE_SEEDS = (0, 7, 2**64 - 1)
ORACLE_TRIALS = 40  # two 16-trial blocks and a partial one (see _small_blocks)


def _small_blocks(monkeypatch, words):
    """Make run_blocks use 16-trial blocks for a window of ``words`` words."""
    monkeypatch.setattr(mc, "_BLOCK_WORDS", 16 * words)


def _prefix(rng, *bit_fields):
    """Read fields of whole words off ``rng`` as a TrialReader would."""
    words = sum(-(-b // 64) for b in bit_fields)
    reader = TrialReader(rng.bit_generator.random_raw(words)[None, :])
    return [reader.bits(b)[0] for b in bit_fields]


_QECM = QecmParams(8, 2)
_QECM_ALL = QecmParams(4, 1, family="all")


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
@pytest.mark.parametrize("params,kind,eve,probs", [
    pytest.param(_QECM, "correctness", None, None, id="correctness-None-None"),
    pytest.param(_QECM, "uncloneable", "keep_all", None, id="uncloneable-keep_all-None"),
    pytest.param(_QECM, "uncloneable", "measure_computational", None,
                 id="uncloneable-measure_computational-None"),
    pytest.param(_QECM, "uncloneable", "keep_all", (0.4, 0.3, 0.2, 0.1),
                 id="uncloneable-keep_all-probs3"),
    pytest.param(_QECM, "uncloneable", "measure_computational", (0.7, 0.1, 0.1, 0.1),
                 id="uncloneable-measure_computational-probs4"),
    pytest.param(_QECM_ALL, "correctness", None, None, id="all-correctness"),
    pytest.param(_QECM_ALL, "uncloneable", "keep_all", None, id="all-keep_all"),
    pytest.param(_QECM_ALL, "uncloneable", "measure_computational", (0.7, 0.3),
                 id="all-measure_computational-probs"),
])
def test_qecm_batch_counts_equal_per_trial_runs(monkeypatch, seed, params, kind, eve, probs):
    source = None if probs is None else MessageSource(probs)
    words = proto._qecm_words(params, eve, source)
    _small_blocks(monkeypatch, words)
    rep = qecm_experiment(kind, params, adversary=eve, trials=ORACLE_TRIALS, seed=seed,
                          message_probs=probs)
    accepts = wins = bad = 0
    for i in range(ORACLE_TRIALS):
        rng = _window_rng(seed, proto._QECM_STREAM, words, i)
        out = run_qecm_id(params, rng, eve=eve, message=source)
        accepts += out.f
        wins += int(out.f == 1 and out.m_check == out.m)
        bad += int(not (out.f == 1 and out.m_hat == out.m))
    if kind == "correctness":
        assert rep["disagreements"] == bad == 0
    else:
        assert (rep["accepts"], rep["wins"]) == (accepts, wins)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
@pytest.mark.parametrize("eve", ["keep_all", "measure_computational"])
def test_qecm_distinguishing_game_equals_per_trial_runs(monkeypatch, seed, eve):
    params = QecmParams(8, 2)
    # the referee's bit y, the alternative message m1 and Eve's fallback coin
    # precede the run's own fields
    words = proto._qecm_words(params, eve, np.zeros(2), lead_bits=(1, 2, 1))
    _small_blocks(monkeypatch, words)
    rep = qecm_experiment("uncloneable_indistinguishable", params, adversary=eve,
                          trials=ORACLE_TRIALS, seed=seed)
    m0 = Gf2Vec.zeros(2)
    accepts = wins = 0
    for i in range(ORACLE_TRIALS):
        rng = _window_rng(seed, proto._QECM_STREAM, words, i)
        y, m1, coin = _prefix(rng, 1, 2, 1)
        m1 = Gf2Vec(m1)
        out = run_qecm_id(params, rng, eve=eve, message=m1 if y[0] else m0)
        if m1 == m0 or out.m_check not in (m0, m1):
            guess = int(coin[0])
        else:
            guess = int(out.m_check == m1)
        accepts += out.f
        wins += int(out.f == 1 and guess == y[0])
    assert (rep["accepts"], rep["wins"]) == (accepts, wins)


@pytest.mark.parametrize("n,ell,expected", [(4, 1, 12), (8, 2, 16)])
def test_qecm_distinguishing_game_window_is_rounded_once(monkeypatch, n, ell, expected):
    # at n=4, ell=1 the referee's three words fit in the run's padding: 12
    # words, not 3 + 12 rounded up to 16
    sizes = []
    real = proto._run_trials

    def recording(trials, words, *args):
        sizes.append(words)
        return real(trials, words, *args)

    monkeypatch.setattr(proto, "_run_trials", recording)
    qecm_experiment("uncloneable_indistinguishable", QecmParams(n, ell), trials=10, seed=0)
    assert sizes == [expected]


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
@pytest.mark.parametrize("kind,scheme,family", [
    ("correctness", "ideal", "register"), ("correctness", "hash_based", "register"),
    ("binding", "ideal", "register"), ("binding", "hash_based", "all"),
], ids=["correctness-ideal", "correctness-hash_based", "binding-ideal", "binding-hash_based-all"])
def test_urbc_batch_counts_equal_per_trial_runs(monkeypatch, seed, kind, scheme, family):
    params = _urbc_params(scheme=scheme, family=family)
    words = proto._urbc_words(params)
    _small_blocks(monkeypatch, words)
    rep = urbc_experiment(kind, params, trials=ORACLE_TRIALS, seed=seed)
    alice = "binding_attack" if kind == "binding" else "honest"
    accepts = bad = 0
    for i in range(ORACLE_TRIALS):
        out = run_urbc(params, _window_rng(seed, proto._URBC_STREAM, words, i), alice=alice)
        accepts += out.f
        bad += int(not (out.g == 1 and out.f == 1 and out.y_hat == out.y))
    if kind == "correctness":
        assert rep["disagreements"] == bad == 0
    else:
        assert rep["accepts"] == accepts


_QKD_H74 = QkdParams(14, 2, 0.0, 2.0 / 7.0, make_code("hamming74"))
_QKD_NOISY = QkdParams(16, 2, 0.25, 0.25, make_code("repetition", 8))


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
@pytest.mark.parametrize("params,kind,noise,fault", [
    (_QKD_NOISY, "correctness", None, None),
    (_QKD_NOISY, "correctness", PauliNoise(dx=0.15, dz=0.1), None),
    (_QKD_H74, "device_fault", None, SyndromeFault()),
    (_QKD_H74, "device_fault", PauliNoise(dx=0.05, dz=0.05), SyndromeFault()),
])
def test_riqkd_batch_counts_equal_per_trial_runs(monkeypatch, seed, params, kind, noise, fault):
    words = proto._riqkd_words(params, noise, None)
    _small_blocks(monkeypatch, words)
    rep = riqkd_experiment(kind, params, trials=ORACLE_TRIALS, seed=seed, noise=noise)
    accepts = wrong = 0
    for i in range(ORACLE_TRIALS):
        rng = _window_rng(seed, proto._QKD_STREAM, words, i)
        out = run_riqkd(params, rng, noise=noise, device=fault or "honest")
        accepts += out.f
        wrong += int(out.f == 1 and out.k != out.k_hat)
    if kind == "correctness":
        assert (rep["aborts"], rep["key_mismatches_accepted"]) == (ORACLE_TRIALS - accepts, wrong)
    else:
        assert (rep["accepts"], rep["wrong_key_accepts"]) == (accepts, wrong)


_TFKW_NOISY = _tfkw_params(gamma=0.25)
_TFKW_NOISE = PauliNoise(dx=0.15, dz=0.15)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("params,eve,noise", [
    pytest.param(_tfkw_params(), None, None, id="honest"),
    pytest.param(_tfkw_params(), "substitute_zero", None, id="substitute_zero"),
    pytest.param(_TFKW_NOISY, None, _TFKW_NOISE, id="noise"),
    # heavy enough that some trials abort and some accepted keys differ
    pytest.param(_TFKW_NOISY, None, PauliNoise(dx=0.3, dz=0.3), id="noise-heavy"),
])
def test_tfkw_batch_counts_equal_per_trial_runs(monkeypatch, seed, threads, params, eve, noise):
    words = proto._tfkw_words(params, noise)
    _small_blocks(monkeypatch, words)
    rep = tfkw_experiment(params, eve=eve, trials=ORACLE_TRIALS, seed=seed, noise=noise,
                          threads=threads)
    aborts = key_matches = eve_matches = 0
    for i in range(ORACLE_TRIALS):
        rng = _window_rng(seed, proto._TFKW_STREAM, words, i)
        out = run_tfkw(params, rng, eve=eve, noise=noise)
        aborts += 1 - out.f
        key_matches += int(out.f == 1 and out.k == out.k_hat)
        eve_matches += int(out.f == 1 and out.eve_guess == out.k_hat)
    assert (rep["aborts"], rep["key_matches"], rep["eve_matches_device"]) == (
        aborts, key_matches, eve_matches)


# ------------------------------------------------------------------
# the general family's closed-form reads against the statevector
# ------------------------------------------------------------------


@pytest.mark.parametrize("computational", [False, True], ids=["coset", "computational"])
@pytest.mark.parametrize("n", range(2, 16, 2))
def test_general_family_reads_equal_statevector_measurements(n, computational):
    # the coset read equals the statevector's measurement row by row; the
    # computational read, over every value of its n/2 window bits c, has the
    # statevector's Born law, and each row decodes to (t, c)
    half = n // 2
    bits, keys = proto._coset_fields("all", n, computational)
    words = np.random.Philox(key=stream_key(n, computational)).random_raw(
        (500, words_for(bit_fields=(*bits, half, half), key_fields=keys)))
    r = TrialReader(words)
    states = proto._CosetStates("all", n, r)
    t, tp = r.bits(half), r.bits(half)
    t_hat, tp_hat = states.read(t, tp, r, computational)
    every_c = ((np.arange(1 << half)[:, None] >> np.arange(half)) & 1).astype(np.uint8)
    for i in range(r.count):
        a = states.subspace(i)
        reg = referee.prepare(CosetDescriptor(a, Gf2Vec(t[i]), Gf2Vec(tp[i])))
        if computational:
            born = np.abs(reg.payload.amps) ** 2
            support = np.flatnonzero(born > 1e-12)
            assert np.allclose(born[support], 1 / len(every_c))
            law = coset_elements(np.tile(a.basis.rows, (len(every_c), 1, 1)),
                                 np.tile(a.pivots, (len(every_c), 1)),
                                 np.tile(t[i], (len(every_c), 1)), every_c)
            assert sorted(Gf2Vec(v).to_int() for v in law) == support.tolist()
            read_t, u = referee.solve_coset_membership(a, Gf2Vec(states.forwarded[i]))
            read_tp = Gf2Vec(u.bits[list(a.pivots)])
        else:
            read_t, read_tp = referee.measure_coset_basis(reg, a, np.random.default_rng(i))
        assert np.array_equal(t_hat[i], read_t.bits)
        assert np.array_equal(tp_hat[i], read_tp.bits)


# ------------------------------------------------------------------
# the riqkd kernel against the boolean-mask kernel it replaced
# ------------------------------------------------------------------


def _reference_riqkd_batch(params, words, noise, device, eve):
    """The boolean-mask riqkd kernel: fields read in the same order, draw
    keys split off their words by shift and mask, subsets ranked by
    argpartition, noise as an explicit ``where`` on float uniforms, (t, t')
    deposited and read back through boolean masks of θ, and one Toeplitz
    build per extraction."""
    n, half, ext, code = params.n, params.half, params.extractor, params.code
    pos = 0

    def take(count):
        nonlocal pos
        pos += count
        return words[:, pos - count : pos]

    def bits(nbits):
        return bits_from_words(take(-(-nbits // 64)), nbits)

    def keys(count):
        # key 2j: the low 32 bits of word j; key 2j + 1: its high 32 bits
        field = take(-(-count // 2))
        halves = np.stack([field & np.uint64(0xFFFFFFFF), field >> np.uint64(32)], axis=-1)
        return halves.reshape(field.shape[0], -1)[:, :count]

    def top_k(draws, k):
        # equal keys rank the earlier position higher
        n_draws = draws.shape[1]
        ranks = draws * 2**32 + np.arange(n_draws - 1, -1, -1, dtype=np.uint64)
        top = np.argpartition(ranks, n_draws - k, axis=1)[:, n_draws - k :]
        mask = np.zeros(draws.shape, dtype=np.uint8)
        mask[np.arange(draws.shape[0])[:, None], top] = 1
        return mask

    def extract(xs, seeds):
        rows, cols = np.arange(ext.ell)[:, None], np.arange(ext.n_in)[None, :]
        mats = seeds[:, np.where(cols >= rows, cols - rows, ext.n_in + rows - cols - 1)]
        return np.einsum("tij,tj->ti", mats.astype(np.uint32), xs.astype(np.uint32)) & 1

    theta = top_k(keys(n), half)
    free, pivots = theta == 0, theta == 1
    t, tp = bits(half), bits(half)
    x = np.empty_like(theta)
    x[free], x[pivots] = t.ravel(), tp.ravel()
    rec_theta, rec_x = theta, x
    if isinstance(eve, KeepAndSubstitute):
        eve_theta, eve_x = theta, x
        rec_theta = rec_x = np.zeros((1, n), dtype=np.uint8)
    elif isinstance(eve, InterceptResend):
        eve_theta = bits(n)
        eve_x = np.where(eve_theta == theta, x, bits(n))
        rec_theta, rec_x = eve_theta, eve_x
    if noise is not None:
        u = keys(n) * 2.0**-32
        flips = np.where(rec_theta == 0, u < noise.dx, u < noise.dz)
        rec_x = rec_x ^ flips.astype(np.uint8)
    dev_read = rec_x
    if eve is not None:
        dev_read = np.where(rec_theta == theta, rec_x, bits(n))
    t_hat = dev_read[free].reshape(-1, half)
    tp_hat = dev_read[pivots].reshape(-1, half)
    if isinstance(device, SyndromeFault):
        tp_hat = tp_hat ^ code.min_weight_codeword.bits
    est_distance = (t_hat ^ t).sum(axis=1)
    est_ok = est_distance <= params.gamma * half
    syn_hat = syndrome_batch(code, tp_hat)
    t_bar = align_batch(code, tp, syn_hat)
    spot = top_k(keys(half), params.spot_size)
    mismatches = ((tp_hat ^ t_bar) & spot).sum(axis=1)
    f = est_ok & (mismatches == 0)
    seed = bits(ext.seed_len)
    k = extract(t_bar, seed)
    k_hat = extract(tp_hat, seed)
    eve_guess = None
    if eve is not None:
        tp_eve = eve_x[pivots].reshape(-1, half)
        if isinstance(eve, InterceptResend):
            read_right = eve_theta[pivots].reshape(-1, half) == 1
            tp_eve = np.where(read_right, tp_eve, bits(half))
        eve_guess = extract(align_batch(code, tp_eve, syn_hat), seed)
    return dict(theta=theta, t_hat=t_hat, tp_hat=tp_hat, est_distance=est_distance,
                est_ok=est_ok, syn_hat=syn_hat, spot=spot, mismatches=mismatches,
                f=f, seed=seed, k=k, k_hat=k_hat, eve_guess=eve_guess)


_RIQKD_ORACLE_PARAMS = {
    14: QkdParams(14, 2, 2.0 / 7.0, 2.0 / 7.0, make_code("hamming74")),
    126: QkdParams(126, 2, 0.1, 1.0 / 9.0, make_code("block_repeat", 7, 9)),
    3780: QkdParams(3780, 2, 0.03, 0.1, make_code("block_repeat", 63, 30)),  # criterion 12
}
# rows per call; at n=3780 a production block holds 27 rows (2^17 // 4816 words)
_RIQKD_ORACLE_TRIALS = {14: (1, 9, 17), 126: (1, 9, 17), 3780: (1, 28)}


@pytest.mark.parametrize("n", sorted(_RIQKD_ORACLE_PARAMS))
@pytest.mark.parametrize("noise", [
    None, PauliNoise(0.005, 0.005), PauliNoise(1.0, 0.0), PauliNoise(0.1, 0.3),
], ids=["noiseless", "noisy", "x-flips", "asymmetric"])
@pytest.mark.parametrize("eve", [None, KeepAndSubstitute(), InterceptResend()],
                         ids=["no-eve", "keep-default", "intercept-fresh"])
@pytest.mark.parametrize("device", ["honest", SyndromeFault()], ids=["honest", "fault"])
def test_riqkd_batch_equals_boolean_mask_reference(n, noise, eve, device):
    params = _RIQKD_ORACLE_PARAMS[n]
    words_per_trial = proto._riqkd_words(params, noise, eve)
    for trials in _RIQKD_ORACLE_TRIALS[n]:
        words = trial_words(n * trials, words_per_trial, 0, trials)
        before = words.copy()
        got = vars(proto._riqkd_batch(params, TrialReader(words), noise, device, eve))
        want = _reference_riqkd_batch(params, words, noise, device, eve)
        assert np.array_equal(words, before)
        assert got.keys() == want.keys()
        for name, value in want.items():
            if value is None:
                assert got[name] is None, name
            else:
                assert np.array_equal(got[name], value), (name, trials)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
@pytest.mark.parametrize("params,eve,noise", [
    (_QKD_NOISY, None, PauliNoise(dx=0.05, dz=0.05)),
    (QkdParams(8, 2, 0.0, 0.25, make_code("repetition", 4)), KeepAndSubstitute(), None),
    (QkdParams(8, 2, 0.5, 0.25, make_code("repetition", 4)), InterceptResend(), None),
    (QkdParams(8, 2, 0.5, 0.25, make_code("repetition", 4)), InterceptResend(),
     PauliNoise(dx=0.1, dz=0.0)),
])
def test_secrecy_probe_counts_equal_per_trial_runs(monkeypatch, seed, params, eve, noise):
    # the baseline guess (used without an eavesdropper) precedes the run's fields
    words = proto._riqkd_words(params, noise, eve, lead_bits=params.ell)
    _small_blocks(monkeypatch, words)
    rep = secrecy_probe(params, eve=eve, trials=ORACLE_TRIALS, seed=seed, noise=noise)
    accepts = hits = 0
    for i in range(ORACLE_TRIALS):
        rng = _window_rng(seed, proto._QKD_STREAM, words, i)
        (baseline,) = _prefix(rng, params.ell)
        out = run_riqkd(params, rng, noise=noise, eve=eve)
        guess = out.eve_guess if out.eve_guess is not None else Gf2Vec(baseline)
        accepts += out.f
        hits += int(out.f == 1 and guess == out.k)
    assert (rep["accepts"], rep["guess_and_accept"]) == (accepts, hits)


def test_batch_counts_do_not_depend_on_blocks_or_threads(monkeypatch):
    params = _urbc_params()
    one = urbc_experiment("binding", params, trials=300, seed=3)
    one_all = qecm_experiment("uncloneable", _QECM_ALL, adversary="measure_computational",
                              trials=40, seed=3)
    one_tfkw = tfkw_experiment(_TFKW_NOISY, trials=300, seed=3, noise=_TFKW_NOISE)
    _small_blocks(monkeypatch, proto._urbc_words(params))
    assert urbc_experiment("binding", params, trials=300, seed=3, threads=2) == one
    _small_blocks(monkeypatch, proto._qecm_words(_QECM_ALL, "measure_computational", None))
    assert qecm_experiment("uncloneable", _QECM_ALL, adversary="measure_computational",
                           trials=40, seed=3, threads=2) == one_all
    _small_blocks(monkeypatch, proto._tfkw_words(_TFKW_NOISY, _TFKW_NOISE))
    assert tfkw_experiment(_TFKW_NOISY, trials=300, seed=3, noise=_TFKW_NOISE,
                           threads=2) == one_tfkw


def test_protocol_streams_do_not_alias_moe_or_trial_rng(monkeypatch):
    seed = 5
    keys = {}

    def recording(name, real):
        def run(trials, words, key, kernel, *args, **kwargs):
            keys[name] = key
            return real(trials, words, key, kernel, *args, **kwargs)
        return run

    monkeypatch.setattr(proto, "run_blocks", recording("proto", proto.run_blocks))
    for name, call in [
        ("qecm", lambda: qecm_experiment("correctness", QecmParams(8, 2), trials=1, seed=seed)),
        ("urbc", lambda: urbc_experiment("correctness", _urbc_params(), trials=1, seed=seed)),
        ("qkd", lambda: riqkd_experiment("correctness", _qkd_params(), trials=1, seed=seed)),
        ("tfkw", lambda: tfkw_experiment(_tfkw_params(), trials=1, seed=seed)),
    ]:
        call()
        keys[name] = keys.pop("proto")
    monkeypatch.setattr(moe, "run_blocks", recording("moe", moe.run_blocks))
    moe.play_leaky(moe.MoeParams(n=4, trials=1, seed=seed), moe.builtin_strategy("bob_all"))
    assert sorted(keys) == ["moe", "qecm", "qkd", "tfkw", "urbc"]
    first = {name: tuple(trial_words(key, 4, 0, 1)[0]) for name, key in keys.items()}
    assert len(set(first.values())) == 5
    # nor do they meet the per-trial generators, which no experiment uses
    # (the README example and perfbench's replays do)
    per_trial = {tuple(trial_rng(seed, i).bit_generator.random_raw(4)) for i in range(64)}
    assert len(per_trial) == 64
    assert not per_trial & set(first.values())


# ------------------------------------------------------------------
# replay transcripts
# ------------------------------------------------------------------

_HAMMING = make_code("hamming74")
_URBC_REPLAY = UrbcParams(14, 2, 2 / 7, _HAMMING)
_URBC_HASH = UrbcParams(14, 2, 2 / 7, _HAMMING, scheme="hash_based")
_URBC_ALL = UrbcParams(14, 2, 2 / 7, _HAMMING, family="all")
_QKD_REPLAY = QkdParams(14, 2, 0.0, 2 / 7, _HAMMING)
_QKD_TOLERANT = QkdParams(14, 2, 0.3, 2 / 7, _HAMMING)
_QECM_ALL8 = QecmParams(8, 2, family="all")
_NOISE = PauliNoise(0.1, 0.1)
_TFKW_REPLAY = TfkwParams(16, 0.0, make_code("repetition", 8))


def _with_eve_guess(outcome):
    """Log Eve's message guess at the end of the transcript, so a digest
    pins her read of the state as well as the messages."""
    outcome.transcript.send("eve", "eve", "message_guess", outcome.m_check)
    return outcome


def _with_key_guess(outcome):
    """Log Eve's key guess at the end of the transcript (see
    ``_with_eve_guess``)."""
    outcome.transcript.send("eve", "eve", "key_guess", outcome.eve_guess)
    return outcome


# name: (stream, window words, run on a generator, sha256 of trials 0-199)
_REPLAYS = {
    # the three replays of the benchmark
    "qecm-keep_all": (
        proto._QECM_STREAM, proto._qecm_words(_QECM, "keep_all", None),
        lambda rng: run_qecm_id(_QECM, rng, eve="keep_all"),
        "7996dc948e818b1018b7d440faadc7c2b91eca4ff3ec4f8726a38a49b0717528"),
    "urbc-binding": (
        proto._URBC_STREAM, proto._urbc_words(_URBC_REPLAY),
        lambda rng: run_urbc(_URBC_REPLAY, rng, alice="binding_attack"),
        "3f54af9c0b7be375513a858700197e9079a4c8c4fd6373e0afee0867d99a5466"),
    "qkd-fault": (
        proto._QKD_STREAM, proto._riqkd_words(_QKD_REPLAY, None, None),
        lambda rng: run_riqkd(_QKD_REPLAY, rng, device=SyndromeFault()),
        "eabf03dac90e8446163c2dc9883d65b509342be92f898e4993a551db6176fcdf"),
    "qecm-all": (
        proto._QECM_STREAM, proto._qecm_words(_QECM_ALL8, None, None),
        lambda rng: run_qecm_id(_QECM_ALL8, rng),
        "bf521df5603fa88650f09a85239632c0afbad5365079ab8c02178c88f03aef1e"),
    # the general family's computational read and Eve's kept state
    "qecm-all-keep_all": (
        proto._QECM_STREAM, proto._qecm_words(_QECM_ALL8, "keep_all", None),
        lambda rng: _with_eve_guess(run_qecm_id(_QECM_ALL8, rng, eve="keep_all")),
        "bd1e69bcb4c06d685ea61cb19e8baea8e82eab14ca18b2ccabecb3727ce47308"),
    "qecm-all-measure_computational": (
        proto._QECM_STREAM, proto._qecm_words(_QECM_ALL8, "measure_computational", None),
        lambda rng: _with_eve_guess(run_qecm_id(_QECM_ALL8, rng, eve="measure_computational")),
        "56533a97102a942bb4359b13a6c2d96f629149b8234c1905faa32657ad06eade"),
    # the register family's computational read and Eve's forwarded string
    "qecm-measure_computational": (
        proto._QECM_STREAM, proto._qecm_words(_QECM, "measure_computational", None),
        lambda rng: _with_eve_guess(run_qecm_id(_QECM, rng, eve="measure_computational")),
        "a34ad2e6dd4b7c2d6a4f0a0b7f4613e553cf4e946f5e533bdee4a1dbe2ac90f9"),
    "urbc-all": (
        proto._URBC_STREAM, proto._urbc_words(_URBC_ALL),
        lambda rng: run_urbc(_URBC_ALL, rng),
        "7c117d5666a7817b6edc4d3d769b19b1c77b13fe3650f54b28056fc91a2d167d"),
    "urbc-all-binding": (
        proto._URBC_STREAM, proto._urbc_words(_URBC_ALL),
        lambda rng: run_urbc(_URBC_ALL, rng, alice="binding_attack"),
        "c44799661050e53baabd301b953ed8adf90922a92cbf23d7ce81d8eff385a14c"),
    # the sha256 base commitment's token and nonce bytes
    "urbc-hash": (
        proto._URBC_STREAM, proto._urbc_words(_URBC_HASH),
        lambda rng: run_urbc(_URBC_HASH, rng),
        "4aa0b4d93752542dbf547439df7e79ca4664bde42d14a05e15fd1234406e46a6"),
    "urbc-hash-binding": (
        proto._URBC_STREAM, proto._urbc_words(_URBC_HASH),
        lambda rng: run_urbc(_URBC_HASH, rng, alice="binding_attack"),
        "bdc0e8c369320d25f0e4e3ede2b556a42ecea9de1c5a2c7c955b181862d28b60"),
    # the device's read of an intact record under noise, and of Eve's records
    "qkd-noise": (
        proto._QKD_STREAM, proto._riqkd_words(_QKD_TOLERANT, _NOISE, None),
        lambda rng: run_riqkd(_QKD_TOLERANT, rng, noise=_NOISE),
        "d0fae2eedc281eff2c47011793c71bbde4207c5038f231dc33a7089e381ee60c"),
    "qkd-substitute": (
        proto._QKD_STREAM, proto._riqkd_words(_QKD_TOLERANT, None, KeepAndSubstitute()),
        lambda rng: run_riqkd(_QKD_TOLERANT, rng, eve=KeepAndSubstitute()),
        "0f147f4069f135673088b1d9e6ba969475fb954f8633a888f4c93fcc4124cb4c"),
    "qkd-intercept": (
        proto._QKD_STREAM, proto._riqkd_words(_QKD_TOLERANT, None, InterceptResend()),
        lambda rng: run_riqkd(_QKD_TOLERANT, rng, eve=InterceptResend()),
        "ef2aeb010ed3fe0a9cab1960965780b5c54b322f6020d3339aa3928044843d53"),
    # the reference protocol: honest, under noise (84 of the 200 pass the
    # estimate, so both branches occur) and under the substitution attack
    "tfkw": (
        proto._TFKW_STREAM, proto._tfkw_words(_TFKW_REPLAY, None),
        lambda rng: run_tfkw(_TFKW_REPLAY, rng),
        "758165ec35aefb4274faee5035af93c8f663a11389e8673a8b3c85b86c889d87"),
    "tfkw-noise": (
        proto._TFKW_STREAM, proto._tfkw_words(_TFKW_REPLAY, _NOISE),
        lambda rng: run_tfkw(_TFKW_REPLAY, rng, noise=_NOISE),
        "3159dc8990b95358713ba02930e6c689ed7420befe44ac87d7f170d4010154f1"),
    "tfkw-substitute": (
        proto._TFKW_STREAM, proto._tfkw_words(_TFKW_REPLAY, None),
        lambda rng: _with_key_guess(run_tfkw(_TFKW_REPLAY, rng, eve="substitute_zero")),
        "d66d320900238aad27d2d94a572b654678ba1152fe167110b13bdb8e5d81ad37"),
}


@pytest.mark.parametrize("name", list(_REPLAYS))
def test_replay_transcripts_are_pinned(name):
    # trials 0-199 of the experiment's stream; the digest pins every byte of
    # Transcript.to_jsonl (see its docstring for the line format)
    stream, words, run, digest = _REPLAYS[name]
    text = "\n".join(run(_window_rng(9, stream, words, i)).transcript.to_jsonl()
                     for i in range(200))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _words_read(run) -> int:
    """How many words a single run draws from its generator."""
    bitgen = np.random.Philox(key=5)
    run(np.random.Generator(bitgen))
    return int(bitgen.state["state"]["counter"][0]) * 4


def test_window_sizes_are_kept_per_mode():
    # one params object serves every mode, in an order that would reuse a
    # stale size, and each run reads what its mode's layout computes on
    # params built afresh
    qecm = QecmParams(8, 2, family="all")
    messages = [None, Gf2Vec([1, 0]), MessageSource((0.1, 0.2, 0.3, 0.4))]
    for eve in [None, "keep_all", "measure_computational"] * 2:
        for message in messages:
            got = _words_read(lambda rng: run_qecm_id(qecm, rng, eve=eve, message=message))
            assert got == proto._qecm_words(QecmParams(8, 2, family="all"), eve, message)
    qkd = QkdParams(14, 2, 0.3, 2 / 7, _HAMMING)
    for noise in [None, _NOISE] * 2:
        for eve in [None, KeepAndSubstitute(), InterceptResend()]:
            got = _words_read(lambda rng: run_riqkd(qkd, rng, noise=noise, eve=eve))
            fresh = QkdParams(14, 2, 0.3, 2 / 7, _HAMMING)
            assert got == proto._riqkd_words(fresh, noise, eve)
    for params in (_URBC_HASH, _URBC_ALL):
        for alice in ("honest", "binding_attack"):
            got = _words_read(lambda rng: run_urbc(params, rng, alice=alice))
            assert got == proto._urbc_words(UrbcParams(14, 2, 2 / 7, _HAMMING,
                                                       scheme=params.scheme,
                                                       family=params.family))
