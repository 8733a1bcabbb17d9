"""CLI contract tests: dispatch, config handling, emission, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetmoe import mc, moe, proto
from cosetmoe.cli import (
    CHECKS,
    SWEEP_COLUMNS,
    _EXPERIMENTS,
    _config_hash,
    _json_text,
    _parse_override,
    _sorted_keys,
    dispatch,
    emit_report,
)


def _run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_n10(capsys):
    code, out, _ = _run(capsys, "bounds", "--n", "10")
    assert code == 0
    report = json.loads(out)
    assert report["moe_bound"] == pytest.approx(0.747, abs=5e-4)
    assert report["version"]
    assert report["config"] == {"n": 10}
    assert len(report["config_sha256"]) == 64


def test_bounds_full_parameter_set(capsys):
    code, out, _ = _run(
        capsys, "bounds", "--n", "100", "--d", "10", "--eta", "0.2",
        "--gamma", "0.01", "--delta", "0.005", "--kappa", "4.0", "--ell", "2",
        "--s", "20",
    )
    assert code == 0
    report = json.loads(out)
    for field in ("binding_bound", "completeness_bound", "secrecy_bound",
                  "extractor_epsilon", "kappa_max_commitment"):
        assert field in report


def test_unknown_flag_exits_2(capsys):
    code, _, err = _run(capsys, "moe", "--bogus")
    assert code == 2
    assert "Usage" in err


def test_unknown_subcommand_exits_2(capsys):
    code, _, err = _run(capsys, "teleport")
    assert code == 2
    assert "teleport" in err


def test_unknown_config_key_exits_2(capsys):
    code, _, err = _run(capsys, "qecm", "--set", "warp=9")
    assert code == 2
    assert "warp" in err


def test_moe_backend_key_is_unknown(capsys, tmp_path):
    # moe picks its kernel from the family and the strategy; no key selects it
    code, _, err = _run(capsys, "moe", "--set", "backend=statevector")
    assert code == 2
    assert "backend" in err
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"backend": "auto"}))
    assert _run(capsys, "moe", "--config", str(path))[0] == 2


def test_unknown_file_key_exits_2(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 8, "mystery": 1}))
    code, _, err = _run(capsys, "qecm", "--config", str(path))
    assert code == 2
    assert "mystery" in err


def test_malformed_override_exits_2(capsys):
    code, _, err = _run(capsys, "qecm", "--set", "justakey")
    assert code == 2
    assert "key=value" in err


def test_bad_domain_value_exits_2(capsys):
    code, _, err = _run(capsys, "bounds", "--n", "7")
    assert code == 2
    assert "even" in err


@pytest.mark.parametrize("argv,message", [
    (("--n", "8", "--d", "6", "--eta", "0.3"), "code distance"),  # complex power
    (("--n", "8", "--d", "5", "--eta", "0.5"), "code distance"),  # negative base
    (("--n", "0"), "even and positive"),
    (("--n", "-4"), "even and positive"),
    (("--n", "8", "--d", "0"), "code distance"),
    (("--n", "8", "--d", "-2"), "code distance"),
    (("--n", "8", "--eta", "1.5"), "eta must lie in [0, 1]"),
    (("--n", "8", "--gamma", "-0.1"), "gamma must lie in [0, 1]"),
    (("--n", "8", "--delta", "-0.5"), "delta must lie in [0, 1]"),
    (("--n", "8", "--s", "-3", "--eta", "0.2"), "syndrome length s must lie in [0, n/2]"),
    (("--n", "8", "--s", "100", "--eta", "0.5"), "syndrome length s must lie in [0, n/2]"),
    (("--n", "8", "--epsilon", "2", "--gamma", "0.1"), "epsilon must lie in [0, 1]"),
    (("--n", "8", "--epsilon", "-1", "--gamma", "0.1"), "epsilon must lie in [0, 1]"),
    (("--n", "8", "--kappa", "-4", "--ell", "2"), "kappa must lie in [0, n/2]"),
])
def test_bounds_outside_their_domain_exit_2(capsys, argv, message):
    code, out, err = _run(capsys, "bounds", *argv)
    assert (code, out) == (2, "")
    errors = [line for line in err.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and message in errors[0]


@pytest.mark.parametrize("code_config,message", [
    ('{"kind":"random_linear","params":[12.0,4,3]}', "code params must be a list of integers"),
    ('{"kind":"repetition","params":[true]}', "code params must be a list of integers"),
    ('{"kind":7,"params":[3]}', "code kind must be a string"),
])
def test_code_config_that_is_not_exact_ints_exits_2(capsys, code_config, message):
    code, out, err = _run(capsys, "urbc", "--set", f"code={code_config}", "--set", "n=24",
                          "--trials", "10")
    assert (code, out) == (2, "")
    errors = [line for line in err.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and message in errors[0]


def test_bounds_domain_edges_run(capsys):
    # d = s = n/2, kappa = 0, and eta, gamma, delta, epsilon at 0 and 1 are
    # codes, entropies and probabilities
    for argv in (("--d", "4", "--eta", "1", "--gamma", "0", "--delta", "1", "--s", "4"),
                 ("--d", "1", "--eta", "0", "--gamma", "1", "--delta", "0",
                  "--kappa", "0", "--ell", "2"),
                 ("--d", "2", "--eta", "0.5", "--gamma", "0.1", "--epsilon", "1")):
        code, out, _ = _run(capsys, "bounds", "--n", "8", *argv)
        assert code == 0 and "binding_bound" in json.loads(out)


@pytest.mark.parametrize("trials", ["0", "-1"])
@pytest.mark.parametrize("subcommand", ["moe", "qecm", "urbc", "qkd", "tfkw"])
def test_nonpositive_trials_exit_2(capsys, subcommand, trials):
    code, _, err = _run(capsys, subcommand, "--trials", trials)
    assert code == 2
    assert "trials must be positive" in err


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
@pytest.mark.parametrize("subcommand", ["selftest", "moe", "qecm", "urbc", "qkd", "tfkw"])
def test_seed_outside_64_bits_exits_2(capsys, subcommand, seed):
    code, out, err = _run(capsys, subcommand, "--seed", seed)
    assert (code, out) == (2, "")
    assert "Error: seed must fit in 64 bits" in err


def test_config_file_and_flag_precedence(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 4, "ell": 1, "trials": 50, "seed": 1}))
    code, out, _ = _run(
        capsys, "qecm", "--config", str(path), "--seed", "9", "--trials", "40"
    )
    assert code == 0
    report = json.loads(out)
    # the dedicated flags override the file values
    assert report["config"]["seed"] == 9
    assert report["config"]["trials"] == 40
    assert report["config"]["n"] == 4


def test_identical_argv_gives_identical_bytes(capsys):
    argv = ("qkd", "--seed", "7", "--trials", "100")
    _, out1, _ = _run(capsys, *argv)
    _, out2, _ = _run(capsys, *argv)
    assert out1 == out2


def test_moe_report_passes_bound(capsys):
    code, out, _ = _run(
        capsys, "moe", "--set", "kind=charlie_all", "--trials", "4000",
        "--seed", "2", "--threads", "2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["estimate"] <= report["bound"] + 0.05
    assert report["analytic"] == pytest.approx(1 / 16)
    assert report["pass"] is True


def test_moe_keep_and_substitute_custom_record(capsys):
    code, out, _ = _run(
        capsys, "moe", "--set", "kind=keep_and_substitute",
        "--set", 'substitute_x="10101010"', "--trials", "2000", "--seed", "3",
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_tfkw_attack_reports_broken(capsys):
    code, out, _ = _run(
        capsys, "tfkw", "--set", "eve=substitute_zero", "--trials", "30",
        "--seed", "4",
    )
    assert code == 0
    report = json.loads(out)
    assert report["broken"] is True and report["pass"] is True


def test_failed_criterion_exits_1(capsys):
    # total channel noise makes every honest run abort
    code, out, _ = _run(
        capsys, "tfkw", "--set", "dx=1.0", "--set", "dz=1.0", "--trials", "10",
        "--seed", "5",
    )
    assert code == 1
    assert json.loads(out)["pass"] is False



@pytest.mark.parametrize("argv,message", [
    (("moe", "--set", "n=64", "--set", "m=20", "--set", "family=all",
      "--set", "kind=measure_wiesner", "--trials", "200000"), "robust radii must not exceed n/4"),
    (("moe", "--set", "n=8", "--set", "m_prime=3"), "robust radii must not exceed n/4"),
    (("qkd", "--set", "kind=secrecy", "--set", "kappa=-3"), "kappa must lie in [0, n/2]"),
    (("qkd", "--set", "kind=secrecy", "--set", "kappa=9"), "kappa must lie in [0, n/2]"),
])
def test_a_bound_outside_its_domain_exits_2_before_any_trial(capsys, monkeypatch, argv, message):
    def no_block(*args, **kwargs):
        raise AssertionError("a block of trials ran")

    monkeypatch.setattr(moe, "run_blocks", no_block)
    monkeypatch.setattr(proto, "run_blocks", no_block)
    code, out, err = _run(capsys, *argv, "--seed", "1")
    assert (code, out) == (2, "")
    errors = [line for line in err.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and message in errors[0]

def test_sweep_seven_rows_fixed_header(capsys):
    code, out, _ = _run(
        capsys, "sweep", "--experiment", "urbc", "--param", "eta",
        "--from", str(1 / 7), "--to", str(6 / 7), "--steps", "6",
        "--set", "kind=binding", "--trials", "400", "--seed", "6",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 7
    # binding acceptance falls as the spot check grows
    rates = [float(line.split(",")[2]) for line in lines[1:]]
    assert rates[0] > rates[-1]


def test_sweep_secrecy_row_reads_one_interval(capsys):
    # the row's estimate is the guess rate that its Wilson interval brackets
    argv = ("--set", "kind=secrecy", "--trials", "4000", "--seed", "3")
    _, out, _ = _run(capsys, "sweep", "--experiment", "qkd", "--param", "n",
                     "--from", "16", "--to", "16", "--steps", "1", *argv)
    row = dict(zip(SWEEP_COLUMNS, out.strip().splitlines()[1].split(",")))
    _, out, _ = _run(capsys, "qkd", "--set", "n=16", *argv)
    report = json.loads(out)
    estimate = float(row["estimate"])
    assert float(row["wilson_low"]) <= estimate <= float(row["wilson_high"])
    assert estimate == report["guess_estimate"]


def test_empty_sweep_is_header_only(capsys):
    code, out, _ = _run(
        capsys, "sweep", "--experiment", "moe", "--param", "n",
        "--from", "4", "--to", "12", "--steps", "0",
    )
    assert code == 0
    assert out == ",".join(SWEEP_COLUMNS) + "\n"


def test_sweep_rejects_unknown_param(capsys):
    code, _, err = _run(
        capsys, "sweep", "--experiment", "qkd", "--param", "warp",
        "--from", "0", "--to", "1", "--steps", "2",
    )
    assert code == 2
    assert "warp" in err


def test_json_report_round_trips(capsys):
    _, out, _ = _run(capsys, "qkd", "--seed", "3", "--trials", "50")
    text = out.strip()
    assert _json_text(json.loads(text)) == text


def _reference_json_text(value) -> str:
    """The serializer before its type dispatch: the oracle for ``_json_text``."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            return "null"
        return format(value, ".12g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_reference_json_text(v) for v in value) + "]"
    if isinstance(value, dict):
        parts = (json.dumps(str(k)) + ":" + _reference_json_text(v) for k, v in value.items())
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize report value of type {type(value).__name__}")


def _reference_config_hash(config: dict) -> str:
    return hashlib.sha256(_reference_json_text(_sorted_keys(config)).encode()).hexdigest()


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1.0, 1e16, 5e-324]),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(1 << 200), max_value=1 << 200),
    st.builds(np.int64, st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)),
    st.builds(np.uint8, st.integers(min_value=0, max_value=255)),
    _FLOATS,
    st.builds(np.float64, _FLOATS),
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u2028é\U0001f600", "ünï\tcødé\n"]),
)
_KEYS = st.one_of(st.text(), st.integers(), _FLOATS, st.booleans(), st.none())


def _values(keys):
    return st.recursive(_SCALARS, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
    ), max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(_values(_KEYS))
def test_json_text_equals_the_reference_serializer(value):
    assert _json_text(value) == _reference_json_text(value)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(), _values(st.text()), max_size=6))
def test_config_hash_equals_the_reference_canon(config):
    assert _config_hash(config) == _reference_config_hash(config)


@pytest.mark.parametrize("value", [
    {1, 2}, frozenset(), b"bytes", bytearray(b"x"), np.zeros(3), np.bool_(True),
    {"nested": [1, {"deeper": {0.5}}]}, (np.arange(2),),
])
def test_unserializable_values_raise_the_same_type_error(value):
    with pytest.raises(TypeError) as want:
        _reference_json_text(value)
    with pytest.raises(TypeError) as got:
        _json_text(value)
    assert str(got.value) == str(want.value)


def _json_loads_or_word(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


_OVERRIDE_VALUES = st.one_of(
    st.text(),
    st.text(alphabet='{["-0123456789tfnNIruealsIy =x,:]}\t\n\r ', max_size=8),
    st.tuples(st.text(alphabet=" \t\n\r", max_size=3),
              _values(st.text()).map(lambda v: json.dumps(v, default=str)),
              st.text(alphabet=" \t\n\r", max_size=3)).map("".join),
    st.sampled_from(["", " ", " \t\n\r", "NaN", "-Infinity", "Infinity", " \n-Infinity",
                     "tru", "nul", "-", "-x", "01", "a=b", "1=2", '"a=b"', "k=v=w",
                     "binding", "keep_all", "\ufeff1", "\x0b1", '"quoted"']),
)


@settings(max_examples=400, deadline=None)
@given(_OVERRIDE_VALUES)
def test_parse_override_equals_json_loads_or_the_bare_word(text):
    key, value = _parse_override("k=" + text)
    want = _json_loads_or_word(text)
    assert key == "k"
    assert type(value) is type(want)
    assert json.dumps(value) == json.dumps(want)


def test_emit_report_csv_single_report(tmp_path):
    report = {"version": "x", "value": 0.125, "flag": True, "note": None}
    path = tmp_path / "r.csv"
    text = emit_report(report, "csv", str(path))
    assert path.read_text() == text
    lines = text.splitlines()
    assert lines[0] == "version,value,flag,note"
    assert lines[1] == "x,0.125,true,"


def test_emit_report_twelve_significant_digits():
    text = emit_report({"pi": 3.14159265358979323}, "json", None)
    assert '"pi":3.14159265359' in text


def test_selftest_passes_and_is_thread_invariant(capsys):
    code1, out1, _ = _run(capsys, "selftest", "--seed", "3", "--threads", "1")
    code2, out2, _ = _run(capsys, "selftest", "--seed", "3", "--threads", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["all_pass"] is True
    # one check per row of the table, in table order, each name once
    names = [c["name"] for c in report["checks"]]
    assert names == [row.name for row in CHECKS] and len(set(names)) == len(names)


def test_dispatch_help_exits_0(capsys):
    code, out, _ = _run(capsys, "--help")
    assert code == 0
    assert "selftest" in out


# ------------------------------------------------------------------
# the command-line parser
# ------------------------------------------------------------------

_QECM = ("--seed", "5", "--trials", "20", "--set", "n=4", "--set", "ell=1")
_QECM_SHA = "d9c250beeae06928b43b0587f913942c2a11ded697432ee16639b7b9b200bf8a"
_EMPTY_SHA = hashlib.sha256(b"").hexdigest()
_SUBCOMMANDS = ("bounds", "moe", "qecm", "urbc", "qkd", "tfkw", "sweep", "selftest")

# name -> (COSETMOE_THREADS or None, argv, exit code, sha256 of stdout, the
# one Error: line or None)
PARSER_PINS = {
    "eq-forms": (None, ("qecm", "--set=n=4", "--set", "ell=1", "--seed=5", "--trials=20"),
                 0, _QECM_SHA, None),
    "space-forms": (None, ("qecm", *_QECM), 0, _QECM_SHA, None),
    "reordered": (None, ("qecm", "--set", "ell=1", "--trials", "20", "--set", "n=4",
                         "--seed", "5"), 0, _QECM_SHA, None),
    "repeated-set": (None, ("qecm", "--set", "n=6", "--set", "ell=1", "--set", "n=4",
                            "--seed", "5", "--trials", "20"), 0, _QECM_SHA, None),
    "repeated-seed": (None, ("qecm", "--seed", "1", "--trials", "20", "--seed=5",
                             "--set", "n=4", "--set", "ell=1"), 0, _QECM_SHA, None),
    "csv-first": (None, ("qecm", "--format", "csv", "--threads", "1", *_QECM), 0,
                  "8cc4b41117e7c8252887b2bc64495a27f0963b780d9cb56370112c16ad3b1313", None),
    "bounds-eq": (None, ("bounds", "--eta=0.25", "--m-prime=2", "--n=10", "--d", "2"), 0,
                  "86e453d1ca5d8cef16e0d9764d7d5b0ff158911d6aa599a7f21dcc658f5cec23", None),
    "sweep-negative-from": (None, ("sweep", "--steps", "0", "--from", "-1.5", "--to", "-1",
                                   "--param", "n", "--experiment", "moe"), 0,
                            "77021b7efc7b6b888b092a2f9f7b12a53413d3cf05c1c207e6a49b9880c73acf",
                            None),
    "trials-negative": (None, ("qecm", "--trials", "-1"), 2, _EMPTY_SHA,
                        "Error: trials must be positive"),
    "seed-negative": (None, ("qecm", "--seed", "-1"), 2, _EMPTY_SHA,
                      "Error: seed must fit in 64 bits"),
    "n-negative": (None, ("bounds", "--n", "-4"), 2, _EMPTY_SHA,
                   "Error: ambient dimension must be even and positive"),
    "trials-abc": (None, ("qecm", "--trials", "abc"), 2, _EMPTY_SHA,
                   "Error: Invalid value for '--trials': 'abc' is not a valid integer."),
    "eta-abc": (None, ("bounds", "--n", "8", "--eta", "abc"), 2, _EMPTY_SHA,
                "Error: Invalid value for '--eta': 'abc' is not a valid float."),
    "format-xml": (None, ("qecm", "--format", "xml"), 2, _EMPTY_SHA,
                   "Error: Invalid value for '--format': 'xml' is not one of 'json', 'csv'."),
    "experiment-bad": (None, ("sweep", "--experiment", "bad", "--param", "n", "--from", "1",
                              "--to", "2", "--steps", "1"), 2, _EMPTY_SHA,
                       "Error: Invalid value for '--experiment': 'bad' is not one of "
                       "'moe', 'qecm', 'qkd', 'tfkw', 'urbc'."),
    "unknown-option": (None, ("moe", "--bogus"), 2, _EMPTY_SHA,
                       "Error: No such option '--bogus'. Did you mean '--out'?"),
    "unknown-option-eq": (None, ("moe", "--trials", "5", "--bogus=5"), 2, _EMPTY_SHA,
                          "Error: No such option '--bogus'. Did you mean '--out'?"),
    "near-options": (None, ("qecm", "--seeds", "5"), 2, _EMPTY_SHA,
                     "Error: No such option '--seeds'. "
                     "(Did you mean one of: '--seed', '--set', '--threads'?)"),
    "no-prefix-match": (None, ("qecm", "--tri", "5"), 2, _EMPTY_SHA,
                        "Error: No such option '--tri'. "
                        "(Did you mean one of: '--out', '--set', '--trials'?)"),
    "no-short-help": (None, ("qecm", "-h"), 2, _EMPTY_SHA, "Error: No such option '-h'."),
    "group-unknown-option": (None, ("--bogus",), 2, _EMPTY_SHA,
                             "Error: No such option '--bogus'."),
    "extra-argument": (None, ("qecm", "extra"), 2, _EMPTY_SHA,
                       "Error: Got unexpected extra argument (extra)"),
    "unknown-subcommand": (None, ("teleport",), 2, _EMPTY_SHA,
                           "Error: No such command 'teleport'."),
    "no-subcommand": (None, (), 2, _EMPTY_SHA, None),
    "version": (None, ("--version",), 0,
                hashlib.sha256(b"cosetmoe, version 0.1.0\n").hexdigest(), None),
    "threads-env": ("2", ("qecm", *_QECM), 0, _QECM_SHA, None),
    "threads-flag": (None, ("qecm", *_QECM, "--threads", "2"), 0, _QECM_SHA, None),
    "threads-flag-over-env": ("0", ("qecm", *_QECM, "--threads", "2"), 0, _QECM_SHA, None),
    "threads-env-selftest": ("0", ("selftest",), 2, _EMPTY_SHA,
                             "Error: --threads must be >= 1"),
    "threads-env-abc": ("abc", ("selftest",), 2, _EMPTY_SHA,
                        "Error: Invalid value for '--threads': 'abc' is not a valid integer."),
}


@pytest.mark.parametrize("name", list(PARSER_PINS))
def test_parser_behaviour_is_pinned(capsys, monkeypatch, name):
    threads_env, argv, code, sha, error = PARSER_PINS[name]
    if threads_env is None:
        monkeypatch.delenv("COSETMOE_THREADS", raising=False)
    else:
        monkeypatch.setenv("COSETMOE_THREADS", threads_env)
    got, out, err = _run(capsys, *argv)
    errors = [line for line in err.splitlines() if line.startswith("Error:")]
    assert (got, hashlib.sha256(out.encode()).hexdigest(), errors) == (
        code, sha, [] if error is None else [error])
    if code == 2:
        usage = (f"cosetmoe {argv[0]} [OPTIONS]" if argv and argv[0] in _SUBCOMMANDS
                 else "cosetmoe [OPTIONS] COMMAND [ARGS]...")
        assert err.splitlines()[0] == f"Usage: {usage}"


@pytest.mark.parametrize("command", _SUBCOMMANDS)
def test_every_subcommand_help_exits_0(capsys, command):
    code, out, err = _run(capsys, command, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"Usage: cosetmoe {command} [OPTIONS]\n")


_SWEEP_QECM = ("sweep", "--experiment", "qecm", "--param", "n", "--from", "4", "--to", "4",
               "--steps", "1")


@pytest.mark.parametrize("threads", ["0", "-2"])
@pytest.mark.parametrize("argv", [(name,) for name in ("moe", "qecm", "urbc", "qkd", "tfkw")]
                         + [_SWEEP_QECM])
def test_threads_below_1_exit_2(capsys, argv, threads):
    code, out, err = _run(capsys, *argv, "--trials", "10", "--threads", threads)
    errors = [line for line in err.splitlines() if line.startswith("Error:")]
    assert (code, out, errors) == (2, "", ["Error: --threads must be >= 1"])


@pytest.mark.parametrize("argv,error", [
    (("moe", "--set", "n=8.0"), "config key 'n' must be an integer, got 8.0"),
    (("qecm", "--set", "n=8.0"), "config key 'n' must be an integer, got 8.0"),
    (("qecm", "--set", "n=true"), "config key 'n' must be an integer, got true"),
    (("moe", "--set", "kind=mix", "--set", "q=x"), "config key 'q' must be a number, got \"x\""),
    (("urbc", "--set", "eta=false"), "config key 'eta' must be a number, got false"),
    (("qkd", "--set", "dx=x"), "config key 'dx' must be a number, got \"x\""),
    (("moe", "--set", "kind=leak_smuggle", "--set", "leak=no"),
     "config key 'leak' must be a boolean, got \"no\""),
    (("qecm", "--set", "kind=5"), "config key 'kind' must be a string, got 5"),
    (("urbc", "--set", "code=[7]"), "config key 'code' must be an object, got [7]"),
    (("tfkw", "--set", "seed=1e2"), "config key 'seed' must be an integer, got 100.0"),
    # keys whose default is null, checked where their value is read
    (("tfkw", "--set", "check_size=abc"), "check_size must be an integer"),
    (("tfkw", "--set", "check_size=8.0"), "check_size must be an integer"),
    (("qkd", "--set", "kind=secrecy", "--set", "kappa=abc"), "kappa must be a real number"),
    (("qkd", "--set", "kind=secrecy", "--set", "kappa=[1]"), "kappa must be a real number"),
    (("qkd", "--set", "kind=secrecy", "--set", "kappa=true"), "kappa must be a real number"),
])
def test_a_config_value_of_the_wrong_json_type_exits_2(capsys, argv, error):
    code, out, err = _run(capsys, *argv, "--trials", "10")
    errors = [line for line in err.splitlines() if line.startswith("Error:")]
    assert (code, out, errors) == (2, "", [f"Error: {error}"])


def test_a_config_file_value_of_the_wrong_json_type_exits_2(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"leak": 1}))
    code, out, err = _run(capsys, "moe", "--config", str(path), "--trials", "10")
    assert (code, out) == (2, "")
    assert "Error: config key 'leak' must be a boolean, got 1" in err


def test_a_sweep_over_a_key_that_takes_no_number_exits_2(capsys):
    code, out, err = _run(capsys, "sweep", "--experiment", "moe", "--param", "leak",
                          "--from", "0", "--to", "1", "--steps", "2", "--trials", "10")
    assert (code, out) == (2, "")
    assert "Error: config key 'leak' must be a boolean, got 0.0" in err


def test_an_int_stands_for_a_float_config_value(capsys):
    code, out, _ = _run(capsys, "qkd", "--set", "gamma=0", "--set", "dx=0", "--trials", "10")
    assert code == 0
    assert json.loads(out)["config"]["gamma"] == 0


def test_the_cli_needs_no_third_party_parser():
    # the library's name is split so that searching the sources finds only
    # its absence
    gone = "cl" "ick"
    import cosetmoe
    root = Path(cosetmoe.__file__).resolve().parents[2]
    script = (f"import sys\nsys.modules[{gone!r}] = None\n"
              "from cosetmoe.cli import dispatch\n"
              "sys.exit(10 * dispatch(['qecm', '--trials', '10']) + dispatch(['qecm', '--help']))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    sources = [*root.glob("src/**/*.py"), *root.glob("tests/**/*.py"), root / "pyproject.toml"]
    assert [str(path) for path in sources if gone in path.read_text().lower()] == []


# ------------------------------------------------------------------
# golden report bytes
# ------------------------------------------------------------------

_H74 = '{"kind":"hamming74","params":[]}'
_MOE_KINDS = ("bob_all", "charlie_all", "mix", "measure_computational",
              "measure_wiesner", "keep_and_substitute", "leak_smuggle")
_MOE_BLOCKS_TRIALS = str(2 * 2**14 + 5)

# One small argv per subcommand, experiment kind and output format.
GOLDEN_ARGVS = {
    "bounds": ("bounds", "--n", "10"),
    "bounds-full": ("bounds", "--n", "64", "--d", "8", "--eta", "0.25", "--gamma", "0.02",
                    "--delta", "0.005", "--kappa", "5", "--ell", "2", "--s", "16"),
    "sweep-urbc": ("sweep", "--experiment", "urbc", "--param", "eta", "--from", str(1 / 7),
                   "--to", str(5 / 7), "--steps", "3", "--set", "kind=binding",
                   "--trials", "100", "--seed", "6"),
    "sweep-moe": ("sweep", "--experiment", "moe", "--param", "n", "--from", "4", "--to", "12",
                  "--steps", "3", "--trials", "3000", "--seed", "2"),
    "selftest": ("selftest", "--seed", "3"),
    "qkd-csv": ("qkd", "--format", "csv", "--trials", "50", "--seed", "1"),
    **{f"moe-{k}": ("moe", "--set", f"kind={k}", "--set", "n=8", "--trials", "3000",
                    "--seed", "5") for k in _MOE_KINDS},
    **{f"moe-all-{k}": ("moe", "--set", f"kind={k}", "--set", "n=4", "--set", "family=all",
                        "--trials", "100", "--seed", "5") for k in _MOE_KINDS},
    # n=64 over several blocks and a partial one (32768 + 5 rows for the
    # 4-word bob_all window, 9 x 3640 + 13 for the 36-word ones), radii that
    # give non-trivial counts, and a substitute record with both bases in play
    "moe64-bob_all": ("moe", "--set", "kind=bob_all", "--set", "n=64", "--set", "m_prime=14",
                      "--trials", _MOE_BLOCKS_TRIALS, "--seed", "5"),
    "moe64-measure_wiesner": ("moe", "--set", "kind=measure_wiesner", "--set", "n=64",
                              "--set", "m=8", "--set", "m_prime=8",
                              "--trials", _MOE_BLOCKS_TRIALS, "--seed", "5"),
    "moe64-keep_and_substitute": ("moe", "--set", "kind=keep_and_substitute", "--set", "n=64",
                                  "--set", "m=14",
                                  "--set", 'substitute_x="' + "0110" * 16 + '"',
                                  "--set", 'substitute_theta="' + "0011" * 16 + '"',
                                  "--trials", _MOE_BLOCKS_TRIALS, "--seed", "5"),
    "qecm-correctness": ("qecm", "--trials", "100", "--seed", "7"),
    "qecm-correctness-all": ("qecm", "--set", "family=all", "--set", "n=4", "--set", "ell=1",
                             "--trials", "30", "--seed", "7"),
    "qecm-indistinguishable": ("qecm", "--set", "kind=indistinguishable", "--set", "n=4",
                               "--set", "ell=1"),
    "qecm-uncloneable": ("qecm", "--set", "kind=uncloneable", "--trials", "200", "--seed", "7"),
    "qecm-uncloneable-mc": ("qecm", "--set", "kind=uncloneable",
                            "--set", "adversary=measure_computational",
                            "--set", "message_probs=[0.4,0.3,0.2,0.1]",
                            "--trials", "200", "--seed", "7"),
    "qecm-uncloneable-ind": ("qecm", "--set", "kind=uncloneable_indistinguishable",
                             "--trials", "200", "--seed", "7"),
    "qecm-uncloneable-all": ("qecm", "--set", "kind=uncloneable", "--set", "family=all",
                             "--set", "n=4", "--set", "ell=1", "--trials", "200", "--seed", "7"),
    # the general family over several blocks: 2 x 10922 + 3156 rows of qecm's
    # 12-word window and 2 x 16384 + 7232 of moe's 8-word one, the qecm run
    # through the computational read
    "qecm-all8-measure_computational": ("qecm", "--set", "kind=uncloneable",
                                        "--set", "adversary=measure_computational",
                                        "--set", "family=all", "--set", "n=8",
                                        "--trials", "25000", "--seed", "3"),
    "moe-all8-keep_and_substitute": ("moe", "--set", "kind=keep_and_substitute",
                                     "--set", "family=all", "--set", "n=8",
                                     "--trials", "40000", "--seed", "3"),
    "urbc-correctness": ("urbc", "--trials", "100", "--seed", "8"),
    "urbc-binding": ("urbc", "--set", "kind=binding", "--trials", "300", "--seed", "8"),
    "urbc-hiding": ("urbc", "--set", "kind=hiding", "--set", "n=6", "--set", "ell=1",
                    "--set", "eta=0.3333333333333333",
                    "--set", 'code={"kind":"repetition","params":[3]}'),
    "qkd-correctness": ("qkd", "--trials", "100", "--seed", "9"),
    "qkd-completeness": ("qkd", "--set", "kind=completeness", "--set", "dx=0.01",
                         "--set", "dz=0.01", "--set", "gamma=0.125", "--trials", "100",
                         "--seed", "9"),
    "qkd-device-fault": ("qkd", "--set", "kind=device_fault", "--set", "n=14",
                         "--set", f"eta={2 / 7}", "--set", f"code={_H74}",
                         "--trials", "300", "--seed", "9"),
    # criterion 12's config at n=3780 over 27 + 27 + 6 rows: two blocks of a
    # 4816-word window and a partial one
    "qkd-longkey": ("qkd", "--set", "kind=completeness", "--set", "n=3780", "--set", "ell=2",
                    "--set", "gamma=0.03", "--set", "eta=0.1",
                    "--set", 'code={"kind":"block_repeat","params":[63,30]}',
                    "--set", "dx=0.005", "--set", "dz=0.005", "--trials", "60", "--seed", "12"),
    "qkd-secrecy": ("qkd", "--set", "kind=secrecy", "--trials", "100", "--seed", "9"),
    "qkd-secrecy-keep": ("qkd", "--set", "kind=secrecy", "--set", "eve=keep_substitute",
                         "--trials", "100", "--seed", "9"),
    "qkd-secrecy-ir": ("qkd", "--set", "kind=secrecy", "--set", "eve=intercept_resend",
                       "--trials", "100", "--seed", "9"),
    "tfkw-honest": ("tfkw", "--trials", "50", "--seed", "4"),
    "tfkw-attack": ("tfkw", "--set", "eve=substitute_zero", "--trials", "50", "--seed", "4"),
    "tfkw-noise-fail": ("tfkw", "--set", "dx=1.0", "--set", "dz=1.0", "--trials", "10",
                        "--seed", "5"),
    # fractional rates, where the counts depend on the noise draws
    "tfkw-noise-partial": ("tfkw", "--set", "dx=0.15", "--set", "dz=0.15",
                           "--set", "gamma=0.25", "--trials", "300", "--seed", "6"),
}

# (exit code, sha256 of stdout) for each argv above.
GOLDEN_DIGESTS = {
    "bounds": (0, "1464a4a35dcec6d793117a2e6c93f536bd9ee6d487dd8aea5daf4ae48c23be91"),
    "bounds-full": (0, "db053a0b359efb32eaeb355a55f0ad5f3727f23269388db1c7a8ca125f569580"),
    "sweep-urbc": (0, "66414c4169e505aecbc33a2e933cab9cf81c2cb2d5b671231e1d5990fc845b72"),
    "sweep-moe": (0, "fe6a98e98841480f836eedd05ecd0b871d8529bd7a5121f4dcaf91ef643e02cb"),
    "selftest": (0, "2b249924fece392561374425472b2cf18062655b232cab40af3b402bd4d009cf"),
    "qkd-csv": (0, "4818d74a79f3b344592e0abedca9e9c9f31cfc867d612dc8e550a8a61ad0dea1"),
    "moe-bob_all": (0, "cc0420161f392f4301e056ee517962ae3905004724a13e0b4ad79c5ff3531393"),
    "moe-charlie_all": (0, "545c908202edab96fd7817cc0a31be9787aac9cae0c972ffd06430aca26c416f"),
    "moe-mix": (0, "09b29efada46e5bef2c901873fa186721425da37b580dc8f889d7619dc41ff0b"),
    "moe-measure_computational": (0, "b8fffb1f19e3d33262a5845d2ed34e9b5c5ca7f7fce631d5acacee0503b333bd"),
    "moe-measure_wiesner": (0, "b9ad4d2971f8c91b0f0c2f3de6d01113cee054ac33d5b28ded226325e9e95c00"),
    "moe-keep_and_substitute": (0, "e6a932a4ed1ac76e53237cdd3f1fa40f23f8a7759d00d108468740979e2dc3ed"),
    "moe-leak_smuggle": (0, "5d22dc6b87a27620dc7146c893c5f6256e731d16657a7d77f5a95485287257ea"),
    "moe-all-bob_all": (0, "2b68a36cb83f8b8168eea89295744f47e536d57587952a59bba01f0d712be2e9"),
    "moe-all-charlie_all": (0, "59e43151f6ace26d070cf02ee7025058d74cccd21a462108ab68956300328c3e"),
    "moe-all-mix": (0, "c7dfce41663423368230993d13466fe9eecab9ea610ef5a5000a429c5247a0af"),
    "moe-all-measure_computational": (0, "04c19c01b28d867a9ebe3335576701ce751f9a5b9965b0a39326e34082069db4"),
    "moe-all-measure_wiesner": (0, "df4eec834696f8147bd1ad1d08cfc6efa8d7c1086d41f87cf1970e1c9ac73ce7"),
    "moe-all-keep_and_substitute": (0, "580449f840fffb49a9cfd4df8ab60ef8a81fc9ba6c127ab9722f8187749014dd"),
    "moe-all-leak_smuggle": (0, "86a79f2683679c1bc39d738b1761b0ff2cca552e7338fbfaf8ebf6c5aa49928a"),
    "moe64-bob_all": (0, "9cbaed01a2b5f169e83d593d5aff19f76bc1a9a1bf31a5ee6867f45f477d1ba1"),
    "moe64-measure_wiesner": (0, "eb639c850b246d7b27efbb3caa574c09c4c0ba1bfd1c8003941706471f82171e"),
    "moe64-keep_and_substitute": (0, "229b38a5609e23a2d915cc725524767bea0a8581f99316a4e5c07bb4a9582dff"),
    "qecm-correctness": (0, "4d1887726dfc61989fdf2a68f6f8aca3e0c3bfec69992ddede2c8c36d3399961"),
    "qecm-correctness-all": (0, "3f1338b335123e9dd62d254a05e966e96562206ca519a935e295e58b6f560c2f"),
    "qecm-indistinguishable": (0, "b834b3f584d67e4d3ed207f7d4bc1dac574053e1afc1d811692608197a084392"),
    "qecm-uncloneable": (0, "3358d71ffc934abe6a3d143d52205c526d800e9c69bc4bc975b7c233ea178fdd"),
    "qecm-uncloneable-mc": (0, "1fd7d64b799e49b87fd77db99eb101d50bc0a10f6612cd931c1de5954be0ea7e"),
    "qecm-uncloneable-ind": (0, "2c66f4e0063b787a2947ec6adfc6eb2faaad0b9a8c42805da6216a9a0d461a17"),
    "qecm-uncloneable-all": (0, "085a260fa196b165d6e9b73d11fe974c57b4227a4c96cbd48312da80e5a9c7f1"),
    "qecm-all8-measure_computational": (0, "ec0ca29dda0ea1f2208938237fcfe5f62d701293d0a6c53f640120ca30447530"),
    "moe-all8-keep_and_substitute": (0, "6b325c870ae216b7fd106f7942db4a15b2fc77f1f0fab1ae3ccf1c1cd2b05351"),
    "urbc-correctness": (0, "142934913aa0847e458e89da3ba505b9e19688b35f955c582a6c928cca7c438a"),
    "urbc-binding": (0, "d2218ac29424312b0a7fa22bc581af171fde3417c5c8bce02457952ffa703013"),
    "urbc-hiding": (0, "989f53511ba30e567da664ffa99ae86de66e3c4e4987e47d568fefd8259c45cb"),
    "qkd-correctness": (0, "01fd3500080a95e93bc6e8b6e6f93cb59a1c70b556c9461112df94bca8d82a43"),
    "qkd-completeness": (0, "8f1cdaa54b2907c96166ad4e4ea8bcfb4e9af17c341b7a83cf024b55f4f05f5a"),
    "qkd-device-fault": (0, "93514764fac8b1a1e45ccd8636c5b93f5a3f52d0a28fc29b9dab67a23546eb09"),
    "qkd-longkey": (0, "0215cbda7b9933f558230daa6b74b5ed1be3465dba19d80b1aadc1f756981956"),
    "qkd-secrecy": (0, "2cae093c9f518f6ed7c9aaee46672ab51e81147758e89d3a5cdb6178781835b2"),
    "qkd-secrecy-keep": (0, "959ebc42071a6ce80429d41f869d578ed6764c0a2a78d4ca1d516d139f245caa"),
    "qkd-secrecy-ir": (0, "1c3a62dc39a97190db3598ed1ef8fd4147ab7fd6d7665f4b6e312104f2f47ed3"),
    "tfkw-honest": (0, "6d80a0c71f8869168a85aed651bb3bcd8d88aaae858914dc3f7c386a18d144e2"),
    "tfkw-attack": (0, "d3a84a7e136e75bc89f195f8a959d97983651acef1aa8f97c63a8b05d49eef2d"),
    "tfkw-noise-fail": (1, "5ae3a47c6f1f959b5f9804341880edfae19403a9a602ad4c9b8483b55ae99ccc"),
    "tfkw-noise-partial": (1, "f224b9f9ba181103a76eb757704f3b493d7830de267b144f3909b5f8bba9a2dc"),
}


@pytest.mark.parametrize("name", list(GOLDEN_ARGVS))
def test_report_bytes_are_pinned(capsys, name):
    argv = GOLDEN_ARGVS[name]
    code, out, _ = _run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_DIGESTS[name]
    if argv[0] in _EXPERIMENTS and "--format" not in argv:
        # every experiment's verdict, which sweep rows and the exit code read
        assert type(json.loads(out)["pass"]) is bool


# Every subcommand that takes --threads.  The -blocks argvs span two kernel
# blocks and a partial one, so two threads really split the work: a block is
# 2^17 // W trials for a W-word trial window, 8192 trials for qecm (W=16),
# 4681 for urbc (W=28), 5461 for qkd (W=24) and 6553 for noisy tfkw (W=20) at
# these sizes, and 16384 for moe measure_wiesner at n=8 (W=8).
# selftest is checked by test_selftest_passes_and_is_thread_invariant.
THREAD_ARGVS = {
    "moe": ("moe", "--set", "kind=measure_wiesner", "--trials", "40000", "--seed", "3"),
    "moe64": GOLDEN_ARGVS["moe64-keep_and_substitute"],
    "qecm": GOLDEN_ARGVS["qecm-uncloneable"],
    "urbc": GOLDEN_ARGVS["urbc-binding"],
    "qkd": GOLDEN_ARGVS["qkd-device-fault"],
    "qecm-all64": ("qecm", "--set", "family=all", "--set", "n=64", "--trials", "20"),
    "qecm-blocks": ("qecm", "--set", "kind=uncloneable", "--trials", "17000", "--seed", "3"),
    "urbc-blocks": ("urbc", "--set", "kind=binding", "--trials", "10000", "--seed", "3"),
    "qkd-blocks": ("qkd", "--set", "kind=device_fault", "--set", "n=14",
                   "--set", f"eta={2 / 7}", "--set", f"code={_H74}",
                   "--trials", "11500", "--seed", "3"),
    "moe-all-measure_wiesner": GOLDEN_ARGVS["moe-all-measure_wiesner"],
    "qecm-all8-measure_computational": GOLDEN_ARGVS["qecm-all8-measure_computational"],
    "moe-all8-keep_and_substitute": GOLDEN_ARGVS["moe-all8-keep_and_substitute"],
    **{f"moe-all64-{k}": ("moe", "--set", f"kind={k}", "--set", "n=64", "--set", "family=all",
                          "--trials", "40", "--seed", "3")
       for k in ("measure_wiesner", "keep_and_substitute")},
    "tfkw": GOLDEN_ARGVS["tfkw-attack"],
    "tfkw-blocks": ("tfkw", "--set", "dx=0.15", "--set", "dz=0.15", "--set", "gamma=0.25",
                    "--trials", "15000", "--seed", "3"),
    "sweep": ("sweep", "--experiment", "moe", "--param", "n", "--from", "4", "--to", "8",
              "--steps", "2", "--trials", "40000", "--seed", "2", "--format", "json"),
}


@pytest.mark.parametrize("rows", [16384, 3640, 17])
def test_moe64_report_bytes_do_not_depend_on_the_block_size(capsys, monkeypatch, rows):
    monkeypatch.setattr(mc, "_BLOCK_WORDS", rows * 36)  # W=36 for measure_wiesner at n=64
    code, out, _ = _run(capsys, *GOLDEN_ARGVS["moe64-measure_wiesner"])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_DIGESTS[
        "moe64-measure_wiesner"]


@pytest.mark.parametrize("name", list(THREAD_ARGVS))
def test_report_bytes_do_not_depend_on_threads(capsys, name):
    one = _run(capsys, *THREAD_ARGVS[name], "--threads", "1")
    two = _run(capsys, *THREAD_ARGVS[name], "--threads", "2")
    assert one == two
