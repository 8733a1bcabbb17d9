"""Command-line frontend: experiments, bounds, sweeps, and the selftest.

Subcommands: ``bounds`` (closed-form bound report), ``moe`` / ``qecm`` /
``urbc`` / ``qkd`` / ``tfkw`` (seeded experiments), ``sweep`` (grid over one
config key, CSV rows), ``selftest`` (fast determinism-friendly battery).

One ``argparse`` parser tree, built at import, parses every argv: one
subparser per subcommand, the seven experiment options from one table.
Options take ``--opt value`` or ``--opt=value``, are never matched by a
prefix, and a value may be negative (``--seed -1`` reaches the seed check).

Conventions shared by every subcommand:

* config comes from defaults, then an optional ``--config`` JSON file, then
  repeated ``--set key=value`` overrides, then the dedicated flags
  (``--seed``/``--trials``); unknown keys are rejected, and a key whose
  default is a bool, int, float, str or object takes only a value of that
  JSON type (an int may stand for a float, a bool for neither);
* ``--threads`` is not config: it only sets how many threads the batch
  kernels of the experiments use.  Without the flag it is read from the
  ``COSETMOE_THREADS`` environment variable, else 1; below 1 is an error;
* every report embeds {version, config, config_sha256, seed} so a run can be
  replayed byte-for-byte;
* floats are printed with 12 significant digits and reports contain no
  timestamps, so identical argv + seed gives identical output bytes for any
  thread count;
* exit codes: 0 success, 1 a bound/criterion check failed, 2 a usage or
  config error (printed as a ``Usage:`` line and one ``Error:`` line on
  stderr); a sweep exits 0 once every grid point has run, whatever its rows'
  pass flags.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import hashlib
import io
import itertools
import json
import math
import os
import sys
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .ecc import make_code, make_code_from_config
from .ext import ToeplitzExtractor
from .gf2 import Gf2Subspace, Gf2Vec
from .info import (
    combinatorial_sum,
    gamma_star,
    moe_bound,
    protocol_bounds,
    verify_combinatorial_bound,
)
from .mc import binomial_sigma
from .moe import MoeParams, alternating_basis, builtin_strategy, moe_experiment, play_leaky
from .proto import (
    InterceptResend,
    KeepAndSubstitute,
    PauliNoise,
    QecmParams,
    QkdParams,
    TfkwParams,
    UrbcParams,
    qecm_experiment,
    riqkd_experiment,
    secrecy_exact,
    secrecy_probe,
    tfkw_experiment,
    urbc_experiment,
)
from .qsim import CosetDescriptor, WiesnerRecord, prepare_coset_state

__all__ = ["CHECKS", "UsageError", "dispatch", "emit_report", "main", "selftest_checks"]


# ------------------------------------------------------------------
# config plumbing
# ------------------------------------------------------------------


class UsageError(Exception):
    """A bad command line, config or output path: ``dispatch`` prints it under
    the subcommand's usage line and exits 2."""


# the characters a JSON value can start with, after JSON whitespace
_JSON_VALUE_STARTS = frozenset('{["-0123456789tfnNI')


def _parse_override(item: str) -> tuple[str, object]:
    if "=" not in item:
        raise UsageError(f"override {item!r} is not of the form key=value")
    key, _, raw = item.partition("=")
    # bare words are strings; a word that cannot start a JSON value is one
    # without a parse attempt
    if raw.lstrip(" \t\n\r")[:1] not in _JSON_VALUE_STARTS:
        return key, raw
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _resolve_config(defaults: dict, config_path: Optional[str], overrides,
                    trials: Optional[int], seed: Optional[int]) -> dict:
    """defaults <- config file <- --set overrides <- --trials and --seed."""
    config = dict(defaults)
    if config_path is not None:
        try:
            with open(config_path) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config: {exc}")
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        _reject_unknown(loaded, defaults, "config file")
        config.update(loaded)
    for item in overrides:
        key, value = _parse_override(item)
        _reject_unknown({key: value}, defaults, "--set")
        config[key] = value
    if trials is not None:
        config["trials"] = trials
    if seed is not None:
        config["seed"] = seed
    _check_types(config, defaults)
    return config


def _reject_unknown(given: dict, defaults: dict, source: str) -> None:
    unknown = [key for key in given if key not in defaults]
    if unknown:
        raise UsageError(f"unknown {source} keys: {', '.join(sorted(unknown))}")


# the JSON type a value must have, by the type of its key's default; a key
# whose default is None is checked by its runner
_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               dict: "an object"}


def _check_types(config: dict, defaults: dict) -> None:
    for key, default in defaults.items():
        want, got = type(default), type(config[key])
        if want in _JSON_TYPES and got is not want and not (want is float and got is int):
            raise UsageError(f"config key {key!r} must be {_JSON_TYPES[want]}, "
                             f"got {json.dumps(config[key])}")


def _sorted_keys(value):
    if isinstance(value, dict):
        return {k: _sorted_keys(value[k]) for k in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_sorted_keys(v) for v in value]
    return value


def _config_hash(config: dict) -> str:
    # canonical form = sorted keys + the same 12-digit floats the report
    # prints, so a config copied back out of a report hashes identically
    canon = _json_text(_sorted_keys(config))
    return hashlib.sha256(canon.encode()).hexdigest()


def _envelope(subcommand: str, config: dict) -> dict:
    return {
        "version": __version__,
        "subcommand": subcommand,
        "config": dict(config),
        "config_sha256": _config_hash(config),
        "seed": config.get("seed"),
    }


# ------------------------------------------------------------------
# report emission
# ------------------------------------------------------------------


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(value) -> str:
    """Deterministic JSON: keys in insertion order, no spaces, strings
    ASCII-escaped, floats at 12 significant digits and non-finite floats as
    null.  Exact builtin types are dispatched on ``type(value)``; any other
    value (a numpy scalar, a subclass) goes to ``_json_text_other``."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is float:
        return format(value, ".12g") if math.isfinite(value) else "null"
    if kind is int:
        return str(value)
    if kind is dict:
        return "{" + ",".join([_encode_str(k if type(k) is str else str(k)) + ":" + _json_text(v)
                               for k, v in value.items()]) + "}"
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is list or kind is tuple:
        return "[" + ",".join([_json_text(v) for v in value]) + "]"
    return _json_text_other(value)


def _json_text_other(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            return "null"
        return format(value, ".12g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join([_json_text(v) for v in value]) + "]"
    if isinstance(value, dict):
        return "{" + ",".join([_encode_str(str(k)) + ":" + _json_text(v)
                               for k, v in value.items()]) + "}"
    raise TypeError(f"cannot serialize report value of type {type(value).__name__}")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g") if math.isfinite(value) else ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return _json_text(value)


SWEEP_COLUMNS = ("param", "value", "estimate", "wilson_low", "wilson_high", "bound", "pass")


def emit_report(report: dict, fmt: str = "json", out: Optional[str] = None) -> str:
    """Render a report and write it to ``out`` (or stdout). Returns the text.

    JSON keeps the report's field order.  CSV: a sweep report becomes one row
    per grid point under the fixed header ``param,value,estimate,wilson_low,
    wilson_high,bound,pass``; any other report becomes a single header+row
    table of its top-level fields.
    """
    if fmt == "json":
        text = _json_text(report) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if "rows" in report:
            writer.writerow(SWEEP_COLUMNS)
            for row in report["rows"]:
                writer.writerow([_cell(row.get(col)) for col in SWEEP_COLUMNS])
        else:
            writer.writerow(list(report))
            writer.writerow([_cell(v) for v in report.values()])
        text = buf.getvalue()
    else:
        raise UsageError(f"unknown format {fmt!r}")
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write report: {exc}") from None
    return text


def _exit_code(report: dict) -> int:
    flag = report.get("pass", report.get("all_pass"))
    return 0 if flag is None or bool(flag) else 1


# ------------------------------------------------------------------
# command-line options
# ------------------------------------------------------------------


def _typed(kind, flag: str) -> Callable[[str], object]:
    """An argparse ``type`` for ``flag``: ``kind`` is int, float or a tuple of
    the allowed strings.  A bad value raises UsageError, which argparse lets
    through, so the error names the flag and the value as written here."""
    if isinstance(kind, tuple):
        def convert(text):
            if text not in kind:
                raise UsageError(f"Invalid value for '{flag}': {text!r} is not one of "
                                 f"{', '.join(map(repr, kind))}.")
            return text
    else:
        def convert(text):
            try:
                return kind(text)
            except ValueError:
                raise UsageError(f"Invalid value for '{flag}': {text!r} is not a valid "
                                 f"{'integer' if kind is int else 'float'}.") from None
    return convert


def _threads(flag: Optional[int]) -> int:
    """``--threads``, else ``$COSETMOE_THREADS``, else 1; at least 1."""
    if flag is None:
        env = os.environ.get("COSETMOE_THREADS")
        flag = _typed(int, "--threads")(env) if env else 1
    if flag < 1:
        raise UsageError("--threads must be >= 1")
    return flag


# The options of the experiment subcommands and sweep, by flag; bounds and
# selftest take some of them.  ``type`` is a ``_typed`` kind.
_OPTIONS = {
    "--config": {"dest": "config_path", "metavar": "PATH", "help": "JSON config file."},
    "--set": {"dest": "overrides", "action": "append", "default": [], "metavar": "KEY=VALUE",
              "help": "Config override, applied after the file; repeatable."},
    "--seed": {"type": int, "help": "Base RNG seed."},
    "--trials": {"type": int, "help": "Trial count."},
    "--threads": {"type": int, "help": "Worker threads (results never depend on this); "
                                       "default $COSETMOE_THREADS, else 1."},
    "--out": {"metavar": "PATH", "help": "Write the report here instead of stdout."},
    "--format": {"dest": "fmt", "type": ("json", "csv"), "metavar": "json|csv",
                 "help": "Report format."},
}


# ------------------------------------------------------------------
# bounds
# ------------------------------------------------------------------


# bounds' parameters in report order: (key, type, help); --n is required
_BOUND_PARAMS = (
    ("n", int, "Ambient dimension (even)."), ("m", int, None), ("m_prime", int, None),
    ("d", int, "Code distance."), ("s", int, "Syndrome length."), ("eta", float, None),
    ("gamma", float, None), ("delta", float, None), ("kappa", float, None),
    ("ell", int, None), ("epsilon", float, None),
)


def _bounds_cmd(args) -> int:
    config = {key: getattr(args, key) for key, _, _ in _BOUND_PARAMS
              if getattr(args, key) is not None}
    try:
        rep = protocol_bounds(**config)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    report = _envelope("bounds", config)
    report.update(rep.to_json())
    emit_report(report, args.fmt or "json", args.out)
    return 0


# ------------------------------------------------------------------
# experiment runners (shared by the subcommands and by sweep)
# ------------------------------------------------------------------


_MOE_DEFAULTS = {
    "n": 8, "family": "register", "m": 0, "m_prime": 0, "kind": "bob_all",
    "q": 0.5, "theta_hat": None, "substitute_x": None, "substitute_theta": None,
    "leak": True, "trials": 10_000, "seed": 0,
}


def _bits_arg(text: Optional[str], n: int, what: str) -> Optional[Gf2Vec]:
    if text is None:
        return None
    if not isinstance(text, str) or set(text) - {"0", "1"} or len(text) != n:
        raise ValueError(f"{what} must be a string of {n} bits")
    return Gf2Vec([int(c) for c in text])


def _run_moe(config: dict, threads: int) -> dict:
    params = MoeParams(
        n=config["n"], family=config["family"], m=config["m"],
        m_prime=config["m_prime"], trials=config["trials"], seed=config["seed"],
    )
    kind = config["kind"]
    theta_hat = _bits_arg(config["theta_hat"], params.n, "theta_hat")
    if kind == "measure_wiesner" and theta_hat is None:
        theta_hat = alternating_basis(params.n)
    substitute = None
    if kind == "keep_and_substitute":
        x = _bits_arg(config["substitute_x"], params.n, "substitute_x")
        th = _bits_arg(config["substitute_theta"], params.n, "substitute_theta")
        substitute = WiesnerRecord(
            x=x if x is not None else Gf2Vec.zeros(params.n),
            theta=th if th is not None else Gf2Vec.zeros(params.n),
        )
    strategy = builtin_strategy(kind, q=config["q"], theta_hat=theta_hat,
                                substitute=substitute)
    return moe_experiment(params, strategy, leak=config["leak"], threads=threads)


_QECM_DEFAULTS = {
    "kind": "correctness", "n": 8, "ell": 2, "family": "register",
    "adversary": "keep_all", "message_probs": None, "trials": 1000, "seed": 0,
}


def _run_qecm(config: dict, threads: int) -> dict:
    params = QecmParams(config["n"], config["ell"], family=config["family"])
    return qecm_experiment(
        config["kind"], params, adversary=config["adversary"],
        trials=config["trials"], seed=config["seed"],
        message_probs=config["message_probs"], threads=threads,
    )


_URBC_DEFAULTS = {
    "kind": "correctness", "n": 14, "ell": 2, "eta": 2.0 / 7.0,
    "code": {"kind": "hamming74", "params": []}, "scheme": "ideal",
    "trials": 1000, "seed": 0,
}


def _run_urbc(config: dict, threads: int) -> dict:
    params = UrbcParams(
        config["n"], config["ell"], config["eta"],
        make_code_from_config(config["code"]), scheme=config["scheme"],
    )
    return urbc_experiment(config["kind"], params, trials=config["trials"],
                           seed=config["seed"], threads=threads)


_QKD_DEFAULTS = {
    "kind": "correctness", "n": 16, "ell": 2, "gamma": 0.0, "eta": 0.25,
    "code": {"kind": "repetition", "params": [8]}, "dx": 0.0, "dz": 0.0,
    "eve": None, "kappa": None, "trials": 1000, "seed": 0,
}


def _eve_from_name(name) -> object:
    if name is None or name == "none":
        return None
    if name == "keep_substitute":
        return KeepAndSubstitute()
    if name == "intercept_resend":
        return InterceptResend()
    raise ValueError(f"unknown eavesdropper {name!r}")


def _run_qkd(config: dict, threads: int) -> dict:
    params = QkdParams(config["n"], config["ell"], config["gamma"], config["eta"],
                       make_code_from_config(config["code"]))
    noise = None
    if config["dx"] or config["dz"]:
        noise = PauliNoise(dx=config["dx"], dz=config["dz"])
    kind = config["kind"]
    if kind == "secrecy":
        return secrecy_probe(params, eve=_eve_from_name(config["eve"]),
                             trials=config["trials"], seed=config["seed"],
                             noise=noise, kappa=config["kappa"], threads=threads)
    return riqkd_experiment(kind, params, trials=config["trials"],
                            seed=config["seed"], noise=noise, threads=threads)


_TFKW_DEFAULTS = {
    "n": 16, "gamma": 0.0, "check_size": None,
    "code": {"kind": "repetition", "params": [8]}, "eve": None,
    "dx": 0.0, "dz": 0.0, "trials": 100, "seed": 0,
}


def _run_tfkw(config: dict, threads: int) -> dict:
    params = TfkwParams(config["n"], config["gamma"],
                        make_code_from_config(config["code"]),
                        check_size=config["check_size"])
    noise = None
    if config["dx"] or config["dz"]:
        noise = PauliNoise(dx=config["dx"], dz=config["dz"])
    return tfkw_experiment(params, eve=config["eve"], trials=config["trials"],
                           seed=config["seed"], noise=noise, threads=threads)


# Each runner takes (config, threads).  The thread count is not part of the
# config, so it never reaches a report; only the batch kernels use it.
_EXPERIMENTS = {
    "moe": (_MOE_DEFAULTS, _run_moe),
    "qecm": (_QECM_DEFAULTS, _run_qecm),
    "urbc": (_URBC_DEFAULTS, _run_urbc),
    "qkd": (_QKD_DEFAULTS, _run_qkd),
    "tfkw": (_TFKW_DEFAULTS, _run_tfkw),
}


def _experiment_cmd(name: str, args) -> int:
    threads = _threads(args.threads)
    defaults, runner = _EXPERIMENTS[name]
    config = _resolve_config(defaults, args.config_path, args.overrides, args.trials, args.seed)
    try:
        result = runner(config, threads)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    report = _envelope(name, config)
    report.update(result)
    emit_report(report, args.fmt or "json", args.out)
    return _exit_code(report)


# ------------------------------------------------------------------
# sweep
# ------------------------------------------------------------------


_WILSON_PREFIXES = ("", "abort_", "guess_")
_RATE_FIELDS = ("disagreement_rate", "max_trace_distance", "trace_distance")
_BOUND_FIELDS = ("bound", "binding_bound", "completeness_bound", "correctness_bound",
                 "epsilon_bound", "secrecy_bound")


def _sweep_row(param: str, value, report: dict) -> dict:
    """One CSV row.  The estimate and its Wilson interval come from the same
    prefix; a report with no interval gives its rate, or no estimate."""
    row = {"param": param, "value": value}
    prefix = next((p for p in _WILSON_PREFIXES if p + "estimate" in report), None)
    if prefix is None:
        row["estimate"] = next((report[f] for f in _RATE_FIELDS if f in report), None)
        row["wilson_low"] = row["wilson_high"] = None
    else:
        for col in ("estimate", "wilson_low", "wilson_high"):
            row[col] = report[prefix + col]
    row["bound"] = next((report[f] for f in _BOUND_FIELDS if f in report), None)
    row["pass"] = report["pass"]
    return row


def _sweep_cmd(args) -> int:
    threads = _threads(args.threads)
    if args.steps < 0:
        raise UsageError("--steps must be >= 0")
    defaults, runner = _EXPERIMENTS[args.experiment]
    param = args.param
    if param not in defaults:
        raise UsageError(f"unknown sweep parameter {param!r}")
    config = _resolve_config(defaults, args.config_path, args.overrides, args.trials,
                             args.seed)
    grid = np.linspace(args.start, args.stop, args.steps) if args.steps else np.array([])
    integral = isinstance(defaults[param], int) and not isinstance(defaults[param], bool)
    rows = []
    for value in grid:
        point = float(value)
        if integral:
            point = int(round(point))
        run_config = dict(config)
        run_config[param] = point
        _check_types(run_config, defaults)
        try:
            report = runner(run_config, threads)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        rows.append(_sweep_row(param, point, report))
    report = _envelope("sweep", config)
    report["experiment"] = args.experiment
    report["param"] = param
    report["grid"] = [r["value"] for r in rows]
    report["rows"] = rows
    emit_report(report, args.fmt or "csv", args.out)
    return 0


# ------------------------------------------------------------------
# selftest and the acceptance criteria
# ------------------------------------------------------------------


class Check(NamedTuple):
    """One row of the check table.  ``run(size, seed, threads)`` returns
    (ok, value).  ``selftest`` runs every row at its ``quick`` size; the
    acceptance gate (tests/test_acceptance.py) runs each row that has a
    ``criterion`` number at its ``full`` size, with the criterion's seed."""

    name: str
    criterion: Optional[int]
    run: Callable
    quick: object
    full: object = None


def _check_combinatorial_bound(n_max, seed, threads) -> tuple[bool, float]:
    ok = all(verify_combinatorial_bound(n) for n in range(2, n_max + 2, 2))
    ratio = float(combinatorial_sum(n_max)) / (
        math.sqrt(math.e) * math.cos(math.pi / 8) ** n_max)
    return ok, ratio


def _check_bounds_value(size, seed, threads) -> tuple[bool, float]:
    value = moe_bound(10)
    return abs(value - 0.747) < 5e-4, value


def _check_gamma_star(size, seed, threads) -> tuple[bool, float]:
    g = gamma_star()
    return 0.0150 <= g <= 0.0156, g


def _half_subspaces(n: int, family: str):
    """Every n/2-dimensional subspace of Z_2^n in the family, once each, from
    its canonical basis: a unit entry at each pivot column and, for family
    "all", every filling of the non-pivot entries right of each pivot (a
    register subspace has them all zero)."""
    half = n // 2
    for pivots in itertools.combinations(range(n), half):
        free = [(i, j) for i, p in enumerate(pivots) for j in range(p + 1, n)
                if j not in pivots]
        fillings = itertools.product((0, 1), repeat=len(free)) if family == "all" else [()]
        for filling in fillings:
            basis = np.zeros((half, n), dtype=np.uint8)
            basis[np.arange(half), pivots] = 1
            for (i, j), bit in zip(free, filling):
                basis[i, j] = bit
            yield Gf2Subspace.from_rref(basis, pivots)


def _check_orthonormality(size, seed, threads) -> tuple[bool, float]:
    family, dims = size
    worst = 0.0
    for n in dims:
        half = n // 2
        for a in _half_subspaces(n, family):
            states = [
                prepare_coset_state(CosetDescriptor(
                    a, Gf2Vec.from_int(t_int, half), Gf2Vec.from_int(tp_int, half)
                )).amps
                for t_int in range(1 << half) for tp_int in range(1 << half)
            ]
            gram = np.array([[np.vdot(u, v) for v in states] for u in states])
            worst = max(worst, float(np.abs(gram - np.eye(1 << n)).max()))
    return worst <= 1e-10, worst


def _check_extractor_two_universal(shapes, seed, threads) -> tuple[bool, float]:
    """For each (input bits, output bits) shape, the collision probability
    Pr_s[T(s) c = 0] of every nonzero c = x + y is at most 2^-ell."""
    ok, worst = True, 0.0
    for n_in, ell in shapes:
        ext = ToeplitzExtractor(n_in, ell)
        n_seeds = 1 << ext.seed_len
        for c_int in range(1, 1 << n_in):
            c = Gf2Vec.from_int(c_int, n_in)
            collisions = sum(
                ext.extract(c, Gf2Vec.from_int(s, ext.seed_len)).to_int() == 0
                for s in range(n_seeds)
            )
            ok &= collisions / n_seeds <= 2.0 ** -ell + 1e-12
            worst = max(worst, collisions / n_seeds)
    return ok, worst


def _check_moe_kernel(kind: str, trials, seed, threads) -> tuple[bool, float]:
    params = MoeParams(n=8, trials=trials, seed=seed)
    kwargs = {"theta_hat": alternating_basis(params.n)} if kind == "measure_wiesner" else {}
    strategy = builtin_strategy(kind, **kwargs)
    result = play_leaky(params, strategy, threads=threads)
    target = strategy.analytic(params)
    sigma = binomial_sigma(target, params.trials)
    return abs(result.estimate - target) <= 4 * sigma, result.estimate


def _check_qecm_honest(trials, seed, threads) -> tuple[bool, float]:
    rep = qecm_experiment("correctness", QecmParams(8, 2), trials=trials, seed=seed,
                          threads=threads)
    return rep["pass"], float(rep["disagreements"])


def _check_urbc_binding(size, seed, threads) -> tuple[bool, float]:
    trials, band = size  # band: half-width of the window around 6/21, in sigmas
    params = UrbcParams(14, 2, 2.0 / 7.0, make_code("hamming74"))
    rep = urbc_experiment("binding", params, trials=trials, seed=seed, threads=threads)
    rate, target = rep["estimate"], rep["analytic_rate"]  # target = 6/21
    sigma = binomial_sigma(target, trials)
    return abs(rate - target) <= band * sigma and rate <= rep["binding_bound"], rate


def _check_riqkd_honest(trials, seed, threads) -> tuple[bool, float]:
    params = QkdParams(16, 2, 0.0, 0.25, make_code("repetition", 8))
    rep = riqkd_experiment("correctness", params, trials=trials, seed=seed, threads=threads)
    return rep["pass"], float(rep["aborts"] + rep["key_mismatches_accepted"])


def _check_riqkd_device_fault(trials, seed, threads) -> tuple[bool, float]:
    # passes when the wrong-key rate is at most (1 - 2*3/14)^2 + 3 sigma
    params = QkdParams(14, 2, 0.0, 2.0 / 7.0, make_code("hamming74"))
    rep = riqkd_experiment("device_fault", params, trials=trials, seed=seed,
                           threads=threads)
    return rep["pass"], rep["estimate"]


def _check_tfkw_attack(trials, seed, threads) -> tuple[bool, float]:
    # broken: no aborts, and Eve holds the device's key in every trial
    params = TfkwParams(16, 0.0, make_code("repetition", 8))
    rep = tfkw_experiment(params, eve="substitute_zero", trials=trials, seed=seed,
                          threads=threads)
    return bool(rep["broken"]), float(rep["eve_matches_device"])


def _check_secrecy_exact(size, seed, threads) -> tuple[bool, float]:
    params = QkdParams(6, 1, 0.0, 1.0 / 3.0, make_code("repetition", 3))
    rep = secrecy_exact(params)
    return abs(rep["trace_distance"] - 0.5) <= 1e-12, rep["trace_distance"]


# The selftest battery, in report order.  A quick size keeps selftest fast at
# any seed (hence the wider 4-sigma band of urbc_binding_n14); a full size is
# the acceptance criterion's own size.
CHECKS = (
    Check("combinatorial_bound_n60", 3, _check_combinatorial_bound, 60, 60),
    Check("moe_bound_n10", None, _check_bounds_value, None),
    Check("gamma_star_window", 14, _check_gamma_star, None, None),
    Check("coset_basis_orthonormality_n4", 1, _check_orthonormality,
          ("register", (4,)), ("all", (2, 4))),
    Check("extractor_two_universal", 16, _check_extractor_two_universal,
          ((4, 2),), tuple(itertools.product(range(2, 7), (1, 2)))),
    Check("moe_bob_all_n8", None, partial(_check_moe_kernel, "bob_all"), 20_000),
    Check("moe_measure_computational_n8", None,
          partial(_check_moe_kernel, "measure_computational"), 20_000),
    Check("moe_measure_wiesner_n8", None,
          partial(_check_moe_kernel, "measure_wiesner"), 20_000),
    Check("qecm_honest_n8", 6, _check_qecm_honest, 300, 10_000),
    Check("urbc_binding_n14", 9, _check_urbc_binding, (3000, 4), (100_000, 3)),
    Check("riqkd_honest_n16", 11, _check_riqkd_honest, 200, 1000),
    Check("riqkd_device_fault_n14", 13, _check_riqkd_device_fault, 3000, 100_000),
    Check("tfkw_substitution_attack", 15, _check_tfkw_attack, 50, 100),
    Check("secrecy_exact_toy", None, _check_secrecy_exact, None),
)


def selftest_checks(seed: int, threads: int) -> list[dict]:
    """Every row of ``CHECKS`` at its quick size; the outputs never depend on
    ``threads``."""
    checks = []
    for row in CHECKS:
        ok, value = row.run(row.quick, seed, threads)
        checks.append({"name": row.name, "pass": bool(ok), "value": float(value)})
    return checks


def _selftest_cmd(args) -> int:
    threads = _threads(args.threads)
    config = {"seed": args.seed}
    try:
        checks = selftest_checks(args.seed, threads)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    report = _envelope("selftest", config)
    report["checks"] = checks
    report["all_pass"] = all(c["pass"] for c in checks)
    emit_report(report, args.fmt or "json", args.out)
    return _exit_code(report)


# ------------------------------------------------------------------
# entry points
# ------------------------------------------------------------------


class _Formatter(argparse.HelpFormatter):
    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


class _Parser(argparse.ArgumentParser):
    """An argparse parser that raises UsageError where argparse would print
    and exit, matches no option by a prefix of it, has ``--help`` but no
    ``-h``, and converts each option's value with ``_typed``."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, formatter_class=_Formatter,
                         **kwargs)
        self.flags = []
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def add_argument(self, flag: str, type=None, **kwargs):
        self.flags.append(flag)
        if type is not None:
            kwargs["type"] = _typed(type, flag)
        return super().add_argument(flag, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> tuple[_Parser, dict]:
    """The root parser and its subcommand parsers by name.  Each subcommand
    parser sets ``run``, the function that takes the parsed arguments and
    returns the exit code; the root parser alone leaves it None."""
    root = _Parser(prog="cosetmoe", usage="%(prog)s [OPTIONS] COMMAND [ARGS]...",
                   description="Simulators and bound calculators for coset-state "
                               "cryptography.")
    root.add_argument("--version", action="version", version=f"cosetmoe, version {__version__}",
                      help="Show the version and exit.")
    root.set_defaults(run=None)
    commands = root.add_subparsers(title="commands", metavar="COMMAND", prog="cosetmoe")

    def command(name, run, help_text, flags):
        sub = commands.add_parser(name, help=help_text, description=help_text,
                                  usage="%(prog)s [OPTIONS]")
        sub.set_defaults(run=run)
        for flag in flags:
            sub.add_argument(flag, **_OPTIONS[flag])
        return sub

    bounds = command("bounds", _bounds_cmd,
                     "Emit every closed-form bound the given parameters allow.", ())
    for key, kind, help_text in _BOUND_PARAMS:
        bounds.add_argument("--" + key.replace("_", "-"), type=kind, required=key == "n",
                            help=help_text)
    for flag in ("--out", "--format"):
        bounds.add_argument(flag, **_OPTIONS[flag])
    for name, help_text in (
        ("moe", "Play a monogamy-game strategy against the game bound."),
        ("qecm", "Interactive-encryption experiments (correctness, games)."),
        ("urbc", "Commitment experiments (correctness, binding, hiding)."),
        ("qkd", "Receiver-independent key-distribution experiments."),
        ("tfkw", "Reference one-sided protocol, honest or under attack."),
    ):
        command(name, partial(_experiment_cmd, name), help_text, _OPTIONS)
    sweep = command("sweep", _sweep_cmd,
                    "Run one experiment over an inclusive parameter grid; CSV by default.", ())
    sweep.add_argument("--experiment", type=tuple(sorted(_EXPERIMENTS)), required=True)
    sweep.add_argument("--param", required=True, help="Config key to sweep.")
    sweep.add_argument("--from", dest="start", type=float, required=True)
    sweep.add_argument("--to", dest="stop", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True, help="Grid points (0 = header only).")
    for flag in _OPTIONS:
        sweep.add_argument(flag, **_OPTIONS[flag])
    selftest = command("selftest", _selftest_cmd,
                       "Fast battery of exact identities and seeded experiment checks.",
                       ("--seed", "--threads", "--out", "--format"))
    selftest.set_defaults(seed=0)
    return root, commands.choices


_PARSER, _COMMANDS = _build_parser()


def _extras_error(parser: _Parser, extras: list[str]) -> str:
    """What to say about the arguments no option took: the first unknown
    option, with the long options that resemble it, else the leftovers."""
    options = [arg.partition("=")[0] for arg in extras if arg[:1] == "-" and arg != "-"]
    if not options:
        plural = "s" if len(extras) > 1 else ""
        return f"Got unexpected extra argument{plural} ({' '.join(extras)})"
    option = options[0]
    like = sorted(difflib.get_close_matches(option, parser.flags)) if option[:2] == "--" else []
    if len(like) == 1:
        return f"No such option {option!r}. Did you mean {like[0]!r}?"
    if like:
        return f"No such option {option!r}. (Did you mean one of: {', '.join(map(repr, like))}?)"
    return f"No such option {option!r}."


def dispatch(argv) -> int:
    """Run the CLI on an argv list and return the process exit code: 0
    success, 1 a failed check, 2 a usage or config error."""
    argv = list(argv)
    parser = _COMMANDS.get(argv[0], _PARSER) if argv else _PARSER
    try:
        if parser is _PARSER and argv and argv[0][:1] != "-":
            raise UsageError(f"No such command {argv[0]!r}.")
        try:
            # a subcommand's own parser reads its options; the root parser
            # only sees an argv that starts with an option
            args, extras = parser.parse_known_args(argv if parser is _PARSER else argv[1:])
        except SystemExit as exc:  # --help, --version
            return exc.code
        if extras:
            raise UsageError(_extras_error(parser, extras))
        if args.run is None:
            _PARSER.print_help(sys.stderr)
            return 2
        return args.run(args)
    except UsageError as exc:
        sys.stderr.write(f"{parser.format_usage()}Try '{parser.prog} --help' for help.\n\n"
                         f"Error: {exc}\n")
        return 2


def main(argv=None) -> None:
    sys.exit(dispatch(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
