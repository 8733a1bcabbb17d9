import ast
import dataclasses
import importlib
import inspect
import pathlib

import pytest

_MODULES = ["gf2", "qsim", "info", "ext", "ecc", "mc", "moe", "proto", "cli"]


@pytest.mark.parametrize("name", ["cosetmoe", *(f"cosetmoe.{m}" for m in _MODULES)])
def test_every_exported_name_resolves(name):
    # perfbench's span tracer reads every name in __all__ with getattr
    mod = importlib.import_module(name)
    assert [attr for attr in mod.__all__ if not hasattr(mod, attr)] == []


# Every parameter of each public entry point and every init field of the
# params classes.  Adding an option means editing this table.
_OPTION_SURFACE = {
    "moe.play_leaky": ("params", "strategy", "leak", "threads"),
    "moe.builtin_strategy": ("kind", "q", "theta_hat", "substitute"),
    "moe.MoeParams": ("n", "family", "m", "m_prime", "trials", "seed"),
    "moe.Strategy": ("kernel", "kind", "options"),
    "moe.moe_experiment": ("params", "strategy", "leak", "threads"),
    "proto.qecm_experiment": ("kind", "params", "adversary", "trials", "seed",
                              "message_probs", "threads"),
    "proto.urbc_experiment": ("kind", "params", "trials", "seed", "threads"),
    "proto.riqkd_experiment": ("kind", "params", "trials", "seed", "noise", "threads"),
    "proto.tfkw_experiment": ("params", "eve", "trials", "seed", "noise", "threads"),
    "proto.secrecy_probe": ("params", "eve", "trials", "seed", "noise", "kappa", "threads"),
    "proto.secrecy_exact": ("params",),
    "proto.run_qecm_id": ("params", "rng", "eve", "message"),
    "proto.run_urbc": ("params", "rng", "alice"),
    "proto.run_riqkd": ("params", "rng", "noise", "device", "eve"),
    "proto.run_tfkw": ("params", "rng", "eve", "noise"),
    "proto.QecmParams": ("n", "ell", "family"),
    "proto.UrbcParams": ("n", "ell", "eta", "code", "scheme", "family"),
    "proto.QkdParams": ("n", "ell", "gamma", "eta", "code"),
    "proto.TfkwParams": ("n", "gamma", "code", "check_size"),
    "proto.KeepAndSubstitute": (),
    "proto.InterceptResend": (),
    "proto.SyndromeFault": (),
    "info.protocol_bounds": ("n", "m", "m_prime", "d", "s", "eta", "gamma", "delta",
                             "kappa", "ell", "epsilon"),
    "qsim.prepare_coset_state": ("d",),
}


@pytest.mark.parametrize("name", list(_OPTION_SURFACE))
def test_option_surface_is_pinned(name):
    module, _, attr = name.partition(".")
    obj = getattr(importlib.import_module(f"cosetmoe.{module}"), attr)
    if dataclasses.is_dataclass(obj):
        names = tuple(f.name for f in dataclasses.fields(obj) if f.init)
    else:
        names = tuple(inspect.signature(obj).parameters)
    assert names == _OPTION_SURFACE[name]


# The names a submodule exports that no code under src/ reads, each with the
# reason it stays in the package.
_UNREAD_EXPORTS = {
    "sequential_min_entropy_fixed": "acceptance criterion 17's quantity",
    "trial_rng": "perfbench's replays workload and the README example replay it; "
                 "it leaves after ROADMAP item 2",
}


def test_every_export_is_read_under_src():
    # a name counts as read where it is a Name, an Attribute or an import
    # alias in some module's code (strings and docstrings do not count), or
    # where the package re-exports it
    package = importlib.import_module("cosetmoe")
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in pathlib.Path(package.__file__).parent.glob("*.py")]
    read = set(package.__all__)
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    exported = {name for module in _MODULES
                for name in importlib.import_module(f"cosetmoe.{module}").__all__}
    assert exported - read == set(_UNREAD_EXPORTS)


# numpy may change a Generator method's algorithm in a feature release (NEP
# 19), never a bit generator's raw stream, so every draw reads raw words
_GENERATOR_DRAWS = {"integers", "random", "choice", "permutation", "default_rng"}


class _DrawFinder(ast.NodeVisitor):
    """Records the scope of every Generator method call and of every
    ``generators`` name (a reader's per-row generators)."""

    def __init__(self, module):
        self.scope, self.found = [module], set()

    def _scoped(self, node):
        self.scope.append(node.name)
        if node.name == "generators":
            self.found.add(".".join(self.scope))
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_ClassDef = _scoped

    def visit_Call(self, node):
        if getattr(node.func, "attr", getattr(node.func, "id", None)) in _GENERATOR_DRAWS:
            self.found.add(".".join(self.scope))
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if node.attr == "generators":
            self.found.add(".".join(self.scope))
        self.generic_visit(node)


def test_only_the_statevector_oracle_calls_generator_methods():
    # every module under src/, the package's __init__ included
    found = set()
    for name in ["cosetmoe", *(f"cosetmoe.{m}" for m in _MODULES)]:
        finder = _DrawFinder(name)
        finder.visit(ast.parse(inspect.getsource(importlib.import_module(name))))
        found |= finder.found
    assert found == set()



def _is_pass(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == "pass"


def test_cli_makes_no_verdict():
    # each experiment's module sets its report's "pass" and cli adds only
    # the envelope; cli's own verdicts are the selftest's (each row's and
    # all_pass), and a sweep row copies its report's "pass"
    import cosetmoe.cli

    made = set()
    for fn in ast.walk(ast.parse(inspect.getsource(cosetmoe.cli))):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Dict):
                pairs = zip(node.keys, node.values)
            elif isinstance(node, ast.Assign):
                pairs = [(t.slice, node.value) for t in node.targets
                         if isinstance(t, ast.Subscript)]
            else:
                continue
            for key, value in pairs:
                copied = isinstance(value, ast.Subscript) and _is_pass(value.slice)
                if _is_pass(key) and not copied:
                    made.add(fn.name)
    assert made == {"selftest_checks"}
