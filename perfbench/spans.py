"""Span tracer that wraps cosetmoe's public functions from outside the package.

Every public function of each module, and every public method of each public
class (plus the constructor and the arithmetic and comparison dunders), is
replaced by a wrapper that records one span: name, start, end and parent.
Modules bind imported names at import time, so a function is patched under
every name that refers to it in every ``cosetmoe`` module, not only in the
module that defines it.  ``mc.run_blocks`` also wraps the kernel it is given,
so the time spent inside a moe kernel is charged to ``moe`` rather than to
``mc``.  Attribute accessors (properties) are not spans.

Spans are kept in flat arrays while the traced phase runs and written out by
``save`` afterwards.  Self time (a span's duration minus the time its child
spans cover) is accumulated per span name as spans close.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

MODULES = ("gf2", "qsim", "ecc", "ext", "mc", "moe", "proto", "info", "cli")

# dunders that do real work on the hot paths; other dunders are not spans
_TRACED_DUNDERS = frozenset(
    {"__init__", "__post_init__", "__add__", "__xor__", "__eq__", "__hash__"}
)


class Tracer:
    """Records nested spans while installed; not thread-safe (use one thread)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_idx = array("i")
        self.parents = array("i")
        self.self_time: dict[int, float] = defaultdict(float)
        self.calls: dict[int, int] = defaultdict(int)
        self.words = 0  # uint64 words drawn through mc.trial_words
        self._stack: list[list] = []  # [span index, time covered by children]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> list:
        stack = self._stack
        idx = len(self.starts)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.name_idx.append(nid)
        self.parents.append(stack[-1][0] if stack else -1)
        frame = [idx, 0.0]
        stack.append(frame)
        return frame

    def _close(self, frame: list, nid: int, t0: float, t1: float) -> None:
        stack = self._stack
        stack.pop()
        idx = frame[0]
        self.starts[idx] = t0
        self.ends[idx] = t1
        dur = t1 - t0
        self.self_time[nid] += dur - frame[1]
        self.calls[nid] += 1
        if stack:
            stack[-1][1] += dur

    def wrap(self, name: str, fn):
        """A traced version of ``fn`` recording spans called ``name``."""
        nid = self.name_id(name)
        clock = time.perf_counter
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = open_(nid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, nid, t0, clock())

        return traced

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self.name_id(name))

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        """Patch every public function and method of the cosetmoe modules."""
        pkg = sys.modules["cosetmoe"]
        mods = {m: sys.modules[f"cosetmoe.{m}"] for m in MODULES}
        namespaces = [pkg, *mods.values()]
        for short, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # re-exported from another module
                if isinstance(obj, type):
                    self._install_class(short, obj)
                elif callable(obj):
                    traced = self._function_wrapper(short, attr, obj)
                    for ns in namespaces:
                        for key, val in list(vars(ns).items()):
                            if val is obj:
                                self._patch(ns, key, traced)

    def _function_wrapper(self, short: str, attr: str, fn):
        traced = self.wrap(f"{short}.{attr}", fn)
        if (short, attr) == ("mc", "trial_words"):
            inner = traced

            def traced(*args, **kwargs):
                out = inner(*args, **kwargs)
                self.words += out.size
                return out

        elif (short, attr) == ("mc", "run_blocks"):
            inner = traced

            def traced(trials, words_per_trial, seed, kernel, *args, **kwargs):
                owner = getattr(kernel, "__module__", "").rpartition(".")[2] or "mc"
                kernel = self.wrap(f"{owner}.kernel", kernel)
                return inner(trials, words_per_trial, seed, kernel, *args, **kwargs)

        return traced

    def _install_class(self, short: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _TRACED_DUNDERS:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif callable(raw) and not isinstance(raw, type):
                self._patch(cls, attr, self.wrap(name, raw))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def by_module(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and span counts summed per module (name prefix)."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for nid, name in enumerate(self.names):
            mod = name.partition(".")[0]
            self_s[mod] += self.self_time.get(nid, 0.0)
            calls[mod] += self.calls.get(nid, 0)
        return self_s, calls

    def name_stats(self, name: str) -> tuple[float, int]:
        nid = self._name_ids.get(name)
        if nid is None:
            return 0.0, 0
        return self.self_time.get(nid, 0.0), self.calls.get(nid, 0)

    def save(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_idx=np.frombuffer(self.name_idx, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int32),
        )


class _Span:
    __slots__ = ("_tracer", "_nid", "_frame", "_t0")

    def __init__(self, tracer: Tracer, nid: int):
        self._tracer = tracer
        self._nid = nid

    def __enter__(self):
        self._frame = self._tracer._open(self._nid)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._tracer._close(self._frame, self._nid, self._t0, time.perf_counter())
        return False
