"""Span recorder that wraps oqec's public functions from outside the package.

``Tracer.installed()`` replaces every public function of the traced oqec
modules, plus a few methods, with a wrapper that records one span per call.
Modules bind names with ``from .linalg import complete_basis``, so each
wrapper is rebound in every ``oqec`` module namespace that holds the
original; otherwise calls between modules would be missed. Leaving the
context restores the originals.

Per layer name the tracer keeps the call count and the self time: the span's
duration minus the time covered by its child spans. A few layers also add
work counters (columns produced, Kraus operators applied, bytes moved).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
import types
from collections import defaultdict

MODULES = ("linalg", "channels", "spaces", "conditions", "recovery", "codes", "serialize", "cli")

# (module, class, attribute, layer name)
METHODS = (
    ("channels", "Channel", "__post_init__", "channels.Channel.init"),
    ("spaces", "Decomposition", "code_vectors", "spaces.code_vectors"),
    ("conditions", "PurifiedState", "marginal", "conditions.marginal"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# layer -> (counter name, amount added per completed call)
COUNTERS = {
    "linalg.complete_basis": ("linalg.complete_basis.cols_out", lambda a, k, r: r.shape[1]),
    "channels.apply": ("channels.apply.kraus_applied", lambda a, k, r: len(_arg(a, k, 0, "ch").kraus)),
    "channels.choi": ("channels.choi.bytes", lambda a, k, r: r.nbytes),
    "channels.Channel.init": (
        "channels.Channel.init.kraus_bytes",
        lambda a, k, r: sum(op.nbytes for op in a[0].kraus),
    ),
    "conditions.check_condition_b": (
        "conditions.check_condition_b.pairs",
        lambda a, k, r: len(_arg(a, k, 1, "ch").kraus) ** 2,
    ),
    "recovery.verify_recovery": ("recovery.verify_recovery.trials", lambda a, k, r: r.trials),
    "serialize.load_json_file": (
        "serialize.bytes_read",
        lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path")),
    ),
    "serialize.dump_json_file": (
        "serialize.bytes_written",
        lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path")),
    ),
}


class Tracer:
    """Aggregates spans by layer name: calls, self time and work counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []  # child time accumulated under each open span
        self._paused = False

    @contextlib.contextmanager
    def paused(self):
        """Calls inside the block run unrecorded (used for correctness checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, name, fn):
        counter, amount = COUNTERS.get(name, (None, None))
        # every wrapped layer and counter is reported, called or not
        self.calls[name] += 0
        self.self_s[name] += 0.0
        if counter is not None:
            self.counts[counter] += 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - children[0]
            if counter is not None:
                self.counts[counter] += amount(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the block."""
        wrappers = {}  # id(original) -> (original, wrapper)
        for modname in MODULES:
            mod = importlib.import_module(f"oqec.{modname}")
            for attr, val in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not isinstance(val, types.FunctionType)
                    or val.__module__ != mod.__name__
                ):
                    continue
                wrappers[id(val)] = (val, self._wrap(f"{modname}.{attr}", val))
        patched = []
        namespaces = [m for n, m in list(sys.modules.items()) if n == "oqec" or n.startswith("oqec.")]
        for mod in namespaces:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, val))
        for modname, clsname, attr, name in METHODS:
            cls = getattr(importlib.import_module(f"oqec.{modname}"), clsname)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, original))
            patched.append((cls, attr, original))
        try:
            yield self
        finally:
            for obj, attr, val in reversed(patched):
                setattr(obj, attr, val)
