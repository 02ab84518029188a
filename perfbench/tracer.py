"""Spans around the public functions of each relpos module, installed from
the benchmark's side (the program itself is not instrumented).

`Tracer.install()` wraps every public module-level function and public
method defined in a layer module, then rebinds each name that any relpos
module imported with `from .x import f`, so no call escapes its span.  A
span's self time is its duration minus the time covered by its child spans;
a span's inclusive time is counted only when no span with the same key (or,
for the layer total, the same layer) encloses it.  Counts that derive from
arguments or returned objects are computed after the span closes; their cost
is kept out of every self time and every inclusive time, including those of
the spans that enclose them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# Layer name -> module that defines it.  The kernel is taken from
# relpos.kernel, whichever twin it selected.
LAYERS = {
    "kernel": "relpos.kernel",
    "matrix": "relpos.matrix",
    "poly": "relpos.poly",
    "subspace": "relpos.subspace",
    "system": "relpos.system",
    "decompose": "relpos.decompose",
    "coxeter": "relpos.coxeter",
    "toeplitz": "relpos.toeplitz",
    "angles": "relpos.angles",
    "sysfile": "relpos.sysfile",
    "catalog": "relpos.catalog",
}

KERNEL_FUNCS = ("ffgj", "matmul")
# Operator methods that do real work (dataclass-generated ones are skipped).
DUNDERS = {"__matmul__", "__add__", "__sub__", "__neg__", "__mul__", "__eq__",
           "__floordiv__", "__mod__"}
# Classes whose constructor does real work (Subspace canonicalizes its basis).
WRAP_INIT = {"Subspace"}
# Accessors called per entry; a span on them would cost more than they do.
SKIP = {"entry", "entries", "coeff", "dims", "is_zero", "is_full", "text"}
# Short metric names for a few functions.
RENAME = {
    "__matmul__": "matmul",
    "sum_": "sum",
    "factor_over_gaussian_rationals": "factor",
    "find_nontrivial_idempotent": "idempotent",
    "__init__": "init",
}


def _name(fn_name: str) -> str:
    return RENAME.get(fn_name, fn_name.strip("_"))


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.layer_incl_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.by_kind = defaultdict(float)  # (item kind, layer) -> self seconds
        self.kind = "setup"
        self.bookkeeping_s = 0.0
        self._stack = []
        self._depth = defaultdict(int)
        self._layer_depth = defaultdict(int)
        self._originals = {}  # id(original) -> wrapper
        self.keys = {}  # key -> layer

    # -- spans -----------------------------------------------------------------

    def wrap(self, layer, key, fn, count=None):
        stack = self._stack
        depth = self._depth
        layer_depth = self._layer_depth
        clock = time.perf_counter
        self.keys[key] = layer

        def span(*args, **kwargs):
            t0 = clock()
            frame = [0.0, 0.0]  # time in child spans, derived-count time under this span
            stack.append(frame)
            depth[key] += 1
            layer_depth[layer] += 1
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - t0
                stack.pop()
                depth[key] -= 1
                layer_depth[layer] -= 1
                own = elapsed - frame[0]
                inclusive = elapsed - frame[1]
                self.self_s[key] += own
                self.by_kind[(self.kind, layer)] += own
                self.calls[key] += 1
                if not depth[key]:
                    self.incl_s[key] += inclusive
                if not layer_depth[layer]:
                    self.layer_incl_s[layer] += inclusive
                spent = 0.0
                if count is not None and result is not None:
                    c0 = clock()
                    count(self, args, result)
                    spent = clock() - c0
                    self.bookkeeping_s += spent
                if stack:
                    stack[-1][0] += elapsed + spent
                    stack[-1][1] += frame[1] + spent

        return functools.update_wrapper(span, fn)

    # -- installation ------------------------------------------------------------

    def install(self):
        """Wrap every layer and rebind imported names across relpos."""
        for layer, modname in LAYERS.items():
            mod = importlib.import_module(modname)
            for attr, value in list(vars(mod).items()):
                if layer == "kernel":
                    if attr not in KERNEL_FUNCS:
                        continue
                elif attr.startswith("_") or getattr(value, "__module__", None) != modname:
                    continue
                if isinstance(value, type):
                    self._wrap_class(layer, value)
                elif callable(value):
                    key = f"{layer}.{_name(attr)}"
                    self._originals[id(value)] = self.wrap(layer, key, value, COUNTS.get(key))
        for modname, mod in list(sys.modules.items()):
            if modname != "relpos" and not modname.startswith("relpos."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = self._originals.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        return self

    def _wrap_class(self, layer, cls):
        dataclass = hasattr(cls, "__dataclass_fields__")
        for attr, raw in list(vars(cls).items()):
            if attr == "__init__":
                if cls.__name__ not in WRAP_INIT:
                    continue
            elif attr in SKIP or (attr.startswith("_") and (dataclass or attr not in DUNDERS)):
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn, rewrap = raw.__func__, type(raw)
            elif callable(raw):
                fn, rewrap = raw, None
            else:
                continue  # properties and constants
            key = f"{layer}.{_name(attr)}"
            if key in self.keys:
                key = f"{layer}.{cls.__name__}.{_name(attr)}"
            wrapper = self.wrap(layer, key, fn, COUNTS.get(key))
            setattr(cls, attr, rewrap(wrapper) if rewrap else wrapper)

    # -- results -------------------------------------------------------------------

    def layer_self_s(self):
        out = defaultdict(float)
        for key, secs in self.self_s.items():
            out[self.keys[key]] += secs
        return out


# -- derived counts ----------------------------------------------------------------

def _max_bits(values):
    return max(max(values, default=0), -min(values, default=0)).bit_length()


def _count_ffgj(tr, args, _result):
    re, im, nrows, ncols = args[:4]
    tr.counts["kernel.ffgj.cells"] += nrows * ncols
    bits = max(_max_bits(re), _max_bits(im))
    tr.counts["kernel.ffgj.max_bits"] = max(tr.counts["kernel.ffgj.max_bits"], bits)


def _count_matmul(tr, args, _result):
    _, _, n, k, _, _, m = args[:7]
    tr.counts["kernel.matmul.mults"] += n * k * m


def _count_hom(tr, args, _result):
    s, t = args[:2]
    tr.counts["system.hom_space.unknowns"] += s.ambient_dim * t.ambient_dim


def _count_idempotent(tr, _args, result):
    tr.counts["decompose.idempotent.attempts"] += result.attempts
    tr.counts["decompose.idempotent.found"] += result.status == "found"


def _count_index(tr, _args, result):
    tr.counts["toeplitz.fredholm_index.grid_points"] += result.certification.get("grid", 0)


COUNTS = {
    "kernel.ffgj": _count_ffgj,
    "kernel.matmul": _count_matmul,
    "system.hom_space": _count_hom,
    "decompose.idempotent": _count_idempotent,
    "toeplitz.fredholm_index": _count_index,
}
