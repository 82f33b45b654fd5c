"""Outside-in span tracer for the comodfilt layers.

The tracer wraps each layer's public functions and methods from outside the
package, so nothing under src/ changes.  A function is replaced in every
comodfilt module that binds it (for example `kernel` in linalg, filtration
and cobar), because a call through an unpatched binding would go uncounted.
Methods are replaced on the class that defines them, including every Group
subclass that overrides `coproduct_mono` or `reduce_dict`.

Spans are kept in memory as flat tuples and summarised when the pass ends.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# span name -> (module, attribute) for free functions, patched in every
# comodfilt module that binds the same function object
FUNCTIONS = {
    "cli.main": ("cli", "main"),
    "cli.cache_lookup": ("cli", "cache_lookup"),
    "cli.cache_store": ("cli", "cache_store"),
    "comodules.build_module": ("comodules", "build_module"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.kernel": ("linalg", "kernel"),
    "linalg.preimage": ("linalg", "preimage"),
    "linalg.matrank": ("linalg", "matrank"),
    "linalg.matmul_mod": ("linalg", "matmul_mod"),
    "filtration.restrict": ("filtration", "restrict"),
    "filtration.coalgebra_closure": ("filtration", "coalgebra_closure"),
    "cobar.cobar_complex": ("cobar", "cobar_complex"),
    "cobar.cohomology_dims": ("cobar", "cohomology_dims"),
    "cobar.injective_test": ("cobar", "injective_test"),
    "growth.classify": ("growth", "classify"),
    "suites.run_property_suite": ("suites", "run_property_suite"),
}

# span name -> (module, class, method); Group subclasses are added at install
METHODS = {
    "linalg.coords": ("linalg", "Subspace", "coords"),
    "linalg.intersect": ("linalg", "Subspace", "intersect"),
    "linalg.add_rows": ("linalg", "IncrementalRREF", "add_rows"),
    "comodules.validate": ("comodules", "Comodule", "validate"),
    "comodules.generate": ("comodules", "StreamModule", "generate"),
    "cobar.subcoalgebra": ("cobar", "SubCoalgebra", "__init__"),
    "coordalg.product": ("coordalg", "Group", "product"),
    "coordalg.antipode": ("coordalg", "Group", "antipode"),
}

# methods overridden per Group subclass
GROUP_METHODS = {"coordalg.coproduct_mono": "coproduct_mono",
                 "coordalg.reduce_dict": "reduce_dict"}


def _shape_counters(name, args, result):
    """Sizes computed from the arguments or result of a call: name -> amount."""
    if name == "linalg.rref":
        r, c = np.shape(args[0])
        return {"cells": r * c}
    if name == "linalg.matmul_mod":
        (m, k), (_, n) = np.shape(args[0]), np.shape(args[1])
        return {"flops": 2 * m * k * n}
    if name == "linalg.add_rows":
        acc, block = args[0], args[1]
        return {"rows": np.size(block) // acc.ncols}
    if name == "filtration.restrict":
        return {"iterations": result.iterations}
    if name == "cobar.cobar_complex":
        return {"diff_bytes": sum(d.nbytes for d in result.diffs)}
    if name == "cli.cache_lookup":
        return {"hits": int(result is not None)}
    return None


class Tracer:
    """Records (name, start, end, parent) spans for the wrapped calls."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------
    def install(self):
        pkg = "comodfilt"
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith(pkg + ".")}
        package_modules = [sys.modules[pkg], *mods.values()]
        for span, (modname, attr) in FUNCTIONS.items():
            original = getattr(mods[modname], attr)
            wrapper = self._wrap(span, original)
            for mod in package_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for span, (modname, cls, attr) in METHODS.items():
            klass = getattr(mods[modname], cls)
            self._set(klass, attr, self._wrap(span, vars(klass)[attr]))
        group = mods["coordalg"].Group
        for klass in _subclasses(group):
            for span, attr in GROUP_METHODS.items():
                if attr in vars(klass):
                    self._set(klass, attr, self._wrap(span, vars(klass)[attr]))

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _set(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter
        count_shapes = name in _COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count_shapes:
                for key, amount in _shape_counters(name, args, result).items():
                    full = f"{name}.{key}"
                    counters[full] = counters.get(full, 0) + amount
            return result

        return traced

    # -- summary -----------------------------------------------------------
    def summary(self) -> dict:
        """Per-span-name calls, inclusive and self seconds, plus counters."""
        out: dict[str, dict] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        top_level = 0.0
        restrict_validate = 0.0
        names = [s[0] for s in self.spans]
        for idx, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["s"] += dur
            rec["self_s"] += dur - child_time[idx]
            if parent < 0:
                top_level += dur
            if name == "comodules.validate" and _under(self.spans, names, idx,
                                                       "filtration.restrict"):
                restrict_validate += dur
        return {"spans": out, "counters": dict(self.counters),
                "top_level_s": top_level, "restrict_validate_s": restrict_validate}


_COUNTED = {"linalg.rref", "linalg.matmul_mod", "linalg.add_rows",
            "filtration.restrict", "cobar.cobar_complex", "cli.cache_lookup"}


def _under(spans, names, idx, ancestor) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if names[parent] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def _subclasses(klass):
    for sub in klass.__subclasses__():
        yield sub
        yield from _subclasses(sub)
