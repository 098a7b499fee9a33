"""Span tracing of the conesine layers, installed from outside the library.

``install`` wraps every public function of the five layer modules
(``lattice_cones``, ``bernoulli``, ``qseries``, ``generalized``, ``cli``) and
rebinds each wrapper at every import site: the attribute of the defining
module, every other ``conesine`` module that imported the name (for example
``generalized`` binds ``qfactorial_xq`` and ``cli`` binds ``verify_theorem``),
and the sides of the identity table ``generalized.THEOREMS``.  The library
source is not modified; ``uninstall`` puts the original objects back.

Each call records one span (name, start, end, parent) in flat arrays kept in
memory; ``save`` writes them out once, at the end of a run.  A span's self
time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import types
from array import array
from time import perf_counter

LAYERS = ("lattice_cones", "bernoulli", "qseries", "generalized", "cli")

# identity-table sides that are not public functions, named as routes
_PRIVATE_SIDES = {
    ("face-modularity", "lhs"): "bernoulli_exponential",
    ("face-modularity", "rhs"): "face_product_reduced",
}


def public_functions(module) -> dict:
    """Functions defined in ``module`` whose names do not start with ``_``."""
    return {
        name: fn
        for name, fn in vars(module).items()
        if isinstance(fn, types.FunctionType)
        and fn.__module__ == module.__name__
        and not name.startswith("_")
    }


class Tracer:
    """In-memory span store plus the call hooks the benchmark reads.

    Calls made while ``enabled`` is false run unrecorded, so the benchmark
    can keep its own checks out of the spans.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.outermost = array("b")  # no enclosing span of the same name
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.route_pairs_tried = 0
        self.enabled = True
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, span_name: str, fn, on_call=None, on_return=None):
        """A wrapper of ``fn`` that records one span per call."""
        nid = self._id(span_name)
        stack, depth = self._stack, self._depth
        names, parents, starts, ends, outer = (
            self.name, self.parent, self.start, self.end, self.outermost,
        )

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            outer.append(depth[nid] == 0)
            ends.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                depth[nid] -= 1
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        return traced

    # -- installation ------------------------------------------------------

    def install(self, hooks: dict | None = None) -> None:
        """Wrap the layers' public functions at every import-site binding.

        ``hooks`` maps a span name such as ``"lattice_cones.lattice_points"``
        to ``(on_call, on_return)`` callbacks.
        """
        hooks = hooks or {}
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"conesine.{layer}")
            for fname, fn in public_functions(module).items():
                span = f"{layer}.{fname}"
                wrappers[fn] = self.wrap(span, fn, *hooks.get(span, (None, None)))
        for modname, module in list(sys.modules.items()):
            if modname != "conesine" and not modname.startswith("conesine."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._restore.append((module, attr, value))
        generalized = sys.modules["conesine.generalized"]
        table = generalized.THEOREMS
        for tid, thm in list(table.items()):
            changes = {}
            for side in ("lhs", "rhs"):
                fn = getattr(thm, side)
                if fn in wrappers:
                    changes[side] = wrappers[fn]
                elif (tid, side) in _PRIVATE_SIDES:
                    changes[side] = self.wrap(
                        f"generalized.{_PRIVATE_SIDES[tid, side]}", fn
                    )
            inner_lhs = changes.get("lhs", thm.lhs)

            def tried(*args, _inner=inner_lhs, **kwargs):
                # every sample attempt evaluates lhs first, so this counts
                # route pairs tried, including redraws after DomainError
                if self.enabled:
                    self.route_pairs_tried += 1
                return _inner(*args, **kwargs)

            changes["lhs"] = tried
            table[tid] = dataclasses.replace(thm, **changes)
            self._restore.append((table, tid, thm))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------

    def span_table(self):
        """Numpy arrays (name, parent, duration, self time, outermost)."""
        import numpy as np

        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - covered
        outer = np.asarray(self.outermost, dtype=bool)
        return name, parent, dur, self_time, outer

    def save(self, path: str) -> None:
        """Write every span, with the name table, as one ``.npz`` file."""
        import numpy as np

        np.savez(
            path,
            names=np.asarray(self.names),
            name=np.asarray(self.name, dtype=np.int64),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
