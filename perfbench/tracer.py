"""Span recorder that times each ybgates layer from outside.

Modules bind each other's functions by name (``from .linalg import kron``),
so a call is only seen if every module namespace that holds the function
is patched. ``Tracer.install`` replaces every public function defined in
a ``ybgates`` module, in every ``ybgates`` namespace that binds it
(including the package re-exports), with one wrapper per function that
records a span: name, start, end and parent. ``Tracer.uninstall`` puts the
originals back. Spans stay in memory in flat arrays until ``save``.

A span's self time is its duration minus the durations of its children;
calls on one thread nest, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Functions whose distinct argument tuples are counted.
DISTINCT = ("eightvertex.build_R_x", "entangle.product_state_grid")
ROOT_SPAN = "bench.op"


def _qualname(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _is_traced(obj) -> bool:
    return (
        inspect.isfunction(obj)
        and obj.__module__.startswith("ybgates.")
        and not obj.__name__.startswith("_")
    )


class Tracer:
    """Owns the spans of one traced pass and the patches that record them."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT_SPAN]
        self.name_col = array("i")
        self.parent_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self._stack = [-1]
        self.arguments: dict[str, set] = {name: set() for name in DISTINCT}
        self.probe_states = 0
        self._wrappers: dict[object, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.name_col)
        self.name_col.append(name_id)
        self.parent_col.append(self._stack[-1])
        self.end_col.append(0)
        self._stack.append(index)
        self.start_col.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end_col[index] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def op(self):
        """Root span around one benchmark op; its spans descend from it."""
        index = self._open(0)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn):
        qualname = _qualname(fn)
        name_id = len(self.names)
        self.names.append(qualname)
        observe = self._observer(fn, qualname)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _observer(self, fn, qualname: str):
        if qualname not in DISTINCT:
            return None
        seen = self.arguments[qualname]
        signature = inspect.signature(fn)
        arity = len(signature.parameters)
        counts_probes = qualname == "entangle.product_state_grid"

        def observe(args, kwargs, result):
            if kwargs or len(args) != arity:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                args = tuple(bound.arguments.values())
            seen.add(args)
            if counts_probes:
                self.probe_states += len(result)

        return observe

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "ybgates" or n.startswith("ybgates.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if _is_traced(obj):
                    if obj not in self._wrappers:
                        self._wrappers[obj] = self._wrap(obj)
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, self._wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ---------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        name = np.frombuffer(self.name_col, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent_col, dtype=np.int64).copy()
        start = np.frombuffer(self.start_col, dtype=np.int64).copy()
        end = np.frombuffer(self.end_col, dtype=np.int64).copy()
        return {"name": name, "parent": parent, "start_ns": start, "end_ns": end}

    def totals(self) -> dict[str, tuple[int, float]]:
        """Map each span name to (calls, self time in ms)."""
        cols = self.columns()
        duration = (cols["end_ns"] - cols["start_ns"]).astype(np.float64)
        parent = cols["parent"]
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        self_ns = duration - covered
        size = len(self.names)
        calls = np.bincount(cols["name"], minlength=size)
        self_ms = np.bincount(cols["name"], weights=self_ns, minlength=size) / 1e6
        return {n: (int(calls[i]), float(self_ms[i])) for i, n in enumerate(self.names)}

    def save(self, path: Path) -> None:
        """Write every span, with the name table, as one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.columns())
