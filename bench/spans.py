"""Spans recorded from outside the program, by wrapping wayaudit's functions.

``install`` wraps every public function defined in a wayaudit module, plus
``MeasurementModel.__post_init__`` and ``numpy.kron``, and rebinds the wrapper
in every namespace that holds the function: ``from .linalg import
haar_unitary`` copies the binding into ``commutant`` and ``noise``, so patching
only the defining module would miss those calls. Spans stay in memory as flat
integer records and are aggregated, or saved, after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("linalg", "model", "commutant", "noise", "theorem", "cli")


class Tracer:
    """Collects (span id, parent id, name id, start ns, end ns) records."""

    def __init__(self):
        self.names: list[str] = []
        self.records = array("q")
        self._stack = [0]
        self._next_id = 1

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack, records, clock = self._stack, self.records, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records.extend((span_id, parent, name_id, start, end))

        return traced

    def table(self) -> np.ndarray:
        """Records as an (n, 5) int64 array, in the order spans ended."""
        return np.frombuffer(self.records, dtype=np.int64).reshape(-1, 5)


def install(tracer: Tracer):
    """Wrap wayaudit's public functions and ``numpy.kron``; returns an undo function."""
    package = importlib.import_module("wayaudit")
    modules = {layer: importlib.import_module(f"wayaudit.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(value) and value.__module__ == module.__name__:
                wrappers[value] = tracer.wrap(f"{layer}.{attr}", value)

    patched = []

    def patch(owner, attr, wrapper):
        patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    for namespace in (package, *modules.values()):
        for attr, value in list(vars(namespace).items()):
            if inspect.isfunction(value) and value in wrappers:
                patch(namespace, attr, wrappers[value])
    model_class = modules["model"].MeasurementModel
    patch(model_class, "__post_init__", tracer.wrap("model.MeasurementModel", model_class.__post_init__))
    patch(np, "kron", tracer.wrap("numpy.kron", np.kron))

    def undo():
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return undo


def self_times(table: np.ndarray, names: list[str], groups: list[int]) -> dict:
    """Per span name: calls and self ns; per group: inclusive ns.

    Self time is a span's duration minus that of its direct children.
    ``groups`` gives each name a group index (-1 for none); a group's
    inclusive time counts only its outermost spans, so a check calling another
    check of the same group is not counted twice. ``table`` holds records as
    returned by ``Tracer.table``, or a subset of them made of whole calls.
    """
    span_id, parent, name_id, start, end = table.T
    duration = (end - start).astype(np.float64)
    size = int(span_id.max()) + 1
    child_time = np.bincount(parent, weights=duration, minlength=size)
    own = duration - child_time[span_id]
    calls = np.bincount(name_id, minlength=len(names))
    own_total = np.bincount(name_id, weights=own, minlength=len(names))
    result = {
        "calls": {name: int(calls[i]) for i, name in enumerate(names)},
        "self_ns": {name: float(own_total[i]) for i, name in enumerate(names)},
        "root_ns": float(duration[parent == 0].sum()),
        "group_ns": [],
    }
    if groups:
        group = np.asarray(groups)[name_id]
        group_by_id = np.full(size, -1)
        group_by_id[span_id] = group
        parent_by_id = np.zeros(size, dtype=np.int64)
        parent_by_id[span_id] = parent
        nested = np.zeros(len(table), dtype=bool)
        ancestor = parent.copy()
        while ancestor.any():
            nested |= (ancestor != 0) & (group_by_id[ancestor] == group)
            ancestor = parent_by_id[ancestor]
        outer = (group >= 0) & ~nested
        totals = np.bincount(group[outer], weights=duration[outer], minlength=max(groups) + 1)
        result["group_ns"] = totals.tolist()
    return result


def root_of(table: np.ndarray) -> np.ndarray:
    """For each record, the id of the root span (one CLI call) it belongs to.

    Ids are handed out when a span starts, so a root's descendants carry the
    ids between its own and the next root's.
    """
    root_ids = np.sort(table[table[:, 1] == 0, 0])
    return root_ids[np.searchsorted(root_ids, table[:, 0], side="right") - 1]
