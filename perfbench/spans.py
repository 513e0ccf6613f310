"""Span tracing of qcwalk from outside the package, and per-layer statistics.

The tracer wraps every function named in each module's ``__all__``, the
``__post_init__`` of every dataclass listed there, and ``numpy.linalg.eigh``
and ``eigvalsh``. ``from .walks import coherence`` copies the name into the
importing module, and ``distance._ASYMPTOTES`` holds functions in a dict, so
every ``qcwalk.*`` namespace (and every module-level dict in it) that holds
an original gets the wrapper. Nothing under ``src/`` changes.

A span is (op, id, parent id, name, start, end). Spans are kept in memory
while the ops run and written to one ``.npz`` file at the end; self time is
derived from that file afterwards by :func:`op_layer_stats`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import time
from contextlib import contextmanager

import numpy as np

#: the package's modules, one layer each; numpy's eigensolvers are an eighth
MODULES = ("graph", "config", "spectral", "walks", "distance", "checks", "cli")
LAYERS = MODULES + ("linalg",)


class Tracer:
    """Builds the wrappers once; :meth:`op` puts them in place for one op."""

    def __init__(self):
        self.names: list[str] = []  # span name per name index
        self.name_layer: list[int] = []  # LAYERS index per name index
        self._bindings: list[tuple] = []  # (owner, key, original, wrapper, is_dict)
        self._stack = [-1]
        self._ids = itertools.count()
        self._rows: list[tuple] = []  # (id, parent, name index, start, end) of the current op
        self._chunks: list[np.ndarray] = []
        self._build()

    def _wrap(self, fn, name: str, layer: str):
        index = len(self.names)
        self.names.append(name)
        self.name_layer.append(LAYERS.index(layer))
        stack, rows, ids, clock = self._stack, self._rows, self._ids, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows.append((sid, parent, index, start, end))

        return span

    def _build(self) -> None:
        modules = {m: importlib.import_module(f"qcwalk.{m}") for m in MODULES}
        namespaces = [
            mod for name, mod in sys.modules.items() if name == "qcwalk" or name.startswith("qcwalk.")
        ]
        for layer, mod in modules.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if isinstance(obj, type):
                    if "__post_init__" in vars(obj):
                        original = vars(obj)["__post_init__"]
                        wrapper = self._wrap(original, f"{layer}.{attr}.__post_init__", layer)
                        self._bindings.append((obj, "__post_init__", original, wrapper, False))
                elif inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapper = self._wrap(obj, f"{layer}.{attr}", layer)
                    for ns in namespaces:
                        for key, value in vars(ns).items():
                            if value is obj:
                                self._bindings.append((ns, key, obj, wrapper, False))
                            elif isinstance(value, dict):
                                self._bindings += [
                                    (value, k, obj, wrapper, True) for k, v in value.items() if v is obj
                                ]
        for attr in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, attr)
            wrapper = self._wrap(original, f"linalg.{attr}", "linalg")
            self._bindings.append((np.linalg, attr, original, wrapper, False))

    def _bind(self, use_wrapper: bool) -> None:
        for owner, key, original, wrapper, is_dict in self._bindings:
            value = wrapper if use_wrapper else original
            if is_dict:
                owner[key] = value
            else:
                setattr(owner, key, value)

    @contextmanager
    def op(self, op_index: int):
        """Trace every wrapped call made inside the block as op ``op_index``."""
        self._bind(True)
        try:
            yield
        finally:
            self._bind(False)
            rows = np.array(self._rows, dtype=float).reshape(-1, 5)
            self._rows.clear()
            self._chunks.append(np.column_stack([np.full(len(rows), op_index), rows]))

    def save(self, path) -> int:
        """Write all spans to ``path`` (.npz); return the span count."""
        spans = np.concatenate(self._chunks) if self._chunks else np.empty((0, 6))
        np.savez(
            path,
            op=spans[:, 0].astype(np.int32),
            id=spans[:, 1].astype(np.int64),
            parent=spans[:, 2].astype(np.int64),
            name=spans[:, 3].astype(np.int32),
            start=spans[:, 4],
            end=spans[:, 5],
            names=np.array(self.names),
            name_layer=np.array(self.name_layer, dtype=np.int32),
        )
        return len(spans)


def op_layer_stats(path) -> dict[int, dict]:
    """Per op: span count and self time per layer, and call count per span name.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of one op add up to its root span.
    """
    data = np.load(path)
    order = np.argsort(data["id"], kind="stable")
    sid, parent, op = data["id"][order], data["parent"][order], data["op"][order]
    name = data["name"][order]
    dur = data["end"][order] - data["start"][order]
    layer = data["name_layer"][name]
    names = list(data["names"])

    child = np.zeros(len(sid))
    has_parent = parent >= 0
    np.add.at(child, np.searchsorted(sid, parent[has_parent]), dur[has_parent])
    self_time = dur - child

    stats = {}
    for o in np.unique(op):
        mask = op == o
        self_s = np.bincount(layer[mask], weights=self_time[mask], minlength=len(LAYERS))
        calls = np.bincount(layer[mask], minlength=len(LAYERS))
        by_name = np.bincount(name[mask], minlength=len(names))
        stats[int(o)] = {
            "self_s": dict(zip(LAYERS, self_s.tolist())),
            "calls": dict(zip(LAYERS, calls.tolist())),
            "name_calls": {n: int(c) for n, c in zip(names, by_name) if c},
        }
    return stats
