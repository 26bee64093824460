"""Per-layer spans recorded from outside the library.

The library is not instrumented.  ``Tracer.install`` replaces every public
function of each layer module by a wrapper, in every ``tfamalgam`` module
that holds a reference to it: the module that defines it (calls inside the
module go through its globals) and every module that imported the name
(``experiments.amalgam_norm``, ``locop.stft``, ...).  Wrapping only the
defining module would miss every call made through an imported name.

A span records its function, start, end and parent.  Spans stay in memory
and are reduced to the per-layer table once the traced passes end.
"""

from __future__ import annotations

import inspect
import sys
import time
import tracemalloc
import weakref

LAYERS = ("grid", "families", "transforms", "norms", "locop", "experiments", "cli")

# helpers counted together as the Fourier layer of ``transforms``
FOURIER = frozenset(
    ("transforms.fourier", "transforms.inverse_fourier", "transforms.dft_centered", "transforms.idft_centered")
)

_MB = 1024.0 * 1024.0


def _groups(name: str) -> tuple:
    layer = name.split(".", 1)[0]
    if name in FOURIER:
        return (layer, name, "transforms.fourier")
    return (layer, name)


class Tracer:
    """Wraps the public functions of the library's layers and records spans."""

    def __init__(self, lib):
        self.lib = lib
        self.names: list[str] = []
        self._groups: list[tuple] = []
        self.spans: list = []  # (name index, start, end, parent span or -1)
        self._stack: list = []  # (span index, name index, layer)
        self._restore: list = []
        self.active = False
        self.track_memory = False
        self._mem_stack: list = []  # [current at entry, running peak]
        self.peak_alloc: dict[str, int] = {}
        self.stft_cells = 0
        self.norms_entries = 0
        self.norms_bytes = 0
        self._norms_inputs: dict = {}
        self.norms_distinct_inputs = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        holders = [m for n, m in sys.modules.items() if n == "tfamalgam" or n.startswith("tfamalgam.")]
        for layer in LAYERS:
            module = getattr(self.lib, layer)
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapper)
                            self._restore.append((holder, key, fn))

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._restore):
            setattr(holder, key, fn)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self._groups.append(_groups(name))
        layer = name.split(".", 1)[0]
        is_stft = name == "transforms.stft"
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if layer == "norms" and (parent is None or parent[2] != "norms"):
                tracer._enter_norms(args)
            idx = len(tracer.spans)
            tracer.spans.append(None)
            stack.append((idx, nid, layer))
            if tracer.track_memory:
                tracer._mem_enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = (nid, start, end, -1 if parent is None else parent[0])
                if tracer.track_memory:
                    tracer._mem_exit(nid)
            if is_stft:
                tracer.stft_cells += result.samples.size
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- counters ----------------------------------------------------------

    def _enter_norms(self, args) -> None:
        """A norm evaluation entering the norms layer from outside: bytes read, input identity."""
        arr = next((a.samples for a in args if hasattr(a, "samples")), None)
        if arr is None:
            return
        self.norms_entries += 1
        self.norms_bytes += arr.nbytes
        ref = self._norms_inputs.get(id(arr))
        if ref is None or ref() is not arr:
            self._norms_inputs[id(arr)] = weakref.ref(arr)
            self.norms_distinct_inputs += 1

    def _mem_enter(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._mem_stack:
            outer = self._mem_stack[-1]
            outer[1] = max(outer[1], peak)
        tracemalloc.reset_peak()
        self._mem_stack.append([current, current])

    def _mem_exit(self, nid: int) -> None:
        entry_current, running = self._mem_stack.pop()
        peak = max(running, tracemalloc.get_traced_memory()[1])
        if self._mem_stack:
            outer = self._mem_stack[-1]
            outer[1] = max(outer[1], peak)
        for group in self._groups[nid]:
            self.peak_alloc[group] = max(self.peak_alloc.get(group, 0), peak - entry_current)

    # -- reduction ---------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.stft_cells = self.norms_entries = self.norms_bytes = 0
        self._norms_inputs.clear()
        self.norms_distinct_inputs = 0

    def summary(self) -> dict:
        """Calls, busy time (outermost spans) and self time per function and per layer."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for i, (nid, start, end, parent) in enumerate(spans):
            dur = end - start
            groups = self._groups[nid]
            ancestors = set()
            p = parent
            while p >= 0:
                ancestors.update(self._groups[spans[p][0]])
                p = spans[p][3]
            for g in groups:
                calls[g] = calls.get(g, 0) + 1
                self_s[g] = self_s.get(g, 0.0) + dur - child_time[i]
                if g not in ancestors:
                    busy[g] = busy.get(g, 0.0) + dur
        return {
            "calls": calls,
            "busy_s": busy,
            "self_s": self_s,
            "peak_alloc_mb": {k: v / _MB for k, v in self.peak_alloc.items()},
            "stft_cells": self.stft_cells,
            "norms_entries": self.norms_entries,
            "norms_bytes": self.norms_bytes,
            "norms_distinct_inputs": self.norms_distinct_inputs,
        }
