"""Per-layer spans for the traced run, recorded from outside the program.

``Tracer.install`` wraps the public functions of every taxtrace module at
run time.  The modules bind each other's functions by name (``query``
does ``from .taxonomy import descendants, relation``), so a wrapper
replaces the function under every name, in every module, that refers to
it; a caller then finds the wrapper where it looks the name up.

Each call records a span (name, start, end, parent) in flat arrays kept
in memory; ``write`` dumps them when the run ends.  A name's self time is
its spans' time minus the time covered by their direct child spans.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import os
import time
from array import array

MODULES = ("taxonomy", "store", "linkage", "suggest", "query", "audit", "cli")

# Helpers that run once per element inside another layer's loop.  A span
# each would cost more than their work and swamp the trace; their time
# counts as self time of the caller instead.
LEAVES = frozenset(
    {"taxonomy.normalize_code", "audit.object_code", "audit.fingerprint",
     "suggest.tokenize", "linkage.utc_now"}
)

# File sizes summed over the run's loads and saves: counter, path argument.
FILE_SIZES = {"store.load_repository": ("store.bytes_read_mb", 0),
              "store.save_repository": ("store.bytes_written_mb", 1)}

# Of the CLI only the entry point is a layer: argument parsing, command
# handlers and rendering are its self time.
CLI_FUNCTIONS = frozenset({"cli.main"})


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {"store.bytes_read_mb": 0.0,
                                           "store.bytes_written_mb": 0.0,
                                           "gc.pause_ms": 0.0, "gc.collections": 0}
        self._gc_start = 0.0
        self._undo: list[tuple[object, str, object]] = []

    # --- installation ---

    def install(self) -> None:
        modules = {m: importlib.import_module(f"taxtrace.{m}") for m in MODULES}
        for short, module in modules.items():
            for name, fn in list(vars(module).items()):
                qualname = f"{short}.{name}"
                if (
                    name.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or qualname in LEAVES
                    or (short == "cli" and qualname not in CLI_FUNCTIONS)
                ):
                    continue
                wrapper = self._wrap(qualname, fn)
                for other in modules.values():
                    for bound, value in list(vars(other).items()):
                        if value is fn:
                            self._undo.append((other, bound, fn))
                            setattr(other, bound, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, name, fn in reversed(self._undo):
            setattr(module, name, fn)
        self._undo.clear()

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        stack, name_of, parent, start, end = (
            self._stack, self.name_of, self.parent, self.start, self.end,
        )
        perf_counter = time.perf_counter
        file_size = FILE_SIZES.get(qualname)
        counters = self.counters

        def wrapper(*args, **kwargs):
            index = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
                if file_size is not None:
                    counter, arg = file_size
                    counters[counter] += os.path.getsize(args[arg]) / 1e6

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.counters["gc.pause_ms"] += (time.perf_counter() - self._gc_start) * 1e3
            self.counters["gc.collections"] += 1

    # --- results ---

    def totals(self) -> dict[str, float]:
        """``<name>.calls`` and ``<name>.self_ms`` for every wrapped name, plus counters."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(len(self.start)):
            duration = self.end[i] - self.start[i]
            calls[self.name_of[i]] += 1
            self_s[self.name_of[i]] += duration
            if self.parent[i] >= 0:
                self_s[self.name_of[self.parent[i]]] -= duration
        out: dict[str, float] = dict(self.counters)
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_ms"] = self_s[k] * 1e3
        return out

    def write(self, path: str) -> None:
        """One JSON header line, then one ``[name, start_s, end_s, parent]`` line per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"names": self.names, "clock": "time.perf_counter, seconds",
                                "spans": len(self.start)}) + "\n")
            for i in range(len(self.start)):
                f.write(f"[{self.name_of[i]},{self.start[i]:.7f},{self.end[i]:.7f},{self.parent[i]}]\n")
