"""Spans and profiles recorded from outside the analyzer.

The benchmark never edits the analyzer to trace it.  Instead a
:class:`Tracer` wraps the public entry points of each layer (frontend,
memory, packing, iterator) in place for the life of one traced child
process, recording a span per call: name, start, end, parent span and
the trace id shared by every span of one program.  Spans are kept in
memory and handed back to the caller at the end.

Self times and call counts per module come from the stdlib
deterministic profiler, which is switched on only inside the
``iterator.run``, ``certify`` and ``frontend.parse`` spans, and is
aggregated by ``repro.<package>.<module>``.
"""

from __future__ import annotations

import contextlib
import cProfile
import pstats
import time
from typing import Dict, List, Optional

#: (module path, attribute path, span name, profiled) of every wrapped
#: layer call.  Module-level functions are patched where the caller
#: looks them up (``repro.analysis`` imports the packing functions by
#: name; the linker imports ``preprocess``/``parse`` by name).
PATCHES = (
    ("repro.frontend.linker", "preprocess", "frontend.preprocess", False),
    ("repro.frontend.linker", "parse", "frontend.parse", True),
    ("repro.frontend.lowering", "Lowerer.add_unit", "frontend.lower", False),
    ("repro.frontend.lowering", "Lowerer.finish", "frontend.lower", False),
    ("repro.memory.cells", "CellTable.for_program", "memory.cells", False),
    ("repro.analysis", "compute_octagon_packs", "packing.octagon", False),
    ("repro.analysis", "compute_bool_packs", "packing.bool", False),
    ("repro.analysis", "find_filter_sites", "packing.filter_sites", False),
    ("repro.iterator.iterator", "Iterator.run", "iterator.run", True),
)


class Tracer:
    """In-memory span recorder plus one profiler for a traced process."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.origin = time.perf_counter()
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self._profiler = cProfile.Profile()
        self._profile_depth = 0
        self._undo: List = []

    @contextlib.contextmanager
    def span(self, name: str, profile: bool = False):
        sid = len(self.spans)
        rec = {"id": sid, "parent": self._stack[-1] if self._stack else None,
               "name": name, "trace": self.trace_id,
               "start": time.perf_counter() - self.origin, "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        if profile:
            if self._profile_depth == 0:
                self._profiler.enable()
            self._profile_depth += 1
        try:
            yield rec
        finally:
            if profile:
                self._profile_depth -= 1
                if self._profile_depth == 0:
                    self._profiler.disable()
            self._stack.pop()
            rec["end"] = time.perf_counter() - self.origin

    def _wrap(self, fn, name: str, profile: bool):
        def traced(*args, **kwargs):
            with self.span(name, profile):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer entry point listed in :data:`PATCHES`."""
        import importlib

        for modname, attr, name, profile in PATCHES:
            owner = importlib.import_module(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf]
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name, profile))
            else:
                new = self._wrap(raw, name, profile)
            setattr(owner, leaf, new)
            self._undo.append((owner, leaf, raw))

    def uninstall(self) -> None:
        for owner, leaf, raw in reversed(self._undo):
            setattr(owner, leaf, raw)
        self._undo.clear()

    def profile_by_module(self) -> Dict[str, Dict[str, float]]:
        """Profiler totals per ``<package>.<module>`` of ``repro``:
        ``{"memory.fmap": {"self_s": ..., "calls": ...}, ...}``."""
        out: Dict[str, Dict[str, float]] = {}
        try:
            stats = pstats.Stats(self._profiler).stats
        except TypeError:  # nothing was profiled
            return out
        for (filename, _line, _func), (_cc, nc, tt, _ct, _callers) \
                in stats.items():
            module = module_of(filename)
            if module is None:
                continue
            agg = out.setdefault(module, {"self_s": 0.0, "calls": 0})
            agg["self_s"] += tt
            agg["calls"] += nc
        return out


def module_of(filename: str) -> Optional[str]:
    """``.../src/repro/memory/fmap.py`` -> ``memory.fmap``."""
    norm = filename.replace("\\", "/")
    idx = norm.rfind("/repro/")
    if idx < 0 or not norm.endswith(".py"):
        return None
    return norm[idx + len("/repro/"):-3].replace("/", ".")


def span_totals(spans: List[Dict], under: str) -> Dict[str, float]:
    """Seconds per span name, over the spans with an ancestor named
    ``under``."""
    by_id = {s["id"]: s for s in spans}

    def has_ancestor(s) -> bool:
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == under:
                return True
            p = by_id[p]["parent"]
        return False

    out: Dict[str, float] = {}
    for s in spans:
        if has_ancestor(s):
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
    return out
