"""In-memory span tracer that wraps arcforge's layer entry points by name.

Nothing under ``src/`` is edited: ``Tracer.install`` replaces each listed
function or method with a wrapper that records a span (name, start, end,
parent span, run id, optional work count) and ``Tracer.uninstall`` puts the
originals back, so untraced timings run the unmodified code.  A name that no
longer exists (for example a private method a refactor removed) is recorded
as absent instead of raising.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from math import comb

import numpy as np


def _size(args, kwargs, result):
    return int(np.size(result))


def _arg_size(args, kwargs, result):
    return int(np.size(args[1]))


def _pairs_of_arc(args, kwargs, result):
    return comb(len(args[0].points), 2)


def _table_bytes(args, kwargs, result):
    return int(sum(a.nbytes for a in result))


# (span name, module, dotted attribute, work count taken from the call)
WRAPPED = [
    ("gf.Field.__init__", "arcforge.gf", "Field.__init__", None),
    ("gf.mul_arr", "arcforge.gf", "Field.mul_arr", _size),
    ("gf.inv_arr", "arcforge.gf", "Field.inv_arr", _size),
    ("plane.build_plane", "arcforge.plane", "build_plane", None),
    ("plane.incidence_tables", "arcforge.plane", "PlaneIndex.incidence_tables",
     _table_bytes),
    ("plane.join_ids", "arcforge.plane", "PlaneIndex.join_ids", _size),
    ("plane.points_on_lines_arr", "arcforge.plane",
     "PlaneIndex.points_on_lines_arr", _arg_size),
    ("arc.verify_complete", "arcforge.arc", "verify_complete", _pairs_of_arc),
    ("greedy.search", "arcforge.greedy", "search", None),
    ("greedy.select", "arcforge.greedy", "_Trial.select", None),
    ("greedy.gains", "arcforge.greedy", "_Trial.gains", _arg_size),
    ("greedy.add", "arcforge.greedy", "_Trial.add", None),
    ("greedy.run_batch", "arcforge.greedy", "_run_batch", None),
    ("certify.read_certificate", "arcforge.certify", "read_certificate", None),
    ("certify.write_certificate", "arcforge.certify", "write_certificate", None),
    ("bounds.default_table", "arcforge.bounds", "default_table", None),
    ("bounds.lower_bound", "arcforge.bounds", "lower_bound", None),
    ("cli.main", "arcforge.cli", "main", None),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    n: int | None = None


class Tracer:
    """Records nested spans of wrapped calls; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.run = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for name, modname, attr, count in WRAPPED:
            try:
                owner = importlib.import_module(modname)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                orig = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(name, orig, count)
            # functions imported by name into other modules are rebound too
            owners = [owner]
            if isinstance(owner, type(sys)):
                owners += [m for k, m in list(sys.modules.items())
                           if k.startswith("arcforge") and m is not owner
                           and getattr(m, leaf, None) is orig]
            for o in owners:
                self._saved.append((o, leaf, orig))
                setattr(o, leaf, wrapper)

    def uninstall(self) -> None:
        for owner, leaf, orig in reversed(self._saved):
            setattr(owner, leaf, orig)
        self._saved = []

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, time.perf_counter() - tracer._t0, 0.0, parent,
                        tracer.run)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span.end = time.perf_counter() - tracer._t0
            if count is not None:
                span.n = count(args, kwargs, result)
            return result

        return wrapper

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def totals(self, setup: bool) -> dict[str, dict[str, float]]:
        """Per span name, over the set-up spans or over all the others:
        calls, wall time, self time, summed and largest count."""
        selfs = self.self_times()
        agg: dict[str, dict[str, float]] = {}
        for s, self_s in zip(self.spans, selfs):
            if (s.run == "setup") != setup:
                continue
            a = agg.setdefault(s.name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0,
                                        "n": 0, "n_max": 0})
            a["calls"] += 1
            a["wall_s"] += s.end - s.start
            a["self_s"] += self_s
            if s.n is not None:
                a["n"] += s.n
                a["n_max"] = max(a["n_max"], s.n)
        return agg

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps(s.__dict__) + "\n")
