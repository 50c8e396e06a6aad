"""Spans around the benchmark's calls into pauliflow, and a profile split.

A span is one call the benchmark makes into the library: its name, start,
end, parent span and operation id.  Spans are kept in memory and written
out when the run ends.  ``Untraced`` has the same interface and records
nothing, so the timed runs pay one extra Python call per library call.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: object

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Untraced:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin(self, name, op):
        return None

    def end(self, token):
        pass


class Tracer(Untraced):
    """Records one span per call; ``begin``/``end`` open a parent span."""

    enabled = True

    def __init__(self):
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._op: object = None

    def begin(self, name, op):
        self._op = op
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, op))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, token):
        self.spans[token].end = time.perf_counter()
        self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        token = self.begin(name, self._op)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(token)

    def durations(self, name: str) -> List[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.seconds
            if s.parent is not None:
                out[self.spans[s.parent].name] -= s.seconds
        return dict(out)

    def as_records(self) -> List[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op} for s in self.spans]


# -- profile split -------------------------------------------------------------

PACKAGE_DIR = "pauliflow"


def module_group(filename: str) -> Optional[str]:
    """The group a source file's self time is charged to; None for built-ins."""
    if filename == "~" or filename.startswith("<"):
        return None
    parts = filename.replace("\\", "/").split("/")
    if len(parts) >= 2 and parts[-2] == PACKAGE_DIR:
        return os.path.splitext(parts[-1])[0]
    if "numpy" in parts:
        return "numpy"
    if parts[-1] == "fractions.py":
        return "fractions"
    return "other"


def self_shares(profile: cProfile.Profile) -> Dict[str, float]:
    """Share of profiled self time per source module.

    Built-in functions have no source file; their self time is charged to
    the modules that called them, in proportion to the calls' own time.
    """
    stats = pstats.Stats(profile).stats
    seconds: Dict[str, float] = defaultdict(float)
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in stats.items():
        group = module_group(filename)
        if group is not None:
            seconds[group] += tt
            continue
        by_caller = {key: edge[2] for key, edge in callers.items()}
        total = sum(by_caller.values())
        if total <= 0:
            seconds["other"] += tt
            continue
        for (cfile, _cl, _cn), share in by_caller.items():
            seconds[module_group(cfile) or "other"] += tt * share / total
    total = sum(seconds.values()) or 1.0
    return {k: v / total for k, v in seconds.items()}
