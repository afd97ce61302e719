"""In-memory span recorder for the benchmark's traced run.

A span is one call into a layer: its name, start and end (perf_counter
seconds), the span that was open when it started, the run it belongs to,
and counts taken at the boundary.  Nothing is written while spans are
recorded; ``dump`` writes them out afterwards.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    run: int
    name: str
    start: float
    end: float | None = None
    counts: dict | None = None
    error: str | None = None


class SpanRecorder:
    """Records nested spans on one thread; ``run`` tags the current run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._open: list[int] = []

    def wrap(self, fn, name: str, count=None):
        """Return ``fn`` recording a span per call.  ``count(args, result)``
        returns the span's counts; an exception is recorded by class name
        and re-raised."""
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), open_[-1] if open_ else None, self.run, name,
                        time.perf_counter())
            spans.append(span)
            open_.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                open_.pop()
            if count is not None:
                span.counts = count(args, result)
            return result

        return traced

    def dump(self, path) -> None:
        """Write a JSON header line naming the fields, then one JSON list per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(Span.__slots__) + "\n")
            for s in self.spans:
                fh.write(json.dumps([getattr(s, slot) for slot in Span.__slots__]) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def per_run_totals(spans: list[Span]) -> dict[int, dict[str, dict[str, float]]]:
    """For each run and span name: ``calls``, ``self_s``, ``errors`` (calls
    that raised) and every count, summed over that run's spans."""
    self_s = self_times(spans)
    runs: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    for s in spans:
        totals = runs[s.run][s.name]
        totals["calls"] += 1
        totals["self_s"] += self_s[s.id]
        if s.error:
            totals["errors"] += 1
        for key, value in (s.counts or {}).items():
            totals[key] += value
    return runs
