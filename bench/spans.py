"""In-memory spans for the traced run.

A span records one call the benchmark makes into a layer: its name, start
and end (perf_counter seconds), the span open around it, and counts the
call reports.  Spans stay in memory until `Tracer.write` at the end of the
run.  The untraced run uses `NullTracer`, whose spans record nothing.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path


class Span:
    __slots__ = ("tracer", "id", "name", "start", "end", "parent", "attrs")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        t0 = time.perf_counter()
        tr = self.tracer
        self.id = len(tr.spans)
        self.parent = tr.stack[-1].id if tr.stack else None
        tr.spans.append(self)
        tr.stack.append(self)
        self.start = time.perf_counter()
        tr.overhead += self.start - t0
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.tracer.stack.pop()
        self.tracer.overhead += time.perf_counter() - self.end


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.overhead = 0.0  # seconds spent recording spans

    def span(self, name: str, **attrs) -> Span:
        t0 = time.perf_counter()
        sp = Span(self, name, attrs)
        self.overhead += time.perf_counter() - t0
        return sp

    def named(self, name: str, within: Span | None = None) -> list[Span]:
        """Closed spans called `name`, optionally only those under `within`."""
        out = [s for s in self.spans if s.name == name]
        if within is None:
            return out
        return [s for s in out if within.start <= s.start and s.end <= within.end]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, **s.attrs}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n")


class _NullSpan:
    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


class NullTracer:
    enabled = False
    _span = _NullSpan()

    def span(self, name: str, **attrs) -> _NullSpan:
        return self._span


class Layers:
    """Per-layer figures from the spans of the traced rounds: each is the
    median over the rounds, or over the spans for `each`.  Times are in
    reference seconds of the run's host-speed clock (see hostspeed.py)."""

    def __init__(self, tracer: Tracer, rounds: list[Span], clock):
        self.tracer = tracer
        self.rounds = rounds
        self.clock = clock

    def _spans(self, name: str, within: Span, case) -> list[Span]:
        return [s for s in self.tracer.named(name, within)
                if case is None or s.attrs.get("case") == case]

    def _seconds(self, s: Span) -> float:
        return self.clock.seconds(s.start, s.end)

    def busy(self, name: str, case=None) -> float:
        """Seconds a round spends in `name` calls."""
        return statistics.median(
            sum(self._seconds(s) for s in self._spans(name, r, case)) for r in self.rounds)

    def total(self, name: str, attr: str, case=None) -> float:
        """The count `attr` of a round's `name` calls, summed."""
        return statistics.median(
            sum(s.attrs[attr] for s in self._spans(name, r, case)) for r in self.rounds)

    def calls(self, name: str) -> float:
        return statistics.median(len(self._spans(name, r, None)) for r in self.rounds)

    def each(self, name: str, attr: str | None = None) -> float:
        """Median over all `name` spans of their seconds, or of `attr`."""
        return statistics.median(
            s.attrs[attr] if attr else self._seconds(s) for s in self.tracer.named(name))


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
