"""In-memory span recorder and per-layer self-time accounting.

A span is recorded around one call from the benchmark into one layer of
the program (``sparse.analyze``, ``core.pselinv.run``, ...).  Spans nest:
the span open when another starts is its parent.  Every span carries the
iteration id it belongs to.  Nothing is written until :meth:`to_json`,
so recording costs two clock reads and one list append per span.

A layer's *self time* is its spans' durations minus the parts of those
intervals covered by their child spans.  The time of the root span not
covered by any child is reported as unattributed instead of being dropped.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span in the recorder, or None
    iteration: int


class SpanRecorder:
    """Collects spans of one process; ``enabled=False`` records nothing."""

    def __init__(self, iteration: int = 0, enabled: bool = True) -> None:
        self.iteration = iteration
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        rec = Span(name, perf_counter(), 0.0, parent, self.iteration)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec.end = perf_counter()
            self._stack.pop()

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per span name, summed over all its spans.

    ``spans`` are :meth:`SpanRecorder.to_json` entries; a child interval
    is clipped to its parent before it is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            p = spans[s["parent"]]
            lo, hi = max(s["start"], p["start"]), min(s["end"], p["end"])
            if hi > lo:
                children.setdefault(s["parent"], []).append((lo, hi))
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        own = (s["end"] - s["start"]) - _covered(children.get(i, []))
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out
