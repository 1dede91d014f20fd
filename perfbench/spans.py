"""In-memory spans recorded by the benchmark around its own calls into spintomo.

A span is one call into a module's public function: its name, start and end
(``time.perf_counter`` seconds), the index of the enclosing span, the
operation it belongs to, and a work count (grid points for a sweep, else 1).
Nothing is written until the run ends.  The disabled recorder hands out one
shared no-op context, so untraced runs pay only an attribute lookup per call.
"""
from __future__ import annotations

import contextlib
import statistics
import time


class Spans:
    """Span recorder for a traced run."""

    enabled = True

    def __init__(self):
        self.records = []  # [name, start, end, parent, op, work]
        self._open = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name: str, work: int = 1):
        idx = len(self.records)
        parent = self._open[-1] if self._open else None
        self.records.append([name, time.perf_counter(), None, parent, self.op, work])
        self._open.append(idx)
        try:
            yield
        finally:
            self.records[idx][2] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, seconds: float, work: int = 1) -> None:
        """Record a span measured elsewhere (for example in a child process)."""
        self.records.append([name, 0.0, seconds, None, self.op, work])

    def summary(self) -> dict:
        """Per span name: calls, busy seconds, and the median seconds per unit of work."""
        by_name: dict = {}
        for name, start, end, _, _, work in self.records:
            by_name.setdefault(name, []).append((end - start, work))
        return {
            name: {
                "calls": len(items),
                "busy_s": sum(d for d, _ in items),
                "median_s": statistics.median(d / w for d, w in items),
            }
            for name, items in by_name.items()
        }

    def to_json(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o, "work": w}
                for n, s, e, p, o, w in self.records]


class NoSpans:
    """Recorder for untraced runs: records nothing."""

    enabled = False
    op = None
    _NULL = contextlib.nullcontext()

    def span(self, name: str, work: int = 1):
        return self._NULL

    def add(self, name: str, seconds: float, work: int = 1) -> None:
        pass
