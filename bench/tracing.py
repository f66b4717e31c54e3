"""In-memory spans recorded from the benchmark's side of each layer boundary.

A span is (id, parent id, name, start, end) in perf_counter nanoseconds.
Spans stay in a list until the run ends and are written out once, so the
tracer does no I/O while the workload runs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


class _Span:
    """Context manager for one span; a plain class costs less than a generator."""

    __slots__ = ("tracer", "name", "span_id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> int:
        tracer = self.tracer
        self.span_id = tracer._next_id
        tracer._next_id += 1
        self.parent = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(self.span_id)
        self.start = time.perf_counter_ns()
        return self.span_id

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter_ns()
        self.tracer._stack.pop()
        self.tracer.spans.append((self.span_id, self.parent, self.name, self.start, end))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, int, int]] = []
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def durations(self) -> dict[str, list[float]]:
        """Span durations in seconds, grouped by span name."""
        by_name: dict[str, list[float]] = {}
        for _, _, name, start, end in self.spans:
            by_name.setdefault(name, []).append((end - start) / 1e9)
        return by_name

    def children_s(self, parent_id: int, names: set[str]) -> float:
        """Summed duration of the named direct children of one span."""
        return sum(
            (end - start) / 1e9
            for _, parent, name, start, end in self.spans
            if parent == parent_id and name in names
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {"fields": ["id", "parent", "name", "start_ns", "end_ns"], "spans": sorted(self.spans)}
        path.write_text(json.dumps(record) + "\n")
