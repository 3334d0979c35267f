"""In-memory span tracer for the benchmark's traced runs.

A span is ``(name, start, end, parent, request)``: times are
``time.perf_counter`` seconds, ``parent`` is the index of the enclosing
span (or -1) and ``request`` an optional request id shared by the spans
of one request.  Spans are kept in a list and written out once, when the
run ends.  A disabled tracer records nothing and its wrappers return the
wrapped callable unchanged, so untraced runs pay nothing.

A layer's *self time* is its span's duration minus the part of that
interval covered by its child spans (:meth:`Tracer.self_seconds`).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[str, float, float, int, int]


class Tracer:
    """Span recorder; ``enabled=False`` makes every method a no-op."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request: int = -1) -> Iterator[None]:
        """Record the enclosed block as one span under the current one."""
        if not self.enabled:
            yield
            return
        index = self._open(name, request)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` wrapped so every call records one span (``fn`` itself
        when tracing is off)."""
        if not self.enabled:
            return fn
        opened, closed = self._open, self._close

        def traced(*args, **kwargs):
            index = opened(name, -1)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(index)

        return traced

    def add(self, name: str, start: float, end: float, request: int = -1) -> None:
        """Record a span whose times were measured elsewhere."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, start, end, parent, request))

    def _open(self, name: str, request: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, request))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        name, start, _, parent, request = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, request)

    # ------------------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        """Durations (seconds) of every span called ``name``."""
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name: duration minus the union of
        the intervals its direct children cover."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        totals: Dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            covered = _union_length(children.get(index, []), start, end)
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def write(self, path: Path, origin: Optional[float] = None) -> None:
        """Write one JSON array per span: name, start and end (seconds
        from ``origin``, default the first span), parent index, request."""
        base = origin if origin is not None else (self.spans[0][1] if self.spans else 0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(
                    json.dumps([name, round(start - base, 9), round(end - base, 9),
                                parent, request]) + "\n"
                )


def _union_length(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
