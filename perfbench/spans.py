"""The benchmark's own in-memory tracer.

A span records its name, start, end, parent span and the flow it belongs
to.  Spans stay in memory while the traced run executes; :meth:`Trace.write`
dumps them at the end, and :meth:`Trace.self_times` gives each layer's self
time: a span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Trace:
    """Nested spans of one traced run."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []
        #: id of the flow (or sweep) the next spans belong to
        self.flow: Optional[int] = None

    @contextmanager
    def span(self, name: str, start: Optional[float] = None) -> Iterator[Dict]:
        """Record a span around the ``with`` body.

        ``start`` backdates the span, so a stage span can begin where the
        previous stage ended and cover the flow's hand-over between them.
        """
        record = {
            "name": name,
            "start": time.perf_counter() if start is None else start,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "flow": self.flow,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                covered[record["parent"]] += record["end"] - record["start"]
        totals: Dict[str, float] = defaultdict(float)
        for record, child in zip(self.spans, covered):
            totals[record["name"]] += record["end"] - record["start"] - child
        return dict(totals)

    def wall(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def write(self, path) -> None:
        """Write every span as JSON (times relative to the first span)."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        rows = [
            dict(s, start=s["start"] - origin, end=s["end"] - origin) for s in self.spans
        ]
        with open(path, "w") as handle:
            json.dump(rows, handle)
