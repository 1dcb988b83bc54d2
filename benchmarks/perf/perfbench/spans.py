"""Driver-side span recorder for the traced run.

Spans are recorded by the benchmark around each call into a layer of the
program (spans inside the program are a later change).  They are held in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    #: Operation id: the spans of one cell / launch / request share it.
    op: Optional[str]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def span_of(tracer: "Optional[Tracer]", name: str, layer: str,
            op: Optional[str] = None):
    """``tracer.span(...)``, or a no-op context when tracing is off."""
    return nullcontext() if tracer is None else tracer.span(name, layer, op)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._open = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        return stack

    def add(self, name: str, layer: str, start: float, end: float,
            parent: Optional[int], op: Optional[str] = None) -> int:
        """Record a finished span; returns its id (index)."""
        if op is None and parent is not None:
            op = self.spans[parent].op
        with self._lock:
            self.spans.append(Span(name, layer, start, end, parent, op))
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, layer: str,
             op: Optional[str] = None) -> Iterator[int]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        index = self.add(name, layer, time.perf_counter(), 0.0, parent, op)
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter()

    def seconds(self, index: int) -> float:
        return self.spans[index].seconds

    # -- summaries -----------------------------------------------------------
    def self_seconds(self) -> List[float]:
        """Each span's duration minus what its direct children cover."""
        own = [s.seconds for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return [max(0.0, s) for s in own]

    def layer_self_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for span, own in zip(self.spans, self.self_seconds()):
            totals[span.layer] = totals.get(span.layer, 0.0) + own
        return dict(sorted(totals.items()))

    def root_seconds(self) -> float:
        return sum(s.seconds for s in self.spans if s.parent is None)

    def write(self, path: Path, summary: Dict[str, object]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "summary": summary,
            "spans": [
                {"id": i, "name": s.name, "layer": s.layer, "op": s.op,
                 "parent": s.parent, "start": s.start, "end": s.end}
                for i, s in enumerate(self.spans)],
        }) + "\n")
