"""Chrome trace-event export for pipeline spans.

Spans collected by the pass managers and the harness are stored as
trace-event dicts in the format Perfetto / ``chrome://tracing`` load
natively: a top-level ``{"traceEvents": [...]}`` object whose events use
``ph: "X"`` (complete events with ``ts``/``dur`` in microseconds) and
``ph: "M"`` (process/thread metadata).  See
https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

Events from parallel workers are re-homed under the worker's own ``pid``
when merged, so a multi-process sweep renders as one process lane per
worker plus the parent's harness lane.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional


class Tracer:
    """Collects trace events against a per-process monotonic epoch."""

    def __init__(self, pid: int = 0) -> None:
        self.pid = pid
        self.epoch = time.perf_counter()
        self.events: List[Dict[str, object]] = []
        # When serving, the session's request id.  complete() folds it
        # into every event so pass-level spans recorded via the direct
        # tracer path (not obs.span) are still recoverable by request.
        self.request: Optional[str] = None

    # -- clock ---------------------------------------------------------------
    def now(self) -> float:
        """Seconds since this tracer's epoch (pair with :meth:`complete`)."""
        return time.perf_counter() - self.epoch

    # -- event constructors --------------------------------------------------
    def complete(self, name: str, cat: str, start_s: float, dur_s: float,
                 args: Optional[Dict[str, object]] = None,
                 tid: int = 0) -> None:
        """A ``ph:"X"`` complete event; start/dur in epoch-relative seconds."""
        event: Dict[str, object] = {
            "name": name, "cat": cat, "ph": "X",
            "ts": round(start_s * 1e6, 3),
            "dur": round(dur_s * 1e6, 3),
            "pid": self.pid, "tid": tid,
        }
        if self.request is not None:
            args = dict(args) if args else {}
            args.setdefault("request", self.request)
        if args:
            event["args"] = args
        self.events.append(event)

    def metadata(self, name: str, args: Dict[str, object],
                 pid: Optional[int] = None, tid: int = 0) -> None:
        """A ``ph:"M"`` metadata event (process_name / thread_name)."""
        self.events.append({
            "name": name, "ph": "M", "ts": 0,
            "pid": self.pid if pid is None else pid, "tid": tid,
            "args": dict(args),
        })

    # -- merging -------------------------------------------------------------
    def absorb(self, events: List[Dict[str, object]],
               pid: Optional[int] = None) -> None:
        """Adopt events exported by another tracer (e.g. a pool worker).

        Worker timestamps are relative to the *worker's* epoch; they are
        kept as-is but re-homed under ``pid`` so each worker renders as
        its own process lane rather than interleaving with the parent.
        """
        for event in events:
            if pid is not None:
                event = dict(event)
                event["pid"] = pid
            self.events.append(event)

    # -- export --------------------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        """Export payload, with a process_name lane label per distinct pid.

        Labels are synthesised at export time (not collection time) so
        absorbed worker events get lanes too and payload merging never
        duplicates metadata rows.
        """
        labels: List[Dict[str, object]] = []
        for pid in sorted({e["pid"] for e in self.events}):
            name = "repro harness" if pid == self.pid else f"worker {pid}"
            labels.append({"name": "process_name", "ph": "M", "ts": 0,
                           "pid": pid, "tid": 0,
                           "args": {"name": name}})
        return {"traceEvents": labels + list(self.events),
                "displayTimeUnit": "ms"}

    def write(self, path) -> int:
        """Write the Chrome trace JSON; returns the number of events."""
        Path(path).write_text(json.dumps(self.to_json()))
        return len(self.events)
