"""repro.obs — unified tracing, remarks, and execution profiling.

One instrumentation layer for the whole reproduction:

* :mod:`repro.obs.remarks` — typed applied/missed/analysis optimization
  remarks with a JSONL stream format;
* :mod:`repro.obs.trace` — Chrome trace-event (Perfetto) span export;
* :mod:`repro.obs.profile` — per-block engine counters at warp
  granularity (hits, cycles, active lanes), lattice split/demote events;
* :mod:`repro.obs.session` — the per-thread session slot, the pool-worker
  lifecycle, and cross-process payload aggregation;
* :mod:`repro.obs.metrics` — the deterministic service-grade metric
  registry (counters/gauges/histograms, Prometheus text export).

Everything is a no-op (one ``is None`` test per hook) until a session or
a registry is installed; installing one is the only switch, and a
runner's pool fan-out carries it to its workers in the task.
"""

from . import metrics
from .metrics import MetricsRegistry
from .profile import ExecutionProfile
from .remarks import (KINDS, Remark, decision_remarks, read_jsonl,
                      render_remark, write_jsonl)
from .session import (ObsSession, absorb, active, begin_worker, capture,
                      context, emit, end_worker, install, profile, remark,
                      request_capture, span, tracer, uninstall)
from .trace import Tracer

__all__ = [
    "KINDS", "MetricsRegistry", "ExecutionProfile", "ObsSession", "metrics",
    "Remark", "Tracer", "absorb", "active", "begin_worker", "capture",
    "context", "decision_remarks", "emit", "end_worker", "install", "profile",
    "read_jsonl", "remark", "render_remark", "request_capture", "span",
    "tracer", "uninstall", "write_jsonl",
]
