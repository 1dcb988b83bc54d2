"""repro.obs — unified tracing, remarks, and execution profiling.

One instrumentation layer for the whole reproduction:

* :mod:`repro.obs.remarks` — typed applied/missed/analysis optimization
  remarks with a JSONL stream format;
* :mod:`repro.obs.trace` — Chrome trace-event (Perfetto) span export;
* :mod:`repro.obs.profile` — per-block engine counters, occupancy
  timeline, batched split/demote events;
* :mod:`repro.obs.session` — the process-wide session slot, the
  ``REPRO_TRACE`` opt-in, and cross-process payload aggregation;
* :mod:`repro.obs.metrics` — the deterministic service-grade metric
  registry (counters/gauges/histograms, Prometheus text export, the
  ``REPRO_METRICS`` opt-in).

Everything is a no-op (one global ``is None`` test per hook) until a
session is installed.
"""

from . import metrics
from .metrics import MetricsRegistry
from .profile import ExecutionProfile, OCCUPANCY_CAP
from .remarks import (KINDS, Remark, decision_remarks, read_jsonl,
                      render_remark, write_jsonl)
from .session import (ENV_VAR, ObsSession, active, begin_worker, capture,
                      context, emit, enabled, end_worker, install,
                      maybe_install_from_env, profile, remark,
                      request_capture, span, tracer, uninstall)
from .trace import Tracer

__all__ = [
    "ENV_VAR", "KINDS", "MetricsRegistry", "OCCUPANCY_CAP",
    "ExecutionProfile", "ObsSession", "metrics",
    "Remark", "Tracer", "active", "begin_worker", "capture", "context",
    "decision_remarks", "emit", "enabled", "end_worker", "install",
    "maybe_install_from_env", "profile", "read_jsonl", "remark",
    "render_remark", "request_capture", "span", "tracer", "uninstall",
    "write_jsonl",
]
