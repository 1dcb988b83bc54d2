"""Deterministic service-grade metrics plane.

A process-global registry of counters, gauges, and fixed-bucket
histograms, exported in Prometheus text exposition format (``GET
/metrics`` on the serve daemon, ``repro metrics`` on the CLI).  Three
contracts keep it aligned with the rest of the observability layer:

* **Disabled path is one ``is None`` test.**  Like the trace slot
  (:mod:`repro.obs.session`), every hook — :func:`inc`,
  :func:`set_gauge`, :func:`observe` — loads the module slot and returns
  when no registry is installed.  No metric objects are constructed, no
  label tuples built (pinned by tests/test_obs.py).
* **Deterministic registry.**  No wall-clock anywhere in the data model:
  series are keyed ``(name, sorted label items)``, histogram buckets are
  fixed at family creation, and :meth:`MetricsRegistry.render` emits
  families and series in sorted order.  Two registries that absorbed the
  same observations render byte-identically.
* **take/absorb fold.**  Pool workers ship a :func:`end_worker` snapshot
  home with their result tuple; the parent folds snapshots with
  :meth:`MetricsRegistry.absorb` in task-enumeration order — the same
  discipline as :class:`~repro.gpu.region_cache.RegionSession`.  Folds
  are order-independent (counters and histograms sum, gauges fold by
  max), so ``-j1`` and ``-jN`` sweeps of the same cells render the same
  bytes.

The slot is process-global (not thread-local like the trace slot): the
daemon's queue workers must aggregate into one registry, and every
metric mutation takes the registry lock.  Installing a registry
(:func:`install`) *is* the switch; a ``ParallelRunner`` fan-out tells
its workers whether the parent had one (see :func:`begin_worker`), and
nothing here reads the process environment.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

#: Default buckets for service latency histograms, in seconds.  Fixed —
#: never derived from observed data — so folds and renders are stable.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0)

#: Buckets for normalized feature-space distances (similarity index).
#: The distance metric is roughly [0, 1] for related kernels; the tail
#: bucket catches structurally unrelated neighbors.
DISTANCE_BUCKETS: Tuple[float, ...] = (
    0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 1.0, 2.0)

#: Central help text, so instrumentation sites stay one-liners.
HELP: Dict[str, str] = {
    "repro_serve_queue_depth":
        "Jobs currently queued (not yet running) in the serve daemon.",
    "repro_serve_queue_wait_seconds":
        "Time from submit to a worker picking the job up.",
    "repro_serve_execute_seconds":
        "Time a worker spent executing one job.",
    "repro_serve_dedup_hits_total":
        "Submissions served by an existing job (kind=inflight|memo).",
    "repro_serve_cancelled_total":
        "Queued jobs cancelled before running.",
    "repro_serve_jobs_total":
        "Jobs reaching a terminal state (state=done|failed).",
    "repro_serve_requests_total":
        "HTTP requests by endpoint and method.",
    "repro_cache_hits_total":
        "Cache lookups that hit (cache=cell|simindex).",
    "repro_cache_misses_total":
        "Cache lookups that missed (cache=cell|simindex).",
    "repro_cache_puts_total":
        "Cache writes (cache=cell|simindex).",
    "repro_cache_evictions_total":
        "Entries evicted by the LRU bound (cache=cell|simindex).",
    "repro_cache_bytes_written_total":
        "Payload bytes written into the cache (cache=cell|simindex).",
    "repro_sweep_cells_total":
        "Experiment cells computed by ParallelRunner (cache misses only).",
    "repro_sweep_worker_failures_total":
        "Pool worker tasks that raised instead of returning a cell.",
    "repro_jit_regions_total":
        "JIT region compilation outcomes (result=compiled|rejected).",
    "repro_jit_guard_failures_total":
        "JIT guard failures by site (kind=loop|lattice).",
    "repro_jit_deopts_total":
        "Region executions that deoptimized back to the interpreter.",
    "repro_jit_fused_segments_total":
        "Fused multi-expression segments baked into compiled regions.",
    "repro_jit_fused_steps_total":
        "Expression steps covered by fused segments.",
    "repro_similarity_predictions_total":
        "Similarity predictions resolved (outcome=transfer|fallback).",
    "repro_similarity_neighbor_distance":
        "Nearest-neighbor distance per predicted loop (normalized).",
    "repro_similarity_index_entries":
        "Entries currently readable in the similarity index.",
}


def _labels_key(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _fmt(value: float) -> str:
    """Prometheus sample value: integral floats render without '.0'."""
    if value == int(value):
        return str(int(value))
    return repr(float(value))


def _escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


class Counter:
    """Monotonic sum; folds by addition."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n


class Gauge:
    """Last-set level; folds by max (order-independent)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket cumulative histogram; folds by bucket-wise addition."""

    __slots__ = ("buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, buckets: Sequence[float]) -> None:
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * len(self.buckets)   # per upper bound, non-cum.
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break
        # Values above the last bound only land in the implicit +Inf
        # bucket, which is ``count``.


class _Family:
    __slots__ = ("name", "kind", "help", "buckets", "series")

    def __init__(self, name: str, kind: str, help_text: str,
                 buckets: Optional[Tuple[float, ...]] = None) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = buckets
        self.series: Dict[Tuple[Tuple[str, str], ...], object] = {}


class MetricsRegistry:
    """All metric families of one process, behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # -- series access (callers must hold the lock) --------------------------
    def _family(self, name: str, kind: str,
                buckets: Optional[Sequence[float]] = None) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, HELP.get(name, ""),
                             tuple(float(b) for b in buckets)
                             if buckets is not None else None)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {family.kind}, not a {kind}")
        elif kind == "histogram" and buckets is not None and \
                family.buckets != tuple(float(b) for b in buckets):
            raise ValueError(f"metric {name!r} bucket mismatch")
        return family

    def _series(self, name: str, kind: str, labels: Dict[str, object],
                buckets: Optional[Sequence[float]] = None):
        family = self._family(name, kind, buckets)
        key = _labels_key(labels)
        metric = family.series.get(key)
        if metric is None:
            if kind == "counter":
                metric = Counter()
            elif kind == "gauge":
                metric = Gauge()
            else:
                metric = Histogram(family.buckets)
            family.series[key] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        with self._lock:
            return self._series(name, "counter", labels)

    def gauge(self, name: str, **labels) -> Gauge:
        with self._lock:
            return self._series(name, "gauge", labels)

    def histogram(self, name: str,
                  buckets: Sequence[float] = LATENCY_BUCKETS_S,
                  **labels) -> Histogram:
        with self._lock:
            return self._series(name, "histogram", labels, buckets)

    # -- mutation (used by the module-level hooks; one lock acquisition) -----
    def inc(self, name: str, n: float = 1.0, **labels) -> None:
        with self._lock:
            self._series(name, "counter", labels).inc(n)

    def set(self, name: str, value: float, **labels) -> None:
        with self._lock:
            self._series(name, "gauge", labels).set(value)

    def observe(self, name: str, value: float,
                buckets: Sequence[float] = LATENCY_BUCKETS_S,
                **labels) -> None:
        with self._lock:
            self._series(name, "histogram", labels, buckets).observe(value)

    # -- fold ----------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-able export, deterministically ordered."""
        with self._lock:
            families = []
            for name in sorted(self._families):
                family = self._families[name]
                series = []
                for key in sorted(family.series):
                    metric = family.series[key]
                    entry: Dict[str, object] = {"labels": list(key)}
                    if family.kind == "histogram":
                        entry["counts"] = list(metric.counts)
                        entry["sum"] = metric.sum
                        entry["count"] = metric.count
                    else:
                        entry["value"] = metric.value
                    series.append(entry)
                data: Dict[str, object] = {"name": name, "kind": family.kind,
                                           "series": series}
                if family.buckets is not None:
                    data["buckets"] = list(family.buckets)
                families.append(data)
            return {"families": families}

    def absorb(self, snap: Optional[Dict[str, object]]) -> None:
        """Fold another registry's snapshot in; order-independent."""
        if not snap:
            return
        with self._lock:
            for data in snap.get("families", []):
                name, kind = data["name"], data["kind"]
                for entry in data.get("series", []):
                    labels = dict(entry["labels"])
                    metric = self._series(name, kind, labels,
                                          data.get("buckets"))
                    if kind == "counter":
                        metric.inc(entry["value"])
                    elif kind == "gauge":
                        metric.value = max(metric.value, entry["value"])
                    else:
                        for i, n in enumerate(entry["counts"]):
                            metric.counts[i] += n
                        metric.sum += entry["sum"]
                        metric.count += entry["count"]

    # -- export --------------------------------------------------------------
    def render(self) -> str:
        """Prometheus text exposition format, deterministically sorted."""
        lines: List[str] = []
        snap = self.snapshot()
        for data in snap["families"]:
            name = data["name"]
            help_text = self._families[name].help
            if help_text:
                lines.append(f"# HELP {name} {_escape(help_text)}")
            lines.append(f"# TYPE {name} {data['kind']}")
            for entry in data["series"]:
                labels = [(k, v) for k, v in entry["labels"]]
                if data["kind"] == "histogram":
                    cumulative = 0
                    for bound, count in zip(data["buckets"],
                                            entry["counts"]):
                        cumulative += count
                        lines.append(_sample(f"{name}_bucket",
                                             labels + [("le", _fmt(bound))],
                                             cumulative))
                    lines.append(_sample(f"{name}_bucket",
                                         labels + [("le", "+Inf")],
                                         entry["count"]))
                    lines.append(_sample(f"{name}_sum", labels,
                                         entry["sum"]))
                    lines.append(_sample(f"{name}_count", labels,
                                         entry["count"]))
                else:
                    lines.append(_sample(name, labels, entry["value"]))
        return "\n".join(lines) + ("\n" if lines else "")

    def summary(self) -> Dict[str, int]:
        """One row for ``repro serve-status``: family/series counts."""
        with self._lock:
            return {
                "families": len(self._families),
                "series": sum(len(f.series)
                              for f in self._families.values()),
            }


def _sample(name: str, labels: List[Tuple[str, str]], value: float) -> str:
    if labels:
        body = ",".join(f'{k}="{_escape(v)}"' for k, v in labels)
        return f"{name}{{{body}}} {_fmt(value)}"
    return f"{name} {_fmt(value)}"


def preregister(registry: MetricsRegistry) -> None:
    """Create the core families at zero so a scrape of an idle daemon
    still exposes the queue, cache, and JIT surfaces."""
    registry.gauge("repro_serve_queue_depth")
    registry.histogram("repro_serve_queue_wait_seconds")
    registry.histogram("repro_serve_execute_seconds")
    for kind in ("inflight", "memo"):
        registry.counter("repro_serve_dedup_hits_total", kind=kind)
    registry.counter("repro_serve_cancelled_total")
    for state in ("done", "failed"):
        registry.counter("repro_serve_jobs_total", state=state)
    for cache in ("cell", "simindex"):
        registry.counter("repro_cache_hits_total", cache=cache)
        registry.counter("repro_cache_misses_total", cache=cache)
        registry.counter("repro_cache_puts_total", cache=cache)
        registry.counter("repro_cache_evictions_total", cache=cache)
        registry.counter("repro_cache_bytes_written_total", cache=cache)
    for result in ("compiled", "rejected"):
        registry.counter("repro_jit_regions_total", result=result)
    for kind in ("loop", "lattice"):
        registry.counter("repro_jit_guard_failures_total", kind=kind)
    registry.counter("repro_jit_deopts_total")
    for outcome in ("transfer", "fallback"):
        registry.counter("repro_similarity_predictions_total",
                         outcome=outcome)
    registry.histogram("repro_similarity_neighbor_distance",
                       buckets=DISTANCE_BUCKETS)
    registry.gauge("repro_similarity_index_entries")


# ---------------------------------------------------------------------------
# The slot (process-global, unlike the thread-local trace slot)
# ---------------------------------------------------------------------------

_registry: Optional[MetricsRegistry] = None


def active() -> Optional[MetricsRegistry]:
    return _registry


def install(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    global _registry
    registry = registry if registry is not None else MetricsRegistry()
    _registry = registry
    return registry


def uninstall() -> Optional[MetricsRegistry]:
    global _registry
    registry = _registry
    _registry = None
    return registry


# -- fast-path hooks (the only calls on instrumented code paths) -------------

def inc(name: str, n: float = 1.0, **labels) -> None:
    registry = _registry
    if registry is None:
        return
    registry.inc(name, n, **labels)


def set_gauge(name: str, value: float, **labels) -> None:
    registry = _registry
    if registry is None:
        return
    registry.set(name, value, **labels)


def observe(name: str, value: float,
            buckets: Sequence[float] = LATENCY_BUCKETS_S, **labels) -> None:
    registry = _registry
    if registry is None:
        return
    registry.observe(name, value, buckets, **labels)


# -- pool-worker lifecycle (mirrors obs.session.begin/end_worker) ------------

def begin_worker(collect: bool) -> Optional[MetricsRegistry]:
    """Reset the slot at worker-task start.

    fork()-based pools hand children a copy of the parent's registry;
    exporting that would double-count everything the parent already
    holds.  Drop it and start fresh if the task says the parent is
    metering (``collect``), or leave the slot empty if it is not.
    """
    global _registry
    _registry = MetricsRegistry() if collect else None
    return _registry


def end_worker() -> Optional[Dict[str, object]]:
    """Snapshot and clear the worker's registry; None when none was begun."""
    global _registry
    registry = _registry
    _registry = None
    return registry.snapshot() if registry is not None else None


def absorb(snap: Optional[Dict[str, object]]) -> None:
    """Fold a worker snapshot into the live registry (no-op when off)."""
    registry = _registry
    if registry is None or not snap:
        return
    registry.absorb(snap)
