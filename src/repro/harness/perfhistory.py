"""Perf history: append-only ratio records and a trend gate.

Retired: the micro-benchmark, perf-smoke fixture and ``repro perf`` verbs
that fed and read ``results/perf/history.jsonl`` are gone, and speed is
measured by ``benchmarks/perf/`` alone (see its README).  What is left
here is the library the remaining ``tests/test_perfhistory.py`` ids
check — flatten a payload of per-kernel speedup ratios into a record,
append/read the JSONL, compare two records against a noise threshold,
render the trend table — and it goes with those ids and the committed
history file (ROADMAP, "One perf instrument").
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from .stats import geomean

#: Bump when the history record shape changes incompatibly.
PERF_SCHEMA_VERSION = 1

#: Per-kernel ratio metrics lifted from a BENCH payload (all
#: higher-is-better speedups; absolute throughput is machine noise).
RATIO_KEYS = ("batched_speedup", "jit_speedup", "jit_vs_batched")

#: Default relative drop treated as a regression.  0.08 sits above
#: engine-timing jitter but below the 10% regressions the gate must catch.
DEFAULT_THRESHOLD = 0.08


def default_history_path() -> Path:
    """``results/perf/history.jsonl`` at the repository root."""
    root = Path(__file__).resolve().parents[3] / "results"
    return root / "perf" / "history.jsonl"


def record_from_bench(payload: Dict, source: Optional[str] = None,
                      extra_metrics: Optional[Dict[str, float]] = None
                      ) -> Dict:
    """Flatten one BENCH payload into a history record.

    Tolerates schema-1 payloads (no provenance).  ``extra_metrics`` lets
    callers fold in sweep geomeans (``sweep/heuristic_speedup`` etc.).
    """
    metrics: Dict[str, float] = {}
    per_key: Dict[str, List[float]] = {key: [] for key in RATIO_KEYS}
    for row in payload.get("kernels", []):
        kernel = row.get("kernel", "?")
        for key in RATIO_KEYS:
            value = row.get(key)
            if value is None:
                continue
            metrics[f"{kernel}/{key}"] = float(value)
            per_key[key].append(float(value))
    for key, values in per_key.items():
        if values:
            metrics[f"geomean/{key}"] = geomean(values)
    metrics.update(extra_metrics or {})
    return {
        "schema": PERF_SCHEMA_VERSION,
        "source": source or payload.get("source", "unknown"),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "warps": payload.get("warps"),
        "trips": payload.get("trips"),
        "provenance": payload.get("provenance") or {},
        "metrics": metrics,
    }


def append_record(record: Dict, path: Optional[Path] = None) -> Path:
    """Append one record to the history (creating it if needed)."""
    target = Path(path) if path is not None else default_history_path()
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return target


def read_history(path: Optional[Path] = None) -> List[Dict]:
    """All parseable records, oldest first; [] for a missing file.

    Corrupt or stale-schema lines are skipped, not fatal — an
    append-only log may legitimately contain records from older code.
    """
    target = Path(path) if path is not None else default_history_path()
    records: List[Dict] = []
    try:
        lines = target.read_text().splitlines()
    except OSError:
        return records
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(record, dict) or \
                record.get("schema") != PERF_SCHEMA_VERSION:
            continue
        records.append(record)
    return records


def load_baseline(ref: str, history_path: Optional[Path] = None
                  ) -> Optional[Dict]:
    """Resolve a baseline reference to one record.

    ``ref`` may be a negative index into the history (``-2`` = the
    record before the newest), a path to a history JSONL
    (newest record wins), or a path to a raw BENCH json.
    """
    try:
        index = int(ref)
    except ValueError:
        index = None
    if index is not None:
        records = read_history(history_path)
        if -len(records) <= index < len(records):
            return records[index]
        return None
    path = Path(ref)
    try:
        text = path.read_text()
    except OSError:
        return None
    if path.suffix == ".jsonl":
        records = read_history(path)
        return records[-1] if records else None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return None
    if "kernels" in payload:
        return record_from_bench(payload, source=str(path))
    return payload if payload.get("metrics") else None


# ---------------------------------------------------------------------------
# The gate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Regression:
    """One tracked metric that dropped beyond the noise threshold."""

    metric: str
    baseline: float
    current: float

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else 0.0

    def describe(self) -> str:
        return (f"{self.metric}: {self.baseline:.3f} -> {self.current:.3f} "
                f"({100.0 * (self.ratio - 1.0):+.1f}%)")


def check_regression(baseline: Dict, current: Dict,
                     threshold: float = DEFAULT_THRESHOLD,
                     prefix: Optional[str] = None) -> List[Regression]:
    """Tracked metrics that regressed from ``baseline`` to ``current``.

    All tracked metrics are higher-is-better ratios; a metric regresses
    when ``current < baseline * (1 - threshold)``.  Metrics present in
    only one record are ignored (kernels come and go, and a metric
    retired from the report — ``fused_speedup`` — is not a regression
    against the older records that carry it); ``prefix``
    restricts the comparison (e.g. ``geomean/``).
    """
    base_metrics = baseline.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    regressions: List[Regression] = []
    for name in sorted(base_metrics):
        if prefix and not name.startswith(prefix):
            continue
        cur = cur_metrics.get(name)
        base = base_metrics[name]
        if cur is None or base <= 0:
            continue
        if cur < base * (1.0 - threshold):
            regressions.append(Regression(name, float(base), float(cur)))
    return regressions


def format_report(records: List[Dict], last: int = 8,
                  prefix: Optional[str] = None) -> str:
    """Trend table: one row per metric, one column per record."""
    if not records:
        return "perf history: no records"
    window = records[-last:]
    names = sorted({name for record in window
                    for name in record.get("metrics", {})
                    if not prefix or name.startswith(prefix)})
    if not names:
        return "perf history: no tracked metrics"
    head = [f"perf history: {len(records)} records "
            f"(showing last {len(window)})"]
    stamps = [record.get("recorded_at", "?")[:10] for record in window]
    sources = [str(record.get("source", "?"))[:10] for record in window]
    width = max(len(name) for name in names)
    head.append("  " + " " * width + "  " +
                " ".join(f"{s:>10}" for s in stamps))
    head.append("  " + " " * width + "  " +
                " ".join(f"{s:>10}" for s in sources))
    for name in names:
        cells = []
        for record in window:
            value = record.get("metrics", {}).get(name)
            cells.append(f"{value:>10.3f}" if value is not None
                         else f"{'-':>10}")
        head.append(f"  {name:<{width}}  " + " ".join(cells))
    return "\n".join(head)
