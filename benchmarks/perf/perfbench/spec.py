"""Locations, and ``BENCHMARK.json`` as the one list of metric names.

The driver, the self-test and ``--compare`` all take names, units,
directions and bounds from the committed ``BENCHMARK.json``; the workloads
only produce values.  A value for an undeclared name is an error, so the
file and the code cannot drift apart silently.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

PERF_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = PERF_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"
KERNEL_DIR = PERF_DIR / "kernels"
GOLDEN_PATH = PERF_DIR / "expected_counts.json"
#: Scratch space of one run (caches, daemon state, trace files).  Inside the
#: checkout because the benchmark may write nowhere else; git-ignored.
WORK_ROOT = PERF_DIR / ".work"

DEFAULT_SEED = 2024

#: Workloads ``run.py`` measures but ``BENCHMARK.json`` does not declare, so
#: the driver does not gate them (README, "Workloads"): they spawn
#: processes and threads, which on two shared cores measures the scheduler
#: as much as the program, and six workloads do not fit the driver's time
#: limit at a run length that rides out the host's noise.
UNGATED_WORKLOADS = ("sweep_warm", "serve_mix")


def load_spec() -> Dict:
    return json.loads(SPEC_PATH.read_text())


def workload_names(spec: Dict) -> list:
    """Every workload ``run.py`` knows: the declared ones, then the rest."""
    return [w["name"] for w in spec["workloads"]] + list(UNGATED_WORKLOADS)


def metric_table(spec: Dict, group: str) -> Dict[str, Dict]:
    """``name -> declaration`` for ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m for m in spec[group]}


def fill_declared(declared: Dict[str, Dict], produced: Dict[str, float],
                  *, require_all: bool) -> Dict[str, Dict]:
    """Shape ``produced`` as the result line's ``metrics`` object.

    Per-layer metrics a workload does not exercise read 0 (``require_all``
    false); every end-to-end metric must be produced by every workload.
    """
    unknown = sorted(set(produced) - set(declared))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    missing = sorted(set(declared) - set(produced))
    if require_all and missing:
        raise KeyError(f"declared metrics not produced: {missing}")
    return {name: {"value": float(produced.get(name, 0.0)),
                   "unit": decl["unit"]}
            for name, decl in declared.items()}
