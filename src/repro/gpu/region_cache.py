"""What ``benchmarks/perf/perfbench/workloads/execs.py`` still reads.

Region plans live and die with a machine, so the three counts below are
always 0.  The jit's own counts are ``repro_jit_*`` series of the metrics
registry (:mod:`repro.obs.metrics`).  Nothing under ``src/`` imports this
module; the next change to the benchmark deletes it together with its
``gpu.region_cache.*`` metrics.
"""

from __future__ import annotations

import dataclasses
from typing import Dict


@dataclasses.dataclass(frozen=True)
class RegionCacheCounts:
    hits: int = 0
    misses: int = 0
    puts: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


def session() -> RegionCacheCounts:
    return RegionCacheCounts()
