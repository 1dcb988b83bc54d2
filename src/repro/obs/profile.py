"""Execution profiling for the SIMT engines.

An :class:`ExecutionProfile` rides alongside the architectural
:class:`repro.gpu.counters.Counters` and records *where* cycles went
rather than how many there were:

* per-block hit and cycle counters (which basic blocks dominate runtime);
* an active-mask occupancy timeline — ``(cycle, active_lanes)`` samples
  taken at every block execution, the SIMT-efficiency-over-time view
  DARM-style divergence analyses start from;
* lattice-dispatcher structural events: lattice splits (cross-warp control
  disagreement) and row demotions to the per-warp path.

The profile is strictly observational: engines consult it only through a
``profile is not None`` check, and the equivalence suite pins outputs and
cycle counts bit-identical with profiling on vs. off.

Occupancy sampling is capped (:data:`OCCUPANCY_CAP`) so pathological
kernels cannot balloon the session; the number of *dropped* samples is
recorded so a truncated timeline is never mistaken for a complete one.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Maximum retained occupancy samples per profile; excess is counted in
#: ``occupancy_dropped`` rather than silently discarded.
OCCUPANCY_CAP = 65536


class ExecutionProfile:
    """Per-run engine telemetry; mergeable across warps and processes."""

    __slots__ = ("block_hits", "block_cycles", "occupancy",
                 "occupancy_dropped", "splits", "demotions", "request")

    def __init__(self) -> None:
        self.block_hits: Dict[str, int] = {}
        self.block_cycles: Dict[str, float] = {}
        #: ``[cycle_ts, active_lanes, lanes_possible]`` triples.
        self.occupancy: List[List[float]] = []
        self.occupancy_dropped = 0
        self.splits: List[Dict[str, object]] = []
        self.demotions: List[Dict[str, object]] = []
        #: Service request id (content hash) this stream belongs to, set
        #: by :func:`repro.obs.session.request_capture`; None outside the
        #: service.  Merging keeps the tag only while unambiguous.
        self.request: Optional[str] = None

    # -- recording (hot paths; keep branch-light) ----------------------------
    def note_block(self, name: str, cycles: float, active: int,
                   lanes: int, cycle_ts: float) -> None:
        self.block_hits[name] = self.block_hits.get(name, 0) + 1
        self.block_cycles[name] = self.block_cycles.get(name, 0.0) + cycles
        if len(self.occupancy) < OCCUPANCY_CAP:
            self.occupancy.append([cycle_ts, active, lanes])
        else:
            self.occupancy_dropped += 1

    def note_split(self, block: str, classes: int, rows: int) -> None:
        self.splits.append({"block": block, "classes": classes,
                            "rows": rows})

    def note_demotion(self, block: str, warp: int) -> None:
        self.demotions.append({"block": block, "warp": warp})

    # -- aggregation ---------------------------------------------------------
    def merge(self, other: "ExecutionProfile") -> None:
        if self.is_empty():
            self.request = other.request
        elif not other.is_empty() and self.request != other.request:
            self.request = None      # mixed streams: tag no longer holds
        for name, n in other.block_hits.items():
            self.block_hits[name] = self.block_hits.get(name, 0) + n
        for name, c in other.block_cycles.items():
            self.block_cycles[name] = self.block_cycles.get(name, 0.0) + c
        room = OCCUPANCY_CAP - len(self.occupancy)
        take = other.occupancy[:room] if room > 0 else []
        self.occupancy.extend(take)
        self.occupancy_dropped += (other.occupancy_dropped
                                   + len(other.occupancy) - len(take))
        self.splits.extend(other.splits)
        self.demotions.extend(other.demotions)

    def is_empty(self) -> bool:
        return not (self.block_hits or self.splits or self.demotions)

    # -- serialization -------------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "block_hits": dict(self.block_hits),
            "block_cycles": dict(self.block_cycles),
            "occupancy": [list(s) for s in self.occupancy],
            "occupancy_dropped": self.occupancy_dropped,
            "splits": list(self.splits),
            "demotions": list(self.demotions),
        }
        if self.request is not None:
            data["request"] = self.request
        return data

    @staticmethod
    def from_json(data: Dict[str, object]) -> "ExecutionProfile":
        prof = ExecutionProfile()
        prof.block_hits = {k: int(v)
                           for k, v in data.get("block_hits", {}).items()}
        prof.block_cycles = {k: float(v)
                             for k, v in data.get("block_cycles", {}).items()}
        prof.occupancy = [list(s) for s in data.get("occupancy", [])]
        prof.occupancy_dropped = int(data.get("occupancy_dropped", 0))
        prof.splits = list(data.get("splits", []))
        prof.demotions = list(data.get("demotions", []))
        prof.request = data.get("request")
        return prof

    # -- reporting -----------------------------------------------------------
    def mean_occupancy(self) -> Optional[float]:
        """Mean active-lane fraction over the sampled timeline."""
        if not self.occupancy:
            return None
        num = sum(s[1] for s in self.occupancy)
        den = sum(s[2] for s in self.occupancy)
        return num / den if den else None

    def format(self, top: int = 10) -> str:
        lines = ["Execution profile"]
        total = sum(self.block_cycles.values())
        ranked = sorted(self.block_cycles.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        lines.append(f"  {'block':<28} {'hits':>8} {'cycles':>12} {'%':>6}")
        for name, cycles in ranked[:top]:
            share = 100.0 * cycles / total if total else 0.0
            lines.append(f"  {name:<28} {self.block_hits.get(name, 0):>8} "
                         f"{cycles:>12.0f} {share:>5.1f}%")
        if len(ranked) > top:
            lines.append(f"  ... {len(ranked) - top} more blocks")
        occ = self.mean_occupancy()
        if occ is not None:
            dropped = (f" ({self.occupancy_dropped} samples dropped)"
                       if self.occupancy_dropped else "")
            lines.append(f"  occupancy: {100.0 * occ:.1f}% mean active lanes "
                         f"over {len(self.occupancy)} samples{dropped}")
        if self.splits or self.demotions:
            lines.append(f"  lattice: {len(self.splits)} splits, "
                         f"{len(self.demotions)} demotions")
        return "\n".join(lines)
