"""Execution profiling for the SIMT engines.

An :class:`ExecutionProfile` rides alongside the architectural
:class:`repro.gpu.counters.Counters` and records *where* cycles went —
per block, summed at warp granularity like nvprof's per-warp counters:

* ``block_hits`` — warp-block executions (a lattice dispatch of ``n``
  rows is ``n``);
* ``block_ticks`` — what they charged, in the engines' integer cycle
  ticks, the phi moves of the edges the block took included (fetch
  stalls are no block's); ``block_cycles`` reports them in cycles;
* ``block_lanes`` — ``[active, possible]`` lanes: SIMT efficiency;
* lattice splits (cross-warp disagreement) and row demotions.

The warp engine records per group pop, the lattice per dispatch, the
scalar region executor from the counts it keeps anyway — so the profile
does not depend on the engine, and it selects nothing: an observed run
takes the executors an unobserved one takes, bit-identically.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class ExecutionProfile:
    """Per-run engine telemetry; mergeable across warps and processes."""

    __slots__ = ("block_hits", "block_ticks", "block_lanes", "splits",
                 "demotions", "request")

    def __init__(self) -> None:
        self.block_hits: Dict[str, int] = {}
        self.block_ticks: Dict[str, int] = {}
        #: ``[active, possible]`` lanes per block.
        self.block_lanes: Dict[str, List[int]] = {}
        self.splits: List[Dict[str, object]] = []
        self.demotions: List[Dict[str, object]] = []
        #: Service request id (content hash) this stream belongs to, set
        #: by :func:`repro.obs.session.request_capture`; None outside the
        #: service.  Merging keeps the tag only while unambiguous.
        self.request: Optional[str] = None

    # -- recording -----------------------------------------------------------
    def note_block(self, name: str, hits: int, ticks: int, active: int,
                   possible: int) -> None:
        """``hits`` warp-block executions of ``name`` that charged
        ``ticks`` on ``active`` of ``possible`` lanes (all summed)."""
        self.block_hits[name] = self.block_hits.get(name, 0) + hits
        self.block_ticks[name] = self.block_ticks.get(name, 0) + ticks
        lanes = self.block_lanes.setdefault(name, [0, 0])
        lanes[0] += active
        lanes[1] += possible

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
        self.add(other)

    def add(self, other: "ExecutionProfile") -> None:
        """Accumulate ``other``'s records; this profile's tag stays (a
        replayed launch adds what it recorded to the run it serves)."""
        for name, n in other.block_hits.items():
            self.note_block(name, n, other.block_ticks.get(name, 0),
                            *other.block_lanes.get(name, (0, 0)))
        self.splits.extend(other.splits)
        self.demotions.extend(other.demotions)

    def is_empty(self) -> bool:
        return not (self.block_hits or self.splits or self.demotions)

    # -- serialization -------------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "block_hits": dict(self.block_hits),
            "block_ticks": dict(self.block_ticks),
            "block_lanes": {k: list(v) for k, v in self.block_lanes.items()},
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
        prof.block_ticks = {k: int(v)
                            for k, v in data.get("block_ticks", {}).items()}
        prof.block_lanes = {k: list(v)
                            for k, v in data.get("block_lanes", {}).items()}
        prof.splits = list(data.get("splits", []))
        prof.demotions = list(data.get("demotions", []))
        prof.request = data.get("request")
        return prof

    # -- reporting -----------------------------------------------------------
    @property
    def block_cycles(self) -> Dict[str, float]:
        """``block_ticks`` in cycles."""
        from ..gpu.timing import TICKS_PER_CYCLE  # Deferred: gpu imports obs.
        return {name: ticks / TICKS_PER_CYCLE
                for name, ticks in self.block_ticks.items()}

    def mean_occupancy(self) -> Optional[float]:
        """Active lanes over possible lanes, every block execution summed."""
        den = sum(p for _a, p in self.block_lanes.values())
        if not den:
            return None
        return sum(a for a, _p in self.block_lanes.values()) / den

    def format(self, top: int = 10) -> str:
        lines = ["Execution profile"]
        cycles = self.block_cycles
        total = sum(cycles.values())
        ranked = sorted(cycles.items(),
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
            lines.append(f"  occupancy: {100.0 * occ:.1f}% mean active lanes "
                         f"over {sum(self.block_hits.values())} warp-block "
                         "executions")
        if self.splits or self.demotions:
            lines.append(f"  lattice: {len(self.splits)} splits, "
                         f"{len(self.demotions)} demotions")
        return "\n".join(lines)
