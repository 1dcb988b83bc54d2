"""nvprof-style hardware performance counters.

The counter set matches what the paper's in-depth analysis (Section V) uses
to explain every result: ``inst_misc`` (selp/mov data movement executed by
non-predicated threads), ``inst_control``, ``warp_execution_efficiency``,
IPC, global-load throughput and the instruction-fetch stall fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .timing import CLOCK_HZ, TICKS_PER_CYCLE

#: Opcode categories: a decoded step keeps its category's index, from
#: which the integer ``inst_*`` counters are sealed (:func:`seal_issues`)
#: and the similarity features bin instructions.  ``special`` covers the
#: tid/ctaid-style launch-geometry intrinsics.
CATEGORIES = ("int", "fp", "load", "store", "control", "misc", "special")
CAT_INDEX = {name: i for i, name in enumerate(CATEGORIES)}


def cat_index(category: str) -> int:
    """Index of ``category`` in :data:`CATEGORIES` (unknown -> misc)."""
    return CAT_INDEX.get(category, CAT_INDEX["misc"])


#: Thread-instruction counter per category ("special" has none).
_CAT_ATTR = {"misc": "inst_misc", "control": "inst_control",
             "int": "inst_int", "fp": "inst_fp",
             "load": "inst_load", "store": "inst_store"}

#: ``(issues, ((Counters attribute, count), ...))`` — see :func:`seal_issues`.
SealedIssues = Tuple[int, Tuple[Tuple[str, int], ...]]


def seal_issues(categories: Sequence[str]) -> SealedIssues:
    """Fold a run of warp instructions (one category each) into the
    integer counts :meth:`Counters.note_issue` applies in one call."""
    per_cat: Dict[str, int] = {}
    for cat in categories:
        per_cat[cat] = per_cat.get(cat, 0) + 1
    return (len(categories),
            tuple((_CAT_ATTR[cat], count) for cat, count in per_cat.items()
                  if cat in _CAT_ATTR))


@dataclass
class Counters:
    """Counters for one kernel launch.

    Cycles are summed as integer ticks (:data:`TICKS_PER_CYCLE` to the
    cycle, see :func:`repro.gpu.timing.tick_unit`); ``cycles`` and
    ``memory_stall_cycles`` are those sums reported in cycles.
    """

    ticks: int = 0
    inst_executed: int = 0          # Warp instructions issued.
    thread_inst_executed: int = 0   # Sum of active lanes over issues.
    active_lane_sum: int = 0        # For warp_execution_efficiency.
    inst_misc: int = 0              # Thread-level select/phi-mov/casts.
    inst_control: int = 0           # Thread-level branches/returns.
    inst_int: int = 0
    inst_fp: int = 0
    inst_load: int = 0
    inst_store: int = 0
    fetch_stall_cycles: int = 0
    memory_stall_ticks: int = 0
    bytes_loaded: int = 0
    bytes_stored: int = 0
    load_transactions: int = 0
    store_transactions: int = 0
    divergent_branches: int = 0
    branches: int = 0
    warp_size: int = 32

    def note_issue(self, sealed: SealedIssues, lanes: int,
                   warps: int = 1) -> None:
        """Account a sealed run of instructions issued once by each of
        ``warps`` warps with ``lanes`` active lanes between them.

        Integers commute, so a whole block (or a whole region run) is one
        call wherever in the run its steps sat.
        """
        issues, cat_counts = sealed
        self.inst_executed += issues * warps
        self.thread_inst_executed += issues * lanes
        self.active_lane_sum += issues * lanes
        for attr, count in cat_counts:
            setattr(self, attr, getattr(self, attr) + count * lanes)

    # -- derived metrics -----------------------------------------------------
    @property
    def cycles(self) -> float:
        return self.ticks / TICKS_PER_CYCLE

    @property
    def memory_stall_cycles(self) -> float:
        return self.memory_stall_ticks / TICKS_PER_CYCLE

    @property
    def warp_execution_efficiency(self) -> float:
        """Average active threads per issue / warp size (percent)."""
        if self.inst_executed == 0:
            return 100.0
        return 100.0 * self.active_lane_sum / (
            self.inst_executed * self.warp_size)

    @property
    def ipc(self) -> float:
        """Warp instructions issued per cycle."""
        if self.ticks == 0:
            return 0.0
        return self.inst_executed / self.cycles

    @property
    def stall_inst_fetch(self) -> float:
        """Percentage of cycles stalled on instruction fetch."""
        if self.ticks == 0:
            return 0.0
        return 100.0 * self.fetch_stall_cycles / self.cycles

    @property
    def gld_throughput_gbps(self) -> float:
        """Global load throughput in GB/s at the simulated clock."""
        if self.ticks == 0:
            return 0.0
        seconds = self.cycles / CLOCK_HZ
        return self.bytes_loaded / seconds / 1e9

    @property
    def branch_divergence_rate(self) -> float:
        if self.branches == 0:
            return 0.0
        return 100.0 * self.divergent_branches / self.branches

    def merge(self, other: "Counters") -> None:
        """Accumulate another launch/warp into this counter set."""
        for name in ("ticks", "inst_executed", "thread_inst_executed",
                     "active_lane_sum", "inst_misc", "inst_control",
                     "inst_int", "inst_fp", "inst_load", "inst_store",
                     "fetch_stall_cycles", "memory_stall_ticks",
                     "bytes_loaded", "bytes_stored", "load_transactions",
                     "store_transactions", "divergent_branches", "branches"):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def summary(self) -> Dict[str, float]:
        return {
            "cycles": self.cycles,
            "inst_executed": float(self.inst_executed),
            "thread_inst_executed": float(self.thread_inst_executed),
            "inst_misc": float(self.inst_misc),
            "inst_control": float(self.inst_control),
            "warp_execution_efficiency": self.warp_execution_efficiency,
            "ipc": self.ipc,
            "stall_inst_fetch": self.stall_inst_fetch,
            "gld_throughput_gbps": self.gld_throughput_gbps,
            "branch_divergence_rate": self.branch_divergence_rate,
        }
