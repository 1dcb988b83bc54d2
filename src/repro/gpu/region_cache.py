"""Session telemetry of the trace-JIT tier: what got selected, compiled, fused.

The jit (:mod:`repro.gpu.jit`) selects a function's superblock regions
when its first block gets hot and compiles one region per hot head; the
counters below say how often each happened in this process.  Nothing
here outlives the process or touches a file: region plans are selected
afresh by every machine, with or without an observability session.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional


@dataclasses.dataclass
class RegionSession:
    """Per-session selection/fusion telemetry.

    Folded across pool workers by :mod:`repro.harness.experiment`: a
    worker discards the session it inherited by fork at task start and
    ships what the task itself counted (:func:`take_session` both times),
    and the parent sums — except ``max_chain``, which takes the max; both
    order-independent — so ``-j1`` and ``-jN`` report identical lines
    however many fan-outs a process runs.  Surfaced by the per-sweep jit
    line, ``repro summary --profile`` and the serve daemon's ``/stats``.
    """

    selections: int = 0      # functions whose regions were selected
    regions: int = 0         # regions compiled (hot heads)
    fused_segments: int = 0  # fused SSA segments emitted
    fused_steps: int = 0     # original vsteps folded into those segments
    max_chain: int = 0       # longest fused chain seen
    # Always 0: read by benchmarks/perf/perfbench/workloads/execs.py.
    hits: int = 0
    misses: int = 0
    puts: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def absorb(self, data: Optional[Dict[str, int]]) -> None:
        """Fold a worker snapshot in (sums; max for ``max_chain``)."""
        if not data:
            return
        for field in dataclasses.fields(self):
            try:
                value = int(data.get(field.name, 0))
            except (TypeError, ValueError):
                continue
            if field.name == "max_chain":
                self.max_chain = max(self.max_chain, value)
            else:
                setattr(self, field.name, getattr(self, field.name) + value)

    def any(self) -> bool:
        return any(getattr(self, f.name) for f in dataclasses.fields(self))

    def line(self) -> str:
        """One-line session summary; empty when the JIT never ran."""
        if not self.any():
            return ""
        line = (f"jit: {self.selections} functions selected, "
                f"{self.regions} regions compiled")
        if self.fused_segments:
            line += (f", {self.fused_steps} steps fused in "
                     f"{self.fused_segments} segments "
                     f"(max chain {self.max_chain})")
        return line


_SESSION = RegionSession()


def session() -> RegionSession:
    return _SESSION


def take_session() -> Dict[str, int]:
    """Snapshot-and-reset, for parallel worker handoff."""
    global _SESSION
    snap = _SESSION.snapshot()
    _SESSION = RegionSession()
    return snap


def note_compiled(region) -> None:
    """Session telemetry follows compilation: one region, just compiled."""
    sess = session()
    sess.regions += 1
    sess.fused_segments += region.fused_segments
    sess.fused_steps += region.fused_steps
    if region.max_chain > sess.max_chain:
        sess.max_chain = region.max_chain
