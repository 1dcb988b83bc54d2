"""CPU, memory and latency summaries of a timed pass."""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _proc_cpu_seconds(pid: int) -> float:
    """user+sys CPU of a live (not yet reaped) child, from /proc."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            # The command name may hold spaces; fields count from its ')'.
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def cpu_seconds(live_children: Iterable[int] = ()) -> float:
    """user+sys CPU of this process, its reaped children, and live ones.

    Children are only known to clock-tick (10 ms) resolution.
    """
    t = os.times()
    return (time.process_time() + t.children_user + t.children_system
            + sum(_proc_cpu_seconds(pid) for pid in live_children))


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of a live child, 0 where /proc is unavailable."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (need not be sorted)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


@dataclass
class Op:
    """One completed operation of a pass."""

    key: str
    seconds: float
    #: The program's own verdict (cell flags, request status, exit code).
    ok: bool
    #: What the independent check needs (outputs, cell, result).
    data: object = None
    #: Request class on ``serve_mix``; empty elsewhere.
    kind: str = ""


@dataclass
class PassSample:
    """One timed pass."""

    wall_s: float
    cpu_s: float
    latencies: Sequence[float]

    @property
    def ops(self) -> int:
        return len(self.latencies)


def end_to_end(passes: Sequence[PassSample], setups: Sequence[float],
               peak_rss_mb: float) -> dict:
    """Run-level metrics from a run's identical passes.

    Every timing is the quietest sample the run took, not the median: the
    host's noise only ever adds time, comes in phases that outlast a pass,
    and moved the median pass of a run by up to 39 % between runs where it
    moved the quietest by 3-20 % (README, "Noise").  An operation's latency
    is its quietest over the passes (operation ``i`` is the same operation
    in every pass); ``lat_p50_ms`` and ``lat_max_ms`` are taken over the
    operations.
    """
    per_op = [min(p.latencies[i] for p in passes)
              for i in range(passes[0].ops)]
    return {
        "wall_s": min(p.wall_s for p in passes),
        "cpu_s": min(p.cpu_s for p in passes),
        "ops_per_s": max(p.ops / p.wall_s for p in passes),
        "lat_p50_ms": percentile(per_op, 50) * 1e3,
        "lat_max_ms": max(per_op) * 1e3,
        "setup_s": min(setups),
        "peak_rss_mb": peak_rss_mb,
    }
