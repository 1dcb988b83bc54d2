"""Figure 7: u&u vs unroll vs unmerge, per application and unroll factor.

For each application and factor, the figure reports the best per-loop
speedup each configuration achieves (the paper plots grouped bars per
application).  ``unmerge`` has no factor (it is u&u with factor 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..bench.base import Benchmark
from .experiment import UNROLL_FACTORS, ExperimentRunner


@dataclass
class Fig7Row:
    app: str
    factor: int
    uu_speedup: float
    unroll_speedup: float
    unmerge_speedup: float   # Factor-independent; repeated per row.
    #: Empirically-tuned pipeline (factor-independent; repeated per row).
    #: Falls back to the heuristic when no tuned file is usable, so this
    #: column renders with or without ``repro tune`` having run.
    tuned_speedup: float = 1.0


def series(runner: ExperimentRunner,
           benches: List[Benchmark]) -> List[Fig7Row]:
    runner.prefetch(benches, configs=("baseline", "uu", "unroll", "unmerge",
                                      "tuned"))
    rows: List[Fig7Row] = []
    for bench in benches:
        base = runner.baseline(bench)
        loop_ids = bench.loop_ids()
        unmerge_best = max(
            (runner.cell(bench, "unmerge", lid, 1).speedup_over(base)
             for lid in loop_ids), default=1.0)
        tuned = runner.cell(bench, "tuned").speedup_over(base)
        for factor in UNROLL_FACTORS:
            uu_best = max(
                (runner.cell(bench, "uu", lid, factor).speedup_over(base)
                 for lid in loop_ids), default=1.0)
            unroll_best = max(
                (runner.cell(bench, "unroll", lid, factor).speedup_over(base)
                 for lid in loop_ids), default=1.0)
            rows.append(Fig7Row(bench.name, factor, uu_best, unroll_best,
                                unmerge_best, tuned))
    return rows


def format_figure(rows: List[Fig7Row]) -> str:
    lines = ["Fig 7 — best per-loop speedup: u&u vs unroll vs unmerge "
             "(+ tuned)"]
    header = (f"{'App':<16} {'u':>3} {'u&u':>8} {'unroll':>8} "
              f"{'unmerge':>8} {'tuned':>8}")
    lines.append(header)
    lines.append("-" * len(header))
    for r in rows:
        lines.append(f"{r.app:<16} {r.factor:>3} {r.uu_speedup:>7.3f}x "
                     f"{r.unroll_speedup:>7.3f}x {r.unmerge_speedup:>7.3f}x "
                     f"{r.tuned_speedup:>7.3f}x")
    return "\n".join(lines)
