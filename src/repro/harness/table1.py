"""Table I: benchmark overview with baseline and heuristic timings.

Prints the same columns as the paper (name, category, command line, #loops,
%C, baseline mean +- RSD, heuristic mean +- RSD).  Milliseconds are
obtained by anchoring each benchmark's *baseline* simulated cycle count to
the paper's baseline mean (one scale factor per benchmark — see DESIGN.md),
so the heuristic column's deviation from the paper is a pure product of our
simulated relative speedup.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List

from ..bench.base import Benchmark
from .experiment import ExperimentRunner
from .stats import mean_and_rsd, simulate_runs


@dataclass
class Table1Row:
    name: str
    category: str
    command_line: str
    loops: int
    compute_percent: float
    baseline_mean_ms: float
    baseline_rsd: float
    heuristic_mean_ms: float
    heuristic_rsd: float
    speedup: float
    paper_baseline_ms: float
    paper_heuristic_ms: float

    @property
    def paper_speedup(self) -> float:
        if self.paper_heuristic_ms <= 0:
            return 0.0
        return self.paper_baseline_ms / self.paper_heuristic_ms


def build_row(bench: Benchmark, runner: ExperimentRunner,
              runs: int = 20) -> Table1Row:
    base = runner.baseline(bench)
    heur = runner.heuristic_cell(bench)

    # Anchor: paper baseline ms per simulated cycle.
    scale = bench.paper.baseline_ms / base.cycles if base.cycles else 0.0
    base_ms = base.cycles * scale
    heur_ms = heur.cycles * scale

    # A stable digest: ``hash()`` is salted per process.
    digest = zlib.crc32(bench.name.encode())
    base_samples = simulate_runs(base_ms, bench.paper.baseline_rsd, runs,
                                 seed=digest & 0xFFFF)
    heur_samples = simulate_runs(heur_ms, bench.paper.heuristic_rsd, runs,
                                 seed=(digest >> 4) & 0xFFFF)
    base_mean, base_rsd = mean_and_rsd(base_samples)
    heur_mean, heur_rsd = mean_and_rsd(heur_samples)

    return Table1Row(
        name=bench.name,
        category=bench.category,
        command_line=bench.command_line,
        loops=len(bench.loop_ids()),
        compute_percent=bench.paper.compute_percent,
        baseline_mean_ms=base_mean,
        baseline_rsd=base_rsd,
        heuristic_mean_ms=heur_mean,
        heuristic_rsd=heur_rsd,
        speedup=base.cycles / heur.cycles if heur.cycles else 0.0,
        paper_baseline_ms=bench.paper.baseline_ms,
        paper_heuristic_ms=bench.paper.heuristic_ms,
    )


def build_table(runner: ExperimentRunner,
                benches: List[Benchmark]) -> List[Table1Row]:
    runner.prefetch(benches, configs=("baseline", "uu_heuristic"))
    return [build_row(b, runner) for b in benches]


def format_table(rows: List[Table1Row]) -> str:
    header = (f"{'Name':<16} {'Category':<30} {'L':>3} {'%C':>7} "
              f"{'Baseline (ms)':>20} {'Heuristic (ms)':>20} "
              f"{'Speedup':>8} {'Paper':>8}")
    lines = ["TABLE I — Overview of Benchmarks (simulated; ms anchored to "
             "paper baselines)", header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.name:<16} {row.category:<30} {row.loops:>3} "
            f"{row.compute_percent:>6.2f}% "
            f"{row.baseline_mean_ms:>12.2f} ±{row.baseline_rsd:>5.2f}% "
            f"{row.heuristic_mean_ms:>12.2f} ±{row.heuristic_rsd:>5.2f}% "
            f"{row.speedup:>7.2f}x {row.paper_speedup:>7.2f}x")
    return "\n".join(lines)
