"""Figure 6: speedup (6a), code size (6b) and compile time (6c) of u&u.

Each figure plots, per application: one point per (loop, unroll factor in
{2,4,8}) plus the heuristic's whole-application value — all relative to the
-O3 baseline.  The text renderer prints one row per point; ``series()``
returns the structured data for the pytest-benchmark harness and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..bench import all_benchmarks
from ..bench.base import Benchmark
from .experiment import UNROLL_FACTORS, Cell, ExperimentRunner
from .parallel import prefetch_if_parallel


@dataclass
class Fig6Point:
    app: str
    loop_id: Optional[str]      # None for the heuristic point.
    factor: Optional[int]       # None for the heuristic point.
    speedup: float              # Fig 6a.
    size_ratio: float           # Fig 6b.
    compile_ratio: float        # Fig 6c.
    outputs_ok: bool


def series(runner: Optional[ExperimentRunner] = None,
           benches: Optional[List[Benchmark]] = None) -> List[Fig6Point]:
    runner = runner or ExperimentRunner()
    benches = benches if benches is not None else all_benchmarks()
    prefetch_if_parallel(runner, benches,
                         configs=("baseline", "uu", "uu_heuristic"))
    points: List[Fig6Point] = []
    for bench in benches:
        base = runner.baseline(bench)
        for loop_id in bench.loop_ids():
            for factor in UNROLL_FACTORS:
                cell = runner.cell(bench, "uu", loop_id, factor)
                points.append(Fig6Point(
                    bench.name, loop_id, factor,
                    cell.speedup_over(base),
                    cell.size_ratio_over(base),
                    cell.compile_ratio_over(base),
                    cell.outputs_match_baseline))
        heur = runner.heuristic_cell(bench)
        points.append(Fig6Point(
            bench.name, None, None,
            heur.speedup_over(base),
            heur.size_ratio_over(base),
            heur.compile_ratio_over(base),
            heur.outputs_match_baseline))
    return points


def format_figure(points: List[Fig6Point], metric: str) -> str:
    """Render one of the three sub-figures as text.

    ``metric`` is ``"speedup"`` (6a), ``"size_ratio"`` (6b) or
    ``"compile_ratio"`` (6c).
    """
    titles = {"speedup": "Fig 6a — u&u speedup over baseline",
              "size_ratio": "Fig 6b — u&u code size increase over baseline",
              "compile_ratio":
              "Fig 6c — u&u compile time increase over baseline"}
    lines = [titles[metric]]
    header = f"{'App':<16} {'Loop':<20} {'u':>4} {'value':>9}"
    lines.append(header)
    lines.append("-" * len(header))
    for p in points:
        loop = p.loop_id or "(heuristic)"
        factor = str(p.factor) if p.factor else "-"
        value = getattr(p, metric)
        lines.append(f"{p.app:<16} {loop:<20} {factor:>4} {value:>8.3f}x")
    return "\n".join(lines)
