"""Figure 8: per-loop scatter of u&u speedup vs unroll (8a) / unmerge (8b).

Each point is one (loop, factor): x = u&u speedup on that loop, y = the
comparator's speedup on the same loop.  Points below the diagonal favour
u&u; points on it are ties.  The paper reads two conclusions off these
plots: several loops only u&u can speed up, and unmerge alone is typically
ineffective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..bench.base import Benchmark
from .experiment import UNROLL_FACTORS, ExperimentRunner


@dataclass
class ScatterPoint:
    app: str
    loop_id: str
    factor: int
    uu_speedup: float
    other_speedup: float

    @property
    def below_diagonal(self) -> bool:
        """True when u&u wins on this loop."""
        return self.uu_speedup > self.other_speedup


def series(comparator: str, runner: ExperimentRunner,
           benches: List[Benchmark]) -> List[ScatterPoint]:
    """``comparator`` is ``"unroll"`` (Fig 8a) or ``"unmerge"`` (Fig 8b)."""
    if comparator not in ("unroll", "unmerge"):
        raise ValueError("comparator must be 'unroll' or 'unmerge'")
    runner.prefetch(benches, configs=("baseline", "uu", comparator))
    points: List[ScatterPoint] = []
    for bench in benches:
        base = runner.baseline(bench)
        for loop_id in bench.loop_ids():
            for factor in UNROLL_FACTORS:
                uu = runner.cell(bench, "uu", loop_id, factor)
                if comparator == "unroll":
                    other = runner.cell(bench, "unroll", loop_id, factor)
                else:
                    other = runner.cell(bench, "unmerge", loop_id, 1)
                points.append(ScatterPoint(
                    bench.name, loop_id, factor,
                    uu.speedup_over(base), other.speedup_over(base)))
    return points


def format_figure(points: List[ScatterPoint], comparator: str) -> str:
    label = "Fig 8a — u&u vs unroll" if comparator == "unroll" \
        else "Fig 8b — u&u vs unmerge"
    lines = [f"{label} (per loop; x=u&u, y={comparator})"]
    header = (f"{'App':<16} {'Loop':<20} {'u':>3} {'u&u':>8} "
              f"{comparator:>8}  winner")
    lines.append(header)
    lines.append("-" * len(header))
    for p in points:
        winner = "u&u" if p.below_diagonal else (
            comparator if p.other_speedup > p.uu_speedup else "tie")
        lines.append(f"{p.app:<16} {p.loop_id:<20} {p.factor:>3} "
                     f"{p.uu_speedup:>7.3f}x {p.other_speedup:>7.3f}x  "
                     f"{winner}")
    return "\n".join(lines)
