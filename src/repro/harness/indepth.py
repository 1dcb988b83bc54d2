"""Section V in-depth analyses: counter-level comparisons for the four
case-study applications (XSBench, rainflow, complex, bezier-surface).

Each comparison holds the nvprof-style metrics the paper quotes, for the
baseline and the transformed build of the named loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..bench import benchmark_by_name
from .experiment import CellSpec, ExperimentRunner

#: Section V's case studies, in the order ``repro indepth`` prints them:
#: (app, loop, the unroll factor the paper quotes its counters at).
CASE_STUDIES = (
    # inst_misc -55%, IPC x1.88, WEE 62.9% -> 18.9%.
    ("XSBench", "grid_search:0", 8),
    # inst_misc -77%, inst_control -45%, gld -17%, IPC x2.04.
    ("rainflow", "rainflow_count:0", 4),
    # WEE 100% -> 19.4%, stall_inst_fetch 3.7% -> 79.6%, 0.11x.
    ("complex", "complex_pow:0", 8),
    # Section III-B: ~30% faster loop.
    ("bezier-surface", "bezier_blend:0", 2),
)


@dataclass
class InDepthComparison:
    app: str
    loop_id: str
    factor: int
    baseline: Dict[str, float]
    transformed: Dict[str, float]

    def reduction(self, metric: str) -> float:
        """Percent reduction of a counter (positive = fewer after u&u)."""
        before = self.baseline.get(metric, 0.0)
        after = self.transformed.get(metric, 0.0)
        if before == 0:
            return 0.0
        return 100.0 * (before - after) / before

    def ratio(self, metric: str) -> float:
        before = self.baseline.get(metric, 0.0)
        after = self.transformed.get(metric, 0.0)
        if before == 0:
            return 0.0
        return after / before

    @property
    def speedup(self) -> float:
        if self.transformed["cycles"] == 0:
            return 0.0
        return self.baseline["cycles"] / self.transformed["cycles"]


def compare(app: str, loop_id: str, factor: int,
            runner: ExperimentRunner) -> InDepthComparison:
    bench = benchmark_by_name(app)
    base = runner.baseline(bench)
    cell = runner.cell(bench, "uu", loop_id, factor)
    return InDepthComparison(
        app=app, loop_id=loop_id, factor=factor,
        baseline=base.counters.summary(),
        transformed=cell.counters.summary())


def case_studies(runner: ExperimentRunner) -> List[InDepthComparison]:
    """The four Section V comparisons, their cells computed in one
    fan-out (each app's baseline and its transformed loop)."""
    runner.prefetch(
        [benchmark_by_name(app) for app, _, _ in CASE_STUDIES],
        specs=[spec for app, loop_id, factor in CASE_STUDIES
               for spec in (CellSpec(app, "baseline", None, 1),
                            CellSpec(app, "uu", loop_id, factor))])
    return [compare(app, loop_id, factor, runner)
            for app, loop_id, factor in CASE_STUDIES]


def format_comparison(cmp: InDepthComparison) -> str:
    lines = [f"In-depth: {cmp.app} loop {cmp.loop_id} @ u={cmp.factor} "
             f"(speedup {cmp.speedup:.3f}x)"]
    header = f"{'metric':<28} {'baseline':>12} {'u&u':>12} {'change':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for metric in ("cycles", "inst_misc", "inst_control",
                   "warp_execution_efficiency", "ipc", "stall_inst_fetch",
                   "gld_throughput_gbps"):
        before = cmp.baseline.get(metric, 0.0)
        after = cmp.transformed.get(metric, 0.0)
        change = f"{cmp.ratio(metric):>9.2f}x" if before else "       n/a"
        lines.append(f"{metric:<28} {before:>12.2f} {after:>12.2f} {change}")
    return "\n".join(lines)
