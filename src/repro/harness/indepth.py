"""Section V in-depth analyses: counter-level comparisons for the four
case-study applications (XSBench, rainflow, complex, bezier-surface).

Each function returns a dictionary of the nvprof-style metrics the paper
quotes, for the baseline and the transformed build of the named loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..bench import benchmark_by_name
from .experiment import Cell, ExperimentRunner


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
            runner: Optional[ExperimentRunner] = None,
            config: str = "uu") -> InDepthComparison:
    runner = runner or ExperimentRunner()
    bench = benchmark_by_name(app)
    base = runner.baseline(bench)
    cell = runner.cell(bench, config, loop_id, factor)
    return InDepthComparison(
        app=app, loop_id=loop_id, factor=factor,
        baseline=base.counters.summary(),
        transformed=cell.counters.summary())


def xsbench_analysis(runner: Optional[ExperimentRunner] = None,
                     factor: int = 8) -> InDepthComparison:
    """Paper: inst_misc -55%, IPC x1.88, WEE 62.9% -> 18.9% at factor 8."""
    return compare("XSBench", "grid_search:0", factor, runner)


def rainflow_analysis(runner: Optional[ExperimentRunner] = None,
                      factor: int = 4) -> InDepthComparison:
    """Paper: inst_misc -77%, inst_control -45%, gld -17%, IPC x2.04."""
    return compare("rainflow", "rainflow_count:0", factor, runner)


def complex_analysis(runner: Optional[ExperimentRunner] = None,
                     factor: int = 8) -> InDepthComparison:
    """Paper: WEE 100% -> 19.4%, stall_inst_fetch 3.7% -> 79.6%, 0.11x."""
    return compare("complex", "complex_pow:0", factor, runner)


def bezier_analysis(runner: Optional[ExperimentRunner] = None,
                    factor: int = 2) -> InDepthComparison:
    """Paper Section III-B: ~30% faster loop at factor 2."""
    return compare("bezier-surface", "bezier_blend:0", factor, runner)


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
