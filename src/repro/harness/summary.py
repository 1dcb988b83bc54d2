"""Aggregate summary: the paper's headline geomeans.

The paper (Section IV): "The geometric means for speedup, code size and
compile time increase over all applications for the heuristic are 1.05x,
1.7x and 1.18x respectively."  This module computes our equivalents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..bench.base import Benchmark
from ..gpu.counters import CATEGORIES, N_CATEGORIES
from .experiment import ExperimentRunner
from .stats import geomean


@dataclass
class HeuristicSummary:
    """Geomeans of the heuristic configuration over all applications."""

    speedup: float
    size_ratio: float
    compile_ratio: float
    improved: int
    total: int

    #: The paper's values, for side-by-side reporting.
    PAPER_SPEEDUP = 1.05
    PAPER_SIZE = 1.7
    PAPER_COMPILE = 1.18

    def format(self) -> str:
        return (
            "Heuristic u&u geomeans over all applications "
            "(paper in parentheses):\n"
            f"  speedup       {self.speedup:.3f}x  "
            f"({self.PAPER_SPEEDUP:.2f}x)\n"
            f"  code size     {self.size_ratio:.3f}x  "
            f"({self.PAPER_SIZE:.2f}x)\n"
            f"  compile time  {self.compile_ratio:.3f}x  "
            f"({self.PAPER_COMPILE:.2f}x)\n"
            f"  improved      {self.improved}/{self.total} applications "
            f"(paper: 13/16)")


def heuristic_summary(runner: ExperimentRunner,
                      benches: List[Benchmark]) -> HeuristicSummary:
    runner.prefetch(benches, configs=("baseline", "uu_heuristic"))
    speedups, sizes, compiles = [], [], []
    improved = 0
    for bench in benches:
        base = runner.baseline(bench)
        heur = runner.heuristic_cell(bench)
        s = heur.speedup_over(base)
        speedups.append(s)
        sizes.append(heur.size_ratio_over(base))
        compiles.append(heur.compile_ratio_over(base))
        if s > 1.0:
            improved += 1
    return HeuristicSummary(
        speedup=geomean(speedups),
        size_ratio=geomean(sizes),
        compile_ratio=geomean(compiles),
        improved=improved,
        total=len(benches),
    )


@dataclass
class TunedAppRow:
    """One application's heuristic-vs-tuned comparison."""

    app: str
    heuristic_speedup: float
    tuned_speedup: float
    #: None when a persisted tuned config was applied; otherwise why the
    #: ``tuned`` pipeline fell back to the heuristic (missing, stale-...).
    fallback_reason: Optional[str]


@dataclass
class TunedSummary:
    """Per-app and geomean comparison of ``tuned`` vs ``uu_heuristic``."""

    rows: List[TunedAppRow]
    geomean_heuristic: float
    geomean_tuned: float

    @property
    def tuned_apps(self) -> int:
        return sum(1 for r in self.rows if r.fallback_reason is None)

    def format(self) -> str:
        lines = ["Empirically tuned pipeline vs static heuristic "
                 "(speedup over baseline):"]
        lines.append(f"  {'app':<16} {'heuristic':>10} {'tuned':>10}")
        for r in self.rows:
            note = ""
            if r.fallback_reason is not None:
                note = f"  (fallback: {r.fallback_reason})"
            lines.append(f"  {r.app:<16} {r.heuristic_speedup:>9.3f}x "
                         f"{r.tuned_speedup:>9.3f}x{note}")
        lines.append(f"  {'geomean':<16} {self.geomean_heuristic:>9.3f}x "
                     f"{self.geomean_tuned:>9.3f}x")
        lines.append(f"  tuned configs applied: {self.tuned_apps}/"
                     f"{len(self.rows)} applications "
                     "(fallbacks use the static heuristic; "
                     "run `repro tune --all` to search)")
        return "\n".join(lines)


def tuned_summary(runner: ExperimentRunner,
                  benches: List[Benchmark]) -> TunedSummary:
    """Compare the persisted-tuned pipeline against the static heuristic.

    Tuned files are read from the runner's ``tuned_dir``; apps without a
    usable one are reported with their fallback reason rather than
    skipped or crashed on.
    """
    from ..tune.store import load_tuned

    runner.prefetch(benches, configs=("baseline", "uu_heuristic", "tuned"))
    rows: List[TunedAppRow] = []
    for bench in benches:
        base = runner.baseline(bench)
        heur = runner.heuristic_cell(bench)
        tuned = runner.cell(bench, "tuned")
        _, reason = load_tuned(bench.name, runner.tuned_dir)
        rows.append(TunedAppRow(
            app=bench.name,
            heuristic_speedup=heur.speedup_over(base),
            tuned_speedup=tuned.speedup_over(base),
            fallback_reason=None if reason == "ok" else reason))
    return TunedSummary(
        rows=rows,
        geomean_heuristic=geomean([r.heuristic_speedup for r in rows]),
        geomean_tuned=geomean([r.tuned_speedup for r in rows]))


@dataclass
class TransferAppRow:
    """One application's heuristic / tuned / predicted comparison."""

    app: str
    heuristic_speedup: float
    tuned_speedup: float
    predicted_speedup: float
    #: Loops decided by neighbor transfer (vs heuristic fallback).
    transferred_loops: int
    total_loops: int
    #: True when the whole prediction fell back (empty/unusable index).
    fallback: bool


@dataclass
class TransferSummary:
    """Tuning-transfer scoreboard: predicted vs tuned vs heuristic.

    ``predicted`` is always leave-one-out — the prediction for an app
    never uses that app's own index entry — so its geomean is an honest
    estimate of transfer quality on unseen kernels.
    """

    rows: List[TransferAppRow]
    geomean_heuristic: float
    geomean_tuned: float
    geomean_predicted: float

    def format(self) -> str:
        lines = ["Tuning transfer (speedup over baseline; predicted is "
                 "leave-one-out):"]
        lines.append(f"  {'app':<16} {'heuristic':>10} {'tuned':>10} "
                     f"{'predicted':>10}  transfer")
        for r in self.rows:
            if r.fallback:
                note = "fallback"
            else:
                note = f"{r.transferred_loops}/{r.total_loops} loops"
            lines.append(f"  {r.app:<16} {r.heuristic_speedup:>9.3f}x "
                         f"{r.tuned_speedup:>9.3f}x "
                         f"{r.predicted_speedup:>9.3f}x  {note}")
        lines.append(f"  {'geomean':<16} {self.geomean_heuristic:>9.3f}x "
                     f"{self.geomean_tuned:>9.3f}x "
                     f"{self.geomean_predicted:>9.3f}x")
        return "\n".join(lines)


def transfer_summary(runner: ExperimentRunner,
                     benches: List[Benchmark]) -> TransferSummary:
    """Compare the predicted pipeline against tuned and the heuristic."""
    runner.prefetch(benches, configs=("baseline", "uu_heuristic", "tuned",
                                      "predicted"))
    rows: List[TransferAppRow] = []
    for bench in benches:
        base = runner.baseline(bench)
        heur = runner.heuristic_cell(bench)
        tuned = runner.cell(bench, "tuned")
        predicted = runner.cell(bench, "predicted")
        prediction = runner._predict(bench)
        transferred = sum(1 for lp in prediction.loops
                          if lp.source == "transfer")
        rows.append(TransferAppRow(
            app=bench.name,
            heuristic_speedup=heur.speedup_over(base),
            tuned_speedup=tuned.speedup_over(base),
            predicted_speedup=predicted.speedup_over(base),
            transferred_loops=transferred,
            total_loops=len(prediction.loops),
            fallback=prediction.fallback))
    return TransferSummary(
        rows=rows,
        geomean_heuristic=geomean([r.heuristic_speedup for r in rows]),
        geomean_tuned=geomean([r.tuned_speedup for r in rows]),
        geomean_predicted=geomean([r.predicted_speedup for r in rows]))


def format_profile(runner: ExperimentRunner) -> str:
    """Phase and per-pass timing breakdown of this runner's cells.

    Phase and pass statistics accumulate inside whichever process ran each
    cell; pool workers ship them home with every result and the runner
    merges them (``ExperimentRunner._absorb_extras``), so the breakdown is
    complete for ``--jobs N`` sweeps too — the times are then summed
    worker CPU seconds rather than wall clock, and are labelled as such.
    """
    if runner.jobs > 1:
        lines = [f"Harness profile (CPU seconds summed across {runner.jobs} "
                 "workers, this run's cells only):"]
    else:
        lines = ["Harness profile (wall-clock seconds, this run's cells "
                 "only):"]
    total = sum(runner.phase_seconds.values())
    for phase in ("compile", "simulate", "verify"):
        seconds = runner.phase_seconds[phase]
        share = 100.0 * seconds / total if total else 0.0
        lines.append(f"  {phase:<10} {seconds:>8.3f}s  {share:>5.1f}%")
    lines.append(f"  {'total':<10} {total:>8.3f}s")
    stats = runner.pass_stats
    if stats.times:
        lines.append("Per-pass compile time:")
        for name in sorted(stats.times, key=stats.times.get, reverse=True):
            lines.append(
                f"  {name:<24} {stats.times[name]:>8.3f}s  "
                f"{stats.runs.get(name, 0):>5} runs  "
                f"{stats.changes.get(name, 0):>5} changed")
    lines.extend(_format_category_cycles(runner))
    return "\n".join(lines)


def _format_category_cycles(runner: ExperimentRunner) -> List[str]:
    """Simulated-cycle breakdown by opcode category over this run's cells.

    Sourced from each cell's ``Counters.cat_cycles``, so interpreter (and
    kernel) hot spots — int vs fp vs memory vs control time — are visible
    without an external profiler.  Fetch stalls are charged by the icache
    model, not an opcode category, and are reported as their own row.
    """
    totals = [0.0] * N_CATEGORIES
    fetch = 0.0
    cells = 0
    for cell in runner._cache.values():
        if cell.error is not None or cell.timed_out:
            continue
        for i, value in enumerate(cell.counters.cat_cycles):
            totals[i] += value
        fetch += cell.counters.fetch_stall_cycles
        cells += 1
    grand = sum(totals) + fetch
    if cells == 0 or grand <= 0:
        return []
    lines = [f"Simulated cycles by opcode category ({cells} cells):"]
    rows = sorted(zip(CATEGORIES, totals), key=lambda r: r[1], reverse=True)
    for name, value in rows + [("fetch_stall", fetch)]:
        share = 100.0 * value / grand
        lines.append(f"  {name:<12} {value:>14.1f}  {share:>5.1f}%")
    lines.append(f"  {'total':<12} {grand:>14.1f}")
    return lines
