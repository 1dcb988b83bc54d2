"""Experiment runner: the measurement methodology of the paper's Section IV-B.

One *cell* = (application, configuration, loop, unroll factor).  For each
cell the runner compiles the benchmark module under that pipeline, executes
the workload on the SIMT machine, differentially checks outputs against the
baseline (transforms must be semantics-preserving), and records kernel
cycles, code size (the end product of compilation, like the paper's binary
sizes), and wall-clock compile time.

Per the paper, the per-loop configs apply the transform to *one loop at a
time*; the heuristic config transforms whatever the heuristic selects.
Simulated kernel cycles are deterministic; the 20-run mean +- RSD of
Table I comes from the seeded noise model in :mod:`repro.harness.stats`.
"""

from __future__ import annotations

import inspect
import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..bench.base import Benchmark
from ..directive import LoopDirective
from ..gpu.counters import Counters
from ..obs import session as obs
from ..transforms.heuristic import HeuristicParams
from ..transforms.pass_manager import COMPILE_TIMEOUT, PassStatistics
from ..transforms.pipeline import CompileResult, compile_module, config_plan
from ..transforms.unmerge import MAX_INSTRUCTIONS

UNROLL_FACTORS = (2, 4, 8)


@dataclass
class Cell:
    """Result of one measured configuration."""

    app: str
    config: str
    loop_id: Optional[str]
    factor: int
    cycles: float
    code_size: int
    compile_seconds: float
    counters: Counters
    outputs_match_baseline: bool
    heuristic_decisions: list = field(default_factory=list)
    #: Compilation hit its time budget (paper: ccs compile timeouts).
    #: Timed-out cells are excluded from the figures, as in the paper.
    timed_out: bool = False
    #: Traceback text when the cell crashed instead of completing (parallel
    #: sweeps isolate per-cell failures rather than killing the sweep).
    error: Optional[str] = None

    def speedup_over(self, baseline: "Cell") -> float:
        # Timed-out cells were never simulated (cycles == inf): they must
        # not report a meaningful speedup regardless of what their cycles
        # field holds, matching the paper's exclusion of timeout points.
        if self.timed_out or baseline.timed_out:
            return 0.0
        if self.cycles <= 0 or not math.isfinite(self.cycles):
            return 0.0
        return baseline.cycles / self.cycles

    def size_ratio_over(self, baseline: "Cell") -> float:
        if baseline.code_size <= 0:
            return 1.0
        return self.code_size / baseline.code_size

    def compile_ratio_over(self, baseline: "Cell") -> float:
        if baseline.compile_seconds <= 0:
            return 1.0
        return self.compile_seconds / baseline.compile_seconds


class ExperimentRunner:
    """Runs and caches experiment cells for one or more benchmarks."""

    def __init__(self, heuristic: Optional[HeuristicParams] = None,
                 max_instructions: int = MAX_INSTRUCTIONS,
                 compile_timeout: Optional[float] = COMPILE_TIMEOUT,
                 verify_each: bool = False,
                 engine: Optional[str] = None,
                 workload_scale: int = 1,
                 tuned_dir: Optional[Path] = None,
                 sim_index_dir: Optional[Path] = None) -> None:
        self.heuristic = heuristic or HeuristicParams()
        self.max_instructions = max_instructions
        self.compile_timeout = compile_timeout
        self.verify_each = verify_each
        #: Execution engine for every simulation this runner performs.
        #: Engines are bit-identical (cycles, counters, outputs), so the
        #: choice never affects results — only sweep wall-clock — and the
        #: persistent cell cache deliberately does not key on it.
        self.engine = engine
        #: ``> 1`` shrinks every launch geometry (autotuner screening
        #: rounds); scaled cells are internally consistent — baseline and
        #: candidates run the same reduced workload.
        self.workload_scale = workload_scale
        #: Where ``config == "tuned"`` resolves its per-loop decisions
        #: (None = the repo-level ``results/tuned`` directory).
        self.tuned_dir = tuned_dir
        #: Where ``config == "predicted"`` reads the similarity index
        #: (None = the repo-level ``results/.simindex`` directory).
        self.sim_index_dir = sim_index_dir
        #: Memoized per-app similarity predictions (prediction is pure
        #: given the module and the index, so one resolve serves every
        #: ``predicted`` cell of an app).
        self._predictions: Dict[str, object] = {}
        self._cache: Dict[Tuple, Cell] = {}
        self._baseline_outputs: Dict[str, Dict[str, np.ndarray]] = {}
        #: Outputs of the *unoptimized* module, the baseline anchor's
        #: reference (cached so the raw module is built and run only once).
        self._raw_outputs: Dict[str, Dict[str, np.ndarray]] = {}
        #: Wall-clock per phase across every cell this runner computed
        #: (``python -m repro summary --profile`` reports these).
        self.phase_seconds: Dict[str, float] = {
            "compile": 0.0, "simulate": 0.0, "verify": 0.0}
        #: Per-pass compile-time statistics aggregated over all cells.
        self.pass_stats = PassStatistics()

    def settings(self) -> Dict[str, object]:
        """The constructor arguments, by name, that build a runner
        measuring exactly like this one (a pool worker's
        ``ExperimentRunner(**settings)``).  The signature above is the one
        list of them; each is kept under its own name."""
        names = list(inspect.signature(ExperimentRunner.__init__).parameters)
        return {name: getattr(self, name) for name in names[1:]}

    # -- cells -----------------------------------------------------------
    def cell(self, bench: Benchmark, config: str,
             loop_id: Optional[str] = None, factor: int = 1,
             plan: Optional[Tuple[LoopDirective, ...]] = None) -> Cell:
        """One measured cell; ``plan`` overrides what ``config`` resolves
        to (the autotuner races decision sets it has not persisted)."""
        key = (bench.name, config, loop_id, factor, plan)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        result = self._run(bench, config, loop_id, factor, plan)
        self._cache[key] = result
        return result

    def baseline(self, bench: Benchmark) -> Cell:
        return self.cell(bench, "baseline")

    def heuristic_cell(self, bench: Benchmark) -> Cell:
        return self.cell(bench, "uu_heuristic")

    def tuned_cell(self, bench: Benchmark) -> Cell:
        return self.cell(bench, "tuned")

    # -- config -> plan --------------------------------------------------
    def resolve_plan(self, subject, config: str,
                     loop_id: Optional[str] = None, factor: int = 1, *,
                     emit: bool = True) -> Optional[List[LoopDirective]]:
        """The plan ``config`` compiles ``subject`` with — the one resolver.

        ``subject`` is a benchmark or a bare module (the service's
        ``ir``/``kernel`` submissions): ``tuned`` looks a benchmark up in
        the tuned directory (tuned files are per registered app; a bare
        module's name is client data and never a path), ``predicted``
        votes its loops against the similarity index, anything else is
        ``config_plan``.  A caller already holding an explicit plan has
        nothing to resolve and does not call this.  ``None`` means the
        heuristic decides at pass time — for ``tuned``/``predicted`` the
        graceful fallback, announced here (``RuntimeWarning`` + typed
        ``missed`` remark) unless ``emit`` is off.  Cache-key
        fingerprinting resolves silently and the measurement path aloud,
        so ``-j1`` and ``-jN`` sweeps emit once, in the worker that
        compiles the cell.
        """
        if config == "tuned":
            # Lazy import: tune.store is stdlib-light but lives above the
            # harness in the package layering.
            from ..tune.store import resolve_decisions

            plan, why = (resolve_decisions(subject.name, self.tuned_dir)
                         if isinstance(subject, Benchmark)
                         else (None, "not a registered app"))
            if plan is None and emit:
                warnings.warn(
                    f"{subject.name}: no usable tuned config ({why}); "
                    "falling back to the static heuristic",
                    RuntimeWarning, stacklevel=2)
                # The fallback is a lost optimization opportunity, stamped
                # with the staleness reason so remark consumers can tell a
                # never-tuned app from a schema/timing-staled one.
                obs.remark("missed", "tuned-uu", subject.name,
                           f"tuned config unusable ({why}); heuristic "
                           "fallback", reason=why)
            return plan
        if config == "predicted":
            from ..similarity.predict import emit_prediction_telemetry

            prediction = self._predict(subject)
            if emit:
                emit_prediction_telemetry(prediction)
                if prediction.fallback:
                    warnings.warn(
                        f"{subject.name}: no usable similarity-index "
                        "evidence; falling back to the static heuristic",
                        RuntimeWarning, stacklevel=2)
            return None if prediction.fallback else list(prediction.decisions)
        return config_plan(config, loop_id, factor)

    def _predict(self, subject):
        """Similarity prediction for ``subject`` (no telemetry).

        Memoized per registered benchmark: prediction is pure given the
        module and the index, and both the cache-key fingerprint and the
        measurement path resolve it, so one vote serves both and keeps
        them trivially consistent.  A bare module has no identity to memo
        under and is voted afresh.
        """
        from ..similarity.index import SimilarityIndex
        from ..similarity.predict import predict_bench, predict_module

        memo = isinstance(subject, Benchmark)
        if memo and subject.name in self._predictions:
            return self._predictions[subject.name]
        index = SimilarityIndex(
            Path(self.sim_index_dir) if self.sim_index_dir else None)
        if not memo:
            return predict_module(subject, index.load_entries())
        prediction = predict_bench(subject, index, emit=False)
        self._predictions[subject.name] = prediction
        return prediction

    def _run(self, bench: Benchmark, config: str, loop_id: Optional[str],
             factor: int,
             plan: Optional[Tuple[LoopDirective, ...]] = None) -> Cell:
        # Remarks emitted while this cell compiles/runs carry its sweep
        # coordinates; the cell itself becomes one trace span wrapping the
        # per-pass and per-phase spans recorded underneath.
        label = f"{bench.name}/{config}"
        if loop_id is not None:
            label += f"/{loop_id}x{factor}"
        with obs.context(app=bench.name, config=config, sweep_loop=loop_id,
                         sweep_factor=factor if loop_id else None), \
                obs.span(label, cat="cell"):
            return self._measure(bench, config, loop_id, factor, plan)

    def _measure(self, bench: Benchmark, config: str, loop_id: Optional[str],
                 factor: int, plan) -> Cell:
        # One build serves both the anchor reference and the compiled cell:
        # the pipeline optimizes the module in place, so the unoptimized
        # reference run must happen first (its outputs are cached — later
        # baseline recomputations skip it entirely).
        module = bench.build_module()
        if config == "baseline" and bench.name not in self._raw_outputs:
            start = time.perf_counter()
            with obs.span("simulate-raw"):
                raw_outputs, _ = bench.run(module, engine=self.engine,
                                           scale=self.workload_scale)
            self.phase_seconds["simulate"] += time.perf_counter() - start
            self._raw_outputs[bench.name] = raw_outputs
        if plan is None:
            plan = self.resolve_plan(bench, config, loop_id, factor)
        with obs.span("compile"):
            compiled: CompileResult = compile_module(
                module, config, heuristic=self.heuristic,
                max_instructions=self.max_instructions,
                timeout_seconds=self.compile_timeout,
                verify_each=self.verify_each, plan=plan)
        self.phase_seconds["compile"] += compiled.compile_seconds
        self.pass_stats.merge(compiled.pass_stats)
        if compiled.timed_out:
            # The paper excluded compile-timeout points from its figures;
            # we do not simulate them either.
            return Cell(app=bench.name, config=config, loop_id=loop_id,
                        factor=factor, cycles=float("inf"),
                        code_size=compiled.code_size,
                        compile_seconds=compiled.compile_seconds,
                        counters=Counters(), outputs_match_baseline=True,
                        heuristic_decisions=compiled.heuristic_decisions,
                        timed_out=True)
        start = time.perf_counter()
        with obs.span("simulate"):
            outputs, counters = bench.run(module, engine=self.engine,
                                          scale=self.workload_scale)
        self.phase_seconds["simulate"] += time.perf_counter() - start

        start = time.perf_counter()
        matches = True
        if config == "baseline":
            # Anchor correctness: the baseline pipeline itself must agree
            # with the unoptimized module's behaviour.
            raw_outputs = self._raw_outputs[bench.name]
            matches = all(np.array_equal(outputs[name], raw_outputs[name])
                          for name in outputs)
            self._baseline_outputs[bench.name] = outputs
        else:
            reference = self._baseline_outputs.get(bench.name)
            if reference is None:
                self.baseline(bench)
                reference = self._baseline_outputs[bench.name]
            matches = all(
                np.array_equal(outputs[name], reference[name])
                for name in outputs)
        self.phase_seconds["verify"] += time.perf_counter() - start

        return Cell(
            app=bench.name,
            config=config,
            loop_id=loop_id,
            factor=factor,
            cycles=counters.cycles,
            code_size=compiled.code_size,
            compile_seconds=compiled.compile_seconds,
            counters=counters,
            outputs_match_baseline=matches,
            heuristic_decisions=compiled.heuristic_decisions,
        )

    # -- sweeps -----------------------------------------------------------
    def per_loop_cells(self, bench: Benchmark, config: str,
                       factors: Tuple[int, ...] = UNROLL_FACTORS
                       ) -> List[Cell]:
        """The paper's one-loop-at-a-time sweep for one config."""
        cells = []
        for loop_id in bench.loop_ids():
            if config == "unmerge":
                cells.append(self.cell(bench, "unmerge", loop_id, 1))
            else:
                for factor in factors:
                    cells.append(self.cell(bench, config, loop_id, factor))
        return cells

    def full_sweep(self, bench: Benchmark) -> Dict[str, List[Cell]]:
        """Everything Figures 6-8 need for one application."""
        return {
            "baseline": [self.baseline(bench)],
            "uu": self.per_loop_cells(bench, "uu"),
            "unroll": self.per_loop_cells(bench, "unroll"),
            "unmerge": self.per_loop_cells(bench, "unmerge"),
            "uu_heuristic": [self.heuristic_cell(bench)],
        }
