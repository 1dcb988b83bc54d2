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

The evaluation is a large Cartesian sweep — every discoverable loop x u in
{2,4,8} x five pipeline configurations x 16 applications — and
:class:`ExperimentRunner` is the one runner that measures it.  Two
constructor arguments say how, and neither changes a result:

* ``cache`` backs cells with the content-addressed persistent cache of
  :mod:`repro.harness.cache` (``None``, the default, keeps them in memory);
* ``jobs`` is how many processes :meth:`ExperimentRunner.prefetch` computes
  its misses on (``1``, the default, computes them in this process).

:meth:`ExperimentRunner.prefetch` materialises a cell set:

* all ``(app, config, loop_id, factor[, plan])`` cells are enumerated up
  front and deduplicated, so shared cells (every exhibit needs the
  baselines) are computed once;
* on the pool, cells are dispatched one-per-task, *costliest first* (u=8
  before u=4 before u=2, heuristic cells treated as u_max): long
  compilations start immediately instead of straggling at the tail;
* a crashing cell is isolated, in process and on the pool alike — the
  sweep records a failed :class:`Cell` (``error`` set, ``cycles == inf``)
  instead of dying;
* results are returned in deterministic enumeration order regardless of
  completion order, and are bit-identical (cycles, code size, counters)
  whatever ``jobs`` is, because workers run the very same
  ``ExperimentRunner._run``;
* what a worker observes travels with its task, not in the environment:
  each fan-out tells its workers how to build the runner and whether the
  parent has an obs session / a metrics registry installed (installing
  one *is* the switch).  :func:`_worker` resets both slots a fork
  inherits at task start and ships its telemetry home with the cell; the
  parent folds it in enumeration order, so ``-j1`` and ``-jN`` yield the
  same remark stream, metric registry and jit line — all but the
  hit/miss split of ``repro_compile_memo_total``, which counts each
  process's own memo (its sum is the same).

A runner compiles each function once per sweep: a cell with an explicit
plan recompiles only the functions the plan names and reuses the rest
from the runner's memo of baseline-compiled functions (see
:meth:`ExperimentRunner._compile`).  A pool worker keeps one runner, and
so one memo, for the life of its pool.

The CLI picks the worker count with :func:`resolve_jobs` (``--jobs/-j`` >
``REPRO_JOBS`` > ``os.cpu_count()``).
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
import os
import time
import traceback
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bench import benchmark_by_name
from ..bench.base import Benchmark
from ..directive import LoopDirective, fingerprint
from ..gpu.counters import Counters
from ..ir.function import Function
from ..ir.module import Module
from ..ir.printer import print_module
from ..obs import metrics as obs_metrics
from ..obs import session as obs
from ..obs.remarks import Remark
from ..transforms.heuristic import HeuristicParams
from ..transforms.pass_manager import COMPILE_TIMEOUT
from ..transforms.pipeline import (CONFIGS, PER_LOOP_CONFIGS,
                                   WHOLE_FUNCTION_CONFIGS, compile_module,
                                   config_plan)
from ..transforms.plan import directives_for
from ..transforms.unmerge import MAX_INSTRUCTIONS

if TYPE_CHECKING:
    from .cache import CellCache

UNROLL_FACTORS = (2, 4, 8)

#: Environment override for the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: The paper's five configurations: what a default sweep enumerates.
ALL_CONFIGS = CONFIGS[:5]


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """CLI value > ``REPRO_JOBS`` > ``os.cpu_count()``."""
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get(JOBS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


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
    #: Traceback text when the cell crashed instead of completing (sweeps
    #: isolate per-cell failures rather than dying).
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


@dataclass(frozen=True)
class CellSpec:
    """One enumerated sweep cell."""

    app: str
    config: str
    loop_id: Optional[str]
    factor: int
    #: An explicit plan to compile instead of what ``config`` resolves to;
    #: it travels to the worker as data and is part of the cell's identity
    #: (in memory and, by fingerprint, in the persistent cache).
    plan: Optional[Tuple[LoopDirective, ...]] = None

    @property
    def key(self) -> Tuple:
        return (self.app, self.config, self.loop_id, self.factor, self.plan)


def sweep_specs(bench: Benchmark,
                configs: Optional[Sequence[str]] = None,
                factors: Sequence[int] = UNROLL_FACTORS) -> List[CellSpec]:
    """Enumerate one application's cells for the requested configs.

    With the default arguments this is exactly the cell set of
    :meth:`ExperimentRunner.full_sweep` (everything Figures 6-8 and
    Table I need).  The baseline is always included: every other cell's
    differential check and every ratio needs it.
    """
    configs = tuple(configs) if configs is not None else ALL_CONFIGS
    specs = [CellSpec(bench.name, "baseline", None, 1)]
    loop_ids = None
    for config in configs:
        if config in PER_LOOP_CONFIGS:
            if loop_ids is None:
                loop_ids = bench.loop_ids()
            for loop_id in loop_ids:
                if config == "unmerge":
                    specs.append(CellSpec(bench.name, "unmerge", loop_id, 1))
                else:
                    for factor in factors:
                        specs.append(
                            CellSpec(bench.name, config, loop_id, factor))
        elif config in WHOLE_FUNCTION_CONFIGS:
            specs.append(CellSpec(bench.name, config, None, 1))
    return specs


#: What compiling one function emitted: its remarks (as JSON) and its
#: pass spans (trace events timed from the start of the compile).
_Record = Tuple[Tuple[Dict, ...], Tuple[Dict, ...]]


@dataclass(frozen=True)
class _Compiled:
    """One function as the baseline pipeline compiles it: a memo entry,
    shared read-only by every cell that reuses it."""

    function: Function
    #: Its pipeline seconds, measured when it was compiled.
    seconds: float
    #: What the compile emitted, for a reuse to re-emit; None when it ran
    #: with no obs session installed (such an entry serves no observed
    #: cell: it has nothing to re-emit).
    record: Optional[_Record]


def _replay(record: Optional[_Record], start: Optional[float] = None
            ) -> None:
    """Emit ``record`` into the installed session under its current
    context: its remarks, and its pass spans laid out from ``start``
    (the tracer's clock; None: now)."""
    session = obs.active()
    if session is None or record is None:
        return
    remarks, events = record
    for data in remarks:
        session.emit(Remark.from_json(data))
    tracer = session.tracer
    if start is None:
        start = tracer.now()
    for event in events:
        args = event.get("args")
        tracer.complete(event["name"], event["cat"],
                        start + event["ts"] / 1e6, event["dur"] / 1e6,
                        args=dict(args) if args else None)


def workload_fingerprint(bench: Benchmark) -> str:
    """Stable description of the benchmark's measured workload.

    The printed IR covers the kernels; this covers the launch geometry,
    workload seed, and observable buffers, so editing e.g. a grid size
    invalidates cached cells even though the kernels are unchanged.  (The
    contents of ``setup()`` buffers are derived from the seed; a change to
    the setup code itself warrants a ``SCHEMA_VERSION`` bump.)
    """
    return json.dumps({
        "name": bench.name,
        "seed": bench.seed,
        "launches": [[l.kernel, l.grid_dim, l.block_dim,
                      [list(a) if isinstance(a, tuple) else a
                       for a in l.args]]
                     for l in bench.launches()],
        "outputs": bench.output_buffers(),
    }, sort_keys=True)


class ExperimentRunner:
    """Measures, memoizes and (with a ``cache``) persists cells."""

    def __init__(self, heuristic: Optional[HeuristicParams] = None,
                 max_instructions: int = MAX_INSTRUCTIONS,
                 compile_timeout: Optional[float] = COMPILE_TIMEOUT,
                 verify_each: bool = False,
                 workload_scale: int = 1,
                 tuned_dir: Optional[Path] = None,
                 sim_index_dir: Optional[Path] = None, *,
                 jobs: int = 1,
                 cache: Optional[CellCache] = None) -> None:
        self.heuristic = heuristic or HeuristicParams()
        self.max_instructions = max_instructions
        self.compile_timeout = compile_timeout
        self.verify_each = verify_each
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
        #: Processes :meth:`prefetch` computes its misses on (1 = this one).
        self.jobs = jobs
        #: Persistent cell cache every lookup reads and every computed cell
        #: is written to (None = this runner's memory only).
        self.cache = cache
        #: Memoized per-app similarity predictions (prediction is pure
        #: given the module and the index, so one resolve serves every
        #: ``predicted`` cell of an app).
        self._predictions: Dict[str, object] = {}
        self._cache: Dict[Tuple, Cell] = {}
        self._baseline_outputs: Dict[str, Dict[str, np.ndarray]] = {}
        #: Outputs of the *unoptimized* module, the baseline anchor's
        #: reference (cached so the raw module is built and run only once).
        self._raw_outputs: Dict[str, Dict[str, np.ndarray]] = {}
        #: Per app: (printed baseline IR, workload fingerprint), the inputs
        #: of every cache key.
        self._fingerprints: Dict[str, Tuple[str, str]] = {}
        #: Functions compiled by the baseline pipeline, keyed by (printed
        #: baseline IR of the app, function name, max_instructions,
        #: verify_each): see :meth:`_compile`.
        self._functions: Dict[Tuple, _Compiled] = {}
        #: Cells this runner computed (in process or on the pool) instead
        #: of finding them in memory or in the persistent cache.
        self.computed = 0
        #: Wall-clock per phase across the cells computed in this process
        #: (a pool worker's cells are not counted here).
        self.phase_seconds: Dict[str, float] = {
            "compile": 0.0, "simulate": 0.0, "verify": 0.0}

    def settings(self) -> Dict[str, object]:
        """The constructor arguments, by name, that build a runner
        measuring exactly like this one (a pool worker's
        ``ExperimentRunner(**settings)``).  The signature above is the one
        list of them; each is kept under its own name.  The keyword-only
        ``jobs`` and ``cache`` say how cells are computed and kept, not
        what they measure, so a worker's runner is serial and cache-less.
        """
        params = list(inspect.signature(
            ExperimentRunner.__init__).parameters.values())[1:]
        return {p.name: getattr(self, p.name) for p in params
                if p.kind is not p.KEYWORD_ONLY}

    # -- cells -----------------------------------------------------------
    def cell(self, bench: Benchmark, config: str,
             loop_id: Optional[str] = None, factor: int = 1,
             plan: Optional[Tuple[LoopDirective, ...]] = None) -> Cell:
        """One cell — from memory, from the persistent cache, or measured
        here; ``plan`` overrides what ``config`` resolves to (the
        autotuner races decision sets it has not persisted)."""
        spec = CellSpec(bench.name, config, loop_id, factor, plan)
        cell = self._cache.get(spec.key)
        if cell is None:
            cell, cache_key = self._recall(bench, spec)
            if cell is None:
                cell = self._compute(bench, spec, cache_key)
        return cell

    def baseline(self, bench: Benchmark) -> Cell:
        return self.cell(bench, "baseline")

    def heuristic_cell(self, bench: Benchmark) -> Cell:
        return self.cell(bench, "uu_heuristic")

    def tuned_cell(self, bench: Benchmark) -> Cell:
        return self.cell(bench, "tuned")

    def _compute(self, bench: Benchmark, spec: CellSpec,
                 cache_key: Optional[str]) -> Cell:
        """Measure ``spec`` in this process, keep it, write it through."""
        self.computed += 1
        cell = self._run(bench, spec.config, spec.loop_id, spec.factor,
                         spec.plan)
        self._cache[spec.key] = cell
        self._store(bench, cell, cache_key)
        return cell

    # -- persistent cache ------------------------------------------------
    def _fingerprint(self, bench: Benchmark,
                     module: Optional[Module] = None) -> Tuple[str, str]:
        """(printed baseline IR, workload fingerprint), computed once;
        ``module``, when given, is a fresh uncompiled build to print."""
        cached = self._fingerprints.get(bench.name)
        if cached is None:
            if module is None:
                module = bench.build_module()
            cached = (print_module(module), workload_fingerprint(bench))
            self._fingerprints[bench.name] = cached
        return cached

    def _cache_key(self, bench: Benchmark, spec: CellSpec) -> str:
        ir, workload = self._fingerprint(bench)
        tuned = None
        # A cell compiled from stored or explicit decisions keys on the
        # resolved plan, so editing/deleting/staling
        # results/tuned/<app>.json — or any index growth, schema bump or
        # k/threshold change that alters a prediction — orphans the old
        # cells.  (Per-loop and heuristic cells are determined by the
        # fields below and keep their historical keys.)
        if spec.plan is not None:
            tuned = fingerprint(spec.plan)
        elif spec.config in ("tuned", "predicted"):
            tuned = fingerprint(
                self.resolve_plan(bench, spec.config, emit=False))
        return self.cache.make_key(
            ir, workload, spec.config, spec.loop_id, spec.factor,
            self.heuristic, self.max_instructions, self.compile_timeout,
            self.verify_each, scale=self.workload_scale, tuned=tuned)

    def _recall(self, bench: Benchmark, spec: CellSpec
                ) -> Tuple[Optional[Cell], Optional[str]]:
        """``spec``'s cell from the persistent cache (resident once read)
        and its key there; ``(None, None)`` for a runner without one."""
        if self.cache is None:
            return None, None
        cache_key = self._cache_key(bench, spec)
        entry = self.cache.get(cache_key)
        if entry is None:
            return None, cache_key
        cell, outputs = entry
        if outputs is not None and bench.name not in self._baseline_outputs:
            self._baseline_outputs[bench.name] = outputs
        self._cache[spec.key] = cell
        return cell, cache_key

    def _store(self, bench: Benchmark, cell: Cell,
               cache_key: Optional[str]) -> None:
        if cache_key is None or cell.error is not None:
            return
        outputs = (self._baseline_outputs.get(bench.name)
                   if cell.config == "baseline" else None)
        self.cache.put(cache_key, cell, outputs)

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
                raw_outputs, _ = bench.run(module,
                                           scale=self.workload_scale)
            self.phase_seconds["simulate"] += time.perf_counter() - start
            self._raw_outputs[bench.name] = raw_outputs
        if plan is None:
            plan = self.resolve_plan(bench, config, loop_id, factor)
        with obs.span("compile"):
            seconds, decisions, timed_out = self._compile(
                bench, module, config, plan)
        if timed_out:
            # The paper excluded compile-timeout points from its figures;
            # we do not simulate them either.
            return Cell(app=bench.name, config=config, loop_id=loop_id,
                        factor=factor, cycles=float("inf"),
                        code_size=module.code_size(),
                        compile_seconds=seconds,
                        counters=Counters(), outputs_match_baseline=True,
                        heuristic_decisions=decisions, timed_out=True)
        start = time.perf_counter()
        with obs.span("simulate"):
            outputs, counters = bench.run(module,
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
            code_size=module.code_size(),
            compile_seconds=seconds,
            counters=counters,
            outputs_match_baseline=matches,
            heuristic_decisions=decisions,
        )

    def _compile(self, bench: Benchmark, module: Module, config: str,
                 plan) -> Tuple[float, list, bool]:
        """Compile a fresh build ``module`` of ``bench`` for one cell:
        (its compile seconds, the plan's decision rows, timed out).

        A plan the heuristic resolves at pass time (``None``) compiles
        every function.  An explicit plan runs the whole pipeline only on
        the functions its directives name.  On any other function the
        transform stage returns before any analysis, so the function
        compiles to what the baseline pipeline makes of it: it comes from
        this runner's memo of such functions, compiled and stored there on
        a miss.  The cell's seconds sum its functions' pipeline seconds, a
        reused one's as measured when it was compiled, so Figure 6c still
        divides whole-configuration times; the compile budget of each
        function is what the ones before it left.  ``phase_seconds``
        counts only the time spent here.
        """
        options = dict(heuristic=self.heuristic,
                       max_instructions=self.max_instructions,
                       verify_each=self.verify_each)
        if plan is None:
            compiled = compile_module(module, config,
                                      timeout_seconds=self.compile_timeout,
                                      **options)
            self.phase_seconds["compile"] += compiled.compile_seconds
            return (compiled.compile_seconds, compiled.heuristic_decisions,
                    compiled.timed_out)
        ir = self._fingerprint(bench, module)[0]
        seconds, decisions, timed_out = 0.0, [], False
        for name in list(module.functions):
            budget = (None if self.compile_timeout is None
                      else self.compile_timeout - seconds)
            if directives_for(plan, name):
                compiled = compile_module(module, config, plan=plan,
                                          functions=(name,),
                                          timeout_seconds=budget, **options)
                decisions += compiled.heuristic_decisions
                took = compiled.function_seconds[name]
                spent, timed_out = compiled.compile_seconds, compiled.timed_out
            else:
                took, spent, timed_out = self._reuse(
                    module, name, (ir, name, self.max_instructions,
                                   self.verify_each), budget, options)
            seconds += took
            self.phase_seconds["compile"] += spent
            if timed_out:
                break
        return seconds, decisions, timed_out

    def _reuse(self, module: Module, name: str, key: Tuple,
               budget: Optional[float], options) -> Tuple[float, float, bool]:
        """Put function ``name`` of ``module`` as the baseline pipeline
        compiles it in place: from the memo under ``key``, or compiled now
        and stored unless it timed out.  Returns (its pipeline seconds,
        the seconds spent now, timed out).

        Either way its remarks and pass spans reach the installed obs
        session, so the stream is the same whichever cells reuse.
        """
        entry = self._functions.get(key)
        session = obs.active()
        if entry is not None and (session is None
                                  or entry.record is not None):
            obs_metrics.inc("repro_compile_memo_total", result="hit")
            _replay(entry.record)
            module.functions[name] = entry.function
            return entry.seconds, 0.0, False
        obs_metrics.inc("repro_compile_memo_total", result="miss")
        start = session.tracer.now() if session is not None else None
        with (obs.capture() if session is not None
              else contextlib.nullcontext()) as scratch:
            compiled = compile_module(module, "baseline", functions=(name,),
                                      timeout_seconds=budget, **options)
        record = None
        if scratch is not None:
            record = (tuple(r.to_json() for r in scratch.remarks),
                      tuple(scratch.tracer.events))
            _replay(record, start)
        took = compiled.function_seconds[name]
        if not compiled.timed_out:
            function = module.functions[name]
            # The entry is the function alone: it must not keep this
            # cell's module (and its transformed functions) alive.
            function.parent = None
            self._functions[key] = _Compiled(function, took, record)
        return took, compiled.compile_seconds, compiled.timed_out

    # -- sweeps -----------------------------------------------------------
    def prefetch(self, benches: Sequence[Benchmark],
                 configs: Optional[Sequence[str]] = None,
                 factors: Sequence[int] = UNROLL_FACTORS,
                 specs: Optional[Sequence[CellSpec]] = None) -> List[Cell]:
        """Materialise a cell set, deterministically ordered.

        Every cell not already in memory is looked up in the persistent
        cache first; the misses are then computed in this process
        (``jobs == 1``) or on a pool of ``jobs`` processes, a crashing
        cell isolated either way.  Returns cells in enumeration order;
        afterwards every enumerated cell is resident in memory, so
        :meth:`cell` (and every figure/table generator) hits without
        recomputation.
        """
        benches = list(benches)
        by_name = {b.name: b for b in benches}
        if specs is None:
            specs = [s for b in benches
                     for s in sweep_specs(b, configs, factors)]
        # Deduplicate while preserving enumeration order.
        specs = list(dict.fromkeys(specs))

        missing: List[Tuple[CellSpec, Optional[str]]] = []
        for spec in specs:
            if spec.key in self._cache:
                continue
            bench = by_name.get(spec.app)
            cell, cache_key = (self._recall(bench, spec) if bench is not None
                               else (None, None))
            if cell is None:
                missing.append((spec, cache_key))

        if missing:
            # One count, no serial/pool label: the -j1 and -jN registries
            # must fold byte-identically for the same cell set.
            obs_metrics.inc("repro_sweep_cells_total", len(missing))
            if self.jobs <= 1:
                for spec, cache_key in missing:
                    try:
                        bench = by_name.get(spec.app)
                        if bench is None:
                            bench = benchmark_by_name(spec.app)
                        self._compute(bench, spec, cache_key)
                    except Exception:
                        obs_metrics.inc("repro_sweep_worker_failures_total")
                        self._cache[spec.key] = _failed_cell(
                            spec, traceback.format_exc())
            else:
                self._compute_parallel(missing, by_name)
        return [self._cache[spec.key] for spec in specs]

    def full_sweep(self, bench: Benchmark) -> Dict[str, List[Cell]]:
        """Everything Figures 6-8 need for one application, by config."""
        sweep: Dict[str, List[Cell]] = {}
        for cell in self.prefetch([bench]):
            sweep.setdefault(cell.config, []).append(cell)
        return sweep

    # -- the pool ---------------------------------------------------------
    def _compute_parallel(self, missing, by_name) -> None:
        task = _Task(trace=obs.active() is not None,
                     metrics=obs_metrics.active() is not None)
        baseline_specs = [(s, k) for s, k in missing
                          if s.config == "baseline"]
        other_specs = [(s, k) for s, k in missing if s.config != "baseline"]
        # Apps whose reference outputs stage-2 workers will need.
        needed_apps = list(dict.fromkeys(
            [s.app for s, _ in baseline_specs] +
            [s.app for s, _ in other_specs
             if s.app not in self._baseline_outputs]))
        failed_baselines: Dict[str, str] = {}

        # Telemetry and persistent-cache writes are buffered per spec and
        # folded in *enumeration* order after the pool drains: futures
        # complete in nondeterministic order, and neither the merged
        # remark stream (tests/test_obs.py pins jobs=1 vs jobs=N streams
        # equal) nor the cache's LRU recency order (which decides what an
        # LRU-bounded cache evicts) may depend on pool scheduling.
        telemetry: Dict[CellSpec, Dict] = {}
        computed: Dict[CellSpec, Cell] = {}

        with ProcessPoolExecutor(max_workers=self.jobs,
                                 initializer=_start_worker,
                                 initargs=(self.settings(),)) as pool:
            # Stage 1: baselines (reference outputs feed every other cell).
            futures = {}
            for app in needed_apps:
                spec = CellSpec(app, "baseline", None, 1)
                futures[pool.submit(_worker, spec, task)] = spec
            self.computed += len(futures)
            for future, spec in futures.items():
                status, payload, outputs, shipped = future.result()
                if status == "err":
                    obs_metrics.inc("repro_sweep_worker_failures_total")
                    failed_baselines[spec.app] = payload
                    continue
                if outputs is not None:
                    self._baseline_outputs[spec.app] = outputs
                self._cache[spec.key] = payload
                computed[spec] = payload
                telemetry[spec] = shipped

            for spec, cache_key in baseline_specs:
                if spec.app in failed_baselines:
                    self._cache[spec.key] = _failed_cell(
                        spec, failed_baselines[spec.app])

            # Stage 2: everything else, costliest first so u=8 and
            # heuristic compilations never straggle at the tail.
            u_max = self.heuristic.u_max
            ordered = sorted(other_specs,
                             key=lambda item: _spec_cost(item[0], u_max),
                             reverse=True)
            futures = {}
            for spec, cache_key in ordered:
                if spec.app in failed_baselines:
                    self._cache[spec.key] = _failed_cell(
                        spec, "baseline failed:\n" +
                        failed_baselines[spec.app])
                    continue
                reference = self._baseline_outputs.get(spec.app)
                futures[pool.submit(_worker, spec, task, reference)] = spec
            self.computed += len(futures)
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    spec = futures[future]
                    status, payload, _, shipped = future.result()
                    if status == "err":
                        obs_metrics.inc("repro_sweep_worker_failures_total")
                        self._cache[spec.key] = _failed_cell(spec, payload)
                    else:
                        self._cache[spec.key] = payload
                        computed[spec] = payload
                        telemetry[spec] = shipped

        # Deterministic fold: the enumerated order of ``missing`` (what the
        # serial path would have computed in), then any stage-1 baselines
        # that were computed only for their reference outputs.  Persisting
        # here rather than at completion time makes the cache's put order
        # — and with it LRU eviction under a bytes cap — independent of
        # worker scheduling.
        for spec, cache_key in missing:
            cell = computed.get(spec)
            if cell is not None:
                self._persist(spec, cell, cache_key, by_name)
            shipped = telemetry.pop(spec, None)
            if shipped:
                obs.absorb(shipped)
        in_missing = {spec for spec, _ in missing}
        for app in needed_apps:
            spec = CellSpec(app, "baseline", None, 1)
            cell = computed.get(spec)
            if cell is not None and spec not in in_missing:
                self._persist(spec, cell, None, by_name)
            shipped = telemetry.pop(spec, None)
            if shipped:
                obs.absorb(shipped)

    def _persist(self, spec: CellSpec, cell: Cell,
                 cache_key: Optional[str], by_name) -> None:
        """Write one pool-computed cell through to the persistent cache."""
        if self.cache is None:
            return
        bench = by_name.get(spec.app)
        if bench is None:
            try:
                bench = benchmark_by_name(spec.app)
            except KeyError:
                return
        if cache_key is None:
            cache_key = self._cache_key(bench, spec)
        self._store(bench, cell, cache_key)


def _spec_cost(spec: CellSpec, u_max: int) -> int:
    """Relative cost estimate used to schedule long cells first."""
    if spec.config in WHOLE_FUNCTION_CONFIGS:
        return u_max + 1
    if spec.config == "baseline":
        return 1
    return spec.factor


def _failed_cell(spec: CellSpec, message: str) -> Cell:
    return Cell(app=spec.app, config=spec.config, loop_id=spec.loop_id,
                factor=spec.factor, cycles=float("inf"), code_size=0,
                compile_seconds=0.0, counters=Counters(),
                outputs_match_baseline=False, error=message)


# -- worker side -------------------------------------------------------------
# Workers rebuild the benchmark from the registry by name and run the very
# same ``ExperimentRunner._run``; everything crossing the process boundary
# (names, settings, Cell, numpy outputs) pickles cleanly.

#: This worker process's runner, built when the pool starts it
#: (:func:`_start_worker`) and kept for the pool's life, so its memo of
#: compiled functions serves every cell the process computes.
_pool_runner: Optional[ExperimentRunner] = None


def _start_worker(settings: Dict[str, object]) -> None:
    """Pool initializer: ``ExperimentRunner(**settings)``
    (:meth:`ExperimentRunner.settings`) becomes this process's runner."""
    global _pool_runner
    _pool_runner = ExperimentRunner(**settings)


@dataclass(frozen=True)
class _Task:
    """What one fan-out tells every worker to collect.  Built once per
    fan-out from the parent's own state — a worker consults neither the
    environment nor what it inherited."""

    #: The parent has an obs session installed: ship remarks/spans/profile.
    trace: bool
    #: The parent has a metrics registry installed: ship a snapshot.
    metrics: bool


def _worker(spec: CellSpec, task: _Task,
            reference: Optional[Dict[str, np.ndarray]] = None):
    """Compute one cell; a baseline also returns its reference outputs.

    The one place a pool worker's lifecycle lives.  It begins by resetting
    both holders a fork()ed child inherits from the parent — the obs
    session and the metrics registry — because shipping an inherited
    holder home would re-count everything the parent had already
    collected; it ends with :func:`repro.obs.session.end_worker`, whose
    payload — the worker's remarks/trace/profile and its metric-registry
    snapshot, the jit's counts among them — travels home with the cell.
    """
    obs.begin_worker(task.trace, task.metrics)
    try:
        bench = benchmark_by_name(spec.app)
        runner = _pool_runner
        if reference is not None:
            runner._baseline_outputs[spec.app] = reference
        cell = runner._run(bench, spec.config, spec.loop_id, spec.factor,
                           spec.plan)
        outputs = (runner._baseline_outputs.get(spec.app)
                   if spec.config == "baseline" else None)
        return ("ok", cell, outputs, obs.end_worker())
    except Exception:
        return ("err", traceback.format_exc(), None, None)
