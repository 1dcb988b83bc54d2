"""Parallel, persistently-cached sweep engine.

The paper's evaluation is a large Cartesian sweep — every discoverable loop
x u in {2,4,8} x five pipeline configurations x 16 applications.  The
serial :class:`~repro.harness.experiment.ExperimentRunner` walks that space
one cell at a time; this module fans the same cells out over a process
pool and backs them with the content-addressed persistent cache of
:mod:`repro.harness.cache`:

* all ``(app, config, loop_id, factor[, plan])`` cells are enumerated up
  front and deduplicated, so shared cells (every exhibit needs the
  baselines) are computed once;
* cells are dispatched one-per-task, *costliest first* (u=8 before u=4
  before u=2, heuristic cells treated as u_max): long compilations start
  immediately instead of straggling at the tail of the sweep;
* a crashing cell is isolated — the worker returns the traceback and the
  sweep records a failed :class:`Cell` (``error`` set, ``cycles == inf``)
  instead of dying;
* results are returned in deterministic enumeration order regardless of
  completion order, and are bit-identical (cycles, code size, counters) to
  the serial runner's, because workers run the very same
  ``ExperimentRunner._run``;
* what a worker observes travels with its task, not in the environment:
  each fan-out tells its workers how to build the runner and whether the
  parent has an obs session / a metrics registry installed (installing
  one *is* the switch).  :func:`_worker` resets every holder a fork
  inherits at task start and ships its telemetry home with the cell; the
  parent folds it in enumeration order, so ``-j1`` and ``-jN`` yield the
  same remark stream, pass statistics, metric registry and jit line.

Worker count defaults to ``os.cpu_count()``, overridable with the
``REPRO_JOBS`` environment variable or ``--jobs/-j`` on the CLI.
"""

from __future__ import annotations

import json
import os
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bench import benchmark_by_name
from ..bench.base import Benchmark
from ..directive import LoopDirective, fingerprint
from ..gpu import region_cache
from ..ir.printer import print_module
from ..obs import metrics as obs_metrics
from ..obs import session as obs
from ..transforms.pipeline import (CONFIGS, PER_LOOP_CONFIGS,
                                   WHOLE_FUNCTION_CONFIGS)
from .cache import CellCache
from .experiment import UNROLL_FACTORS, Cell, ExperimentRunner

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
    ``ExperimentRunner.full_sweep`` (everything Figures 6-8 and Table I
    need).  The baseline is always included: every other cell's
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


def _spec_cost(spec: CellSpec, u_max: int) -> int:
    """Relative cost estimate used to schedule long cells first."""
    if spec.config in WHOLE_FUNCTION_CONFIGS:
        return u_max + 1
    if spec.config == "baseline":
        return 1
    return spec.factor


# -- worker side -------------------------------------------------------------
# Workers rebuild the benchmark from the registry by name and run the very
# same serial ``ExperimentRunner._run``; everything crossing the process
# boundary (names, settings, Cell, numpy outputs) pickles cleanly.

@dataclass(frozen=True)
class _Task:
    """What one fan-out tells every worker: how to build the runner, and
    what to collect.  Built once per fan-out from the parent's own state —
    a worker consults neither the environment nor what it inherited."""

    #: ``ExperimentRunner(**settings)`` (:meth:`ExperimentRunner.settings`).
    settings: Dict[str, object]
    #: The parent has an obs session installed: ship remarks/spans/profile.
    trace: bool
    #: The parent has a metrics registry installed: ship a snapshot.
    metrics: bool


def _worker_extras(runner: ExperimentRunner) -> Dict:
    """Telemetry a worker ships home alongside its cell.

    ``pass_stats``/``phase_seconds`` let a parallel ``summary --profile``
    report the same merged per-pass breakdown the serial runner shows;
    ``obs`` carries the worker's remark/trace/profile payload (None when
    the task did not ask for it); ``region_cache`` ships the worker's jit
    session counters (snapshot-and-reset, so a pooled worker
    running many tasks never double-reports); ``metrics`` ships the
    worker's metric-registry snapshot (None when the task did not ask
    for it) under the same discipline.
    """
    return {"pass_stats": runner.pass_stats,
            "phase_seconds": dict(runner.phase_seconds),
            "obs": obs.end_worker(),
            "region_cache": region_cache.take_session(),
            "metrics": obs_metrics.end_worker()}


def _worker(spec: CellSpec, task: _Task,
            reference: Optional[Dict[str, np.ndarray]] = None):
    """Compute one cell; a baseline also returns its reference outputs.

    The one place a pool worker's lifecycle lives.  It begins by resetting
    *every* holder a fork()ed child inherits from the parent — the obs
    session, the metrics registry, the jit's region session — because
    shipping an inherited holder home would re-count everything the parent
    had already collected; it ends with :func:`_worker_extras`.
    """
    obs.begin_worker(task.trace)
    obs_metrics.begin_worker(task.metrics)
    region_cache.take_session()
    try:
        bench = benchmark_by_name(spec.app)
        runner = ExperimentRunner(**task.settings)
        if reference is not None:
            runner._baseline_outputs[spec.app] = reference
        cell = runner._run(bench, spec.config, spec.loop_id, spec.factor,
                           spec.plan)
        outputs = (runner._baseline_outputs.get(spec.app)
                   if spec.config == "baseline" else None)
        return ("ok", cell, outputs, _worker_extras(runner))
    except Exception:
        return ("err", traceback.format_exc(), None, None)


def _failed_cell(spec: CellSpec, message: str) -> Cell:
    from ..gpu.counters import Counters
    return Cell(app=spec.app, config=spec.config, loop_id=spec.loop_id,
                factor=spec.factor, cycles=float("inf"), code_size=0,
                compile_seconds=0.0, counters=Counters(),
                outputs_match_baseline=False, error=message)


class ParallelRunner(ExperimentRunner):
    """Drop-in :class:`ExperimentRunner` with fan-out and persistence.

    Single-cell calls (``cell``/``baseline``/...) behave exactly like the
    serial runner, except that results are transparently read from and
    written to the persistent cell cache.  Sweep-shaped calls
    (:meth:`prefetch`, :meth:`full_sweep`) enumerate their cells up front
    and compute the misses on a process pool.
    """

    def __init__(self, *, jobs: Optional[int] = None,
                 cache: Optional[CellCache] = None,
                 use_cache: bool = True, **settings) -> None:
        """``settings`` are :class:`ExperimentRunner`'s arguments."""
        super().__init__(**settings)
        self.jobs = resolve_jobs(jobs)
        self.cache: Optional[CellCache] = (
            cache if cache is not None else (CellCache() if use_cache
                                             else None))
        self._fingerprints: Dict[str, Tuple[str, str]] = {}
        #: Cells this runner computed (in process or on the pool) instead
        #: of finding them in memory or in the persistent cache.
        self.computed = 0

    # -- cache plumbing ------------------------------------------------------
    def _fingerprint(self, bench: Benchmark) -> Tuple[str, str]:
        """(printed baseline IR, workload fingerprint), computed once."""
        cached = self._fingerprints.get(bench.name)
        if cached is None:
            cached = (print_module(bench.build_module()),
                      workload_fingerprint(bench))
            self._fingerprints[bench.name] = cached
        return cached

    def _cache_key(self, bench: Benchmark, config: str,
                   loop_id: Optional[str], factor: int,
                   plan: Optional[Tuple[LoopDirective, ...]] = None) -> str:
        ir, workload = self._fingerprint(bench)
        tuned = None
        # A cell compiled from stored or explicit decisions keys on the
        # resolved plan, so editing/deleting/staling
        # results/tuned/<app>.json — or any index growth, schema bump or
        # k/threshold change that alters a prediction — orphans the old
        # cells.  (Per-loop and heuristic cells are determined by the
        # fields below and keep their historical keys.)
        if plan is not None:
            tuned = fingerprint(plan)
        elif config in ("tuned", "predicted"):
            tuned = fingerprint(self.resolve_plan(bench, config, emit=False))
        return CellCache.make_key(
            ir, workload, config, loop_id, factor, self.heuristic,
            self.max_instructions, self.compile_timeout, self.verify_each,
            scale=self.workload_scale, tuned=tuned)

    def _load_cached(self, bench: Benchmark, spec_key: Tuple,
                     cache_key: str) -> Optional[Cell]:
        entry = self.cache.get(cache_key) if self.cache else None
        if entry is None:
            return None
        cell, outputs = entry
        if outputs is not None and bench.name not in self._baseline_outputs:
            self._baseline_outputs[bench.name] = outputs
        self._cache[spec_key] = cell
        return cell

    def _store(self, bench: Benchmark, cell: Cell, cache_key: str) -> None:
        if self.cache is None or cell.error is not None:
            return
        outputs = (self._baseline_outputs.get(bench.name)
                   if cell.config == "baseline" else None)
        self.cache.put(cache_key, cell, outputs)

    # -- serial-compatible single-cell API -----------------------------------
    def cell(self, bench: Benchmark, config: str,
             loop_id: Optional[str] = None, factor: int = 1,
             plan: Optional[Tuple[LoopDirective, ...]] = None) -> Cell:
        spec_key = (bench.name, config, loop_id, factor, plan)
        cached = self._cache.get(spec_key)
        if cached is not None:
            return cached
        if self.cache is not None:
            cache_key = self._cache_key(bench, config, loop_id, factor, plan)
            hit = self._load_cached(bench, spec_key, cache_key)
            if hit is not None:
                return hit
        result = self._run(bench, config, loop_id, factor, plan)
        self.computed += 1
        self._cache[spec_key] = result
        if self.cache is not None:
            self._store(bench, result, cache_key)
        return result

    # -- sweeps --------------------------------------------------------------
    def prefetch(self, benches: Sequence[Benchmark],
                 configs: Optional[Sequence[str]] = None,
                 factors: Sequence[int] = UNROLL_FACTORS,
                 specs: Optional[Sequence[CellSpec]] = None) -> List[Cell]:
        """Materialise a cell set (cache -> pool), deterministically ordered.

        Returns cells in enumeration order; afterwards every enumerated
        cell is resident in the in-memory cache, so the serial accessors
        (and every figure/table generator) hit without recomputation.
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
            cache_key = None
            if bench is not None and self.cache is not None:
                cache_key = self._cache_key(bench, spec.config, spec.loop_id,
                                            spec.factor, spec.plan)
                if self._load_cached(bench, spec.key, cache_key) is not None:
                    continue
            missing.append((spec, cache_key))

        if missing:
            # One count, no serial/pool label: the -j1 and -jN registries
            # must fold byte-identically for the same cell set.
            obs_metrics.inc("repro_sweep_cells_total", len(missing))
            if self.jobs <= 1:
                self._compute_serial(missing, by_name)
            else:
                self._compute_parallel(missing, by_name)
        return [self._cache[spec.key] for spec in specs]

    def full_sweep(self, bench: Benchmark) -> Dict[str, List[Cell]]:
        """Everything Figures 6-8 need, computed via the parallel engine."""
        self.prefetch([bench])
        return super().full_sweep(bench)

    # -- execution strategies ------------------------------------------------
    def _compute_serial(self, missing, by_name) -> None:
        for spec, cache_key in missing:
            bench = by_name.get(spec.app)
            self.computed += 1
            try:
                if bench is None:
                    bench = benchmark_by_name(spec.app)
                cell = self._run(bench, spec.config, spec.loop_id,
                                 spec.factor, spec.plan)
            except Exception:
                obs_metrics.inc("repro_sweep_worker_failures_total")
                cell = _failed_cell(spec, traceback.format_exc())
            self._cache[spec.key] = cell
            if bench is not None and cache_key is not None:
                self._store(bench, cell, cache_key)

    def _compute_parallel(self, missing, by_name) -> None:
        task = _Task(settings=self.settings(),
                     trace=obs.active() is not None,
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
        # remark stream / pass statistics (tests/test_obs.py pins jobs=1
        # vs jobs=N streams equal) nor the cache's LRU recency order
        # (which decides what an LRU-bounded cache evicts) may depend on
        # pool scheduling.
        extras_by_spec: Dict[CellSpec, Dict] = {}
        computed: Dict[CellSpec, Cell] = {}

        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            # Stage 1: baselines (reference outputs feed every other cell).
            futures = {}
            for app in needed_apps:
                spec = CellSpec(app, "baseline", None, 1)
                futures[pool.submit(_worker, spec, task)] = spec
            self.computed += len(futures)
            for future, spec in futures.items():
                status, payload, outputs, extras = future.result()
                if status == "err":
                    obs_metrics.inc("repro_sweep_worker_failures_total")
                    failed_baselines[spec.app] = payload
                    continue
                if outputs is not None:
                    self._baseline_outputs[spec.app] = outputs
                self._cache[spec.key] = payload
                computed[spec] = payload
                extras_by_spec[spec] = extras

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
                    status, payload, _, extras = future.result()
                    if status == "err":
                        obs_metrics.inc("repro_sweep_worker_failures_total")
                        self._cache[spec.key] = _failed_cell(spec, payload)
                    else:
                        self._cache[spec.key] = payload
                        computed[spec] = payload
                        extras_by_spec[spec] = extras

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
            extras = extras_by_spec.pop(spec, None)
            if extras:
                self._absorb_extras(extras)
        in_missing = {spec for spec, _ in missing}
        for app in needed_apps:
            spec = CellSpec(app, "baseline", None, 1)
            cell = computed.get(spec)
            if cell is not None and spec not in in_missing:
                self._persist(spec, cell, None, by_name)
            extras = extras_by_spec.pop(spec, None)
            if extras:
                self._absorb_extras(extras)

    def _persist(self, spec: CellSpec, cell: Cell,
                 cache_key: Optional[str], by_name) -> None:
        """Write one computed cell through to the persistent cache."""
        if self.cache is None:
            return
        bench = by_name.get(spec.app)
        if bench is None:
            try:
                bench = benchmark_by_name(spec.app)
            except KeyError:
                return
        if cache_key is None:
            cache_key = self._cache_key(bench, spec.config, spec.loop_id,
                                        spec.factor, spec.plan)
        self._store(bench, cell, cache_key)

    def _absorb_extras(self, extras: Dict) -> None:
        """Fold one worker's telemetry into this runner (and its session)."""
        stats = extras.get("pass_stats")
        if stats is not None:
            self.pass_stats.merge(stats)
        for phase, seconds in (extras.get("phase_seconds") or {}).items():
            self.phase_seconds[phase] = (
                self.phase_seconds.get(phase, 0.0) + seconds)
        payload = extras.get("obs")
        if payload:
            session = obs.active()
            if session is not None:
                session.merge_payload(payload)
        region_cache.session().absorb(extras.get("region_cache"))
        obs_metrics.absorb(extras.get("metrics"))

def prefetch_if_parallel(runner, benches,
                         configs: Optional[Sequence[str]] = None,
                         factors: Sequence[int] = UNROLL_FACTORS) -> None:
    """Warm a runner's cell set if it supports batch prefetching.

    The figure/table generators call this so a :class:`ParallelRunner`
    computes their whole cell set in one fan-out while a plain
    :class:`ExperimentRunner` keeps its serial behaviour untouched.
    """
    prefetch = getattr(runner, "prefetch", None)
    if prefetch is not None:
        prefetch(benches, configs=configs, factors=factors)
