"""``sweep_cold`` and ``uu_tail``: cells through a serial, cache-less runner."""

from __future__ import annotations

import math
import time
from typing import Dict, List, Sequence, Tuple

from repro.bench import benchmark_by_name
from repro.harness.experiment import ExperimentRunner
from repro.harness.parallel import CellSpec, sweep_specs

from ..meters import Op
from ..reference import app_reference
from ..spans import Tracer
from ..steps import (COMPILE_TIMEOUT, MAX_INSTRUCTIONS, PASS_NAMES,
                     CellStepper, SteppedCell, cell_label)
from .base import TraceReport, Workload, geomean

now = time.perf_counter


def stepped_counts(stepper: CellStepper,
                   cells: Sequence[SteppedCell]) -> Dict[str, object]:
    """The exact, order-independent counts of a stepped cell set."""
    acc = stepper.acc
    return {
        "cells": len(cells),
        # fsum is correctly rounded, so the total does not depend on the
        # seed's cell order.
        "sim_cycles": math.fsum(c.cycles for c in cells),
        "code_size_total": int(acc["codegen.code_size_total"]),
        "warp_steps": int(acc["gpu.warp_steps"]),
        "insts_after_transform": int(acc["ir.insts_after_transform"]),
        "insts_final": int(acc["ir.insts_final"]),
        "pass_runs": {name: int(acc[f"transforms.{name}.runs"])
                      for name in PASS_NAMES
                      if acc.get(f"transforms.{name}.runs")},
        "pass_changes": stepper.pass_changes,
    }


def heuristic_geomeans(specs: Sequence[CellSpec],
                       cells: Sequence[SteppedCell]) -> Dict[str, float]:
    """Simulated speed-up and code-size ratio of ``uu_heuristic`` over
    ``baseline``, geomean over the apps that have both cells."""
    by_app: Dict[str, Dict[str, SteppedCell]] = {}
    for spec, cell in zip(specs, cells):
        if spec.config in ("baseline", "uu_heuristic"):
            by_app.setdefault(spec.app, {})[spec.config] = cell
    pairs = [(c["baseline"], c["uu_heuristic"]) for c in by_app.values()
             if len(c) == 2]
    return {
        "harness.sim_speedup_geomean":
            geomean(b.cycles / h.cycles for b, h in pairs),
        "harness.code_size_ratio_geomean":
            geomean(h.code_size / b.code_size for b, h in pairs),
    }


def check_against_cells(cells: Sequence[SteppedCell],
                        measured: Dict[str, object]) -> int:
    """Failures of a stepped cell set: wrong outputs, or cycles / code size
    that differ from the cell the program measured under the same label."""
    failed = 0
    for cell in cells:
        seen = measured[cell.label]
        if not (cell.ok and cell.cycles == seen.cycles
                and cell.code_size == seen.code_size):
            failed += 1
    return failed


class _Sweep(Workload):
    def app_names(self) -> Tuple[str, ...]:
        """Applications whose cells the workload runs."""
        raise NotImplementedError

    def enumerate(self) -> List[CellSpec]:
        """The cell set; part of ``setup`` because enumerating loops is
        what a sweep does first."""
        raise NotImplementedError

    def prepare(self) -> None:
        self.benches = {name: benchmark_by_name(name)
                        for name in self.app_names()}
        self.refs = {name: app_reference(bench)
                     for name, bench in self.benches.items()}

    def _ordered(self, specs: Sequence[CellSpec]) -> List[CellSpec]:
        """Seed order, keeping each app's baseline ahead of its other cells
        (the runner would compute it on demand inside the first of them)."""
        ordered: List[CellSpec] = []
        for app in self.shuffled(self.benches):
            mine = [s for s in specs if s.app == app]
            ordered += [s for s in mine if s.config == "baseline"]
            ordered += self.shuffled(
                [s for s in mine if s.config != "baseline"], app)
        return ordered

    def _runner(self) -> ExperimentRunner:
        return ExperimentRunner(max_instructions=MAX_INSTRUCTIONS,
                                compile_timeout=COMPILE_TIMEOUT)

    def setup(self):
        # Warm-up: every app's baseline cell through a throwaway runner, so
        # the first-call work of the pipeline and the engine is not charged
        # to whichever cell the seed puts first.
        warm = self._runner()
        for bench in self.benches.values():
            warm.cell(bench, "baseline", None, 1)
        return self._runner(), self._ordered(self.enumerate())

    def run_pass(self, state) -> List[Op]:
        runner, specs = state
        ops = []
        for spec in specs:
            bench = self.benches[spec.app]
            start = now()
            cell = runner.cell(bench, spec.config, spec.loop_id, spec.factor)
            seconds = now() - start
            ok = (cell.error is None and not cell.timed_out
                  and cell.outputs_match_baseline)
            ops.append(Op(cell_label(spec), seconds, ok, cell))
        return ops

    def _step_all(self, stepper: CellStepper,
                  specs: Sequence[CellSpec]) -> List[SteppedCell]:
        return [stepper.run(self.benches[s.app], s) for s in specs]

    def verify(self, ops: List[Op]) -> Tuple[int, int]:
        specs = self._ordered(self.enumerate())
        cells = self._step_all(CellStepper(self.refs), specs)
        return len(cells), check_against_cells(
            cells, {op.key: op.data for op in ops})

    def traced(self, tracer: Tracer, state, ops: List[Op]) -> TraceReport:
        runner, specs = state
        stepper = CellStepper(self.refs, tracer)
        start = now()
        cells = self._step_all(stepper, specs)
        wall = now() - start
        layer = stepper.layer_metrics()
        layer.update(heuristic_geomeans(specs, cells))
        for phase, seconds in runner.phase_seconds.items():
            layer[f"harness.experiment.{phase}_s"] = seconds
        return TraceReport(
            layer=layer, counts=stepped_counts(stepper, cells),
            traced_wall_s=wall - stepper.probe_seconds, span_wall_s=wall,
            attempted=len(cells),
            failed=check_against_cells(cells,
                                       {op.key: op.data for op in ops}))


class SweepCold(_Sweep):
    """The paper's per-loop sweep, cold, at u in {2, 4}."""

    name = "sweep_cold"
    #: Three of the four Section V case studies plus bspline-vgh (the
    #: paper's best, 1.81x).  rainflow and ccs would add 4 s and 1 s a
    #: pass; their cells behave like the ones kept (README, "sizing").
    apps = ("XSBench", "bezier-surface", "complex", "bspline-vgh")
    quick_apps = ("complex", "bspline-vgh")
    #: u = 8 is left to ``uu_tail``: those cells are ~75 % of a full cold
    #: sweep and ~80 % of their time is the ``uu`` pass itself, so keeping
    #: them here would hide the cleanup battery this workload is for.
    factors = (2, 4)

    def app_names(self) -> Tuple[str, ...]:
        return self.quick_apps if self.quick else self.apps

    def enumerate(self) -> List[CellSpec]:
        factors = (2,) if self.quick else self.factors
        return [spec for bench in self.benches.values()
                for spec in sweep_specs(bench, factors=factors)]


class UuTail(_Sweep):
    """Heavy ``uu`` cells: the Fig 6c outlier tail."""

    name = "uu_tail"
    #: (app, loop, factor): ~1 s cells with 70-80 % of their compile time
    #: inside the ``uu`` pass.  The 3-6 s cells the sizing runs found
    #: (qt_membership x8, libor_path x8, mandelbrot_escape x4) have the same
    #: profile but do not fit three rounds into a run.
    cells = (("bspline-vgh", "bspline_vgh:0", 8),
             ("bn", "bn_score:0", 8),
             ("qtclustering", "qt_membership:0", 4))
    quick_cells = (("bspline-vgh", "bspline_vgh:0", 4),)

    @property
    def _cells(self):
        return self.quick_cells if self.quick else self.cells

    def app_names(self) -> Tuple[str, ...]:
        return tuple(app for app, _, _ in self._cells)

    def enumerate(self) -> List[CellSpec]:
        specs = []
        for app, loop_id, factor in self._cells:
            if loop_id not in self.benches[app].loop_ids():
                raise LookupError(f"{app} has no loop {loop_id}")
            specs.append(CellSpec(app, "baseline", None, 1))
            specs.append(CellSpec(app, "uu", loop_id, factor))
        return specs
