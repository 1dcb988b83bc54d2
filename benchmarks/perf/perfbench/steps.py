"""One experiment cell, driven layer by layer from outside.

``CellStepper.run`` composes the layers exactly as
``ExperimentRunner._measure`` does (build -> [raw run] -> pipeline ->
code size -> simulate -> compare) but owns every step, so it can

* compare each cell's outputs bit-for-bit with the independent reference
  (the runner compares with its own baseline instead), and
* with a tracer, put a span around each layer call and add the probes
  that need the intermediate IR (size after the transform stage, the four
  CFG analyses on it, print/parse/verify of the final module).

Without a tracer it is the correctness gate of an untraced run; with one
it is the traced run, which must reproduce the untraced cells' cycles and
code sizes.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.analysis.cfg_utils import predecessor_map, reverse_postorder
from repro.analysis.dominators import DominatorTree
from repro.analysis.loops import LoopInfo
from repro.gpu.machine import resolve_engine
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.ir.verifier import verify_module
from repro.transforms.heuristic import HeuristicParams
from repro.transforms.pass_manager import CompileTimeout, PassStatistics
from repro.transforms.pipeline import build_pipeline

from .reference import same_bits
from .spans import Tracer, span_of

#: The CLI's runner defaults (``--max-instructions`` / ``--timeout``), not
#: ``ExperimentRunner``'s own 20 000: under these no cell of any workload
#: comes near the compile timeout, so outcomes do not depend on the machine.
MAX_INSTRUCTIONS = 8000
COMPILE_TIMEOUT = 20.0

now = time.perf_counter

#: Passes that get ``transforms.<pass>.s`` / ``.runs`` metrics.
PASS_NAMES = ("simplifycfg", "uu", "unroll", "unmerge", "uu-heuristic",
              "cleanup", "instcombine", "gvn", "licm", "sccp", "load-elim",
              "dce", "baseline-unroll", "predication")
_PROBE = "perf-probe"


def cell_label(spec) -> str:
    label = f"{spec.app}/{spec.config}"
    if spec.loop_id is not None:
        label += f"/{spec.loop_id}x{spec.factor}"
    return label


@dataclass
class SteppedCell:
    label: str
    cycles: float
    code_size: int
    #: Outputs equal the unoptimised-lowering reference, bit for bit.
    ok: bool
    timed_out: bool = False


class _TransformProbe:
    """A no-op pass sitting between the transform stage and the cleanup.

    It sees the IR exactly where later passes' cost is decided, counts it,
    and times one call of each CFG analysis on it.
    """

    name = _PROBE

    def __init__(self, acc: Dict[str, float], tracer: Tracer) -> None:
        self.acc = acc
        self.tracer = tracer

    def run(self, func) -> bool:
        self.acc["ir.insts_after_transform"] += func.instruction_count()
        for key, analysis in (("predmap", predecessor_map),
                              ("rpo", reverse_postorder),
                              ("domtree", DominatorTree.compute),
                              ("loopinfo", LoopInfo.compute)):
            with self.tracer.span(f"analysis.{key}", "analysis") as sid:
                analysis(func)
            self.acc[f"analysis.{key}_s"] += self.tracer.seconds(sid)
        return False


class CellStepper:
    def __init__(self, refs: Dict[str, dict],
                 tracer: Optional[Tracer] = None) -> None:
        self.refs = refs
        self.tracer = tracer
        self.engine = resolve_engine(None)
        #: Per-layer metric name -> accumulated value.
        self.acc: Dict[str, float] = defaultdict(float)
        self.pass_runs = 0
        self.pass_changes = 0
        #: Seconds spent in probes (work the untraced path does not do).
        self.probe_seconds = 0.0
        self._raw_done: Set[str] = set()

    def _span(self, name: str, layer: str, op: Optional[str] = None):
        return span_of(self.tracer, name, layer, op)

    # -- one cell ------------------------------------------------------------
    def run(self, bench, spec) -> SteppedCell:
        label = cell_label(spec)
        acc = self.acc
        with self._span("cell", "harness", label):
            start = now()
            with self._span("build_module", "frontend"):
                module = bench.build_module()
            acc["frontend.lower_s"] += now() - start
            acc["frontend.modules"] += 1

            ok = True
            if spec.config == "baseline" and bench.name not in self._raw_done:
                # The runner's anchor run of the unoptimised module, here
                # on the default engine and checked against the reference.
                self._raw_done.add(bench.name)
                outputs, _ = self._simulate(bench, module, "simulate-raw")
                ok = same_bits(outputs, self.refs[bench.name])

            pipeline = build_pipeline(
                spec.config, loop_id=spec.loop_id, factor=spec.factor,
                heuristic=HeuristicParams(), max_instructions=MAX_INSTRUCTIONS)
            cleanup = next(p for p in pipeline.passes
                           if getattr(p, "name", "") == "cleanup")
            if self.tracer is not None:
                pipeline.passes.insert(pipeline.passes.index(cleanup),
                                       _TransformProbe(acc, self.tracer))
            timed_out = False
            with self._span("pipeline.run", "transforms") as compile_span:
                start = now()
                pipeline.deadline = cleanup.manager.deadline = \
                    start + COMPILE_TIMEOUT
                try:
                    pipeline.run(module)
                except CompileTimeout:
                    timed_out = True
                elapsed = now() - start
            self._record_passes(pipeline.stats, cleanup.manager.stats,
                                compile_span, start, elapsed)

            start = now()
            with self._span("code_size", "codegen"):
                code_size = module.code_size()
            acc["codegen.code_size_s"] += now() - start
            acc["codegen.code_size_total"] += code_size
            acc["ir.insts_final"] += module.instruction_count()
            if timed_out:
                return SteppedCell(label, float("inf"), code_size, False, True)

            outputs, counters = self._simulate(bench, module, "simulate")
            with self._span("compare", "harness"):
                ok = ok and same_bits(outputs, self.refs[bench.name])
        if self.tracer is not None:
            self._ir_probes(module, label)
        return SteppedCell(label, counters.cycles, code_size, ok)

    def _simulate(self, bench, module, name: str):
        start = now()
        with self._span(name, "gpu"):
            outputs, counters = bench.run(module)
        self.acc[f"gpu.{self.engine}.exec_s"] += now() - start
        self.acc["gpu.warp_steps"] += counters.inst_executed
        self.acc["gpu.sim_cycles"] += counters.cycles
        return outputs, counters

    # -- pass statistics -> metrics and child spans ---------------------------
    def _record_passes(self, top: PassStatistics, nested: PassStatistics,
                       compile_span: Optional[int], start: float,
                       elapsed: float) -> None:
        acc = self.acc
        probe = top.times.get(_PROBE, 0.0)
        self.probe_seconds += probe
        acc["transforms.compile_s"] += elapsed - probe
        for stats in (top, nested):
            for name, seconds in stats.times.items():
                if name in PASS_NAMES:
                    acc[f"transforms.{name}.s"] += seconds
                    acc[f"transforms.{name}.runs"] += stats.runs[name]
            self.pass_runs += sum(r for n, r in stats.runs.items()
                                  if n != _PROBE)
            self.pass_changes += sum(stats.changes.values())
        if self.tracer is None:
            return
        # Per-pass child spans, laid end to end from the pipeline's start:
        # the statistics hold totals per pass, not each run's position.
        cursor = start
        for name, seconds in top.times.items():
            if name == _PROBE:
                continue    # The probe recorded real spans of its own.
            sid = self.tracer.add(name, "transforms", cursor,
                                  cursor + seconds, compile_span)
            if name == "cleanup":
                inner = cursor
                for sub, sub_seconds in nested.times.items():
                    self.tracer.add(f"cleanup/{sub}", "transforms", inner,
                                    inner + sub_seconds, sid)
                    inner += sub_seconds
            cursor += seconds

    def _ir_probes(self, module, label: str) -> None:
        started = now()
        text = self._ir_probe("print", label, lambda: print_module(module))
        parsed = self._ir_probe("parse", label,
                                lambda: parse_module(text, "probe"))
        self._ir_probe("verify", label, lambda: verify_module(parsed))
        self.probe_seconds += now() - started

    def _ir_probe(self, key: str, label: str, call):
        with self.tracer.span(f"ir.{key}", "ir", label) as sid:
            result = call()
        self.acc[f"ir.{key}_s"] += self.tracer.seconds(sid)
        return result

    # -- derived metrics -----------------------------------------------------
    def layer_metrics(self) -> Dict[str, float]:
        metrics = dict(self.acc)
        if self.pass_runs:
            metrics["transforms.changes_share"] = \
                self.pass_changes / self.pass_runs
        exec_s = metrics.get(f"gpu.{self.engine}.exec_s", 0.0)
        if exec_s:
            metrics[f"gpu.{self.engine}.steps_per_s"] = \
                metrics["gpu.warp_steps"] / exec_s
        return metrics
