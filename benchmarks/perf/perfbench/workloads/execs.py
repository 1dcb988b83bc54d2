"""``suite_exec`` and ``kernel_exec``: the ``gpu`` layer used two ways.

Both execute modules that set-up has already built, so ``transforms`` does
nothing in the timed section.  ``suite_exec`` runs the applications' own
small launches (decode, region selection and per-launch overhead dominate);
``kernel_exec`` runs long single launches (steady-state throughput).  An
engine change that buys throughput with per-launch cost shows as a gain on
one and a loss on the other.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Tuple

from repro.bench import all_benchmarks
from repro.gpu.machine import ENGINES, WARP_SIZE, SimtMachine, resolve_engine
from repro.gpu.memory import Memory
from repro.gpu.region_cache import session as region_session
from repro.ir.parser import parse_module
from repro.ir.verifier import verify_module
from repro.transforms.pipeline import compile_module

from ..env import fresh_stores
from ..meters import Op
from ..reference import app_reference, kernel_reference, same_bits
from ..spans import Tracer, span_of
from ..spec import KERNEL_DIR
from ..steps import COMPILE_TIMEOUT, MAX_INSTRUCTIONS
from .base import TraceReport, Workload, geomean

now = time.perf_counter


class _Exec(Workload):
    """Operations are executions of one pre-built module each."""

    #: Operation keys in the seed's order; fixed by ``prepare``.
    order: List[str]

    def execute(self, state, key: str, engine: Optional[str]):
        """Run one operation; returns ``(payload, counters)``."""
        raise NotImplementedError

    def matches(self, key: str, payload) -> bool:
        """``payload`` equals the independent reference, bit for bit."""
        raise NotImplementedError

    def new_machine(self, state, key: str, engine: str) -> SimtMachine:
        """What ``execute`` constructs first (timed as ``init_s``)."""
        raise NotImplementedError

    def extra_layer(self, state, results) -> Dict[str, float]:
        return {}

    def _pass(self, state, engine: Optional[str] = None,
              tracer: Optional[Tracer] = None) -> List[Op]:
        ops = []
        for key in self.order:
            start = now()
            with span_of(tracer, f"exec[{engine}]", "gpu", key):
                data = self.execute(state, key, engine)
            ops.append(Op(key, now() - start, True, data))
        return ops

    def run_pass(self, state) -> List[Op]:
        return self._pass(state)

    def check_pass(self, state, ops: List[Op]) -> int:
        return sum(1 for op in ops if not self.matches(op.key, op.data[0]))

    def traced(self, tracer: Tracer, state, ops: List[Op]) -> TraceReport:
        default = resolve_engine(None)
        layer: Dict[str, float] = {}
        notes: List[str] = []
        region_before = region_session().snapshot()

        def timed(engine: str) -> Tuple[float, List[Op]]:
            start = now()
            got = self._pass(state, engine, tracer)
            return now() - start, got

        # The default engine first: its traced wall is what is compared
        # with the untraced pass.  The jit runs twice, against an empty
        # and then a populated region-plan cache.
        fresh_stores(self.work, "engines")
        results: Dict[str, List[Op]] = {}
        walls: Dict[str, float] = {}
        engines_start = now()
        for engine in (default,) + tuple(e for e in ENGINES if e != default):
            walls[engine], results[engine] = timed(engine)
            if engine == "jit":
                layer["gpu.jit.cold_s"] = walls[engine]
                walls[engine], results[engine] = timed(engine)
                layer["gpu.jit.warm_s"] = walls[engine]
        span_wall = now() - engines_start

        steps = sum(op.data[1].inst_executed for op in results[default])
        cycles = math.fsum(op.data[1].cycles for op in results[default])
        for engine, wall in walls.items():
            layer[f"gpu.{engine}.exec_s"] = wall
            layer[f"gpu.{engine}.steps_per_s"] = steps / wall
            start = now()
            for key in self.order:
                self.new_machine(state, key, engine)
            layer[f"gpu.{engine}.init_s"] = now() - start
        layer["gpu.warp_steps"] = steps
        layer["gpu.sim_cycles"] = cycles
        region_after = region_session().snapshot()
        region = {k: region_after[k] - region_before[k]
                  for k in ("hits", "misses", "puts")}
        for key, value in region.items():
            layer[f"gpu.region_cache.{key}"] = value

        # Cross-engine contract: outputs, cycles and every counter equal.
        failed = self.check_pass(state, results[default])
        for engine, got in results.items():
            for mine, ref in zip(got, results[default]):
                if not (same_payload(mine.data[0], ref.data[0])
                        and mine.data[1] == ref.data[1]):
                    failed += 1
                    notes.append(f"{engine} differs from {default} on "
                                 f"{mine.key}")
        layer.update(self.extra_layer(state, results[default]))
        counts = {"ops": len(self.order), "warp_steps": steps,
                  "sim_cycles": cycles, "region_cache": region}
        return TraceReport(layer=layer, counts=counts,
                           traced_wall_s=walls[default], span_wall_s=span_wall,
                           attempted=len(self.order) * len(results),
                           failed=failed, notes=notes)


def same_payload(a, b) -> bool:
    return same_bits(a, b) if isinstance(a, dict) else a == b


class SuiteExec(_Exec):
    """All 16 applications x {baseline, uu_heuristic}, their own launches."""

    name = "suite_exec"
    #: Set-up (32 compiles) costs as much as two passes; three passes a
    #: round spend over half of a run inside the timed section.
    passes_per_setup = 3
    configs = ("baseline", "uu_heuristic")

    def prepare(self) -> None:
        benches = all_benchmarks()
        if self.quick:
            benches = benches[:3]
        self.benches = {b.name: b for b in benches}
        self.refs = {name: app_reference(b)
                     for name, b in self.benches.items()}
        self.order = self.shuffled(
            [f"{name}/{config}" for name in self.benches
             for config in self.configs])

    def setup(self):
        modules = {}
        for name, bench in self.benches.items():
            for config in self.configs:
                module = bench.build_module()
                compiled = compile_module(
                    module, config, max_instructions=MAX_INSTRUCTIONS,
                    timeout_seconds=COMPILE_TIMEOUT)
                modules[f"{name}/{config}"] = (bench, module,
                                               compiled.code_size)
        return modules

    def execute(self, state, key, engine):
        bench, module, _ = state[key]
        return bench.run(module, engine=engine)

    def matches(self, key, payload) -> bool:
        return same_bits(payload, self.refs[key.split("/")[0]])

    def new_machine(self, state, key, engine):
        return SimtMachine(state[key][1], Memory(), engine=engine)

    def extra_layer(self, state, results) -> Dict[str, float]:
        cycles = {op.key: op.data[1].cycles for op in results}
        sizes = {key: built[2] for key, built in state.items()}
        apps = list(self.benches)
        return {
            "harness.sim_speedup_geomean": geomean(
                cycles[f"{a}/baseline"] / cycles[f"{a}/uu_heuristic"]
                for a in apps),
            "harness.code_size_ratio_geomean": geomean(
                sizes[f"{a}/uu_heuristic"] / sizes[f"{a}/baseline"]
                for a in apps),
            "codegen.code_size_total": sum(sizes.values()),
        }


class KernelExec(_Exec):
    """Six long-running IR kernels, one block of 16 warps x 1 000 trips."""

    name = "kernel_exec"
    passes_per_setup = 2
    kernels = ("uniform", "divergent", "staggered", "briefdiv", "chain",
               "chaindia")

    def prepare(self) -> None:
        self.threads = (4 if self.quick else 16) * WARP_SIZE
        self.trips = 100 if self.quick else 1000
        self.texts = {k: (KERNEL_DIR / f"{k}.ir").read_text()
                      for k in self.kernels}
        self.refs = {k: kernel_reference(k, self.threads, self.trips)
                     for k in self.kernels}
        self.order = self.shuffled(self.kernels)

    def setup(self):
        modules = {}
        for name, text in self.texts.items():
            module = parse_module(text, name)
            verify_module(module)
            modules[name] = module
        # One tiny launch each, so lazy imports and first-call set-up of
        # the engine are not charged to the first timed launch.
        for name in modules:
            self._launch(modules, name, None, WARP_SIZE, 2)
        return modules

    def new_machine(self, state, key, engine):
        return SimtMachine(state[key], Memory(), engine=engine)

    def _launch(self, state, key, engine, threads, trips):
        module = state[key]
        memory = Memory()
        args = [trips]
        takes_buffer = len(module.get_function(key).args) == 2
        if takes_buffer:
            args.insert(0, memory.alloc("buf", "i64", threads))
        machine = SimtMachine(module, memory, engine=engine)
        result = machine.launch(key, 1, threads, args)
        payload = (memory.read_back("buf") if takes_buffer
                   else result.return_values).tobytes()
        return payload, result.counters

    def execute(self, state, key, engine):
        return self._launch(state, key, engine, self.threads, self.trips)

    def matches(self, key, payload) -> bool:
        return payload == self.refs[key]
