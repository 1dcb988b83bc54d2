"""``sweep_warm``: what every exhibit costs after the first run.

Reads: fresh-process ``python -m repro run-heuristic --app A -j 1``
invocations against a cell cache that set-up populated (every cell a hit).
Writes beside reads: in-process *churn* operations that fingerprint the
apps as a fresh ``ParallelRunner`` would, ``put`` their cells into a
``CellCache`` capped at half their bytes (so every operation evicts) and
``get`` them back.  ``cli`` import, ``frontend``+``ir`` (fingerprint = build
+ print + hash) and ``harness.cache`` do the work; ``transforms`` and ``gpu``
do none, so their optimisation must read "no change" here.
"""

from __future__ import annotations

import dataclasses
import re
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bench import benchmark_by_name
from repro.harness.cache import CellCache
from repro.harness.parallel import (CellSpec, ParallelRunner,
                                    workload_fingerprint)
from repro.ir.printer import print_module
from repro.transforms.heuristic import HeuristicParams

from ..env import fresh_stores
from ..meters import Op
from ..reference import app_reference
from ..spans import Tracer, span_of
from ..steps import (COMPILE_TIMEOUT, MAX_INSTRUCTIONS, CellStepper,
                     cell_label)
from .base import TraceReport, Workload
from .sweep import check_against_cells

now = time.perf_counter

CONFIGS = ("baseline", "uu_heuristic")
_CACHE_LINE = re.compile(r"cache: (\d+) hits / (\d+) misses")


@dataclass
class _Round:
    cells: Dict[Tuple[str, str], tuple]   # (app, config) -> (cell, outputs)
    cap_bytes: int
    churn: CellCache


class SweepWarm(Workload):
    name = "sweep_warm"
    apps = ("XSBench", "bezier-surface", "complex", "bspline-vgh")
    quick_apps = ("complex",)
    #: Churn operations per pass.  With the 4 invocations that makes the
    #: invocations 1/6 of the operations, so ``lat_p50_ms`` is a churn
    #: operation and ``lat_max_ms`` an invocation.
    churn_ops = 20

    def prepare(self) -> None:
        names = self.quick_apps if self.quick else self.apps
        self.benches = {name: benchmark_by_name(name) for name in names}
        self.refs = {name: app_reference(bench)
                     for name, bench in self.benches.items()}
        churn = 4 if self.quick else self.churn_ops
        self.plan = self.shuffled([f"cli/{name}" for name in names]
                                  + [f"churn/{i}" for i in range(churn)])
        self._rounds = 0

    # -- set-up: populate the cache the invocations will read ----------------
    @staticmethod
    def _key(ir_text: str, workload: str, config: str) -> str:
        """A whole-app cell's cache key, from the public pieces a fresh
        ``ParallelRunner`` composes (fingerprint = build + print + hash)."""
        return CellCache.make_key(
            ir_text, workload, config, None, 1, HeuristicParams(),
            MAX_INSTRUCTIONS, COMPILE_TIMEOUT, False)

    def setup(self) -> _Round:
        self._rounds += 1
        root = fresh_stores(self.work, f"round{self._rounds}")
        cache = CellCache()     # REPRO_CACHE_DIR: where the CLI will look.
        runner = ParallelRunner(jobs=1, cache=cache,
                                max_instructions=MAX_INSTRUCTIONS,
                                compile_timeout=COMPILE_TIMEOUT)
        cells = {}
        for name, bench in self.benches.items():
            text = print_module(bench.build_module())
            workload = workload_fingerprint(bench)
            for config in CONFIGS:
                runner.cell(bench, config)
                entry = cache.get(self._key(text, workload, config))
                if entry is None:
                    raise RuntimeError(
                        f"{name}/{config}: the key composed from public "
                        "functions does not find the runner's entry")
                # compile_seconds is a wall-clock float whose digits would
                # make entry sizes, and so evictions, differ run to run.
                cells[(name, config)] = (
                    dataclasses.replace(entry[0], compile_seconds=0.0),
                    entry[1])
        self._cells = cells
        total = sum(path.stat().st_size for path in cache.entries())
        return _Round(cells, total // 2,
                      CellCache(root / "churn", max_bytes=total // 2))

    # -- operations ----------------------------------------------------------
    def _invoke(self, app: str) -> Tuple[bool, str]:
        done = subprocess.run(
            [sys.executable, "-m", "repro", "run-heuristic", "--app", app,
             "-j", "1"], capture_output=True, text=True, timeout=120)
        line = _CACHE_LINE.search(done.stdout)
        row = [l for l in done.stdout.splitlines() if l.startswith(app)]
        ok = (done.returncode == 0 and line is not None
              and line.groups() == (str(len(CONFIGS)), "0")
              and len(row) == 1 and row[0].split()[-1] == "yes")
        return ok, done.stdout + done.stderr

    def _churn(self, state: _Round, cache: CellCache,
               tracer: Optional[Tracer] = None,
               acc: Optional[Dict[str, float]] = None) -> bool:
        """Fingerprint, put (evicting) and get back every cell; True when
        every hit returns exactly what was put."""
        keys = {}
        for name, bench in self.benches.items():
            started = now()
            with span_of(tracer, "build_module", "frontend"):
                module = bench.build_module()
            built = now()
            with span_of(tracer, "print_module", "ir"):
                text = print_module(module)
            printed = now()
            with span_of(tracer, "cache.key", "harness"):
                workload = workload_fingerprint(bench)
                for config in CONFIGS:
                    keys[(name, config)] = self._key(text, workload, config)
            if acc is not None:
                acc["frontend.lower_s"] += built - started
                acc["frontend.modules"] += 1
                acc["ir.print_s"] += printed - built
                acc["harness.cache.key_s"] += now() - printed
        for ident, key in keys.items():
            cell, outputs = state.cells[ident]
            started = now()
            with span_of(tracer, "cache.put", "harness"):
                cache.put(key, cell, outputs)
            if acc is not None:
                # The traced cache is uncapped, so put and the eviction a
                # capped put runs inside itself can be timed apart.
                acc["harness.cache.put_s"] += now() - started
                started = now()
                with span_of(tracer, "cache.evict", "harness"):
                    cache.evict(state.cap_bytes)
                acc["harness.cache.evict_s"] += now() - started
        same = True
        for ident, key in keys.items():
            started = now()
            with span_of(tracer, "cache.get", "harness"):
                entry = cache.get(key)
            if acc is not None:
                acc["harness.cache.get_s"] += now() - started
            if entry is not None:
                want = state.cells[ident][0]
                same = same and (entry[0].cycles == want.cycles
                                 and entry[0].code_size == want.code_size
                                 and entry[0].counters == want.counters)
        return same

    def run_pass(self, state: _Round) -> List[Op]:
        ops = []
        for item in self.plan:
            kind, arg = item.split("/", 1)
            start = now()
            if kind == "cli":
                ok, text = self._invoke(arg)
            else:
                ok, text = self._churn(state, state.churn), ""
            ops.append(Op(item, now() - start, ok, text, kind))
        return ops

    # -- correctness and tracing ---------------------------------------------
    def _specs(self) -> List[CellSpec]:
        return [CellSpec(name, config, None, 1) for name in self.benches
                for config in CONFIGS]

    def _check_cells(self, stepper: CellStepper, state_cells) -> int:
        specs = self._specs()
        stepped = [stepper.run(self.benches[s.app], s) for s in specs]
        measured = {cell_label(s): state_cells[(s.app, s.config)][0]
                    for s in specs}
        return check_against_cells(stepped, measured)

    def verify(self, ops: List[Op]) -> Tuple[int, int]:
        """The cached cells themselves, against the reference outputs."""
        return len(self._cells), self._check_cells(CellStepper(self.refs),
                                                   self._cells)

    def traced(self, tracer: Tracer, state: _Round,
               ops: List[Op]) -> TraceReport:
        acc: Dict[str, float] = defaultdict(float)
        with tracer.span("import repro.cli", "cli", "import") as sid:
            subprocess.run([sys.executable, "-c", "import repro.cli"],
                           check=True, timeout=120)
        acc["cli.import_s"] = tracer.seconds(sid)

        traced_cache = CellCache(state.churn.root.parent / "churn-traced")
        failed = 0
        start = now()
        for item in self.plan:
            kind, arg = item.split("/", 1)
            if kind == "cli":
                with tracer.span("run-heuristic", "cli", item) as sid:
                    ok, _ = self._invoke(arg)
                acc["cli.invocation_s"] += tracer.seconds(sid)
            else:
                with tracer.span("churn", "harness", item):
                    ok = self._churn(state, traced_cache, tracer, acc)
            failed += not ok
        wall = now() - start

        # The traced cache saw the same puts, evictions and gets as the
        # untraced pass's capped one; their counters must agree.
        counters = {k: getattr(traced_cache, k)
                    for k in ("hits", "misses", "puts", "evictions")}
        if counters != {k: getattr(state.churn, k) for k in counters}:
            failed += 1
        for key in ("hits", "misses", "evictions"):
            acc[f"harness.cache.{key}"] = counters[key]
        acc["harness.cache.hit_share"] = counters["hits"] / max(
            1, counters["hits"] + counters["misses"])
        acc["harness.cache.bytes"] = sum(
            p.stat().st_size for p in traced_cache.entries())
        counts = {"cells": len(state.cells),
                  "cli_invocations": len(self.benches),
                  "churn_ops": len(self.plan) - len(self.benches),
                  "cache": counters,
                  "cache_bytes": int(acc["harness.cache.bytes"])}
        return TraceReport(layer=dict(acc), counts=counts,
                           traced_wall_s=wall,
                           span_wall_s=wall + acc["cli.import_s"],
                           attempted=len(self.plan) + len(state.cells),
                           failed=failed + self._check_cells(
                               CellStepper(self.refs), state.cells))
