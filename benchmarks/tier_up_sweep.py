#!/usr/bin/env python3
"""The sweep ``jit.TIER_UP_DISPATCHES`` was chosen from (EXPERIMENTS.md).

Times two passes per threshold, interleaved over ``--repeats`` rounds:

* ``suite``  — all 16 applications x {baseline, uu_heuristic}, compiled
  once up front, ``Benchmark.run`` each (the perf benchmark's
  ``suite_exec``: small launches, nothing stays hot for long);
* ``kernel`` — the six ``benchmarks/perf/kernels/*.ir`` microkernels at
  16 warps x 1 000 trips (its ``kernel_exec``: one long hot loop each).

There is no threshold option in the program; the sweep sets the module
constant, as the tier-up tests do.  ``never`` — a threshold no count
reaches, the lattice interpreter alone — is the no-region reference,
and ``warp`` — the per-warp oracle engine, timed in the same rounds —
the reference the jit has to beat.

    PYTHONPATH=src python benchmarks/tier_up_sweep.py [--repeats 7]
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import time

from repro.bench import all_benchmarks
from repro.gpu import Memory, SimtMachine, jit
from repro.ir.parser import parse_module
from repro.transforms.pass_manager import COMPILE_TIMEOUT
from repro.transforms.pipeline import compile_module
from repro.transforms.unmerge import MAX_INSTRUCTIONS

KERNEL_DIR = pathlib.Path(__file__).resolve().parent / "perf" / "kernels"
THRESHOLDS = (1, 2, 4, 8, 16, 32, 64, 256, 0)   # 0: never reached.


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=7)
    repeats = parser.parse_args().repeats

    apps = []
    for bench in all_benchmarks():
        for config in ("baseline", "uu_heuristic"):
            module = bench.build_module()
            compile_module(module, config, max_instructions=MAX_INSTRUCTIONS,
                           timeout_seconds=COMPILE_TIMEOUT)
            apps.append((bench, module))
    kernels = {p.stem: parse_module(p.read_text(), p.stem)
               for p in sorted(KERNEL_DIR.glob("*.ir"))}

    def suite(engine: str) -> None:
        for bench, module in apps:
            bench.run(module, engine=engine)

    def kernel(engine: str) -> None:
        for name, module in kernels.items():
            memory, args = Memory(), [1000]
            if len(module.get_function(name).args) == 2:
                args.insert(0, memory.alloc("buf", "i64", 512))
            SimtMachine(module, memory, engine=engine).launch(
                name, 1, 512, args)

    rows = THRESHOLDS + ("warp",)
    seconds = {row: {"suite": [], "kernel": []} for row in rows}
    for _ in range(repeats):
        for row in rows:
            engine = "warp" if row == "warp" else "jit"
            if engine == "jit":
                jit.TIER_UP_DISPATCHES = row
            for label, run in (("suite", suite), ("kernel", kernel)):
                start = time.perf_counter()
                run(engine)
                seconds[row][label].append(time.perf_counter() - start)

    print(f"{'threshold':>10}{'suite min':>11}{'median':>8}"
          f"{'kernel min':>12}{'median':>8}   (seconds, {repeats} rounds)")
    for row, got in seconds.items():
        label = "never" if row == 0 else str(row)
        print(f"{label:>10}"
              f"{min(got['suite']):>11.3f}"
              f"{statistics.median(got['suite']):>8.3f}"
              f"{min(got['kernel']):>12.3f}"
              f"{statistics.median(got['kernel']):>8.3f}")


if __name__ == "__main__":
    main()
