"""complex analog (paper Table I row "complex", Listing 7).

Complex-number exponentiation by squaring: ``n`` starts at the *global
thread id*, so the ``n & 1`` test diverges almost every iteration within a
warp.  The baseline -O3 pipeline if-converts the small conditional body
into selects (predication), keeping warps converged; u&u replaces those
selects with branches and makes the divergent paths *longer*, with no
redundancy for the cleanup passes to remove — the paper measures warp
execution efficiency 100% -> 19.4%, stall_inst_fetch 3.7% -> 79.6%, and a
slowdown down to 0.11x at factor 8.  This is the paper's designated
worst case (Section V).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..frontend.ast import (Assign, GlobalTid, If, Index, KernelDef, Lit,
                            Param, Store, V, While)
from ..gpu.memory import Memory
from .base import Benchmark, Launch, PaperNumbers, buf

THREADS = 128


class ComplexBench(Benchmark):
    name = "complex"
    category = "Math"
    command_line = "10000000 1000"
    paper = PaperNumbers(loops=1, compute_percent=99.91,
                         baseline_ms=2199.23, baseline_rsd=0.26,
                         heuristic_ms=2730.95, heuristic_rsd=0.10)
    seed = 303

    def kernels(self) -> List[KernelDef]:
        # Paper Listing 7: binary exponentiation where n = global tid.
        kernel = KernelDef(
            "complex_pow",
            [Param("a_re", "f64*", restrict=True),
             Param("out", "f64*", restrict=True),
             Param("threads", "i64")],
            [
                Assign("gid", GlobalTid()),
                If(V("gid") < V("threads"), [
                    Assign("n", V("gid")),
                    Assign("a", Index("a_re", V("gid"))),
                    Assign("c", Lit(1.0, "f64")),
                    Assign("a_new", Lit(1.0, "f64")),
                    Assign("c_new", Lit(0.0, "f64")),
                    While(V("n") > 0, [
                        If((V("n") & 1) != 0, [
                            Assign("a_new", V("a_new") * V("a")),
                            Assign("c_new", V("c_new") * V("a") + V("c")),
                        ]),
                        Assign("c", V("c") * (V("a") + 1.0)),
                        Assign("a", V("a") * V("a")),
                        Assign("n", V("n") >> 1),
                    ]),
                    Store("out", V("gid"), V("a_new") + V("c_new")),
                ]),
            ])
        return [kernel]

    def setup(self, mem: Memory, rng: np.random.Generator) -> Dict[str, int]:
        # Values near 1 keep repeated squaring finite for ~7 iterations.
        a = rng.random(THREADS) * 0.2 + 0.9
        return {
            "a_re": mem.alloc("a_re", "f64", THREADS, a),
            "out": mem.alloc("out", "f64", THREADS),
        }

    def launches(self) -> List[Launch]:
        # The real benchmark repeats its kernel 1000 times.  Repeating it
        # amortises nothing here: every warp of every launch starts with
        # a fresh instruction cache.
        return [Launch("complex_pow", 1, THREADS,
                       [buf("a_re"), buf("out"), THREADS])
                for _ in range(4)]

    def output_buffers(self) -> List[str]:
        return ["out"]
