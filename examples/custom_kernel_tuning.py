"""Tuning u&u on your own kernel: per-loop sweeps and the f(p,s,u) budget.

Writes a small stencil-style kernel with a sticky boundary flag, then:

1. enumerates its loops with their deterministic ids,
2. shows the heuristic's reasoning (paths p, size s, chosen factor via
   the paper's f(p, s, u) = sum p^i * s bound),
3. sweeps unroll factors manually and reports speedup / code size, the way
   the paper's per-loop experiments (Figure 6) are run.

Run:  python examples/custom_kernel_tuning.py
"""

import numpy as np

from repro.analysis import LoopInfo, count_paths, estimate_unmerged_size, loop_size
from repro.frontend import (Assign, GlobalTid, If, Index, KernelDef, Lit,
                            Param, Store, V, While)
from repro.frontend.lower import lower_kernels
from repro.gpu import Memory, SimtMachine
from repro.transforms import HeuristicParams, compile_module, select_loops
from repro.transforms.unmerge import MAX_INSTRUCTIONS

kernel = KernelDef(
    "smooth",
    [Param("src", "f64*", restrict=True),
     Param("dst", "f64*", restrict=True),
     Param("n", "i64"), Param("threads", "i64")],
    [
        Assign("gid", GlobalTid()),
        If(V("gid") < V("threads"), [
            Assign("acc", Lit(0.0, "f64")),
            Assign("clipped", Lit(0, "i64")),
            Assign("i", Lit(0, "i64")),
            While(V("i") < V("n"), [
                Assign("v", Index("src", (V("gid") + V("i")) % V("n"))),
                # Sticky clipping state: once clipped, stays clipped —
                # exactly the cross-iteration fact u&u exposes.
                If(V("clipped") != 0, [
                    Assign("acc", V("acc") + V("v") * 0.25),
                ], [
                    If(V("v") > 0.9, [
                        Assign("clipped", Lit(1, "i64")),
                    ], [
                        Assign("acc", V("acc") + V("v")),
                    ]),
                ]),
                Assign("i", V("i") + 1),
            ]),
            Store("dst", V("gid"), V("acc")),
        ]),
    ])


def run(config, loop_id=None, factor=1):
    module = lower_kernels([kernel], "tuning")
    compiled = compile_module(module, config, loop_id=loop_id, factor=factor,
                              max_instructions=MAX_INSTRUCTIONS)
    rng = np.random.default_rng(3)
    n, threads = 48, 64
    mem = Memory()
    src = mem.alloc("src", "f64", n, rng.random(n))
    dst = mem.alloc("dst", "f64", threads)
    machine = SimtMachine(module, mem)
    result = machine.launch("smooth", 1, threads, [src, dst, n, threads])
    return compiled, result.counters, mem.read_back("dst")


def main():
    # 1. Inspect the loops.
    module = lower_kernels([kernel], "tuning")
    func = module.get_function("smooth")
    info = LoopInfo.compute(func)
    print("Loops discovered:")
    for loop in info.loops:
        p = count_paths(loop, info)
        s = loop_size(loop)
        print(f"  {loop.loop_id}: paths p={p}, size s={s}")
        for u in (2, 4, 8):
            print(f"     f(p, s, {u}) = {estimate_unmerged_size(p, s, u)}")

    # 2. What would the paper's heuristic pick?
    decisions = select_loops(func, info, HeuristicParams(c=1024, u_max=8))
    for d in decisions:
        print(f"heuristic: {d.loop_id} -> factor {d.factor} ({d.reason})")

    # 3. Manual per-loop sweep (the Figure 6 methodology).
    _, base_counters, base_out = run("baseline")
    base_compiled, _, _ = run("baseline")
    print(f"\n{'config':<14} {'speedup':>8} {'size':>6} {'WEE %':>7}")
    print("-" * 40)
    print(f"{'baseline':<14} {'1.000':>7}x {base_compiled.code_size:>6} "
          f"{base_counters.warp_execution_efficiency:>6.1f}%")
    loop_id = info.loops[0].loop_id
    for factor in (2, 4, 8):
        compiled, counters, out = run("uu", loop_id, factor)
        assert np.allclose(out, base_out), "semantics must be preserved"
        speedup = base_counters.cycles / counters.cycles
        print(f"{'u&u@' + str(factor):<14} {speedup:>7.3f}x "
              f"{compiled.code_size:>6} "
              f"{counters.warp_execution_efficiency:>6.1f}%")


if __name__ == "__main__":
    main()
