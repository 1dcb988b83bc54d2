"""The `complex` pitfall: when u&u makes code slower, and how to avoid it.

Reproduces the paper's Section V worst case — binary exponentiation where
the loop-controlling value is the thread id, so the `n & 1` branch diverges
within every warp.  The baseline if-converts the conditional body into
selects and stays converged; u&u replaces them with long divergent paths
and gains nothing, so it only loses.

The example then demonstrates the paper's proposed mitigation (Section V /
future work): a tid-taint divergence analysis that disqualifies such loops
in the selection heuristic (`HeuristicParams(avoid_divergent=True)`).

Run:  python examples/divergence_pitfall.py
"""

from repro.analysis import DivergenceInfo, LoopInfo, loop_has_divergent_branch
from repro.bench import benchmark_by_name
from repro.harness import ExperimentRunner
from repro.transforms import HeuristicParams, select_loops
from repro.transforms.unmerge import MAX_INSTRUCTIONS


def main():
    runner = ExperimentRunner(max_instructions=MAX_INSTRUCTIONS)
    bench = benchmark_by_name("complex")
    base = runner.baseline(bench)

    print("complex (paper Listing 7): n = global thread id, so `n & 1`")
    print("diverges almost every iteration within a warp.\n")

    print(f"{'config':<12} {'speedup':>8} {'WEE %':>7} {'fetch stall %':>14}")
    print("-" * 46)
    for factor in (2, 4, 8):
        cell = runner.cell(bench, "uu", "complex_pow:0", factor)
        c = cell.counters
        print(f"u&u@{factor:<8} {cell.speedup_over(base):>7.3f}x "
              f"{c.warp_execution_efficiency:>6.1f}% "
              f"{c.stall_inst_fetch:>13.2f}%")
    b = base.counters
    print(f"{'baseline':<12} {'1.000':>7}x {b.warp_execution_efficiency:>6.1f}% "
          f"{b.stall_inst_fetch:>13.2f}%")

    # -- the taint analysis the paper proposes ---------------------------
    module = bench.build_module()
    func = module.get_function("complex_pow")
    info = DivergenceInfo.compute(func)
    loops = LoopInfo.compute(func)
    loop = loops.by_id("complex_pow:0")
    print()
    print("Divergence (tid-taint) analysis on the loop:",
          "DIVERGENT branch inside body"
          if loop_has_divergent_branch(loop, info) else "uniform")

    # The default heuristic picks the loop; the divergence-aware one skips.
    plain = select_loops(func, loops, HeuristicParams())
    aware = select_loops(func, loops, HeuristicParams(avoid_divergent=True))
    print(f"default heuristic decision:      factor={plain[0].factor} "
          f"({plain[0].reason})")
    print(f"divergence-aware heuristic:      factor={aware[0].factor} "
          f"({aware[0].reason})")
    print()
    print("With avoid_divergent=True the loop is left alone and the")
    print("application keeps its baseline performance — the mitigation the")
    print("paper sketches for exactly this case.")


if __name__ == "__main__":
    main()
