"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not a paper exhibit — these isolate *why* u&u works in this reproduction:

1. **Branch facts**: disable GVN's provenance-fact machinery and u&u's win
   on the fact-driven benchmarks collapses (the duplication alone buys
   little — the paper's central claim that the *subsequent* optimizations
   do the work).
2. **Heuristic budget c**: shrink the f(p,s,u) bound and the heuristic
   stops selecting loops; grow it and it behaves like fixed large factors,
   inheriting their code-size extremes.
3. **Divergence filter** (the paper's future-work extension): with
   ``avoid_divergent=True`` the `complex` regression disappears.
"""

import numpy as np
import pytest
from conftest import write_artifact

from repro.bench import benchmark_by_name
from repro.harness import ExperimentRunner
from repro.transforms import HeuristicParams, compile_module
from repro.transforms.heuristic import select_loops
from repro.transforms.unmerge import MAX_INSTRUCTIONS
from repro.analysis import LoopInfo


def _run_config(bench, config, branch_facts=True, **kw):
    module = bench.build_module()
    compile_module(module, config, max_instructions=MAX_INSTRUCTIONS,
                   branch_facts=branch_facts, **kw)
    outputs, counters = bench.run(module)
    return outputs, counters


def test_branch_facts_ablation(benchmark, results_dir):
    """u&u minus branch facts ~= expensive no-op on fact-driven loops."""

    def run():
        rows = []
        # bezier and bspline wins are fact-driven (condition re-checks fold
        # via edge facts); XSBench's win flows through unmerge's phi
        # collapse + instcombine instead, so it is reported but expected to
        # be insensitive to this ablation.
        for app, loop_id, factor in [("bezier-surface", "bezier_blend:0", 2),
                                     ("bspline-vgh", "bspline_vgh:0", 5),
                                     ("XSBench", "grid_search:0", 2)]:
            bench = benchmark_by_name(app)
            base_out, base = _run_config(bench, "baseline")
            uu_out, uu = _run_config(bench, "uu", loop_id=loop_id,
                                     factor=factor)
            abl_out, ablated = _run_config(bench, "uu", branch_facts=False,
                                           loop_id=loop_id, factor=factor)
            for name in base_out:
                assert np.array_equal(base_out[name], uu_out[name])
                assert np.array_equal(base_out[name], abl_out[name])
            rows.append((app, base.cycles / uu.cycles,
                         base.cycles / ablated.cycles))
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    lines = [f"{'app':<16} {'u&u':>8} {'u&u, no branch facts':>22}"]
    for app, with_facts, without in rows:
        lines.append(f"{app:<16} {with_facts:>7.3f}x {without:>21.3f}x")
    text = "\n".join(["Ablation: GVN branch facts"] + lines)
    write_artifact(results_dir, "ablation_branch_facts.txt", text)
    print("\n" + text)

    by_app = {app: (wf, wo) for app, wf, wo in rows}
    # The facts account for a real share of the win on the fact-driven loops
    # and never hurt elsewhere.
    for app in ("bezier-surface", "bspline-vgh"):
        with_facts, without = by_app[app]
        assert with_facts > without, (app, with_facts, without)
    for app, with_facts, without in rows:
        assert with_facts >= without * 0.999, (app, with_facts, without)


def test_heuristic_budget_ablation(benchmark, results_dir):
    """The c bound controls how many loops are selected."""

    def run():
        bench = benchmark_by_name("rainflow")
        module = bench.build_module()
        func = module.get_function("rainflow_count")
        info = LoopInfo.compute(func)
        counts = {}
        for c in (32, 1024, 1 << 20):
            decisions = select_loops(func, info, HeuristicParams(c=c))
            counts[c] = sum(1 for d in decisions if d.factor is not None)
        return counts

    counts = benchmark.pedantic(run, iterations=1, rounds=1)
    text = "Ablation: heuristic budget c -> selected loops " + repr(counts)
    write_artifact(results_dir, "ablation_heuristic_budget.txt", text)
    print("\n" + text)

    assert counts[32] <= counts[1024] <= counts[1 << 20]
    assert counts[32] == 0              # Tiny budget selects nothing.
    assert counts[1024] >= 1            # The paper's budget selects.


def test_divergence_filter_ablation(benchmark, runner, results_dir):
    """avoid_divergent=True neutralises the complex regression."""

    def run():
        bench = benchmark_by_name("complex")
        plain_runner = ExperimentRunner(
            heuristic=HeuristicParams(), max_instructions=MAX_INSTRUCTIONS)
        aware_runner = ExperimentRunner(
            heuristic=HeuristicParams(avoid_divergent=True),
            max_instructions=MAX_INSTRUCTIONS)
        base = plain_runner.baseline(bench)
        plain = plain_runner.heuristic_cell(bench)
        base2 = aware_runner.baseline(bench)
        aware = aware_runner.heuristic_cell(bench)
        return (plain.speedup_over(base), aware.speedup_over(base2))

    plain, aware = benchmark.pedantic(run, iterations=1, rounds=1)
    text = (f"Ablation: divergence filter on complex — default {plain:.3f}x, "
            f"avoid_divergent {aware:.3f}x")
    write_artifact(results_dir, "ablation_divergence_filter.txt", text)
    print("\n" + text)

    assert plain < 0.9          # Default heuristic regresses on complex.
    assert aware > 0.95         # The filter keeps baseline performance.


def test_partial_unmerging_extension(benchmark, results_dir):
    """The paper's Section VI extension: partial unmerging skips merges
    with no foldable provenance, containing code growth and the complex
    slowdown while keeping the wins where facts exist."""

    from repro.analysis import LoopInfo
    from repro.transforms.uu import apply_uu
    from repro.transforms.pass_manager import PassManager
    from repro.transforms import SimplifyCFG

    def measure(app, loop_id, factor, selective):
        bench = benchmark_by_name(app)
        module = bench.build_module()
        # Early SimplifyCFG as in the real pipeline, then raw u&u so the
        # comparison isolates the unmerge policy.
        PassManager([SimplifyCFG()]).run(module)
        for func in module.functions.values():
            info = LoopInfo.compute(func)
            target = info.by_id(loop_id)
            if target is not None:
                apply_uu(func, target, factor,
                         max_instructions=MAX_INSTRUCTIONS,
                         selective=selective)
        outputs, counters = bench.run(module)
        return outputs, counters, module.instruction_count()

    def run():
        rows = []
        for app, loop_id, factor in [("complex", "complex_pow:0", 4),
                                     ("bezier-surface", "bezier_blend:0", 2)]:
            bench = benchmark_by_name(app)
            base_out, base = _run_config(bench, "baseline")
            f_out, full, f_size = measure(app, loop_id, factor, False)
            s_out, sel, s_size = measure(app, loop_id, factor, True)
            for name in base_out:
                assert np.array_equal(base_out[name], f_out[name])
                assert np.array_equal(base_out[name], s_out[name])
            rows.append((app, base.cycles / full.cycles,
                         base.cycles / sel.cycles, f_size, s_size))
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    lines = [f"{'app':<16} {'full u&u':>9} {'partial':>9} "
             f"{'size full':>10} {'size part':>10}"]
    for app, full_s, sel_s, f_size, s_size in rows:
        lines.append(f"{app:<16} {full_s:>8.3f}x {sel_s:>8.3f}x "
                     f"{f_size:>10} {s_size:>10}")
    text = "\n".join(["Ablation: partial unmerging (paper Section VI)"]
                     + lines)
    write_artifact(results_dir, "ablation_partial_unmerge.txt", text)
    print("\n" + text)

    by_app = {r[0]: r for r in rows}
    # complex: skipping the unprofitable merge avoids the blowup.
    _, full_s, sel_s, f_size, s_size = by_app["complex"]
    assert sel_s > full_s
    assert s_size < f_size
    # bezier: the profitable merge is still duplicated, keeping the win.
    _, full_s, sel_s, _, _ = by_app["bezier-surface"]
    assert sel_s > 1.0
