"""Control-flow unmerging tests: structure, phis, semantics, budget."""

import numpy as np
import pytest

from repro.analysis import LoopInfo, predecessor_map
from repro.bench import all_benchmarks, benchmark_by_name
from repro.fuzz.generator import generate_kernel
from repro.fuzz.oracle import BARE_MAX_INSTRUCTIONS, Subject, config_specs
from repro.gpu import SimtMachine
from repro.harness.experiment import sweep_specs
from repro.ir import Module, parse_function, verify_function
from repro.ir.printer import print_canonical
from repro.transforms import UnmergeBudgetExceeded, unmerge_loop, unroll_loop
from repro.transforms import unmerge as unmerge_mod
from repro.transforms.pipeline import compile_module

DIAMOND_LOOP = """
define i64 @f(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %merge ]
  %acc = phi i64 [ 0, %entry ], [ %nacc, %merge ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  %bit = and i64 %i, 1
  %odd = icmp eq i64 %bit, 1
  br i1 %odd, label %a, label %b
a:
  %x3 = mul i64 %i, 3
  br label %merge
b:
  %x5 = mul i64 %i, 5
  br label %merge
merge:
  %add = phi i64 [ %x3, %a ], [ %x5, %b ]
  %nacc = add i64 %acc, %add
  %next = add i64 %i, 1
  br label %header
exit:
  ret i64 %acc
}
"""

TWO_DIAMONDS = """
define i64 @f(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %m2 ]
  %acc = phi i64 [ 0, %entry ], [ %nacc2, %m2 ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  %bit = and i64 %i, 1
  %odd = icmp eq i64 %bit, 1
  br i1 %odd, label %a1, label %b1
a1:
  br label %m1
b1:
  br label %m1
m1:
  %v1 = phi i64 [ 3, %a1 ], [ 5, %b1 ]
  %nacc = add i64 %acc, %v1
  %big = icmp sgt i64 %i, 4
  br i1 %big, label %a2, label %b2
a2:
  br label %m2
b2:
  br label %m2
m2:
  %v2 = phi i64 [ 7, %a2 ], [ 11, %b2 ]
  %nacc2 = add i64 %nacc, %v2
  %next = add i64 %i, 1
  br label %header
exit:
  ret i64 %acc
}
"""


def unmerge(text, budget=60_000):
    mod = Module("t")
    f = parse_function(text, mod)
    loop = LoopInfo.compute(f).loops[0]
    unmerge_loop(f, loop, budget)
    verify_function(f)
    return mod, f


def interpret(mod, n):
    ret, _ = SimtMachine(mod).run_function("f", [n], lanes=1)
    return int(ret[0])


class TestStructure:
    def test_no_in_loop_merges_remain(self):
        mod, f = unmerge(DIAMOND_LOOP)
        info = LoopInfo.compute(f)
        loop = info.loops[0]
        preds = predecessor_map(f)
        for block in loop.blocks:
            if block is loop.header:
                continue
            in_loop = [p for p in preds[block] if loop.contains(p)]
            assert len(in_loop) <= 1, f"{block.name} still merges"

    def test_merge_phis_collapsed(self):
        mod, f = unmerge(DIAMOND_LOOP)
        loop = LoopInfo.compute(f).loops[0]
        for block in loop.blocks:
            if block is not loop.header:
                assert not block.phis(), f"phi left in {block.name}"

    def test_header_gains_latch_entries(self):
        mod, f = unmerge(DIAMOND_LOOP)
        loop = LoopInfo.compute(f).loops[0]
        # Two unmerged paths -> two latches into the header.
        assert len(loop.latches()) == 2
        for phi in loop.header.phis():
            assert len(phi.incoming_blocks) == 3  # preheader + 2 latches.

    def test_straight_loop_unchanged(self):
        text = """
define i64 @f(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %header ]
  %next = add i64 %i, 1
  %c = icmp slt i64 %next, %n
  br i1 %c, label %header, label %exit
exit:
  ret i64 %next
}
"""
        mod = Module("t")
        f = parse_function(text, mod)
        before = len(f.blocks)
        loop = LoopInfo.compute(f).loops[0]
        assert not unmerge_loop(f, loop)
        assert len(f.blocks) == before


class TestSemantics:
    @pytest.mark.parametrize("text", [DIAMOND_LOOP, TWO_DIAMONDS],
                             ids=["one-diamond", "two-diamonds"])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
    def test_unmerge_preserves_results(self, text, n):
        mod0 = Module("t0")
        parse_function(text, mod0)
        expected = interpret(mod0, n)
        mod, f = unmerge(text)
        assert interpret(mod, n) == expected

    @pytest.mark.parametrize("factor", [2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 4, 9])
    def test_unroll_then_unmerge_preserves_results(self, factor, n):
        mod0 = Module("t0")
        parse_function(TWO_DIAMONDS, mod0)
        expected = interpret(mod0, n)

        mod = Module("t")
        f = parse_function(TWO_DIAMONDS, mod)
        loop = LoopInfo.compute(f).loops[0]
        unroll_loop(f, loop, factor)
        verify_function(f)
        fresh = [l for l in LoopInfo.compute(f).loops
                 if l.header.name == "header"][0]
        unmerge_loop(f, fresh)
        verify_function(f)
        assert interpret(mod, n) == expected


class TestPathExplosion:
    def test_two_diamonds_make_four_paths(self):
        mod, f = unmerge(TWO_DIAMONDS)
        loop = LoopInfo.compute(f).loops[0]
        # 2 conditions -> 4 distinct latch paths.
        assert len(loop.latches()) == 4

    def test_budget_cap_raises(self):
        mod = Module("t")
        f = parse_function(TWO_DIAMONDS, mod)
        loop = LoopInfo.compute(f).loops[0]
        unroll_loop(f, loop, 8)
        fresh = [l for l in LoopInfo.compute(f).loops
                 if l.header.name == "header"][0]
        with pytest.raises(UnmergeBudgetExceeded):
            unmerge_loop(f, fresh, max_instructions=200)
        # IR must remain valid after the abort.
        verify_function(f)


class TestInnerLoops:
    def test_inner_loop_header_not_unmerged(self):
        text = """
define i64 @f(i64 %n, i64 %m) {
entry:
  br label %outer
outer:
  %i = phi i64 [ 0, %entry ], [ %inext, %olatch ]
  %acc = phi i64 [ 0, %entry ], [ %acc2, %olatch ]
  %ci = icmp slt i64 %i, %n
  br i1 %ci, label %inner, label %exit
inner:
  %j = phi i64 [ 0, %outer ], [ %jnext, %inner ]
  %a1 = phi i64 [ %acc, %outer ], [ %anext, %inner ]
  %anext = add i64 %a1, %j
  %jnext = add i64 %j, 1
  %cj = icmp slt i64 %jnext, %m
  br i1 %cj, label %inner, label %olatch
olatch:
  %acc2 = add i64 %anext, 1
  %inext = add i64 %i, 1
  br label %outer
exit:
  ret i64 %acc
}
"""
        mod0 = Module("t0")
        parse_function(text, mod0)
        expected = interpret_nm(mod0, 3, 4)

        mod = Module("t")
        f = parse_function(text, mod)
        outer = LoopInfo.compute(f).by_id("f:0")
        unmerge_loop(f, outer)
        verify_function(f)
        assert interpret_nm(mod, 3, 4) == expected


def interpret_nm(mod, n, m):
    ret, _ = SimtMachine(mod).run_function("f", [n, m], lanes=1)
    return int(ret[0])


# --------------------------------------------------------------------------
# Clone and prune: a copy holds only what the facts on its path leave live.
# --------------------------------------------------------------------------

#: ``%inv`` is loop-invariant: once unrolled, every copy of the diamond
#: branches the way the first one did.
INVARIANT_DIAMOND = """
define i64 @f(i64 %n, i64 %k) {
entry:
  %inv = icmp sgt i64 %k, 0
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %m ]
  %acc = phi i64 [ 0, %entry ], [ %nacc, %m ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  br i1 %inv, label %a, label %b
a:
  %x3 = mul i64 %i, 3
  br label %m
b:
  %x5 = mul i64 %i, 5
  br label %m
m:
  %v = phi i64 [ %x3, %a ], [ %x5, %b ]
  %nacc = add i64 %acc, %v
  %next = add i64 %i, 1
  br label %header
exit:
  ret i64 %acc
}
"""

#: The second diamond tests the negation of the first one's condition.
NEGATED_COMPARE = """
define i64 @f(i64 %n, i64 %k) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %m2 ]
  %acc = phi i64 [ 0, %entry ], [ %nacc2, %m2 ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  %lo = icmp slt i64 %i, %k
  br i1 %lo, label %a1, label %b1
a1:
  br label %m1
b1:
  br label %m1
m1:
  %v1 = phi i64 [ 3, %a1 ], [ 5, %b1 ]
  %nacc = add i64 %acc, %v1
  %hi = icmp sge i64 %i, %k
  br i1 %hi, label %a2, label %b2
a2:
  br label %m2
b2:
  br label %m2
m2:
  %v2 = phi i64 [ 7, %a2 ], [ 11, %b2 ]
  %nacc2 = add i64 %nacc, %v2
  %next = add i64 %i, 1
  br label %header
exit:
  ret i64 %acc
}
"""


@pytest.fixture
def unpruned(monkeypatch):
    """Unmerging as it was before pruning: no copy learns any fact."""
    monkeypatch.setattr(unmerge_mod, "_path_facts", lambda *args: None)


def unroll_and_unmerge(text, factor, budget=60_000):
    mod = Module("t")
    f = parse_function(text, mod)
    loop = LoopInfo.compute(f).loops[0]
    if factor > 1:
        unroll_loop(f, loop, factor)
        loop = [l for l in LoopInfo.compute(f).loops
                if l.header.name == "header"][0]
    unmerge_loop(f, loop, budget)
    verify_function(f)
    return mod, f


def interpret_nk(mod, n, k):
    ret, _ = SimtMachine(mod).run_function("f", [n, k], lanes=1)
    return int(ret[0])


class TestPruning:
    @pytest.mark.parametrize("n,k", [(0, 1), (5, 1), (7, -1), (9, 0)])
    def test_invariant_diamond_unrolled_x4_keeps_two_paths(self, n, k):
        mod, f = unroll_and_unmerge(INVARIANT_DIAMOND, 4)
        assert len(LoopInfo.compute(f).loops[0].latches()) == 2
        mod0 = Module("t0")
        parse_function(INVARIANT_DIAMOND, mod0)
        assert interpret_nk(mod, n, k) == interpret_nk(mod0, n, k)

    def test_unpruned_the_same_loop_has_sixteen(self, unpruned):
        mod, f = unroll_and_unmerge(INVARIANT_DIAMOND, 4)
        assert len(LoopInfo.compute(f).loops[0].latches()) == 16

    @pytest.mark.parametrize("n,k", [(0, 2), (6, 3), (6, 9), (4, -1)])
    def test_negated_compare_is_folded(self, n, k):
        mod, f = unroll_and_unmerge(NEGATED_COMPARE, 1)
        assert len(LoopInfo.compute(f).loops[0].latches()) == 2
        assert not [inst for inst in f.instructions()
                    if getattr(inst, "predicate", None) == "sge"]
        mod0 = Module("t0")
        parse_function(NEGATED_COMPARE, mod0)
        assert interpret_nk(mod, n, k) == interpret_nk(mod0, n, k)

    def test_region_over_the_cap_trips_it_at_the_unpruned_count(self):
        mod = Module("t")
        f = parse_function(TWO_DIAMONDS, mod)
        unroll_loop(f, LoopInfo.compute(f).loops[0], 8)
        loop = [l for l in LoopInfo.compute(f).loops
                if l.header.name == "header"][0]
        with pytest.raises(UnmergeBudgetExceeded):
            unmerge_loop(f, loop, max_instructions=200)
        # The count unmerging reached before pruning existed.
        assert f.instruction_count() == 268
        verify_function(f)


def _canonical_pair(monkeypatch, compile_once):
    """``compile_once()``'s module, canonically printed, pruned and not."""
    texts = []
    for pruned in (True, False):
        with monkeypatch.context() as patch:
            if not pruned:
                patch.setattr(unmerge_mod, "_path_facts", lambda *args: None)
            texts.append(print_canonical(compile_once()))
    return texts


#: The two cells of the set below that take 0.3 s or more to compile.
SLOW_CELLS = {("mandelbrot", "uu", "mandelbrot_escape:0", 4),
              ("rainflow", "uu", "rainflow_count:0", 4)}


class TestPruningKeepsTheCompiledCode:
    """Pruning only leaves out what the cleanup would delete: after the
    whole pipeline, the code is the unpruned code up to renumbering."""

    @pytest.mark.parametrize("app", [b.name for b in all_benchmarks()])
    def test_every_cell_of_the_app(self, monkeypatch, app):
        bench = benchmark_by_name(app)
        specs = [s for s in sweep_specs(bench, factors=(2, 4),
                                        configs=("uu", "unmerge",
                                                 "uu_heuristic"))[1:]
                 if (s.app, s.config, s.loop_id, s.factor) not in SLOW_CELLS]
        assert specs
        for spec in specs:

            def compile_once():
                module = bench.build_module()
                compile_module(module, spec.config, loop_id=spec.loop_id,
                               factor=spec.factor)
                return module
            pruned, unpruned = _canonical_pair(monkeypatch, compile_once)
            assert pruned == unpruned, spec

    def test_fuzz_seeds(self, monkeypatch):
        # The app cells' configurations, plus the fuzzer's own list-shaped
        # plan (every loop unmerged, outermost first).
        for seed in range(50):
            subject = Subject(kernel=generate_kernel(seed), seed=seed)
            for spec in config_specs(subject.build()):
                if spec.config in ("baseline", "unroll") or spec.factor > 4:
                    continue

                def compile_once():
                    module = subject.build()
                    compile_module(module, spec.config, loop_id=spec.loop_id,
                                   factor=spec.factor, plan=spec.plan,
                                   max_instructions=BARE_MAX_INSTRUCTIONS)
                    return module
                pruned, unpruned = _canonical_pair(monkeypatch,
                                                   compile_once)
                assert pruned == unpruned, (seed, spec)
