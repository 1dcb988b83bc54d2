"""Unmerging keeps its region state incrementally: cost per duplication,
selection order and output must all equal the whole-function rescan it
replaced."""

import hashlib

import pytest

from repro.analysis import LoopInfo, predecessor_map, reverse_postorder
from repro.bench import benchmark_by_name
from repro.frontend.lower import lower_kernels
from repro.fuzz.generator import generate_kernel
from repro.ir import Module, parse_function, verify_function
from repro.ir.block import BasicBlock
from repro.ir.printer import print_module
from repro.transforms import (SimplifyCFG, UnmergeBudgetExceeded, apply_uu,
                              unmerge_loop, unroll_loop)
from repro.transforms import unmerge as unmerge_module
from repro.transforms.pass_manager import PassManager
from repro.transforms.pipeline import transform_passes
from tests.test_partial_unmerge import PROFITABLE, UNPROFITABLE
from tests.test_unmerge import TWO_DIAMONDS


def diamond_chain(k):
    """A loop whose body is a chain of ``k`` diamonds: 2**k paths."""
    lines = ["define i64 @f(i64 %n) {", "entry:", "  br label %header",
             "header:",
             f"  %i = phi i64 [ 0, %entry ], [ %next, %m{k} ]",
             f"  %acc = phi i64 [ 0, %entry ], [ %acc{k}, %m{k} ]",
             "  %c = icmp slt i64 %i, %n",
             "  br i1 %c, label %m0, label %exit",
             "m0:", "  %acc0 = add i64 %acc, 1"]
    for d in range(1, k + 1):
        lines += [f"  %bit{d} = and i64 %i, {1 << (d - 1)}",
                  f"  %c{d} = icmp eq i64 %bit{d}, 0",
                  f"  br i1 %c{d}, label %a{d}, label %b{d}",
                  f"a{d}:", f"  br label %m{d}",
                  f"b{d}:", f"  br label %m{d}",
                  f"m{d}:",
                  f"  %v{d} = phi i64 [ {2 * d + 1}, %a{d} ], [ {2 * d}, %b{d} ]",
                  f"  %acc{d} = add i64 %acc{d - 1}, %v{d}"]
    lines += ["  %next = add i64 %i, 1", "  br label %header",
              "exit:", "  ret i64 %acc", "}"]
    return "\n".join(lines)


# The duplicated tail of %merge contains the whole %inner loop.
INNER_LOOP_IN_TAIL = """
define i64 @f(i64 %n, i64 %m) {
entry:
  br label %outer
outer:
  %i = phi i64 [ 0, %entry ], [ %inext, %olatch ]
  %acc = phi i64 [ 0, %entry ], [ %acc2, %olatch ]
  %ci = icmp slt i64 %i, %n
  br i1 %ci, label %body, label %exit
body:
  %bit = and i64 %i, 1
  %odd = icmp eq i64 %bit, 1
  br i1 %odd, label %a, label %b
a:
  br label %merge
b:
  br label %merge
merge:
  %start = phi i64 [ 3, %a ], [ 5, %b ]
  br label %inner
inner:
  %j = phi i64 [ 0, %merge ], [ %jnext, %ilatch ]
  %a1 = phi i64 [ %start, %merge ], [ %anext, %ilatch ]
  %jbit = and i64 %j, 1
  %jodd = icmp eq i64 %jbit, 1
  br i1 %jodd, label %ia, label %ib
ia:
  br label %ilatch
ib:
  br label %ilatch
ilatch:
  %step = phi i64 [ 1, %ia ], [ 2, %ib ]
  %anext = add i64 %a1, %step
  %jnext = add i64 %j, 1
  %cj = icmp slt i64 %jnext, %m
  br i1 %cj, label %inner, label %after
after:
  %big = icmp sgt i64 %anext, 9
  br i1 %big, label %c, label %d
c:
  br label %olatch
d:
  br label %olatch
olatch:
  %bonus = phi i64 [ 1, %c ], [ 0, %d ]
  %acc2 = add i64 %anext, %bonus
  %inext = add i64 %i, 1
  br label %outer
exit:
  ret i64 %acc
}
"""

# %a reaches %merge over both edges of one conditional branch: it is one
# predecessor, not two.
COINCIDING_TARGETS = """
define i64 @f(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %m2 ]
  %acc = phi i64 [ 0, %entry ], [ %nacc, %m2 ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  %bit = and i64 %i, 1
  %odd = icmp eq i64 %bit, 1
  br i1 %odd, label %a, label %b
a:
  br i1 %odd, label %merge, label %merge
b:
  br label %merge
merge:
  %v = phi i64 [ 3, %a ], [ 5, %b ]
  %big = icmp sgt i64 %i, 4
  br i1 %big, label %m2, label %skip
skip:
  br label %m2
m2:
  %w = phi i64 [ 7, %merge ], [ 11, %skip ]
  %sum = add i64 %v, %w
  %nacc = add i64 %acc, %sum
  %next = add i64 %i, 1
  br label %header
exit:
  ret i64 %acc
}
"""


def _find_merge_block(func, header, region, inner_blocks, skipped=None):
    """The whole-function scan ``unmerge_loop`` used to run before every
    duplication, kept verbatim as the oracle for the resumable walk."""
    preds = predecessor_map(func)
    for block in reverse_postorder(func):
        if id(block) not in region or block is header:
            continue
        if id(block) in inner_blocks:
            continue  # Belongs to a nested loop: not ours to unmerge.
        if skipped is not None and id(block) in skipped:
            continue
        in_region_preds = [p for p in preds[block] if id(p) in region]
        if len(in_region_preds) >= 2:
            return block
    return None


@pytest.fixture
def checked(monkeypatch):
    """Check every selection against the oracle and the running instruction
    count after every duplication; yields the per-call tallies."""
    tally = {"selections": 0, "duplications": 0, "region": None}
    walk_next = unmerge_module._MergeWalk.next_merge
    duplicate = unmerge_module._duplicate_tail

    def next_merge(walk):
        region = walk.region
        func = region.header.parent
        expected = _find_merge_block(func, region.header, region.ids,
                                     region.inner, walk.skipped)
        chosen = walk_next(walk)
        assert chosen is expected, (
            f"walk chose {chosen and chosen.name}, "
            f"scan chose {expected and expected.name}")
        tally["selections"] += chosen is not None
        return chosen

    def duplicate_tail(func, region, merge, tail):
        assert merge.parent is func
        duplicate(func, region, merge, tail)
        assert region.instruction_count == func.instruction_count()
        tally["duplications"] += 1
        tally["region"] = region

    monkeypatch.setattr(unmerge_module._MergeWalk, "next_merge", next_merge)
    monkeypatch.setattr(unmerge_module, "_duplicate_tail", duplicate_tail)
    return tally


def _parsed(text, factor=1):
    mod = Module("t")
    f = parse_function(text, mod)
    loop = LoopInfo.compute(f).loops[0]
    if factor > 1:
        header = loop.header
        unroll_loop(f, loop, factor)
        loop = [l for l in LoopInfo.compute(f).loops
                if l.header is header][0]
    return f, loop


class TestScaling:
    def test_successor_reads_per_block_do_not_grow(self, monkeypatch):
        """Chain of k diamonds: the old driver re-scanned the function per
        duplication (37, 119, 422, 1594 reads per produced block)."""
        reads = [0]
        successors = BasicBlock.successors

        def counting(block):
            reads[0] += 1
            return successors(block)

        per_block = {}
        for k in (4, 6, 8, 10):
            f, loop = _parsed(diamond_chain(k))
            with monkeypatch.context() as patch:
                patch.setattr(BasicBlock, "successors", counting)
                reads[0] = 0
                assert unmerge_loop(f, loop, max_instructions=10 ** 9)
                per_block[k] = reads[0] / len(f.blocks)
            assert len(LoopInfo.compute(f).loops[0].latches()) == 2 ** k
        assert max(per_block.values()) <= 16, per_block


class TestSelectionEquivalence:
    @pytest.mark.parametrize("text,factor", [
        (TWO_DIAMONDS, 1), (TWO_DIAMONDS, 4), (INNER_LOOP_IN_TAIL, 1),
        (INNER_LOOP_IN_TAIL, 2), (COINCIDING_TARGETS, 1),
        (COINCIDING_TARGETS, 3)],
        ids=["two-diamonds", "two-diamonds-x4", "inner-loop-in-tail",
             "inner-loop-in-tail-x2", "coinciding-targets",
             "coinciding-targets-x3"])
    def test_same_block_at_every_step(self, checked, text, factor):
        f, loop = _parsed(text, factor)
        assert unmerge_loop(f, loop)
        verify_function(f)
        assert checked["selections"] == checked["duplications"] > 0

    @pytest.mark.parametrize("text", [PROFITABLE, UNPROFITABLE],
                             ids=["profitable", "unprofitable"])
    @pytest.mark.parametrize("factor", [1, 4])
    def test_selective_walks_past_the_same_blocks(self, checked, text,
                                                  factor):
        f, loop = _parsed(text, factor)
        unmerge_loop(f, loop, selective=True)
        verify_function(f)
        assert checked["selections"] >= checked["duplications"]
        assert checked["selections"] > 0

    def test_inner_loop_cloned_whole(self, checked):
        f, loop = _parsed(INNER_LOOP_IN_TAIL)
        unmerge_loop(f, loop)
        outer = LoopInfo.compute(f).by_id("f:0")
        # One private inner loop per path into it, each still a merge-ful
        # natural loop of its own.
        assert len(outer.children) == 2
        assert all(len(c.latches()) == 1 for c in outer.children)

    def test_fuzzed_kernels(self, checked):
        for seed in range(50):
            module = lower_kernels([generate_kernel(seed)], f"fuzz{seed}")
            PassManager([SimplifyCFG()]).run(module)
            for func in module.functions.values():
                for top in list(LoopInfo.compute(func).top_level):
                    fresh = [l for l in LoopInfo.compute(func).loops
                             if l.header is top.header]
                    if fresh:
                        apply_uu(func, fresh[0], 4, max_instructions=3000)
                verify_function(func)
        assert checked["duplications"] > 100

    def test_count_is_exact_when_the_budget_trips(self, checked):
        f, loop = _parsed(TWO_DIAMONDS, 8)
        with pytest.raises(UnmergeBudgetExceeded):
            unmerge_loop(f, loop, max_instructions=200)
        region = checked["region"]
        assert region.instruction_count == f.instruction_count() > 200
        verify_function(f)


# sha256 of the printed module as it enters the cleanup battery, recorded at
# the commit before unmerging went incremental (PR 11, 13bccb4).
GOLDEN = {
    ('bspline-vgh', 'uu', 'bspline_vgh:0', 8):  # 5382 insts
        "2fdebeab068ee8942d748fb769bd64df55c5ca03ea6f556251586b8627e281da",
    ('bn', 'uu', 'bn_score:0', 8):  # 5693 insts
        "4a4b26b5319800ee20a9d1587bb7b5633adba7cc66a7ef9b1b30efca44752659",
    ('qtclustering', 'uu', 'qt_membership:0', 4):  # 2778 insts
        "701a8ab1e3c3d6cb5777077afbf35395c3514414069afd8eb09b9a9048fdd5a1",
    ('qtclustering', 'uu', 'qt_membership:0', 8):  # budget abort, 8063 insts
        "664184316edfeb973ff7470444ad3a57a80577613163fe29ee05d4d114ac41fb",
    ('bezier-surface', 'uu', 'bezier_blend:0', 8):  # budget abort, 8077 insts
        "7b359c69e98051691d50fa5b68a8a67d8278adbf7d7c1c0614058d9bf075217c",
    ('complex', 'uu', 'complex_pow:0', 4):  # 307 insts
        "3a7e3d9bfaff7861f1986b42283b9007fb22a667910e2caa6629b98bf3d58d18",
    ('rainflow', 'unmerge', 'rainflow_count:0', 1):  # 186 insts
        "a39586da48560453b7f7366fe740f2e7a70a80772bf798316b1912613a25363d",
    ('quicksort', 'uu', 'qs_insertion:0', 4):  # loop nest, 212 insts
        "8dc063511f4f412e865859b321fc7ce8396e334b6fa1ae3c284a44e6d2a973a4",
    ('XSBench', 'uu_heuristic', None, 1):  # 1161 insts
        "18f494ea02628d5fb139c3033cca614340b9a791c1a406d611ba3746e6cb8f15",
    ('rainflow', 'uu_heuristic', None, 1):  # 2011 insts
        "e5c544dea4d0ceb36007ee936727dbf79f55bf0b56e08064b9fb82ab97a70449",
}


class TestGoldenIR:
    @pytest.mark.parametrize("cell", sorted(GOLDEN, key=str), ids=str)
    def test_transform_stage_output_unchanged(self, cell):
        app, config, loop_id, factor = cell
        module = benchmark_by_name(app).build_module()
        PassManager([SimplifyCFG()] + transform_passes(
            config, loop_id=loop_id, factor=factor,
            max_instructions=8000)).run(module)
        digest = hashlib.sha256(print_module(module).encode()).hexdigest()
        assert digest == GOLDEN[cell]
