"""Analyses and IR primitives cost per query or per run, not per size.

Unmerged code is where the compile time of Figure 6c goes, and four
primitives the cleanup battery leans on used to be super-linear exactly
there: one dominator tree per *loop* and one dominance test per block per
*sweep* in LICM, a phi built and erased per merge copy, a linear block
search per deleted block.  The IR that comes out cannot show that tax — no
pass decides anything differently with or without it — so this file pins
its absence as call counts, in the style of ``tests/test_step_tax.py``.
"""

from __future__ import annotations

from repro.analysis.dominators import DominatorTree
from repro.analysis.loops import LoopInfo
from repro.bench import benchmark_by_name
from repro.ir import clone as clone_mod
from repro.ir import parse_function, verify_function
from repro.ir.function import Function
from repro.ir.instructions import PhiInst
from repro.transforms import unmerge as unmerge_mod
from repro.transforms.licm import LoopInvariantCodeMotion
from repro.transforms.pipeline import build_pipeline
from repro.transforms.simplifycfg import SimplifyCFG
from tests.test_tier_up import spy


def unmerged(app, name):
    """Function ``name`` of ``app`` as the heuristic's transform stage
    leaves it for the cleanup battery."""
    module = benchmark_by_name(app).build_module()
    pipeline = build_pipeline("uu_heuristic", max_instructions=8000)
    names = [p.name for p in pipeline.passes]
    del pipeline.passes[names.index("cleanup"):]
    pipeline.run(module)
    return module.functions[name]


#: Four loops; ``h1`` is entered from two blocks and ``h2`` from a block
#: with another way out, so hoisting out of either needs a new preheader.
NEEDS_PREHEADERS = """
define i64 @f(i64 %n, i64 %x, i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %h1
b:
  br label %h1
h1:
  %i = phi i64 [ 0, %a ], [ 1, %b ], [ %i2, %h1 ]
  %inv1 = mul i64 %x, %x
  %i2 = add i64 %i, %inv1
  %c1 = icmp slt i64 %i2, %n
  br i1 %c1, label %h1, label %mid
mid:
  br i1 %c, label %h2, label %h3
h2:
  %j = phi i64 [ 0, %mid ], [ %j2, %h2 ]
  %inv2 = add i64 %x, 7
  %j2 = add i64 %j, %inv2
  %c2 = icmp slt i64 %j2, %n
  br i1 %c2, label %h2, label %h3
h3:
  %k = phi i64 [ 0, %mid ], [ %j2, %h2 ], [ %k2, %h3 ]
  %k2 = add i64 %k, 1
  %c3 = icmp slt i64 %k2, %n
  br i1 %c3, label %h3, label %h4
h4:
  %m = phi i64 [ %k2, %h3 ], [ %m2, %h4 ]
  %m2 = add i64 %m, 2
  %c4 = icmp slt i64 %m2, %n
  br i1 %c4, label %h4, label %exit
exit:
  ret i64 %m2
}
"""


def licm_tree_builds(func, monkeypatch):
    """(trees built, of which LoopInfo's own, preheaders created)."""
    builds = spy(monkeypatch, DominatorTree, "_run")
    loop_infos = spy(monkeypatch, LoopInfo, "compute")
    blocks = len(func.blocks)
    LoopInvariantCodeMotion().run(func)
    counts = len(builds), len(loop_infos), len(func.blocks) - blocks
    verify_function(func)
    return counts


def test_licm_builds_no_dominator_tree_per_loop(monkeypatch):
    func = unmerged("ccs", "ccs_correlate")
    assert len(LoopInfo.compute(func).loops) == 2
    builds, loop_infos, preheaders = licm_tree_builds(func, monkeypatch)
    assert (loop_infos, preheaders) == (1, 0)
    assert builds == loop_infos  # LoopInfo's tree served every loop.


def test_licm_rebuilds_the_tree_only_after_adding_a_preheader(monkeypatch):
    func = parse_function(NEEDS_PREHEADERS)
    assert len(LoopInfo.compute(func).loops) == 4
    builds, loop_infos, preheaders = licm_tree_builds(func, monkeypatch)
    assert preheaders == 2
    assert builds - loop_infos <= 1 + preheaders
    hoisted = {inst.name for block in func.blocks
               if block.name.endswith(".preheader")
               for inst in block.instructions}
    assert {"inv1", "inv2"} <= hoisted


def test_licm_tests_dominance_once_per_block_not_once_per_sweep(monkeypatch):
    func = unmerged("bn", "bn_count")
    loop_info = LoopInfo.compute(func)
    tree = DominatorTree.compute(func)
    # What LoopInfo asks (one query per CFG edge) ...
    allowed = sum(len(b.successors()) for b in func.blocks)
    # ... plus, per loop, one always-executed test per block: each latch in
    # turn until one is not dominated.
    for loop in loop_info.loops:
        latches = loop.latches()
        for block in loop.blocks:
            for latch in latches:
                allowed += 1
                if not tree.dominates_block(block, latch):
                    break

    queries = spy(monkeypatch, DominatorTree, "dominates_block")
    assert LoopInvariantCodeMotion().run(func)  # Hoists, so >= 2 sweeps.
    assert 0 < len(queries) <= allowed


def test_unmerging_clones_no_phi_of_the_merge_block(monkeypatch):
    func = parse_function("""
define i64 @f(i64 %n, i64 %x) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %latch ]
  %odd = and i64 %i, 1
  %c = icmp eq i64 %odd, 0
  br i1 %c, label %then, label %else
then:
  %p = add i64 %i, %x
  br label %merge
else:
  %q = mul i64 %i, %x
  br label %merge
merge:
  %r = phi i64 [ %p, %then ], [ %q, %else ]
  %s = phi i64 [ 1, %then ], [ 2, %else ]
  %t = add i64 %r, %s
  %big = icmp sgt i64 %t, 100
  br i1 %big, label %clamp, label %latch
clamp:
  br label %latch
latch:
  %u = phi i64 [ %t, %merge ], [ 100, %clamp ]
  %next = add i64 %i, %u
  %more = icmp slt i64 %next, %n
  br i1 %more, label %header, label %exit
exit:
  ret i64 %next
}
""")
    events = []
    real_duplicate = unmerge_mod._duplicate_tail
    real_clone = clone_mod.clone_instruction

    def duplicate(func, region, merge, tail):
        events.append(("merge", merge))
        return real_duplicate(func, region, merge, tail)

    def clone(inst, *args):
        events.append(("clone", inst, inst.parent))
        return real_clone(inst, *args)

    monkeypatch.setattr(unmerge_mod, "_duplicate_tail", duplicate)
    monkeypatch.setattr(clone_mod, "clone_instruction", clone)
    loop = LoopInfo.compute(func).loops[0]
    assert unmerge_mod.unmerge_loop(func, loop)
    verify_function(func)

    merges = [event[1].name for event in events if event[0] == "merge"]
    assert merges[0] == "merge" and len(merges) >= 2
    merge = None
    cloned_phis = 0
    for event in events:
        if event[0] == "merge":
            merge = event[1]
        elif isinstance(event[1], PhiInst):
            cloned_phis += 1
            assert event[2] is not merge
    # Phis deeper in a tail (``%u`` under ``merge``) are still cloned.
    assert cloned_phis
    copies = [block for block in func.blocks
              if block.name.startswith("merge")]
    assert len(copies) == 2 and not any(block.phis() for block in copies)


def test_deleting_unreachable_blocks_searches_for_none_of_them(monkeypatch):
    # Unpruned unmerging, so the loop holds hundreds of blocks to delete.
    with monkeypatch.context() as patch:
        patch.setattr(unmerge_mod, "_path_facts", lambda *args: None)
        func = unmerged("bspline-vgh", "bspline_vgh")
    # Cut the loop off: everything behind the header's first branch dies.
    header = LoopInfo.compute(func).loops[0].header
    term = header.terminator
    inside, outside = term.successors()
    for phi in inside.phis():
        phi.remove_incoming(header)
    term.replace_successor(inside, outside)
    blocks = len(func.blocks)

    searches = spy(monkeypatch, Function, "_block_index")
    assert SimplifyCFG()._remove_unreachable(func)
    assert not searches
    assert blocks - len(func.blocks) > 100
    assert all(b.parent is func for b in func.blocks)
