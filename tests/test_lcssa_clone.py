"""LCSSA and region-cloning tests."""

import pytest

from repro.analysis import LoopInfo
from repro.gpu import SimtMachine
from repro.ir import (Module, clone_blocks, clone_instruction, parse_function,
                      verify_function)
from repro.ir.constants import ConstantInt
from repro.ir.instructions import Instruction, PhiInst
from repro.ir.printer import format_instruction, print_function
from repro.ir.types import I32
from repro.transforms import form_lcssa

LOOP_WITH_OUTSIDE_USE = """
define i64 @f(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %header ]
  %sq = mul i64 %i, %i
  %next = add i64 %i, 1
  %c = icmp slt i64 %next, %n
  br i1 %c, label %header, label %exit
exit:
  %use = add i64 %sq, 100
  ret i64 %use
}
"""


class TestLCSSA:
    def test_outside_use_routed_through_exit_phi(self):
        f = parse_function(LOOP_WITH_OUTSIDE_USE)
        loop = LoopInfo.compute(f).loops[0]
        assert form_lcssa(f, loop)
        verify_function(f)
        exit_block = [b for b in f.blocks if b.name == "exit"][0]
        phis = exit_block.phis()
        assert len(phis) == 1
        use = exit_block.instructions[-2]
        assert use.operands[0] is phis[0]

    def test_idempotent(self):
        f = parse_function(LOOP_WITH_OUTSIDE_USE)
        loop = LoopInfo.compute(f).loops[0]
        form_lcssa(f, loop)
        exit_block = [b for b in f.blocks if b.name == "exit"][0]
        n_phis = len(exit_block.phis())
        loop = LoopInfo.compute(f).loops[0]
        form_lcssa(f, loop)
        assert len(exit_block.phis()) == n_phis

    def test_follower_loop_header_circulates_value(self):
        # The exit block of loop 0 is the header of loop 1: the LCSSA phi
        # must circulate itself along loop 1's back edge, not re-read the
        # (dynamically stale) definition.  Regression test for the bn bug.
        text = """
define i64 @f(i64 %n) {
entry:
  br label %h0
h0:
  %i = phi i64 [ 0, %entry ], [ %inext, %h0 ]
  %sq = mul i64 %i, %i
  %inext = add i64 %i, 1
  %c0 = icmp slt i64 %inext, %n
  br i1 %c0, label %h0, label %h1
h1:
  %k = phi i64 [ 0, %h0 ], [ %knext, %h1 ]
  %acc = phi i64 [ 0, %h0 ], [ %nacc, %h1 ]
  %nacc = add i64 %acc, %sq
  %knext = add i64 %k, 1
  %c1 = icmp slt i64 %knext, 4
  br i1 %c1, label %h1, label %out
out:
  ret i64 %nacc
}
"""
        f = parse_function(text)
        loop0 = LoopInfo.compute(f).by_id("f:0")
        form_lcssa(f, loop0)
        verify_function(f)
        h1 = [b for b in f.blocks if b.name == "h1"][0]
        lcssa_phis = [p for p in h1.phis() if p.name.endswith(".lcssa")]
        assert lcssa_phis
        phi = lcssa_phis[0]
        back = phi.incoming_for(h1)
        assert back is phi, "back edge must circulate the phi itself"


class TestCloneBlocks:
    def test_internal_edges_remapped(self):
        f = parse_function("""
define i64 @f(i64 %x, i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  %p = add i64 %x, 1
  br label %join
b:
  %q = add i64 %x, 2
  br label %join
join:
  %r = phi i64 [ %p, %a ], [ %q, %b ]
  ret i64 %r
}
""")
        region = f.blocks[1:]  # a, b, join.
        clones, vmap = clone_blocks(f, region, "copy")
        assert len(clones) == 3
        # Cloned phi points at cloned values and cloned blocks.
        join_clone = clones[2]
        phi = join_clone.phis()[0]
        assert phi.incoming_blocks[0] is clones[0]
        assert phi.operands[0] is vmap[id(region[0].instructions[0])]

    def test_external_values_shared(self):
        f = parse_function("""
define i64 @f(i64 %x) {
entry:
  %base = mul i64 %x, 10
  br label %tail
tail:
  %r = add i64 %base, 1
  ret i64 %r
}
""")
        clones, vmap = clone_blocks(f, [f.blocks[1]], "copy")
        cloned_add = clones[0].instructions[0]
        # %base is outside the region: shared, not cloned.
        assert cloned_add.operands[0] is f.entry.instructions[0]

    def test_clone_names_unique(self):
        f = parse_function("""
define i64 @f(i64 %x) {
entry:
  br label %tail
tail:
  %r = add i64 %x, 1
  ret i64 %r
}
""")
        clones, _ = clone_blocks(f, [f.blocks[1]], "c1")
        names = [i.name for b in f.blocks for i in b.instructions if i.name]
        assert len(names) == len(set(names))

    def test_forward_reference_outside_a_phi_is_patched(self):
        # ``unroll_loop`` hands over ``loop.blocks`` and unmerging a
        # depth-first tail: neither is in dominance order, so a plain
        # instruction can be cloned before the region value it uses.
        f = parse_function("""
define i64 @f(i64 %x) {
entry:
  br label %def
def:
  %d = mul i64 %x, 3
  br label %use
use:
  %u = add i64 %d, %x
  ret i64 %u
}
""")
        entry, define, use = f.blocks
        clones, vmap = clone_blocks(f, [use, define], "copy")
        cloned_def = vmap[id(define.instructions[0])]
        cloned_use = clones[0].instructions[0]
        assert cloned_def.parent is clones[1]
        assert cloned_use.operands[0] is cloned_def
        assert cloned_use.operands[1] is f.args[0]
        # The clone's use moved with it; the original keeps exactly its own.
        assert [u.user for u in cloned_def.uses] == [cloned_use]
        assert [u.user for u in define.instructions[0].uses] == \
            [use.instructions[0]]
        assert clones[1].terminator.target is clones[0]
        entry.terminator.replace_successor(define, clones[1])
        verify_function(f)

    def test_premapped_instruction_is_skipped_but_takes_its_name(self):
        text = """
define i64 @f(i64 %x, i1 %c) {
entry:
  br i1 %c, label %a, label %join
a:
  br label %join
join:
  %r = phi i64 [ 1, %entry ], [ %x, %a ]
  %s = add i64 %r, %r
  ret i64 %s
}
"""
        f = parse_function(text)
        join = f.blocks[2]
        clones, vmap = clone_blocks(f, [join], "copy",
                                    {id(join.phis()[0]): f.args[0]})
        assert [i.name for i in clones[0].instructions] == ["s.1", ""]
        assert clones[0].instructions[0].operands == [f.args[0], f.args[0]]
        assert vmap[id(join.phis()[0])] is f.args[0]
        # Same names as when the phi is cloned and collapsed afterwards.
        g = parse_function(text)
        clone_blocks(g, [g.blocks[2]], "copy")
        assert g.unique_name("r") == f.unique_name("r") == "r.2"

    def test_cloning_leaves_no_use_on_an_interned_constant(self):
        f = parse_function("""
define i32 @f(i32 %x) {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}
""")
        add = f.entry.instructions[0]
        clone = clone_instruction(add, {})
        assert clone.operands[1] is ConstantInt(I32, 1)
        assert ConstantInt(I32, 1).uses == []
        assert [u.user for u in f.args[0].uses] == [add, clone]
        clone.drop_all_operands()
        assert [u.user for u in f.args[0].uses] == [add]


EVERY_INSTRUCTION = """
define f64 @f(i64 %n, f64 %x, i1 %c) {
entry:
  %buf = alloca f64, 4
  %slot = gep f64* %buf, i64 %n
  store f64 %x, f64* %slot
  %tid = call i64 @tid.x()
  br i1 %c, label %then, label %join
then:
  %ld = load f64, f64* %slot
  %root = call f64 @sqrt(f64 %ld)
  %sum = fadd f64 %root, 1.5
  br label %join
join:
  %v = phi f64 [ %x, %entry ], [ %sum, %then ]
  %i = add i64 %n, %tid
  %lt = icmp slt i64 %i, 10
  %neg = fcmp olt f64 %v, 0.0
  %both = and i1 %lt, %neg
  %pick = select i1 %both, f64 %v, f64 %x
  %wide = sitofp i64 %i to f64
  %out = fmul f64 %pick, %wide
  br i1 %neg, label %trap, label %done
trap:
  unreachable
done:
  ret f64 %out
}
"""


def concrete_instruction_classes():
    found, work = set(), [Instruction]
    while work:
        cls = work.pop()
        subclasses = cls.__subclasses__()
        work.extend(subclasses)
        if not subclasses:
            found.add(cls)
    return found


class TestCloneInstruction:
    def test_every_class_round_trips(self):
        f = parse_function(EVERY_INSTRUCTION)
        seen = set()
        for inst in list(f.instructions()):
            clone = clone_instruction(inst, {})
            seen.add(type(inst))
            assert type(clone) is type(inst)
            assert clone.parent is None and clone.uses == []
            assert format_instruction(clone) == format_instruction(inst)
            assert clone.operands == inst.operands
            assert [(u.user, u.index) for u in clone._operand_uses] == \
                [(clone, i) for i in range(len(clone.operands))]
            clone.drop_all_operands()
        assert seen == concrete_instruction_classes()

    def test_a_cloned_function_body_verifies_and_prints_the_same(self):
        f = parse_function(EVERY_INSTRUCTION)
        originals = list(f.blocks)
        before = print_function(f)
        clones, _ = clone_blocks(f, originals, "copy")
        for block in originals:
            for inst in reversed(list(block.instructions)):
                inst.erase_from_parent()
            f.remove_block(block)
        verify_function(f)
        # Same text once the clones' suffixes are dropped (the parser named
        # nothing ``.1`` or ``.copy`` itself).
        after = print_function(f).replace(".copy", "").replace(".1", "")
        assert after == before
