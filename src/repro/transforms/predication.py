"""If-conversion (predication): folds small diamonds/triangles into selects.

This models the baseline compiler behaviour the paper contrasts with: at
-O3, LLVM/NVPTX turn small branchy regions into predicated ``selp``
instructions (XSBench Listing 4, `complex` Section V).  After unmerging,
the merge block is duplicated away, the diamond shape no longer exists, and
this pass structurally cannot fire — u&u "replaces predicated instructions
by possibly divergent branches" exactly as the paper describes.

Speculation safety: only pure, non-trapping, non-memory instructions are
hoisted, and only while the summed cost stays under ``threshold``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..analysis.cfg_utils import predecessor_map
from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (BranchInst, CondBranchInst, Instruction,
                               LoadInst, PhiInst, SelectInst, StoreInst)
from ..ir.values import Value


class Predication:
    """Speculates small conditional blocks and merges with selects."""

    name = "predication"

    def __init__(self, threshold: int = 16) -> None:
        self.threshold = threshold

    def run(self, func: Function) -> bool:
        changed = False
        preds = predecessor_map(func)
        index = 0
        while index < len(func.blocks):
            block = func.blocks[index]
            term = block.terminator
            if (isinstance(term, CondBranchInst)
                    and term.true_target is not term.false_target
                    and (self._try_diamond(func, block, term, preds) or
                         self._try_triangle(func, block, term, preds))):
                changed = True
                # The conversion made ``block`` a candidate side of its
                # predecessors and nothing else newly convertible, so the
                # earliest of them is where a rescan from block 0 would
                # first find work.
                index = min(func.blocks.index(b)
                            for b in (block, *preds[block]))
            else:
                index += 1
        return changed

    @staticmethod
    def _folded(preds, block: BasicBlock, merge: BasicBlock,
                *sides: BasicBlock) -> None:
        """Keep ``preds`` current: ``sides`` are gone and ``block`` now
        branches straight to ``merge``."""
        for side in sides:
            del preds[side]
        preds[merge] = [p for p in preds[merge]
                        if p is not block and p not in sides] + [block]

    # -- shapes -----------------------------------------------------------
    def _try_diamond(self, func: Function, block: BasicBlock,
                     term: CondBranchInst, preds) -> bool:
        t_blk, f_blk = term.true_target, term.false_target
        if not (self._is_speculatable_side(t_blk, block, preds) and
                self._is_speculatable_side(f_blk, block, preds)):
            return False
        t_term = t_blk.terminator
        f_term = f_blk.terminator
        assert isinstance(t_term, BranchInst) and isinstance(f_term, BranchInst)
        merge = t_term.target
        if f_term.target is not merge or merge is block:
            return False
        cost = self._side_cost(t_blk) + self._side_cost(f_blk)
        if cost > self.threshold:
            return False

        self._hoist(t_blk, block)
        self._hoist(f_blk, block)
        for phi in merge.phis():
            v_t = phi.incoming_for(t_blk)
            v_f = phi.incoming_for(f_blk)
            if v_t is v_f:
                merged: Value = v_t
            else:
                sel = SelectInst(term.condition, v_t, v_f)
                sel.name = func.unique_name("sel")
                block.insert_before_terminator(sel)
                merged = sel
            phi.remove_incoming(t_blk)
            phi.remove_incoming(f_blk)
            phi.add_incoming(merged, block)
        term.erase_from_parent()
        block.append(BranchInst(merge))
        self._erase_block(func, t_blk)
        self._erase_block(func, f_blk)
        self._folded(preds, block, merge, t_blk, f_blk)
        return True

    def _try_triangle(self, func: Function, block: BasicBlock,
                      term: CondBranchInst, preds) -> bool:
        for side, other, side_is_true in (
                (term.true_target, term.false_target, True),
                (term.false_target, term.true_target, False)):
            if not self._is_speculatable_side(side, block, preds):
                continue
            s_term = side.terminator
            assert isinstance(s_term, BranchInst)
            merge = s_term.target
            if merge is not other or merge is block:
                continue
            if self._side_cost(side) > self.threshold:
                continue

            self._hoist(side, block)
            for phi in merge.phis():
                v_side = phi.incoming_for(side)
                v_block = phi.incoming_for(block)
                if v_side is v_block:
                    merged: Value = v_block
                else:
                    if side_is_true:
                        sel = SelectInst(term.condition, v_side, v_block)
                    else:
                        sel = SelectInst(term.condition, v_block, v_side)
                    sel.name = func.unique_name("sel")
                    block.insert_before_terminator(sel)
                    merged = sel
                phi.remove_incoming(side)
                for i, inc in enumerate(phi.incoming_blocks):
                    if inc is block:
                        phi.set_operand(i, merged)
            term.erase_from_parent()
            block.append(BranchInst(merge))
            self._erase_block(func, side)
            self._folded(preds, block, merge, side)
            return True
        return False

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def _is_speculatable_side(side: BasicBlock, block: BasicBlock,
                              preds) -> bool:
        if side.parent is None or side is block:
            return False
        side_preds = preds.get(side, [])
        if len(side_preds) != 1 or side_preds[0] is not block:
            return False
        if not isinstance(side.terminator, BranchInst):
            return False
        for inst in side.instructions[:-1]:
            if isinstance(inst, PhiInst):
                return False
            if not inst.is_pure or inst.info.may_trap:
                return False
            if isinstance(inst, (LoadInst, StoreInst)):
                return False
        return True

    @staticmethod
    def _side_cost(side: BasicBlock) -> int:
        return sum(inst.cost for inst in side.instructions[:-1])

    @staticmethod
    def _hoist(side: BasicBlock, block: BasicBlock) -> None:
        for inst in list(side.instructions[:-1]):
            side.remove_instruction(inst)
            block.insert_before_terminator(inst)

    @staticmethod
    def _erase_block(func: Function, block: BasicBlock) -> None:
        term = block.terminator
        assert term is not None and not term.operands
        term.erase_from_parent()
        assert not block.instructions, "side block should be empty after hoist"
        func.remove_block(block)


def run_predication(func: Function, threshold: int = 16) -> bool:
    """Convenience wrapper."""
    return Predication(threshold).run(func)
