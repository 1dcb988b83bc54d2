"""Loop-invariant code motion (LICM).

Part of the baseline -O3 pipeline: hoists loop-invariant pure computations
(and loads whose address is invariant and not clobbered by any in-loop
store) into the preheader.  Without LICM, unroll-and-unmerge would get
credit for removing redundant invariant loads that a production baseline
would never execute in the first place — LICM keeps the baseline honest so
the measured u&u wins are the paper's cross-iteration effects, not
accidental invariant-code removal.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..analysis.dominators import DominatorTree
from ..analysis.loops import Loop, LoopInfo
from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (CallInst, Instruction, LoadInst, PhiInst,
                               StoreInst)
from ..ir.values import Value
from .load_elim import may_alias


class LoopInvariantCodeMotion:
    """Classic preheader-hoisting LICM, innermost loops first."""

    name = "licm"

    def run(self, func: Function) -> bool:
        changed = False
        loop_info = LoopInfo.compute(func)
        domtree: Optional[DominatorTree] = loop_info.domtree
        for loop in loop_info.innermost_first():
            if domtree is None:
                domtree = DominatorTree.compute(func)
            blocks = len(func.blocks)
            if self._run_on_loop(func, loop, domtree):
                changed = True
                if len(func.blocks) != blocks:
                    # ensure_preheader added a block; the next loop, if
                    # there is one, needs a tree that knows it.
                    domtree = None
        return changed

    def _run_on_loop(self, func: Function, loop: Loop,
                     domtree: DominatorTree) -> bool:
        latches = loop.latches()
        if not latches:
            return False
        restrict_args: Set[str] = set(
            func.attributes.get("restrict_args", ()))
        stores = [inst for block in loop.blocks for inst in block.instructions
                  if isinstance(inst, StoreInst)]
        has_calls = any(
            isinstance(inst, CallInst) and not inst.is_pure
            for block in loop.blocks for inst in block.instructions)
        # Only hoist from blocks that execute every iteration: speculating
        # conditional code would change behaviour on trapping ops and waste
        # issue slots on the GPU.
        always_executed = [
            block for block in loop.blocks
            if all(domtree.dominates_block(block, latch) for latch in latches)]

        loop_ids = {id(b) for b in loop.blocks}
        invariant: Set[int] = set()

        def is_invariant_operand(value: Value) -> bool:
            if id(value) in invariant:
                return True
            if isinstance(value, Instruction):
                block = value.parent
                return block is None or id(block) not in loop_ids
            return True  # Constants, arguments, globals.

        hoisted: List[Instruction] = []
        progress = True
        while progress:
            progress = False
            for block in always_executed:
                for inst in block.instructions:
                    if id(inst) in invariant or isinstance(inst, PhiInst):
                        continue
                    if not all(is_invariant_operand(op)
                               for op in inst.operands):
                        continue
                    if isinstance(inst, LoadInst):
                        if has_calls:
                            continue
                        if any(may_alias(inst.pointer, st.pointer,
                                         restrict_args) for st in stores):
                            continue
                    elif not inst.is_pure or inst.info.may_trap:
                        continue
                    invariant.add(id(inst))
                    hoisted.append(inst)
                    progress = True

        if not hoisted:
            return False
        preheader = loop.ensure_preheader()
        for inst in hoisted:
            block = inst.parent
            assert block is not None
            block.remove_instruction(inst)
            preheader.insert_before_terminator(inst)
        return True


def run_licm(func: Function) -> bool:
    """Convenience wrapper."""
    return LoopInvariantCodeMotion().run(func)
