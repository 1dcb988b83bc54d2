"""CFG simplification.

The clean-up companion of every duplication-based transform:

* folds conditional branches on constants (the step that deletes the
  provably-dead paths u&u exposes, cf. paper Figure 5);
* normalises conditional branches with identical targets;
* deletes unreachable blocks (with phi repair);
* merges a block into its unique predecessor when that predecessor has a
  single successor;
* threads trivial forwarding blocks (only an unconditional branch) out of
  the CFG where phi consistency allows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.block import BasicBlock
from ..ir.constants import ConstantInt, Undef
from ..ir.function import Function
from ..ir.instructions import (BranchInst, CondBranchInst, Instruction,
                               PhiInst, TerminatorInst)
from ..ir.values import Value
from ..analysis.cfg_utils import predecessor_map, reachable_blocks


class SimplifyCFG:
    """Iterates local CFG simplifications to a fixed point."""

    name = "simplifycfg"

    def run(self, func: Function) -> bool:
        changed = False
        while self._run_once(func):
            changed = True
        return changed

    # -- one round ------------------------------------------------------------
    def _run_once(self, func: Function) -> bool:
        changed = False
        changed |= self._fold_constant_branches(func)
        changed |= self._remove_unreachable(func)
        changed |= self._merge_into_predecessor(func)
        changed |= self._thread_forwarding_blocks(func)
        changed |= self._simplify_trivial_phis(func)
        return changed

    # -- constant branches ------------------------------------------------------
    def _fold_constant_branches(self, func: Function) -> bool:
        changed = False
        for block in list(func.blocks):
            term = block.terminator
            if not isinstance(term, CondBranchInst):
                continue
            taken: Optional[BasicBlock] = None
            dead: Optional[BasicBlock] = None
            if isinstance(term.condition, ConstantInt):
                if term.condition.value:
                    taken, dead = term.true_target, term.false_target
                else:
                    taken, dead = term.false_target, term.true_target
            elif term.true_target is term.false_target:
                taken, dead = term.true_target, None
            if taken is None:
                continue
            if dead is not None and dead is not taken:
                self._remove_phi_edge(dead, block)
            term.erase_from_parent()
            block.append(BranchInst(taken))
            changed = True
        return changed

    @staticmethod
    def _remove_phi_edge(target: BasicBlock, pred: BasicBlock) -> None:
        for phi in target.phis():
            phi.remove_incoming(pred)

    # -- unreachable blocks ------------------------------------------------------
    def _remove_unreachable(self, func: Function) -> bool:
        reachable = reachable_blocks(func)
        dead = [b for b in func.blocks if id(b) not in reachable]
        if not dead:
            return False
        dead_ids = {id(b) for b in dead}
        # Phi entries from dead predecessors must go first.
        for block in func.blocks:
            if id(block) in dead_ids:
                continue
            for phi in block.phis():
                for i in reversed(range(len(phi.incoming_blocks))):
                    if id(phi.incoming_blocks[i]) in dead_ids:
                        phi.remove_operand(i)
                        del phi.incoming_blocks[i]
        for block in dead:
            # Detach instructions last to first, so uses inside the block go
            # away before their definitions.
            instructions = block.instructions
            while instructions:
                inst = instructions.pop()
                if inst.is_used:
                    inst.replace_all_uses_with(Undef(inst.type))
                inst.parent = None
                inst.drop_all_operands()
            block.parent = None
        func.blocks[:] = [b for b in func.blocks if id(b) not in dead_ids]
        return True

    # -- merging straight-line chains ---------------------------------------------
    def _merge_into_predecessor(self, func: Function) -> bool:
        changed = False
        preds = predecessor_map(func)
        merged_away: set = set()
        merged_into: dict = {}
        for block in list(func.blocks):
            if block is func.entry or id(block) in merged_away:
                continue
            block_preds = preds.get(block)
            if block_preds is None or len(block_preds) != 1:
                continue
            pred = block_preds[0]
            while id(pred) in merged_away:
                pred = merged_into[id(pred)]
            term = pred.terminator
            if not isinstance(term, BranchInst) or pred is block:
                continue
            if term.target is not block:
                continue  # Stale predecessor info; next round will catch it.
            # Collapse phis (single predecessor: each has one incoming).
            for phi in block.phis():
                phi.replace_all_uses_with(phi.incoming_for(pred))
                phi.erase_from_parent()
            term.erase_from_parent()
            for inst in list(block.instructions):
                block.remove_instruction(inst)
                pred.append(inst)
            # Successor phis referencing `block` now come from `pred`.
            for succ in pred.successors():
                for phi in succ.phis():
                    for i, inc in enumerate(phi.incoming_blocks):
                        if inc is block:
                            phi.set_incoming_block(i, pred)
            func.remove_block(block)
            merged_away.add(id(block))
            merged_into[id(block)] = pred
            changed = True
        return changed

    # -- forwarding (empty) blocks -------------------------------------------------
    def _thread_forwarding_blocks(self, func: Function) -> bool:
        changed = False
        preds = predecessor_map(func)
        # Blocks whose predecessor set changed during this scan: defer them
        # to the next fixpoint round rather than acting on stale info.
        dirty: Set[int] = set()
        for block in list(func.blocks):
            if block is func.entry or len(block.instructions) != 1:
                continue
            if id(block) in dirty:
                continue
            term = block.terminator
            if not isinstance(term, BranchInst):
                continue
            succ = term.target
            if succ is block:
                continue
            block_preds = preds.get(block, [])
            if not block_preds:
                continue
            if any(pred.parent is None or
                   block not in pred.successors()
                   for pred in block_preds):
                continue
            if not self._can_thread(block, succ, block_preds):
                continue
            for pred in block_preds:
                pterm = pred.terminator
                assert pterm is not None
                # Update succ phis *before* rewiring so incoming_for works.
                for phi in succ.phis():
                    via_block = phi.incoming_for(block)
                    if phi.has_incoming_for(pred):
                        pass  # Same value guaranteed by _can_thread.
                    else:
                        phi.add_incoming(via_block, pred)
                pterm.replace_successor(block, succ)
            for phi in succ.phis():
                phi.remove_incoming(block)
            term.erase_from_parent()
            func.remove_block(block)
            dirty.add(id(succ))
            changed = True
        return changed

    @staticmethod
    def _can_thread(block: BasicBlock, succ: BasicBlock,
                    block_preds: List[BasicBlock]) -> bool:
        phis = succ.phis()
        for pred in block_preds:
            # A conditional branch whose other edge already reaches succ is
            # fine only if every phi agrees on the value for both edges.
            already = any(s is succ for s in pred.successors())
            if already:
                for phi in phis:
                    if phi.incoming_for(block) is not phi.incoming_for(pred):
                        return False
        return True

    # -- phis -----------------------------------------------------------------
    def _simplify_trivial_phis(self, func: Function) -> bool:
        changed = False
        progress = True
        while progress:
            progress = False
            for block in func.blocks:
                for phi in list(block.phis()):
                    unique = phi.is_trivial()
                    if unique is not None:
                        phi.replace_all_uses_with(unique)
                        phi.erase_from_parent()
                        progress = True
                        changed = True
        return changed


def run_simplifycfg(func: Function) -> bool:
    """Convenience wrapper."""
    return SimplifyCFG().run(func)
