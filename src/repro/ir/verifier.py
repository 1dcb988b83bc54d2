"""IR verifier.

Checks the structural invariants every pass must preserve:

* each reachable block ends in exactly one terminator, placed last;
* phis sit at the top of their block and have exactly one incoming entry
  per predecessor (and none for non-predecessors);
* SSA dominance: every use of an instruction is dominated by its definition
  (uses in phis are checked at the end of the corresponding predecessor);
* def-use bookkeeping is consistent in both directions;
* types of stored values, branch conditions etc. line up (mostly enforced at
  construction, re-checked here for rewired IR);
* no shift by a constant amount >= the operand width: such shifts are
  undefined in the folder/interpreter contract (:mod:`repro.semantics`) —
  the folder refuses them while the interpreter would compute something,
  so letting one survive a pass would be a latent differential miscompile.
"""

from __future__ import annotations

from typing import Dict, List, Set

from .block import BasicBlock
from .constants import Constant, ConstantInt
from .function import Function
from .instructions import (BinaryInst, CondBranchInst, Instruction, PhiInst,
                           TerminatorInst)
from .module import Module
from .values import Argument, GlobalVariable, Value

#: Opcodes whose constant right operand must stay below the operand width.
_SHIFT_OPS = ("shl", "lshr", "ashr")


class VerificationError(Exception):
    """Raised when the IR violates a structural invariant."""


def _fail(func: Function, message: str) -> None:
    raise VerificationError(f"@{func.name}: {message}")


def verify_function(func: Function) -> None:
    """Verify one function; raises :class:`VerificationError` on violation."""
    if not func.blocks:
        _fail(func, "function has no blocks")

    block_set = {id(b) for b in func.blocks}
    for block in func.blocks:
        if block.parent is not func:
            _fail(func, f"block {block.name} has wrong parent")
        _verify_block_structure(func, block, block_set)

    preds = _predecessor_map(func)
    _verify_phis(func, preds)
    _verify_def_use(func)
    _verify_dominance(func, preds)


def verify_module(module: Module) -> None:
    for func in module.functions.values():
        verify_function(func)


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------

def _verify_block_structure(func: Function, block: BasicBlock,
                            block_set: Set[int]) -> None:
    if not block.instructions:
        _fail(func, f"block {block.name} is empty")
    term = block.instructions[-1]
    if not isinstance(term, TerminatorInst):
        _fail(func, f"block {block.name} does not end in a terminator")
    seen_non_phi = False
    for inst in block.instructions[:-1]:
        if isinstance(inst, TerminatorInst):
            _fail(func, f"block {block.name} has a terminator mid-block")
        if isinstance(inst, PhiInst):
            if seen_non_phi:
                _fail(func, f"phi after non-phi in block {block.name}")
        else:
            seen_non_phi = True
    for inst in block.instructions:
        if inst.parent is not block:
            _fail(func, f"instruction {inst!r} has stale parent link")
        if isinstance(inst, BinaryInst) and inst.opcode in _SHIFT_OPS and \
                isinstance(inst.rhs, ConstantInt):
            width = inst.type.bits  # type: ignore[attr-defined]
            amount = inst.rhs.unsigned()
            if amount >= width:
                _fail(func,
                      f"%{inst.name} in {block.name}: constant over-shift "
                      f"({inst.opcode} of i{width} by {amount})")
    for succ in block.successors():
        if id(succ) not in block_set:
            _fail(func, f"block {block.name} branches to foreign block "
                        f"{succ.name}")
    if isinstance(term, CondBranchInst) and term.condition.type.is_bool is False:
        _fail(func, f"condbr condition in {block.name} is not i1")


def _predecessor_map(func: Function) -> Dict[BasicBlock, List[BasicBlock]]:
    # Deduplicated per edge source: one phi incoming entry covers both edges
    # of a conditional branch with identical targets.
    preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in func.blocks}
    for block in func.blocks:
        seen: Set[int] = set()
        for succ in block.successors():
            if id(succ) not in seen:
                seen.add(id(succ))
                preds[succ].append(block)
    return preds


# ---------------------------------------------------------------------------
# Phis
# ---------------------------------------------------------------------------

def _verify_phis(func: Function,
                 preds: Dict[BasicBlock, List[BasicBlock]]) -> None:
    for block in func.blocks:
        pred_ids = [id(p) for p in preds[block]]
        for phi in block.phis():
            incoming_ids = [id(b) for b in phi.incoming_blocks]
            if sorted(incoming_ids) != sorted(pred_ids):
                pred_names = sorted(p.name for p in preds[block])
                inc_names = sorted(b.name for b in phi.incoming_blocks)
                _fail(func,
                      f"phi %{phi.name} in {block.name} incoming blocks "
                      f"{inc_names} do not match predecessors {pred_names}")
            for value in phi.operands:
                if value.type is not phi.type:
                    _fail(func, f"phi %{phi.name} incoming type mismatch")


# ---------------------------------------------------------------------------
# Def-use consistency
# ---------------------------------------------------------------------------

def _verify_def_use(func: Function) -> None:
    for block in func.blocks:
        for inst in block.instructions:
            for i, op in enumerate(inst.operands):
                use = inst._operand_uses[i]
                if use.user is not inst or use.index != i:
                    _fail(func, f"corrupt use record on {inst!r} slot {i}")
                if (not isinstance(op, Constant)
                        and not any(u is use for u in op.uses)):
                    _fail(func, f"operand {op!r} of {inst!r} lacks back-edge use")


# ---------------------------------------------------------------------------
# SSA dominance
# ---------------------------------------------------------------------------

def _verify_dominance(func: Function,
                      preds: Dict[BasicBlock, List[BasicBlock]]) -> None:
    # Local import: analysis package depends on ir, so import lazily here.
    from ..analysis.dominators import DominatorTree

    domtree = DominatorTree.compute(func)
    reachable = set(domtree.reachable_ids())

    positions: Dict[int, int] = {}
    for block in func.blocks:
        for i, inst in enumerate(block.instructions):
            positions[id(inst)] = i

    for block in func.blocks:
        if id(block) not in reachable:
            continue  # Unreachable code is exempt from dominance checks.
        for inst in block.instructions:
            for slot, op in enumerate(inst.operands):
                if not isinstance(op, Instruction):
                    continue
                def_block = op.parent
                if def_block is None:
                    _fail(func, f"operand {op!r} of {inst!r} is detached")
                if id(def_block) not in reachable:
                    _fail(func,
                          f"%{inst.name} in {block.name} uses %{op.name} "
                          f"defined in unreachable block {def_block.name}")
                if isinstance(inst, PhiInst):
                    pred = inst.incoming_blocks[slot]
                    if not domtree.dominates_block(def_block, pred):
                        _fail(func,
                              f"phi %{inst.name}: incoming %{op.name} does not "
                              f"dominate predecessor {pred.name}")
                else:
                    if def_block is block:
                        if positions[id(op)] >= positions[id(inst)]:
                            _fail(func,
                                  f"%{inst.name} uses %{op.name} before its "
                                  f"definition in {block.name}")
                    elif not domtree.dominates_block(def_block, block):
                        _fail(func,
                              f"%{inst.name} in {block.name} not dominated by "
                              f"definition of %{op.name} in {def_block.name}")
