"""Region cloning with value remapping.

Both loop unrolling and control-flow unmerging work by cloning a set of
blocks and rewiring edges.  :func:`clone_blocks` copies a region, remapping
every operand through a value map; values defined outside the region keep
flowing in unchanged (standard LLVM ``CloneBasicBlock`` + ``remapInstruction``
behaviour).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .block import BasicBlock
from .function import Function
from .instructions import Instruction
from .values import Use, Value

ValueMap = Dict[int, Value]

#: Instruction fields that hold a block; remapped like operands.
_BLOCK_SLOTS = frozenset(("_target", "_true_target", "_false_target"))


def map_value(vmap: ValueMap, value: Value) -> Value:
    """Look up ``value`` in the map, defaulting to itself (external values)."""
    return vmap.get(id(value), value)


def clone_instruction(inst: Instruction, vmap: ValueMap,
                      unmapped: Optional[List[Tuple[Instruction, int]]] = None
                      ) -> Instruction:
    """Clone one instruction, remapping operands through ``vmap``.

    A copy constructor: every field of the concrete class is copied as it
    is, so nothing is re-validated.  Phi nodes are cloned with their
    incoming values/blocks remapped; callers that change the predecessor
    structure must fix them up afterwards.  Branch targets are remapped
    through ``vmap`` as well (blocks are values).  ``unmapped``, when given,
    collects ``(clone, operand index)`` for every operand ``vmap`` had no
    entry for.
    """
    cls = type(inst)
    new = cls.__new__(cls)
    new.type, new.name, new.uses = inst.type, inst.name, []
    new.opcode, new.parent = inst.opcode, None
    for slot in cls.__slots__:  # The concrete class's own fields.
        field = getattr(inst, slot)
        if slot in _BLOCK_SLOTS:
            field = vmap.get(id(field), field)
        elif slot == "incoming_blocks":
            field = [vmap.get(id(block), block) for block in field]
        setattr(new, slot, field)
    operands = new.operands = []
    uses = new._operand_uses = []
    for index, op in enumerate(inst.operands):
        mapped = vmap.get(id(op))
        if mapped is None:
            mapped = op
            if unmapped is not None:
                unmapped.append((new, index))
        use = Use(new, index)
        operands.append(mapped)
        uses.append(use)
        mapped.add_use(use)  # A no-op on interned constants.
    return new


def clone_blocks(func: Function, blocks: List[BasicBlock], suffix: str,
                 vmap: Optional[ValueMap] = None) -> Tuple[List[BasicBlock], ValueMap]:
    """Clone ``blocks`` into ``func``, returning the clones and the value map.

    The clones are appended to the function.  Edges and operands that point
    inside the region are redirected to the clones; everything else keeps
    pointing at the original values.  The returned ``vmap`` maps
    ``id(original) -> clone`` for both blocks and instructions.  An
    instruction the caller already mapped is not cloned: its uses in the
    region read the mapped value (it still takes the name its clone would
    have, so the names that follow do not depend on the shortcut).
    """
    if vmap is None:
        vmap = {}

    # Blocks first, so every branch target and phi predecessor inside the
    # region is mapped by the time an instruction is cloned.
    clones: List[BasicBlock] = []
    for block in blocks:
        clone = func.add_block(f"{block.name}.{suffix}")
        vmap[id(block)] = clone
        clones.append(clone)

    # Operands are another matter.  ``blocks`` comes in no particular order
    # (a loop's blocks, a depth-first tail), so any instruction -- not only
    # a phi along a back edge -- may use a region value that is cloned after
    # it: collect the operands that had no mapping and revisit just those.
    unmapped: List[Tuple[Instruction, int]] = []
    for block, clone in zip(blocks, clones):
        for inst in block.instructions:
            if id(inst) in vmap:
                if inst.name:
                    func.unique_name(inst.name)
                continue
            new_inst = clone_instruction(inst, vmap, unmapped)
            if new_inst.name:
                new_inst.name = func.unique_name(new_inst.name)
            vmap[id(inst)] = new_inst
            clone.append(new_inst)

    for new_inst, index in unmapped:
        mapped = vmap.get(id(new_inst.operands[index]))
        if mapped is not None:
            new_inst.set_operand(index, mapped)

    return clones, vmap
