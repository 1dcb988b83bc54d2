"""Basic blocks.

A block owns an ordered list of instructions ending in exactly one
terminator (enforced by the verifier, tolerated transiently during
construction).  Predecessors are derived from terminator successor edges on
demand; functions cache nothing so transforms never work with stale CFGs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

from .instructions import Instruction, PhiInst, TerminatorInst
from .types import Type
from .values import Value

if TYPE_CHECKING:
    from .function import Function


class BasicBlock(Value):
    """A straight-line sequence of instructions with one terminator."""

    __slots__ = ("instructions", "parent")

    def __init__(self, name: str = "") -> None:
        from .types import VOID

        super().__init__(VOID, name)
        self.instructions: List[Instruction] = []
        self.parent: Optional["Function"] = None

    # -- structure -----------------------------------------------------------
    @property
    def terminator(self) -> Optional[TerminatorInst]:
        if self.instructions and isinstance(self.instructions[-1], TerminatorInst):
            return self.instructions[-1]
        return None

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        return term.successors() if term is not None else []

    def predecessors(self) -> List["BasicBlock"]:
        """Blocks that can branch here (in deterministic function order)."""
        if self.parent is None:
            return []
        preds = []
        for block in self.parent.blocks:
            for succ in block.successors():
                if succ is self:
                    preds.append(block)
                    break
        return preds

    def phis(self) -> List[PhiInst]:
        result = []
        for inst in self.instructions:
            if isinstance(inst, PhiInst):
                result.append(inst)
            else:
                break
        return result

    def first_non_phi_index(self) -> int:
        for i, inst in enumerate(self.instructions):
            if not isinstance(inst, PhiInst):
                return i
        return len(self.instructions)

    # -- mutation --------------------------------------------------------------
    def append(self, inst: Instruction) -> Instruction:
        if inst.parent is not None:
            raise ValueError(f"{inst!r} already belongs to a block")
        self.instructions.append(inst)
        inst.parent = self
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        if inst.parent is not None:
            raise ValueError(f"{inst!r} already belongs to a block")
        self.instructions.insert(index, inst)
        inst.parent = self
        return inst

    def insert_before_terminator(self, inst: Instruction) -> Instruction:
        index = len(self.instructions)
        if self.terminator is not None:
            index -= 1
        return self.insert(index, inst)

    def remove_instruction(self, inst: Instruction) -> None:
        for i, existing in enumerate(self.instructions):
            if existing is inst:
                del self.instructions[i]
                inst.parent = None
                return
        raise ValueError(f"{inst!r} not in block {self.name}")

    # -- queries ---------------------------------------------------------------
    def contains_convergent(self) -> bool:
        return any(inst.is_convergent for inst in self.instructions)

    def short_name(self) -> str:
        return f"%{self.name}" if self.name else f"%bb<{id(self):x}>"

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.name} [{len(self.instructions)} insts]>"
