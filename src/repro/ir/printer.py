"""Textual IR printer (LLVM-flavoured, round-trippable with the parser)."""

from __future__ import annotations

from typing import Callable, Dict, List

from .block import BasicBlock
from .constants import ConstantFloat, ConstantInt, Undef
from .function import Function
from .instructions import (AllocaInst, BinaryInst, BranchInst, CallInst,
                           CastInst, CondBranchInst, FCmpInst, GEPInst,
                           ICmpInst, Instruction, LoadInst, PhiInst, RetInst,
                           SelectInst, StoreInst, UnreachableInst)
from .module import Module
from .values import Argument, GlobalVariable, Value


def format_value_name(value: Value) -> str:
    if isinstance(value, ConstantInt):
        return str(value.value)
    if isinstance(value, ConstantFloat):
        return repr(value.value)
    if isinstance(value, Undef):
        return "undef"
    if isinstance(value, GlobalVariable):
        return f"@{value.name}"
    if isinstance(value, BasicBlock):
        return f"%{value.name}"
    return f"%{value.name}"


def format_value(value: Value,
                 ref: Callable[[Value], str] = format_value_name) -> str:
    """Format a value as an operand reference (with type prefix)."""
    return f"{value.type!r} {ref(value)}"


def format_instruction(inst: Instruction,
                       ref: Callable[[Value], str] = format_value_name) -> str:
    """One-line textual form of an instruction; ``ref`` spells a
    reference to a value or a block (by default, by its name)."""
    name = f"{ref(inst)} = " if not inst.type.is_void else ""
    if isinstance(inst, BinaryInst):
        return (f"{name}{inst.opcode} {inst.type!r} "
                f"{ref(inst.lhs)}, {ref(inst.rhs)}")
    if isinstance(inst, ICmpInst):
        return (f"{name}icmp {inst.predicate} {inst.lhs.type!r} "
                f"{ref(inst.lhs)}, {ref(inst.rhs)}")
    if isinstance(inst, FCmpInst):
        return (f"{name}fcmp {inst.predicate} {inst.lhs.type!r} "
                f"{ref(inst.lhs)}, {ref(inst.rhs)}")
    if isinstance(inst, SelectInst):
        return (f"{name}select {format_value(inst.condition, ref)}, "
                f"{format_value(inst.true_value, ref)}, "
                f"{format_value(inst.false_value, ref)}")
    if isinstance(inst, PhiInst):
        pairs = ", ".join(
            f"[ {ref(v)}, {ref(b)} ]" for v, b in inst.incoming())
        return f"{name}phi {inst.type!r} {pairs}"
    if isinstance(inst, CastInst):
        return (f"{name}{inst.opcode} {format_value(inst.value, ref)} "
                f"to {inst.type!r}")
    if isinstance(inst, LoadInst):
        return f"{name}load {inst.type!r}, {format_value(inst.pointer, ref)}"
    if isinstance(inst, StoreInst):
        return (f"store {format_value(inst.value, ref)}, "
                f"{format_value(inst.pointer, ref)}")
    if isinstance(inst, GEPInst):
        return (f"{name}gep {format_value(inst.pointer, ref)}, "
                f"{format_value(inst.index, ref)}")
    if isinstance(inst, AllocaInst):
        return f"{name}alloca {inst.element_type!r}, {inst.count}"
    if isinstance(inst, CallInst):
        args = ", ".join(format_value(a, ref) for a in inst.args)
        return f"{name}call {inst.type!r} @{inst.intrinsic.name}({args})"
    if isinstance(inst, BranchInst):
        return f"br label {ref(inst.target)}"
    if isinstance(inst, CondBranchInst):
        return (f"br {format_value(inst.condition, ref)}, "
                f"label {ref(inst.true_target)}, "
                f"label {ref(inst.false_target)}")
    if isinstance(inst, RetInst):
        if inst.value is None:
            return "ret void"
        return f"ret {format_value(inst.value, ref)}"
    if isinstance(inst, UnreachableInst):
        return "unreachable"
    raise NotImplementedError(f"cannot print {inst!r}")


def _format_block(block: BasicBlock, preds: List[BasicBlock]) -> str:
    header = f"{block.name}:"
    if preds:
        header += ("                ; preds: "
                   + ", ".join(p.name for p in preds))
    lines = [header]
    for inst in block.instructions:
        lines.append(f"  {format_instruction(inst)}")
    return "\n".join(lines)


def print_block(block: BasicBlock) -> str:
    return _format_block(block, block.predecessors())


def print_function(func: Function) -> str:
    args = ", ".join(
        f"{a.type!r} %{a.name}" for a in func.args)
    lines = [f"define {func.ftype.ret!r} @{func.name}({args}) {{"]
    # One pass over the edges instead of BasicBlock.predecessors() — a
    # scan of every block — per block; same order, each predecessor once.
    preds: Dict[int, List[BasicBlock]] = {}
    for block in func.blocks:
        for succ in dict.fromkeys(block.successors()):
            preds.setdefault(id(succ), []).append(block)
    for block in func.blocks:
        lines.append(_format_block(block, preds.get(id(block), [])))
    lines.append("}")
    return "\n".join(lines)


def print_module(module: Module) -> str:
    lines: List[str] = [f"; module {module.name}"]
    for gv in module.globals.values():
        lines.append(f"@{gv.name} = global {gv.element_type!r} x {gv.count}")
    if module.globals:
        lines.append("")
    for func in module.functions.values():
        lines.append(print_function(func))
        lines.append("")
    return "\n".join(lines)


def print_canonical(module: Module) -> str:
    """``module`` in a form that two modules differing only in value and
    block names, block layout and phi-entry order print identically.

    Each function's blocks go in reverse postorder from the entry (blocks
    the entry cannot reach follow, in layout order) and are named ``%bbN``
    by position; instruction values are named ``%vN`` by first appearance
    in that text, and phi entries are sorted by predecessor.
    """
    # Local import: the analysis package depends on ir.
    from ..analysis.cfg_utils import reverse_postorder

    lines: List[str] = [f"; module {module.name}"]
    for gv in module.globals.values():
        lines.append(f"@{gv.name} = global {gv.element_type!r} x {gv.count}")
    for func in module.functions.values():
        order = reverse_postorder(func)
        reached = {id(b) for b in order}
        order += [b for b in func.blocks if id(b) not in reached]
        blocks = {id(b): i for i, b in enumerate(order)}
        values: Dict[int, str] = {}

        def ref(value: Value) -> str:
            if isinstance(value, BasicBlock):
                return f"%bb{blocks[id(value)]}"
            if not isinstance(value, Instruction):
                return format_value_name(value)
            name = values.get(id(value))
            if name is None:
                name = values[id(value)] = f"%v{len(values)}"
            return name

        args = ", ".join(f"{a.type!r} %{a.name}" for a in func.args)
        lines.append(f"define {func.ftype.ret!r} @{func.name}({args}) {{")
        for block in order:
            lines.append(f"{ref(block)[1:]}:")
            for inst in block.instructions:
                if isinstance(inst, PhiInst):
                    pairs = sorted(inst.incoming(),
                                   key=lambda pair: blocks[id(pair[1])])
                    line = f"{ref(inst)} = phi {inst.type!r} " + ", ".join(
                        f"[ {ref(v)}, {ref(b)} ]" for v, b in pairs)
                else:
                    line = format_instruction(inst, ref)
                lines.append(f"  {line}")
        lines.append("}")
    return "\n".join(lines)

