"""Textual IR printer (LLVM-flavoured, round-trippable with the parser)."""

from __future__ import annotations

from typing import Dict, List, Optional

from .block import BasicBlock
from .constants import ConstantFloat, ConstantInt, Undef
from .function import Function
from .instructions import (AllocaInst, BinaryInst, BranchInst, CallInst,
                           CastInst, CondBranchInst, FCmpInst, GEPInst,
                           ICmpInst, Instruction, LoadInst, PhiInst, RetInst,
                           SelectInst, StoreInst, UnreachableInst)
from .module import Module
from .values import Argument, GlobalVariable, Value


def format_value(value: Value) -> str:
    """Format a value as an operand reference (with type prefix)."""
    return f"{value.type!r} {format_value_name(value)}"


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


def format_instruction(inst: Instruction) -> str:
    """One-line textual form of an instruction."""
    name = f"%{inst.name} = " if not inst.type.is_void else ""
    if isinstance(inst, BinaryInst):
        return (f"{name}{inst.opcode} {inst.type!r} "
                f"{format_value_name(inst.lhs)}, {format_value_name(inst.rhs)}")
    if isinstance(inst, ICmpInst):
        return (f"{name}icmp {inst.predicate} {inst.lhs.type!r} "
                f"{format_value_name(inst.lhs)}, {format_value_name(inst.rhs)}")
    if isinstance(inst, FCmpInst):
        return (f"{name}fcmp {inst.predicate} {inst.lhs.type!r} "
                f"{format_value_name(inst.lhs)}, {format_value_name(inst.rhs)}")
    if isinstance(inst, SelectInst):
        return (f"{name}select {format_value(inst.condition)}, "
                f"{format_value(inst.true_value)}, {format_value(inst.false_value)}")
    if isinstance(inst, PhiInst):
        pairs = ", ".join(
            f"[ {format_value_name(v)}, %{b.name} ]" for v, b in inst.incoming())
        return f"{name}phi {inst.type!r} {pairs}"
    if isinstance(inst, CastInst):
        return (f"{name}{inst.opcode} {format_value(inst.value)} to {inst.type!r}")
    if isinstance(inst, LoadInst):
        return f"{name}load {inst.type!r}, {format_value(inst.pointer)}"
    if isinstance(inst, StoreInst):
        return f"store {format_value(inst.value)}, {format_value(inst.pointer)}"
    if isinstance(inst, GEPInst):
        return (f"{name}gep {format_value(inst.pointer)}, "
                f"{format_value(inst.index)}")
    if isinstance(inst, AllocaInst):
        return f"{name}alloca {inst.element_type!r}, {inst.count}"
    if isinstance(inst, CallInst):
        args = ", ".join(format_value(a) for a in inst.args)
        return f"{name}call {inst.type!r} @{inst.intrinsic.name}({args})"
    if isinstance(inst, BranchInst):
        return f"br label %{inst.target.name}"
    if isinstance(inst, CondBranchInst):
        return (f"br {format_value(inst.condition)}, label %{inst.true_target.name}, "
                f"label %{inst.false_target.name}")
    if isinstance(inst, RetInst):
        if inst.value is None:
            return "ret void"
        return f"ret {format_value(inst.value)}"
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
