"""Lowering IR functions to PTX-style assembly.

Produces the NVPTX-flavoured text the paper's Section V listings show:
``setp``/``selp``/``@%p bra`` forms, ``ld.global``/``st.global``, ``shl`` +
``add`` address arithmetic from GEPs, and ``mov`` instructions materialising
phi nodes on the incoming edges (the data movement nvprof counts in
``inst_misc``).  Block layout follows the function's block order, and
unconditional branches to the fall-through block are elided, as a real
assembler's layout pass would.

This backend exists for inspection and assembly-level statistics (the
reproduction's analogue of the paper's PTX analysis); the SIMT simulator
executes the IR directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.block import BasicBlock
from ..ir.constants import ConstantFloat, ConstantInt, Undef
from ..ir.function import Function
from ..ir.instructions import (AllocaInst, BinaryInst, BranchInst, CallInst,
                               CastInst, CondBranchInst, FCmpInst, GEPInst,
                               ICmpInst, Instruction, LoadInst, PhiInst,
                               RetInst, SelectInst, StoreInst,
                               UnreachableInst)
from ..ir.types import FloatType, IntType, PointerType, Type
from ..ir.values import Argument, GlobalVariable, Value
from .regs import RegisterFile, register_class


@dataclass
class AsmInstruction:
    """One assembly line: opcode plus formatted operand string."""

    opcode: str          # e.g. "selp.b64", "add.s64", "@%p1 bra"
    operands: str        # Pre-formatted operand list.
    category: str        # int / fp / misc / control / load / store / special

    def render(self) -> str:
        if self.operands:
            return f"{self.opcode} \t{self.operands};"
        return f"{self.opcode};"


@dataclass
class AsmBlock:
    label: str
    instructions: List[AsmInstruction] = field(default_factory=list)


@dataclass
class AsmFunction:
    """Lowered function: labeled blocks plus register declarations."""

    name: str
    params: List[Tuple[str, str]]            # (ptx type, name)
    blocks: List[AsmBlock]
    reg_decls: Dict[str, int]

    def instruction_count(self) -> int:
        return sum(len(b.instructions) for b in self.blocks)

    def count_opcode(self, prefix: str) -> int:
        """Number of instructions whose mnemonic starts with ``prefix``.

        Predicated forms ("@%p1 bra") count under their mnemonic ("bra").
        ``selp``/``mov``/``setp``/``bra`` counts reproduce the paper's
        Listing 4 vs Listing 5 comparison.
        """
        total = 0
        for block in self.blocks:
            for inst in block.instructions:
                mnemonic = inst.opcode.split()[-1]
                if mnemonic.startswith(prefix):
                    total += 1
        return total


def _suffix(type_: Type, signed: bool = True) -> str:
    """PTX type suffix (``.s64``, ``.f64``, ``.b64``, ...)."""
    if isinstance(type_, PointerType):
        return "u64"
    if isinstance(type_, IntType):
        if type_.bits == 1:
            return "pred"
        kind = "s" if signed else "u"
        return f"{kind}{max(type_.bits, 32)}"
    if isinstance(type_, FloatType):
        return f"f{type_.bits}"
    raise TypeError(f"no PTX suffix for {type_!r}")


_BINOP_TABLE = {
    "add": ("add", True), "sub": ("sub", True), "mul": ("mul.lo", True),
    "sdiv": ("div", True), "udiv": ("div", False),
    "srem": ("rem", True), "urem": ("rem", False),
    "shl": ("shl", True), "ashr": ("shr", True), "lshr": ("shr", False),
    "and": ("and", True), "or": ("or", True), "xor": ("xor", True),
    "fadd": ("add", True), "fsub": ("sub", True), "fmul": ("mul", True),
    "fdiv": ("div.rn", True), "frem": ("rem", True),
}

_SPECIAL_REGS = {"tid.x": "%tid.x", "ctaid.x": "%ctaid.x",
                 "ntid.x": "%ntid.x", "nctaid.x": "%nctaid.x"}

_MATH_OPS = {"sqrt": "sqrt.rn", "fabs": "abs", "exp": "ex2.approx",
             "log": "lg2.approx", "sin": "sin.approx", "cos": "cos.approx",
             "pow": "pow.approx", "fma": "fma.rn", "min": "min",
             "max": "max", "fmin": "min", "fmax": "max",
             "atan": "atan.approx", "floor": "cvt.rmi"}


class PTXLowering:
    """Lowers one IR function to :class:`AsmFunction`."""

    def __init__(self, func: Function) -> None:
        self.func = func
        self.regs = RegisterFile()
        self._labels: Dict[int, str] = {}
        self._param_regs: Dict[int, str] = {}

    def lower(self) -> AsmFunction:
        func = self.func
        for i, block in enumerate(func.blocks):
            self._labels[id(block)] = f"$L_{func.name}_{i}"

        params = [(self._param_type(arg.type), arg.name) for arg in func.args]
        blocks: List[AsmBlock] = []
        for i, block in enumerate(func.blocks):
            asm = AsmBlock(self._labels[id(block)])
            if i == 0:
                self._emit_param_loads(asm)
            fallthrough = func.blocks[i + 1] if i + 1 < len(func.blocks) \
                else None
            self._lower_block(block, asm, fallthrough)
            blocks.append(asm)
        return AsmFunction(func.name, params, blocks,
                           self.regs.declarations())

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def _param_type(type_: Type) -> str:
        if isinstance(type_, PointerType):
            return ".u64"
        if isinstance(type_, IntType):
            return f".s{max(type_.bits, 32)}"
        if isinstance(type_, FloatType):
            return f".f{type_.bits}"
        raise TypeError(f"bad param type {type_!r}")

    def _emit_param_loads(self, asm: AsmBlock) -> None:
        for arg in self.func.args:
            reg = self.regs.get(arg)
            asm.instructions.append(AsmInstruction(
                f"ld.param.{_suffix(arg.type)}",
                f"{reg}, [{self.func.name}_param_{arg.index}]", "load"))

    def _operand(self, value: Value) -> str:
        if isinstance(value, ConstantInt):
            return str(value.value)
        if isinstance(value, ConstantFloat):
            return repr(value.value)
        if isinstance(value, Undef):
            return "0"
        if isinstance(value, GlobalVariable):
            return value.name
        return self.regs.get(value)

    def _label(self, block: BasicBlock) -> str:
        return self._labels[id(block)]

    # -- blocks -----------------------------------------------------------
    def _lower_block(self, block: BasicBlock, asm: AsmBlock,
                     fallthrough: Optional[BasicBlock]) -> None:
        for inst in block.instructions:
            if isinstance(inst, PhiInst):
                self.regs.get(inst)  # Reserve the register.
                continue
            if isinstance(inst, (BranchInst, CondBranchInst, RetInst,
                                 UnreachableInst)):
                self._lower_terminator(block, inst, asm, fallthrough)
            else:
                self._lower_compute(inst, asm)

    def _emit_phi_moves(self, pred: BasicBlock, succ: BasicBlock,
                        asm: AsmBlock) -> None:
        """Parallel-copy phi resolution with a scratch register on cycles."""
        moves: List[Tuple[str, str, Type]] = []
        for phi in succ.phis():
            dst = self.regs.get(phi)
            src = self._operand(phi.incoming_for(pred))
            if dst != src:
                moves.append((dst, src, phi.type))
        # Topologically order moves so no destination is clobbered before it
        # is read; break cycles with a scratch register.
        pending = list(moves)
        emitted: List[Tuple[str, str, Type]] = []
        while pending:
            progress = False
            for i, (dst, src, t) in enumerate(pending):
                # Safe to emit when no *other* pending move still reads dst.
                if all(dst != other_src for j, (_, other_src, _)
                       in enumerate(pending) if j != i):
                    emitted.append((dst, src, t))
                    del pending[i]
                    progress = True
                    break
            if not progress:
                # Cycle: rotate through a scratch register.
                dst, src, t = pending[0]
                scratch = self.regs.fresh(t)
                emitted.append((scratch, dst, t))
                for j, (d2, s2, t2) in enumerate(pending):
                    if s2 == dst:
                        pending[j] = (d2, scratch, t2)
        for dst, src, t in emitted:
            bits = "pred" if t.is_bool else \
                f"u{64 if register_class(t) in ('rd', 'fd') else 32}" \
                if isinstance(t, (IntType, PointerType)) else \
                f"f{t.bits}"  # type: ignore[attr-defined]
            asm.instructions.append(
                AsmInstruction(f"mov.{bits}", f"{dst}, {src}", "misc"))

    # -- terminators -----------------------------------------------------------
    def _lower_terminator(self, block: BasicBlock, inst: Instruction,
                          asm: AsmBlock,
                          fallthrough: Optional[BasicBlock]) -> None:
        if isinstance(inst, BranchInst):
            self._emit_phi_moves(block, inst.target, asm)
            if inst.target is not fallthrough:
                asm.instructions.append(AsmInstruction(
                    "bra.uni", self._label(inst.target), "control"))
            return
        if isinstance(inst, CondBranchInst):
            pred = self._operand(inst.condition)
            # Phi moves must respect the edge; when either successor has
            # phis we emit the taken-side moves under the predicate by
            # splitting: moves for the true edge guarded, then false edge.
            t_has = bool(inst.true_target.phis())
            f_has = bool(inst.false_target.phis())
            if not t_has and not f_has:
                asm.instructions.append(AsmInstruction(
                    f"@{pred} bra", self._label(inst.true_target), "control"))
                if inst.false_target is not fallthrough:
                    asm.instructions.append(AsmInstruction(
                        "bra.uni", self._label(inst.false_target), "control"))
                return
            # Emit: @!p bra FALSE_TRAMPOLINE; <true moves>; bra TRUE.
            asm.instructions.append(AsmInstruction(
                f"@!{pred} bra", f"{self._label(block)}_f", "control"))
            self._emit_phi_moves(block, inst.true_target, asm)
            asm.instructions.append(AsmInstruction(
                "bra.uni", self._label(inst.true_target), "control"))
            asm.instructions.append(AsmInstruction(
                f"{self._label(block)}_f:", "", "control"))
            self._emit_phi_moves(block, inst.false_target, asm)
            if inst.false_target is not fallthrough:
                asm.instructions.append(AsmInstruction(
                    "bra.uni", self._label(inst.false_target), "control"))
            return
        if isinstance(inst, RetInst):
            if inst.value is not None:
                asm.instructions.append(AsmInstruction(
                    f"st.param.{_suffix(inst.value.type)}",
                    f"[func_retval0+0], {self._operand(inst.value)}",
                    "store"))
            asm.instructions.append(AsmInstruction("ret", "", "control"))
            return
        if isinstance(inst, UnreachableInst):
            asm.instructions.append(AsmInstruction("trap", "", "control"))

    # -- computation -----------------------------------------------------------
    def _lower_compute(self, inst: Instruction, asm: AsmBlock) -> None:
        out = lambda op, fmt, cat: asm.instructions.append(
            AsmInstruction(op, fmt, cat))

        if isinstance(inst, BinaryInst):
            base, signed = _BINOP_TABLE[inst.opcode]
            if isinstance(inst.type, FloatType) and base == "div":
                base = "div.rn"
            suffix = _suffix(inst.type, signed)
            if inst.opcode in ("and", "or", "xor", "shl"):
                suffix = f"b{max(getattr(inst.type, 'bits', 64), 32)}"
            cat = "fp" if isinstance(inst.type, FloatType) else "int"
            out(f"{base}.{suffix}",
                f"{self.regs.get(inst)}, {self._operand(inst.lhs)}, "
                f"{self._operand(inst.rhs)}", cat)
        elif isinstance(inst, (ICmpInst, FCmpInst)):
            ty = inst.lhs.type
            out(f"setp.{inst.predicate}.{_suffix(ty)}",
                f"{self.regs.get(inst)}, {self._operand(inst.lhs)}, "
                f"{self._operand(inst.rhs)}",
                "fp" if isinstance(ty, FloatType) else "int")
        elif isinstance(inst, SelectInst):
            bits = 64 if register_class(inst.type) in ("rd", "fd") else 32
            out(f"selp.b{bits}",
                f"{self.regs.get(inst)}, {self._operand(inst.true_value)}, "
                f"{self._operand(inst.false_value)}, "
                f"{self._operand(inst.condition)}", "misc")
        elif isinstance(inst, CastInst):
            out(f"cvt.{_suffix(inst.type)}.{_suffix(inst.value.type)}",
                f"{self.regs.get(inst)}, {self._operand(inst.value)}",
                "misc")
        elif isinstance(inst, GEPInst):
            # shl + add address arithmetic, exactly as in paper Listing 4.
            elem = inst.element_type.size_bytes()
            shift = {1: 0, 2: 1, 4: 2, 8: 3}.get(elem)
            scratch = self.regs.fresh(inst.type)
            if shift:
                out("shl.b64",
                    f"{scratch}, {self._operand(inst.index)}, {shift}", "int")
            else:
                out("mov.u64",
                    f"{scratch}, {self._operand(inst.index)}", "misc")
            out("add.s64",
                f"{self.regs.get(inst)}, {self._operand(inst.pointer)}, "
                f"{scratch}", "int")
        elif isinstance(inst, LoadInst):
            out(f"ld.global.{_suffix(inst.type)}",
                f"{self.regs.get(inst)}, [{self._operand(inst.pointer)}]",
                "load")
        elif isinstance(inst, StoreInst):
            out(f"st.global.{_suffix(inst.value.type)}",
                f"[{self._operand(inst.pointer)}], "
                f"{self._operand(inst.value)}", "store")
        elif isinstance(inst, AllocaInst):
            out("mov.u64", f"{self.regs.get(inst)}, __local_depot", "misc")
        elif isinstance(inst, CallInst):
            name = inst.intrinsic.name
            if name in _SPECIAL_REGS:
                out("mov.u32",
                    f"{self.regs.get(inst)}, {_SPECIAL_REGS[name]}", "misc")
            elif name == "syncthreads":
                out("bar.sync", "0", "control")
            else:
                op = _MATH_OPS.get(name, name)
                args = ", ".join(self._operand(a) for a in inst.operands)
                out(f"{op}.{_suffix(inst.type)}",
                    f"{self.regs.get(inst)}, {args}", "fp")
        else:
            raise NotImplementedError(f"cannot lower {inst!r}")


def lower_function(func: Function) -> AsmFunction:
    """Lower one IR function to PTX-style assembly."""
    return PTXLowering(func).lower()


def render(asm: AsmFunction) -> str:
    """Render a lowered function as PTX-flavoured text."""
    lines = [f".visible .entry {asm.name}("]
    lines.extend(f"    .param {t} {asm.name}_param_{i}"
                 + ("," if i < len(asm.params) - 1 else "")
                 for i, (t, _) in enumerate(asm.params))
    lines.append(")")
    lines.append("{")
    for cls, count in sorted(asm.reg_decls.items()):
        ptx_t = {"rd": ".b64", "r": ".b32", "fd": ".f64", "f": ".f32",
                 "p": ".pred"}[cls]
        lines.append(f"    .reg {ptx_t} \t%{cls}<{count + 1}>;")
    lines.append("")
    for block in asm.blocks:
        lines.append(f"{block.label}:")
        for inst in block.instructions:
            if inst.opcode.endswith(":"):
                lines.append(f"{inst.opcode}")
            else:
                lines.append(f"    {inst.render()}")
    lines.append("}")
    return "\n".join(lines)
