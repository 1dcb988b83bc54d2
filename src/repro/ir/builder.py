"""IRBuilder: convenience construction of instructions at an insert point."""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from .block import BasicBlock
from .constants import Constant, ConstantFloat, ConstantInt, const
from .instructions import (AllocaInst, BinaryInst, BranchInst, CallInst,
                           CastInst, CondBranchInst, FCmpInst, GEPInst,
                           ICmpInst, Instruction, LoadInst, PhiInst, RetInst,
                           SelectInst, StoreInst, UnreachableInst)
from .types import FloatType, IntType, PointerType, Type
from .values import Value

Operand = Union[Value, int, float]


class IRBuilder:
    """Builds instructions appended to the current block.

    Integer/float literals passed as operands are promoted to constants of
    the sibling operand's type, which keeps kernel-construction code terse.
    """

    def __init__(self, block: Optional[BasicBlock] = None) -> None:
        self.block = block

    def position_at_end(self, block: BasicBlock) -> None:
        self.block = block

    @property
    def function(self):
        if self.block is None or self.block.parent is None:
            raise ValueError("builder is not positioned inside a function")
        return self.block.parent

    # -- internals ----------------------------------------------------------
    def _insert(self, inst: Instruction, name: str) -> Instruction:
        if self.block is None:
            raise ValueError("builder has no insertion block")
        if name:
            inst.name = self.function.unique_name(name)
        elif not inst.type.is_void:
            inst.name = self.function.unique_name("v")
        self.block.append(inst)
        return inst

    def _coerce(self, value: Operand, like: Value) -> Value:
        if isinstance(value, Value):
            return value
        return const(like.type, value)

    def _coerce_pair(self, lhs: Operand, rhs: Operand):
        if isinstance(lhs, Value):
            return lhs, self._coerce(rhs, lhs)
        if isinstance(rhs, Value):
            return self._coerce(lhs, rhs), rhs
        raise TypeError("at least one operand must be an IR value")

    # -- arithmetic -----------------------------------------------------------
    def binary(self, opcode: str, lhs: Operand, rhs: Operand, name: str = "") -> Value:
        lhs, rhs = self._coerce_pair(lhs, rhs)
        return self._insert(BinaryInst(opcode, lhs, rhs), name)

    def add(self, lhs, rhs, name=""):
        return self.binary("add", lhs, rhs, name)

    def sub(self, lhs, rhs, name=""):
        return self.binary("sub", lhs, rhs, name)

    def mul(self, lhs, rhs, name=""):
        return self.binary("mul", lhs, rhs, name)

    def sdiv(self, lhs, rhs, name=""):
        return self.binary("sdiv", lhs, rhs, name)

    def udiv(self, lhs, rhs, name=""):
        return self.binary("udiv", lhs, rhs, name)

    def srem(self, lhs, rhs, name=""):
        return self.binary("srem", lhs, rhs, name)

    def urem(self, lhs, rhs, name=""):
        return self.binary("urem", lhs, rhs, name)

    def shl(self, lhs, rhs, name=""):
        return self.binary("shl", lhs, rhs, name)

    def lshr(self, lhs, rhs, name=""):
        return self.binary("lshr", lhs, rhs, name)

    def ashr(self, lhs, rhs, name=""):
        return self.binary("ashr", lhs, rhs, name)

    def and_(self, lhs, rhs, name=""):
        return self.binary("and", lhs, rhs, name)

    def or_(self, lhs, rhs, name=""):
        return self.binary("or", lhs, rhs, name)

    def xor(self, lhs, rhs, name=""):
        return self.binary("xor", lhs, rhs, name)

    def fadd(self, lhs, rhs, name=""):
        return self.binary("fadd", lhs, rhs, name)

    def fsub(self, lhs, rhs, name=""):
        return self.binary("fsub", lhs, rhs, name)

    def fmul(self, lhs, rhs, name=""):
        return self.binary("fmul", lhs, rhs, name)

    def fdiv(self, lhs, rhs, name=""):
        return self.binary("fdiv", lhs, rhs, name)

    def frem(self, lhs, rhs, name=""):
        return self.binary("frem", lhs, rhs, name)

    # -- comparisons -----------------------------------------------------------
    def icmp(self, predicate: str, lhs: Operand, rhs: Operand, name: str = "") -> Value:
        lhs, rhs = self._coerce_pair(lhs, rhs)
        return self._insert(ICmpInst(predicate, lhs, rhs), name)

    def fcmp(self, predicate: str, lhs: Operand, rhs: Operand, name: str = "") -> Value:
        lhs, rhs = self._coerce_pair(lhs, rhs)
        return self._insert(FCmpInst(predicate, lhs, rhs), name)

    # -- data movement -----------------------------------------------------------
    def select(self, cond: Value, tval: Operand, fval: Operand, name: str = "") -> Value:
        tval, fval = self._coerce_pair(tval, fval)
        return self._insert(SelectInst(cond, tval, fval), name)

    def phi(self, type_: Type, name: str = "") -> PhiInst:
        """Insert a phi at the start of the current block's phi group."""
        if self.block is None:
            raise ValueError("builder has no insertion block")
        inst = PhiInst(type_)
        inst.name = self.function.unique_name(name or "phi")
        self.block.insert(self.block.first_non_phi_index(), inst)
        return inst

    # -- casts -----------------------------------------------------------
    def cast(self, opcode: str, value: Value, to_type: Type, name: str = "") -> Value:
        if value.type is to_type and opcode in ("bitcast",):
            return value
        return self._insert(CastInst(opcode, value, to_type), name)

    def trunc(self, value, to_type, name=""):
        return self.cast("trunc", value, to_type, name)

    def zext(self, value, to_type, name=""):
        return self.cast("zext", value, to_type, name)

    def sext(self, value, to_type, name=""):
        return self.cast("sext", value, to_type, name)

    def sitofp(self, value, to_type, name=""):
        return self.cast("sitofp", value, to_type, name)

    def fptosi(self, value, to_type, name=""):
        return self.cast("fptosi", value, to_type, name)

    def fpext(self, value, to_type, name=""):
        return self.cast("fpext", value, to_type, name)

    def fptrunc(self, value, to_type, name=""):
        return self.cast("fptrunc", value, to_type, name)

    # -- memory -----------------------------------------------------------
    def load(self, ptr: Value, name: str = "") -> Value:
        return self._insert(LoadInst(ptr), name)

    def store(self, value: Operand, ptr: Value) -> Instruction:
        if not isinstance(value, Value):
            if not isinstance(ptr.type, PointerType):
                raise TypeError("store target must be a pointer")
            value = const(ptr.type.pointee, value)
        return self._insert(StoreInst(value, ptr), "")

    def gep(self, ptr: Value, index: Operand, name: str = "") -> Value:
        from .types import I64

        if not isinstance(index, Value):
            index = const(I64, index)
        return self._insert(GEPInst(ptr, index), name)

    def alloca(self, element_type: Type, count: int = 1, name: str = "") -> Value:
        return self._insert(AllocaInst(element_type, count), name)

    # -- calls -----------------------------------------------------------
    def call(self, intrinsic: str, args: Sequence[Value] = (),
             type_: Optional[Type] = None, name: str = "") -> Value:
        return self._insert(CallInst(intrinsic, list(args), type_), name)

    def syncthreads(self) -> Value:
        return self.call("syncthreads")

    # -- terminators -----------------------------------------------------------
    def br(self, target: BasicBlock) -> Instruction:
        return self._insert(BranchInst(target), "")

    def cond_br(self, cond: Value, true_target: BasicBlock,
                false_target: BasicBlock) -> Instruction:
        return self._insert(CondBranchInst(cond, true_target, false_target), "")

    def ret(self, value: Optional[Value] = None) -> Instruction:
        return self._insert(RetInst(value), "")

    def unreachable(self) -> Instruction:
        return self._insert(UnreachableInst(), "")
