"""Compile-time evaluation of instructions over constant operands.

Shared by SCCP, instcombine and the branch folder in SimplifyCFG.  What an
opcode *computes* is not written here: the folder runs the kernel of
:mod:`repro.semantics` — the one the SIMT interpreter executes — on
1-element arrays of the operands' storage dtype, so a fold is invisible
under differential execution by construction.  This module holds only
what is the folder's own: which operands count as constant, the cases it
refuses, and wrapping the result back into a :class:`Constant`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..ir.constants import Constant, ConstantFloat, ConstantInt
from ..ir.instructions import (FLOAT_BINOPS, BinaryInst, CallInst, CastInst,
                               FCmpInst, ICmpInst, Instruction, SelectInst)
from ..ir.types import FloatType, IntType
from ..semantics import op_for, storage_dtype

_NUMERIC = (ConstantInt, ConstantFloat)

#: Casts the folder evaluates: opcode -> (operand kind, result type kind).
#: Everything else (pointer casts, float bitcasts) is left to runtime.
_FOLDABLE_CASTS = {
    "trunc": (ConstantInt, IntType), "bitcast": (ConstantInt, IntType),
    "zext": (ConstantInt, IntType), "sext": (ConstantInt, IntType),
    "sitofp": (ConstantInt, FloatType), "uitofp": (ConstantInt, FloatType),
    "fptosi": (ConstantFloat, IntType),
    "fpext": (ConstantFloat, FloatType), "fptrunc": (ConstantFloat, FloatType),
}


def fold_instruction(inst: Instruction) -> Optional[Constant]:
    """Evaluate ``inst`` if all relevant operands are constants."""
    if isinstance(inst, SelectInst):
        cond = inst.condition
        if isinstance(cond, ConstantInt):
            arm = inst.true_value if cond.value else inst.false_value
            return arm if isinstance(arm, Constant) else None
        return None
    if not isinstance(inst, (BinaryInst, ICmpInst, FCmpInst, CastInst,
                             CallInst)):
        return None
    operands = inst.operands
    # SIMT geometry (tid.x & co) is pure but lane-varying: no operands.
    # Nearly every call ends here, on the first operand, before any array
    # is built.
    if not operands or not isinstance(operands[0], _NUMERIC) or \
            not all(isinstance(v, _NUMERIC) for v in operands):
        return None
    if _refuses(inst, operands):
        return None
    op = op_for(inst)
    if op is None:
        return None
    with np.errstate(all="ignore"):   # Kernels are total under it.
        out = op.kernel(*[np.array([v.value], dtype=storage_dtype(v.type))
                          for v in operands])[0]
    if isinstance(inst.type, IntType):
        return ConstantInt(inst.type, int(out))
    if isinstance(inst.type, FloatType):
        return ConstantFloat(inst.type, float(out))
    return None


def _refuses(inst: Instruction, operands) -> bool:
    """Constant operands the folder still leaves to runtime."""
    if isinstance(inst, CastInst):
        kinds = _FOLDABLE_CASTS.get(inst.opcode)
        return kinds is None or not (isinstance(operands[0], kinds[0])
                                     and isinstance(inst.type, kinds[1]))
    if isinstance(inst, CallInst):
        return False
    lhs, rhs = operands
    is_float = inst.opcode in FLOAT_BINOPS or isinstance(inst, FCmpInst)
    if type(lhs) is not type(rhs) or isinstance(lhs, ConstantFloat) != is_float:
        return True
    if inst.opcode in ("sdiv", "udiv", "srem", "urem"):
        return rhs.value == 0
    if inst.opcode in ("shl", "lshr", "ashr"):
        return not 0 <= rhs.unsigned() < lhs.type.bits
    return False
