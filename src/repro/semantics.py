"""The value-semantics table: what every pure opcode computes.

This module is the **only** place that says what ``add``/``sub``/``mul``/
``[su]div``/``[su]rem``/the shifts/``and``/``or``/``xor``, the float
binops, the ``icmp``/``fcmp`` predicates, ``select``, the casts, ``gep``
and the pure math intrinsics evaluate to.  :data:`TABLE` holds one entry
per opcode (per predicate, per intrinsic); an entry specialises once per
signature into an :class:`Op` — a numpy kernel over arrays of any shape
plus, where it is a one-liner, the expression that kernel was compiled
from.  Three consumers evaluate the *same* ``Op``:

* the SIMT interpreter (:func:`repro.gpu.machine.evaluate`:
  per-warp ``(32,)`` vectors, the batched ``(n, 32)`` lattice, unfused
  jit steps) calls ``op.kernel``;
* the jit's expression fuser (:mod:`repro.gpu.fuser`) inlines ``op.expr``
  into generated source — or calls ``op.kernel`` when there is none;
* the constant folder (:mod:`repro.transforms.fold`) calls ``op.kernel``
  on 1-element arrays of the operands' storage dtype.

Every kernel is *total under* ``np.errstate(all="ignore")`` — an inf or
NaN operand or result is a value, not an event — and it is the evaluator,
not the table, that holds that state: :meth:`SimtMachine.launch
<repro.gpu.machine.SimtMachine.launch>` enters it once per launch (fused
segments run inside launches), the folder once per fold.  ``Op.kernel``
is therefore the raw kernel for every consumer; calling one outside such
a block computes the same values and may warn.

A fold is therefore bit-invisible against runtime execution, and fused
and unfused execution agree, by construction rather than by agreement
tests; ``tests/test_fold_and_passes.py`` generates one oracle test from
the table's keys and the differential fuzzer (:mod:`repro.fuzz`) covers
whole kernels.

The contract:

* **Storage.**  A value lives in the numpy dtype :func:`storage_dtype`
  names: ``bool`` for ``i1``, sign-wrapped ``int64`` for every wider
  integer and for pointers, ``float32``/``float64`` for floats.  Given
  operands at their storage dtype every kernel returns the *result*
  type's storage dtype (intrinsic calls excepted: their declared type is
  free, so consumers normalise after the call).
* **Integer arithmetic** wraps two's-complement at the operand width.
  ``i1`` holds 0/1 (not 0/-1): its arithmetic is the 64-bit kernel's low
  bit.  ``sdiv``/``srem`` truncate toward zero and are exact over the full
  i64 range (no float round-trip); division by zero yields quotient 0 and
  remainder 0 at runtime, and the folder refuses to fold it.
* **Unsigned operations** (``udiv``, ``urem``, ``lshr``, ``zext``,
  ``uitofp``, the ``u*`` compares) reinterpret a value as unsigned *at
  its own width*: an ``i8`` -1 is 255, not 2^64-1.
* **Shifts** are defined for amounts in ``[0, width)``.  At runtime the
  amount is clamped to ``[0, 63]`` and the result wrapped; constant
  over-shifts are rejected by the IR verifier and refused by the folder.
* **Casts.**  ``trunc``/``bitcast``/``ptrtoint``/``inttoptr`` keep the
  integer payload, wrapped to an integer target's width.  ``fptosi``
  saturates: NaN converts to 0, values beyond the target range (±inf
  included) clamp to its signed min/max, finite in-range values truncate
  toward zero (CUDA's ``cvt.rzi``; LLVM's poison-on-overflow is replaced
  by a total function so folding is always legal).  ``sitofp``/``uitofp``
  round once, straight into the target format — no double rounding of
  huge i64 values through binary64.
* **Float arithmetic** is IEEE-754 at the storage precision and total:
  ``x / ±0.0`` is an infinity signed by both operands, ``0/0`` and NaN
  operands give NaN, ``frem`` is C ``fmod`` with ``frem(x, 0) =
  frem(±inf, y) = NaN``.  Ordered ``fcmp`` predicates are false, and
  unordered ones true, whenever an operand is NaN.
* **Pure math intrinsics** use numpy's routines at the storage dtype
  (f32 values use the float32 routines) with total-function clamps:
  ``sqrt(x<0) = 0``, ``exp`` clamps its argument to ±700, ``log`` clamps
  to ``>= 1e-300``, and ``pow(a, b)`` computes ``|a| ** b``.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Dict, NamedTuple, Optional

import numpy as np

from .ir.instructions import (CAST_OPS, FCMP_PREDICATES, FLOAT_BINOPS,
                              ICMP_PREDICATES, INT_BINOPS, Instruction)
from .ir.types import FloatType, IntType, PointerType, Type


def storage_dtype(type_: Type):
    """The numpy dtype a value of ``type_`` occupies in warp registers."""
    if isinstance(type_, IntType):
        return np.bool_ if type_.bits == 1 else np.int64
    if isinstance(type_, FloatType):
        return np.float32 if type_.bits == 32 else np.float64
    if isinstance(type_, PointerType):
        return np.int64
    raise ValueError(f"no storage dtype for {type_!r}")


def wrap_int(values: np.ndarray, bits: int) -> np.ndarray:
    """Sign-wrap int64 ``values`` to ``bits`` (two's complement)."""
    if bits >= 64:
        return values
    mask = (np.int64(1) << bits) - 1
    wrapped = values & mask
    sign = np.int64(1) << (bits - 1)
    return (wrapped ^ sign) - sign


def _unsigned(values: np.ndarray, bits: int) -> np.ndarray:
    """Sign-wrapped storage reinterpreted as unsigned at its own width."""
    u = values.astype(np.uint64)
    return u if bits >= 64 else u & np.uint64((1 << bits) - 1)


#: Every name an :attr:`Op.expr` may mention; generated code that inlines
#: expressions executes in (a copy of) this namespace.
NAMESPACE = {"np": np, "wrap": wrap_int, "unsigned": _unsigned}


class Op(NamedTuple):
    """One opcode's semantics at one signature.

    ``kernel(*operands)`` takes the instruction's operands in operand
    order.  ``expr`` (when non-empty) is the numpy source the kernel was
    compiled from, over ``{a}``/``{b}``/``{c}``; ``{s}`` stands for
    ``clamp`` applied to ``{b}`` — the shift-amount clamp, kept apart so a
    code generator can precompute it for a constant amount.  ``ufunc``
    names the numpy ufunc ``expr`` is exactly one call of, so a code
    generator may pass it ``out=``.
    """

    kernel: Callable[..., np.ndarray]
    expr: str = ""
    clamp: str = ""
    ufunc: str = ""


def _op(expr: str, clamp: str = "", ufunc: str = "") -> Op:
    """An entry whose kernel is compiled from its own expression."""
    source = ufunc or "lambda a, b=None, c=None: " + expr.format(
        a="a", b="b", c="c", s=clamp.format(b="b"))
    return Op(eval(source, NAMESPACE), expr, clamp, ufunc)


def _bits(type_: Type) -> int:
    return type_.bits if isinstance(type_, IntType) else 64


# -- binary operators ---------------------------------------------------------

def _sdiv(a, b, bits):
    # Exact C-style truncating division in int64: floor, then step back
    # toward zero when the signs differ and the division was inexact.
    safe = np.where(b == 0, 1, b)
    quo = a // safe
    quo = quo + ((a - quo * safe != 0) & ((a ^ safe) < 0))
    return np.where(b == 0, 0, quo)


def _srem(a, b, bits):
    return np.where(b == 0, 0, a - _sdiv(a, b, bits) * b)


def _udiv(a, b, bits):
    ua, ub = _unsigned(a, bits), _unsigned(b, bits)
    return np.where(ub == 0, 0, ua // np.where(ub == 0, 1, ub)) \
        .astype(np.int64)


def _urem(a, b, bits):
    ua, ub = _unsigned(a, bits), _unsigned(b, bits)
    return np.where(ub == 0, 0, ua % np.where(ub == 0, 1, ub)) \
        .astype(np.int64)


_DIVISION = {"sdiv": _sdiv, "srem": _srem, "udiv": _udiv, "urem": _urem}

#: opcode -> (expression at full int64 width, the ufunc it is).  The
#: bitwise three are closed under every storage dtype, ``bool`` included,
#: and so are never wrapped.
_BITWISE = {"and": ("{a} & {b}", "np.bitwise_and"),
            "or": ("{a} | {b}", "np.bitwise_or"),
            "xor": ("{a} ^ {b}", "np.bitwise_xor")}
_ARITH = {"add": ("{a} + {b}", "np.add"),
          "sub": ("{a} - {b}", "np.subtract"),
          "mul": ("{a} * {b}", "np.multiply")}
_SHIFT = {"shl": "{a} << {s}", "ashr": "{a} >> {s}"}
_CLAMP = "np.clip({b}, 0, 63)"

_FLOAT = {"fadd": np.add, "fsub": np.subtract, "fmul": np.multiply,
          "fdiv": np.divide, "frem": np.fmod}


@lru_cache(maxsize=None)
def _binop(opcode: str, type_: Type, _operand: Optional[Type] = None) -> Op:
    if opcode in _FLOAT:
        return Op(_FLOAT[opcode])
    if opcode in _BITWISE:
        expr, ufunc = _BITWISE[opcode]
        return _op(expr, ufunc=ufunc)
    bits = _bits(type_)
    if bits == 1:
        wide = _binop(opcode, IntType(64)).kernel
        return Op(lambda a, b: (wide(a.astype(np.int64),
                                     b.astype(np.int64)) & 1).astype(np.bool_))
    fit = "{}" if bits >= 64 else f"wrap({{}}, {bits})"
    if opcode in _ARITH:
        expr, ufunc = _ARITH[opcode]
        return _op(fit.format(expr), ufunc=ufunc if bits >= 64 else "")
    if opcode in _SHIFT:
        return _op(fit.format(_SHIFT[opcode]), clamp=_CLAMP)
    if opcode == "lshr":
        u = "{a}.astype(np.uint64)" if bits >= 64 else f"unsigned({{a}}, {bits})"
        return _op(fit.format(f"({u} >> {{s}}).astype(np.int64)"),
                   clamp=_CLAMP + ".astype(np.uint64)")
    core = _DIVISION[opcode]
    return Op(lambda a, b: wrap_int(core(a, b, bits), bits))


# -- comparisons --------------------------------------------------------------

_ICMP = {"eq": ("==", "np.equal"), "ne": ("!=", "np.not_equal"),
         "lt": ("<", "np.less"), "le": ("<=", "np.less_equal"),
         "gt": (">", "np.greater"), "ge": (">=", "np.greater_equal")}


def _icmp(pred: str) -> Op:
    if pred[0] == "u":
        sym = _ICMP[pred[1:]][0]
        return _op(f"{{a}}.astype(np.uint64) {sym} {{b}}.astype(np.uint64)")
    sym, ufunc = _ICMP[pred.lstrip("s")]
    return _op(f"{{a}} {sym} {{b}}", ufunc=ufunc)


#: IEEE comparisons are false on NaN except ``!=``, so every predicate is
#: one comparison or the negation of its complement.
_FCMP = {"oeq": "{a} == {b}", "one": "({a} < {b}) | ({a} > {b})",
         "olt": "{a} < {b}", "ole": "{a} <= {b}",
         "ogt": "{a} > {b}", "oge": "{a} >= {b}",
         "ueq": "~(({a} < {b}) | ({a} > {b}))", "une": "{a} != {b}",
         "ult": "~({a} >= {b})", "ule": "~({a} > {b})",
         "ugt": "~({a} <= {b})", "uge": "~({a} < {b})"}


# -- casts --------------------------------------------------------------------

def _fptosi(value: np.ndarray, to_type: IntType) -> np.ndarray:
    lo, hi = to_type.min_signed, to_type.max_signed
    v = value.astype(np.float64)
    t = np.where(np.isnan(v), 0.0, np.fix(v))
    # float(lo) is a power of two, hence exact; float(hi) may round up
    # to hi + 1 (e.g. 2^63 for i64), in which case t == float(hi)
    # already means "out of range".
    hi_f = float(hi)
    over = (t > hi_f) if int(hi_f) == hi else (t >= hi_f)
    under = t < float(lo)
    safe = np.where(over | under, 0.0, t).astype(np.int64)
    return np.where(over, np.int64(hi),
                    np.where(under, np.int64(lo), safe)) \
        .astype(storage_dtype(to_type), copy=False)


@lru_cache(maxsize=None)
def _cast(opcode: str, to_type: Type, from_type: Type) -> Op:
    if opcode == "fptosi":
        return Op(partial(_fptosi, to_type=to_type))
    dtype = storage_dtype(to_type)
    to_storage = f".astype(np.{dtype.__name__})"
    if opcode in ("sitofp", "fpext", "fptrunc"):
        return _op("{a}" + to_storage)
    if opcode == "uitofp":
        return _op(f"unsigned({{a}}, {_bits(from_type)})" + to_storage)
    expr = "{a}.astype(np.int64)"
    if opcode == "zext" and 1 < _bits(from_type) < 64:
        expr = f"{{a}} & {(1 << _bits(from_type)) - 1}"
    if isinstance(to_type, IntType) and opcode not in ("zext", "sext"):
        if to_type.bits == 1:
            expr = f"({expr} & 1).astype(np.bool_)"
        elif to_type.bits < 64:
            expr = f"wrap({expr}, {to_type.bits})"
    elif dtype is not np.int64:
        expr += to_storage
    return _op(expr)


# -- the table ----------------------------------------------------------------

@lru_cache(maxsize=None)
def _gep(type_: Type, _pointer: Type) -> Op:
    return _op(f"{{a}} + {{b}} * {type_.pointee.size_bytes()}")


_INTRINSICS = {
    "sqrt": lambda a: np.sqrt(np.maximum(a, 0.0)),
    "fabs": np.abs,
    "exp": lambda a: np.exp(np.clip(a, -700, 700)),
    "log": lambda a: np.log(np.maximum(a, 1e-300)),
    "sin": np.sin,
    "cos": np.cos,
    "atan": np.arctan,
    "floor": np.floor,
    "pow": lambda a, b: np.power(np.abs(a), b),
    "fma": lambda a, b, c: a * b + c,
    "min": np.minimum,
    "fmin": np.minimum,
    "max": np.maximum,
    "fmax": np.maximum,
}


def _fixed(op: Op) -> Callable[..., Op]:
    return lambda _type, _operand: op


#: key -> specialiser ``(result type, first operand's type) -> Op``.  Keys
#: are opcodes, ``"icmp <pred>"``/``"fcmp <pred>"`` and ``"call <name>"``.
TABLE: Dict[str, Callable[[Type, Optional[Type]], Op]] = {
    **{opc: partial(_binop, opc) for opc in INT_BINOPS + FLOAT_BINOPS},
    **{f"icmp {pred}": _fixed(_icmp(pred)) for pred in ICMP_PREDICATES},
    **{f"fcmp {pred}": _fixed(_op(_FCMP[pred])) for pred in FCMP_PREDICATES},
    "select": _fixed(_op("np.where({a}, {b}, {c})")),
    **{opc: partial(_cast, opc) for opc in CAST_OPS},
    "gep": _gep,
    **{f"call {name}": _fixed(Op(impl))
       for name, impl in _INTRINSICS.items()},
}


def op_for(inst: Instruction) -> Optional[Op]:
    """The table entry that computes ``inst`` from its operands, or None
    when ``inst`` is not a pure value operation of the table (memory,
    control, SIMT geometry, an intrinsic without an implementation)."""
    key = inst.opcode
    if key in ("icmp", "fcmp"):
        key = f"{key} {inst.predicate}"
    elif key == "call":
        key = f"call {inst.intrinsic.name}"
    spec = TABLE.get(key)
    if spec is None:
        return None
    operands = inst.operands
    return spec(inst.type, operands[0].type if operands else None)
