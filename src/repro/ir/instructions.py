"""Instruction set of the repro IR.

The instruction set mirrors the LLVM subset exercised by the paper's GPU
benchmarks: integer/float arithmetic, comparisons, ``select`` (the IR-level
ancestor of PTX ``selp``), ``phi``, branches, memory operations and a handful
of GPU/math intrinsics.  Each opcode carries static metadata (purity,
commutativity, counter category, issue cost) that the optimization passes,
the cost model and the SIMT simulator all share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .constants import Constant
from .types import (F32, F64, I1, I64, FloatType, IntType, PointerType, Type,
                    VOID)
from .values import User, Value

if TYPE_CHECKING:
    from .block import BasicBlock


# ---------------------------------------------------------------------------
# Opcode metadata
# ---------------------------------------------------------------------------

#: Counter categories used by the GPU simulator, mirroring nvprof counters:
#: ``misc`` feeds inst_misc (selp/mov-like data movement), ``control`` feeds
#: inst_control, the rest feed the per-class execution counters.
CATEGORY_INT = "int"
CATEGORY_FP = "fp"
CATEGORY_MISC = "misc"
CATEGORY_CONTROL = "control"
CATEGORY_LOAD = "load"
CATEGORY_STORE = "store"
CATEGORY_SPECIAL = "special"


@dataclass(frozen=True)
class OpInfo:
    """Static properties of an opcode."""

    category: str
    pure: bool          # No side effects and result depends only on operands.
    commutative: bool = False
    may_trap: bool = False  # Division-like ops; kept out of speculative motion.
    cost: int = 1       # Abstract size/issue cost (LLVM-cost-model-flavoured).


INT_BINOPS = ("add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
              "shl", "lshr", "ashr", "and", "or", "xor")
FLOAT_BINOPS = ("fadd", "fsub", "fmul", "fdiv", "frem")
CAST_OPS = ("trunc", "zext", "sext", "sitofp", "uitofp", "fptosi", "fpext",
            "fptrunc", "bitcast", "ptrtoint", "inttoptr")

OPCODE_INFO: Dict[str, OpInfo] = {
    # Integer arithmetic.
    "add": OpInfo(CATEGORY_INT, True, commutative=True),
    "sub": OpInfo(CATEGORY_INT, True),
    "mul": OpInfo(CATEGORY_INT, True, commutative=True, cost=2),
    "sdiv": OpInfo(CATEGORY_INT, True, may_trap=True, cost=8),
    "udiv": OpInfo(CATEGORY_INT, True, may_trap=True, cost=8),
    "srem": OpInfo(CATEGORY_INT, True, may_trap=True, cost=8),
    "urem": OpInfo(CATEGORY_INT, True, may_trap=True, cost=8),
    "shl": OpInfo(CATEGORY_INT, True),
    "lshr": OpInfo(CATEGORY_INT, True),
    "ashr": OpInfo(CATEGORY_INT, True),
    "and": OpInfo(CATEGORY_INT, True, commutative=True),
    "or": OpInfo(CATEGORY_INT, True, commutative=True),
    "xor": OpInfo(CATEGORY_INT, True, commutative=True),
    # Float arithmetic.
    "fadd": OpInfo(CATEGORY_FP, True, commutative=True, cost=2),
    "fsub": OpInfo(CATEGORY_FP, True, cost=2),
    "fmul": OpInfo(CATEGORY_FP, True, commutative=True, cost=2),
    "fdiv": OpInfo(CATEGORY_FP, True, may_trap=False, cost=10),
    "frem": OpInfo(CATEGORY_FP, True, may_trap=False, cost=12),
    # Comparisons.
    "icmp": OpInfo(CATEGORY_INT, True),
    "fcmp": OpInfo(CATEGORY_FP, True, cost=2),
    # Data movement (PTX selp / mov analogues).
    "select": OpInfo(CATEGORY_MISC, True),
    "phi": OpInfo(CATEGORY_MISC, True, cost=1),
    # Casts.
    "trunc": OpInfo(CATEGORY_INT, True),
    "zext": OpInfo(CATEGORY_INT, True),
    "sext": OpInfo(CATEGORY_INT, True),
    "sitofp": OpInfo(CATEGORY_FP, True, cost=2),
    "uitofp": OpInfo(CATEGORY_FP, True, cost=2),
    "fptosi": OpInfo(CATEGORY_FP, True, cost=2),
    "fpext": OpInfo(CATEGORY_FP, True),
    "fptrunc": OpInfo(CATEGORY_FP, True),
    "bitcast": OpInfo(CATEGORY_MISC, True, cost=0),
    "ptrtoint": OpInfo(CATEGORY_MISC, True, cost=0),
    "inttoptr": OpInfo(CATEGORY_MISC, True, cost=0),
    # Memory.
    "load": OpInfo(CATEGORY_LOAD, False, cost=4),
    "store": OpInfo(CATEGORY_STORE, False, cost=4),
    "gep": OpInfo(CATEGORY_INT, True),
    "alloca": OpInfo(CATEGORY_SPECIAL, False, cost=0),
    # Control flow.
    "br": OpInfo(CATEGORY_CONTROL, False),
    "condbr": OpInfo(CATEGORY_CONTROL, False),
    "ret": OpInfo(CATEGORY_CONTROL, False),
    "unreachable": OpInfo(CATEGORY_CONTROL, False, cost=0),
    # Calls (intrinsics only in this IR).
    "call": OpInfo(CATEGORY_SPECIAL, False, cost=4),
}

#: Signed/unsigned/equality integer comparison predicates (LLVM spelling).
ICMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge",
                   "ult", "ule", "ugt", "uge")
#: Ordered float predicates; ``leu``-style unordered forms appear in the
#: paper's PTX but map onto these at IR level.
FCMP_PREDICATES = ("oeq", "one", "olt", "ole", "ogt", "oge",
                   "ueq", "une", "ult", "ule", "ugt", "uge")

ICMP_SWAPPED = {"eq": "eq", "ne": "ne", "slt": "sgt", "sgt": "slt",
                "sle": "sge", "sge": "sle", "ult": "ugt", "ugt": "ult",
                "ule": "uge", "uge": "ule"}
ICMP_NEGATED = {"eq": "ne", "ne": "eq", "slt": "sge", "sge": "slt",
                "sgt": "sle", "sle": "sgt", "ult": "uge", "uge": "ult",
                "ugt": "ule", "ule": "ugt"}
FCMP_NEGATED = {"oeq": "une", "one": "ueq", "olt": "uge", "ole": "ugt",
                "ogt": "ule", "oge": "ult", "ueq": "one", "une": "oeq",
                "ult": "oge", "ule": "ogt", "ugt": "ole", "uge": "olt"}


# ---------------------------------------------------------------------------
# Intrinsics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntrinsicInfo:
    """Description of a callable intrinsic."""

    name: str
    pure: bool
    convergent: bool = False
    category: str = CATEGORY_SPECIAL
    cost: int = 4


INTRINSICS: Dict[str, IntrinsicInfo] = {
    # SIMT geometry — pure within a launch but lane-dependent.
    "tid.x": IntrinsicInfo("tid.x", True, category=CATEGORY_SPECIAL, cost=1),
    "ctaid.x": IntrinsicInfo("ctaid.x", True, category=CATEGORY_SPECIAL, cost=1),
    "ntid.x": IntrinsicInfo("ntid.x", True, category=CATEGORY_SPECIAL, cost=1),
    "nctaid.x": IntrinsicInfo("nctaid.x", True, category=CATEGORY_SPECIAL, cost=1),
    # Convergent barrier: blocks u&u per paper Section III-C.
    "syncthreads": IntrinsicInfo("syncthreads", False, convergent=True,
                                 category=CATEGORY_CONTROL, cost=8),
    # Math intrinsics (SFU-flavoured costs).
    "sqrt": IntrinsicInfo("sqrt", True, category=CATEGORY_FP, cost=8),
    "fabs": IntrinsicInfo("fabs", True, category=CATEGORY_FP, cost=1),
    "exp": IntrinsicInfo("exp", True, category=CATEGORY_FP, cost=12),
    "log": IntrinsicInfo("log", True, category=CATEGORY_FP, cost=12),
    "sin": IntrinsicInfo("sin", True, category=CATEGORY_FP, cost=12),
    "cos": IntrinsicInfo("cos", True, category=CATEGORY_FP, cost=12),
    "pow": IntrinsicInfo("pow", True, category=CATEGORY_FP, cost=16),
    "fma": IntrinsicInfo("fma", True, category=CATEGORY_FP, cost=2),
    "min": IntrinsicInfo("min", True, category=CATEGORY_INT, cost=1),
    "max": IntrinsicInfo("max", True, category=CATEGORY_INT, cost=1),
    "fmin": IntrinsicInfo("fmin", True, category=CATEGORY_FP, cost=1),
    "fmax": IntrinsicInfo("fmax", True, category=CATEGORY_FP, cost=1),
    "atan": IntrinsicInfo("atan", True, category=CATEGORY_FP, cost=14),
    "floor": IntrinsicInfo("floor", True, category=CATEGORY_FP, cost=2),
}


# ---------------------------------------------------------------------------
# Instruction base
# ---------------------------------------------------------------------------

class Instruction(User):
    """Base class for all instructions."""

    __slots__ = ("opcode", "parent")

    def __init__(self, opcode: str, type_: Type, operands: Sequence[Value],
                 name: str = "") -> None:
        if opcode not in OPCODE_INFO:
            raise ValueError(f"unknown opcode: {opcode}")
        super().__init__(type_, list(operands), name)
        self.opcode = opcode
        self.parent: Optional["BasicBlock"] = None

    # -- metadata ----------------------------------------------------------
    @property
    def info(self) -> OpInfo:
        return OPCODE_INFO[self.opcode]

    @property
    def is_terminator(self) -> bool:
        return isinstance(self, TerminatorInst)

    @property
    def is_pure(self) -> bool:
        """True if the instruction can be removed when unused / deduplicated."""
        if isinstance(self, CallInst):
            return self.intrinsic.pure
        return self.info.pure

    @property
    def is_convergent(self) -> bool:
        return isinstance(self, CallInst) and self.intrinsic.convergent

    @property
    def category(self) -> str:
        if isinstance(self, CallInst):
            return self.intrinsic.category
        return self.info.category

    @property
    def cost(self) -> int:
        if isinstance(self, CallInst):
            return self.intrinsic.cost
        return self.info.cost

    # -- manipulation --------------------------------------------------------
    def erase_from_parent(self) -> None:
        """Unlink from the containing block and drop operand uses."""
        if self.parent is not None:
            self.parent.remove_instruction(self)
        self.drop_all_operands()

    def value_key(self, operands: Optional[Sequence[Value]] = None
                  ) -> Optional[Tuple]:
        """Hashable key identifying this computation for value numbering.

        Returns ``None`` for instructions that must not be deduplicated
        (impure ops, phis, terminators).  Commutative operands are
        canonicalised by id order so ``a+b`` and ``b+a`` number identically.
        ``operands``, when given, stand in for the instruction's own.
        """
        if not self.is_pure or isinstance(self, PhiInst):
            return None
        ops = tuple(id(op) for op in (self.operands if operands is None
                                      else operands))
        extra: Tuple = ()
        if isinstance(self, (ICmpInst, FCmpInst)):
            extra = (self.predicate,)
        elif isinstance(self, CastInst):
            extra = (self.type,)
        elif isinstance(self, CallInst):
            extra = (self.intrinsic.name,)
        elif isinstance(self, GEPInst):
            extra = (self.type,)
        if self.info.commutative and len(ops) == 2 and ops[0] > ops[1]:
            ops = (ops[1], ops[0])
        return (self.opcode, extra, ops)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.opcode} {self.short_name()}>"


class TerminatorInst(Instruction):
    """Instructions that end a basic block."""

    __slots__ = ()

    def successors(self) -> List["BasicBlock"]:
        return []

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        raise ValueError(f"{self!r} has no successors")


# ---------------------------------------------------------------------------
# Concrete instructions
# ---------------------------------------------------------------------------

class BinaryInst(Instruction):
    """Two-operand arithmetic/bitwise instruction."""

    __slots__ = ()

    def __init__(self, opcode: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if lhs.type is not rhs.type:
            raise TypeError(
                f"{opcode}: operand types differ ({lhs.type!r} vs {rhs.type!r})")
        if opcode in INT_BINOPS and not isinstance(lhs.type, IntType):
            raise TypeError(f"{opcode} requires integer operands, got {lhs.type!r}")
        if opcode in FLOAT_BINOPS and not isinstance(lhs.type, FloatType):
            raise TypeError(f"{opcode} requires float operands, got {lhs.type!r}")
        super().__init__(opcode, lhs.type, [lhs, rhs], name)

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class ICmpInst(Instruction):
    """Integer (or pointer) comparison producing an ``i1``."""

    __slots__ = ("predicate",)

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"bad icmp predicate: {predicate}")
        if lhs.type is not rhs.type:
            raise TypeError(
                f"icmp: operand types differ ({lhs.type!r} vs {rhs.type!r})")
        super().__init__("icmp", I1, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def negated_predicate(self) -> str:
        return ICMP_NEGATED[self.predicate]


class FCmpInst(Instruction):
    """Floating point comparison producing an ``i1``."""

    __slots__ = ("predicate",)

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if predicate not in FCMP_PREDICATES:
            raise ValueError(f"bad fcmp predicate: {predicate}")
        if lhs.type is not rhs.type:
            raise TypeError(
                f"fcmp: operand types differ ({lhs.type!r} vs {rhs.type!r})")
        super().__init__("fcmp", I1, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def negated_predicate(self) -> str:
        return FCMP_NEGATED[self.predicate]


class SelectInst(Instruction):
    """``select cond, tval, fval`` — the IR form PTX lowers to ``selp``."""

    __slots__ = ()

    def __init__(self, cond: Value, tval: Value, fval: Value, name: str = "") -> None:
        if cond.type is not I1:
            raise TypeError("select condition must be i1")
        if tval.type is not fval.type:
            raise TypeError("select arms must have identical types")
        super().__init__("select", tval.type, [cond, tval, fval], name)

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def true_value(self) -> Value:
        return self.operands[1]

    @property
    def false_value(self) -> Value:
        return self.operands[2]


class CastInst(Instruction):
    """Type conversion instruction."""

    __slots__ = ()

    def __init__(self, opcode: str, value: Value, to_type: Type, name: str = "") -> None:
        if opcode not in CAST_OPS:
            raise ValueError(f"bad cast opcode: {opcode}")
        super().__init__(opcode, to_type, [value], name)

    @property
    def value(self) -> Value:
        return self.operands[0]


class PhiInst(Instruction):
    """SSA phi node.

    Incoming values live in ``operands``; ``incoming_blocks[i]`` is the
    predecessor block for ``operands[i]``.
    """

    __slots__ = ("incoming_blocks",)

    def __init__(self, type_: Type, name: str = "") -> None:
        super().__init__("phi", type_, [], name)
        self.incoming_blocks: List["BasicBlock"] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type is not self.type:
            raise TypeError(
                f"phi incoming type {value.type!r} != phi type {self.type!r}")
        self.append_operand(value)
        self.incoming_blocks.append(block)

    def incoming_for(self, block: "BasicBlock") -> Value:
        for value, pred in zip(self.operands, self.incoming_blocks):
            if pred is block:
                return value
        raise KeyError(f"phi has no incoming value for block {block.name}")

    def has_incoming_for(self, block: "BasicBlock") -> bool:
        return any(pred is block for pred in self.incoming_blocks)

    def set_incoming_block(self, index: int, block: "BasicBlock") -> None:
        self.incoming_blocks[index] = block

    def remove_incoming(self, block: "BasicBlock") -> None:
        """Remove every incoming entry whose predecessor is ``block``."""
        for i in reversed(range(len(self.incoming_blocks))):
            if self.incoming_blocks[i] is block:
                self.remove_operand(i)
                del self.incoming_blocks[i]

    def incoming(self) -> List[Tuple[Value, "BasicBlock"]]:
        return list(zip(self.operands, self.incoming_blocks))

    def is_trivial(self) -> Optional[Value]:
        """If all incoming values are the same (or self), return that value."""
        unique: Optional[Value] = None
        for value in self.operands:
            if value is self:
                continue
            if unique is None:
                unique = value
            elif value is not unique:
                return None
        return unique


class LoadInst(Instruction):
    """Load from a pointer."""

    __slots__ = ()

    def __init__(self, ptr: Value, name: str = "") -> None:
        if not isinstance(ptr.type, PointerType):
            raise TypeError(f"load requires a pointer operand, got {ptr.type!r}")
        super().__init__("load", ptr.type.pointee, [ptr], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class StoreInst(Instruction):
    """Store a value through a pointer."""

    __slots__ = ()

    def __init__(self, value: Value, ptr: Value) -> None:
        if not isinstance(ptr.type, PointerType):
            raise TypeError(f"store requires a pointer operand, got {ptr.type!r}")
        if ptr.type.pointee is not value.type:
            raise TypeError(
                f"store type mismatch: {value.type!r} into {ptr.type!r}")
        super().__init__("store", VOID, [value, ptr])

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]


class GEPInst(Instruction):
    """``gep ptr, index`` — pointer arithmetic scaled by the element size."""

    __slots__ = ()

    def __init__(self, ptr: Value, index: Value, name: str = "") -> None:
        if not isinstance(ptr.type, PointerType):
            raise TypeError(f"gep requires a pointer base, got {ptr.type!r}")
        if not isinstance(index.type, IntType):
            raise TypeError(f"gep index must be an integer, got {index.type!r}")
        super().__init__("gep", ptr.type, [ptr, index], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    @property
    def index(self) -> Value:
        return self.operands[1]

    @property
    def element_type(self) -> Type:
        return self.type.pointee  # type: ignore[attr-defined]


class AllocaInst(Instruction):
    """Stack (per-thread local) allocation of ``count`` elements."""

    __slots__ = ("element_type", "count")

    def __init__(self, element_type: Type, count: int = 1, name: str = "") -> None:
        super().__init__("alloca", PointerType(element_type), [], name)
        self.element_type = element_type
        self.count = count


class CallInst(Instruction):
    """Call of a named intrinsic."""

    __slots__ = ("intrinsic",)

    def __init__(self, intrinsic: str, args: Sequence[Value],
                 type_: Optional[Type] = None, name: str = "") -> None:
        info = INTRINSICS.get(intrinsic)
        if info is None:
            raise ValueError(f"unknown intrinsic: {intrinsic}")
        if type_ is None:
            type_ = _default_intrinsic_type(intrinsic, args)
        super().__init__("call", type_, list(args), name)
        self.intrinsic = info

    @property
    def args(self) -> List[Value]:
        return list(self.operands)


def _default_intrinsic_type(name: str, args: Sequence[Value]) -> Type:
    if name in ("tid.x", "ctaid.x", "ntid.x", "nctaid.x"):
        return I64
    if name == "syncthreads":
        return VOID
    if args:
        return args[0].type
    return F64


class BranchInst(TerminatorInst):
    """Unconditional branch."""

    __slots__ = ("_target",)

    def __init__(self, target: "BasicBlock") -> None:
        super().__init__("br", VOID, [])
        self._target = target

    @property
    def target(self) -> "BasicBlock":
        return self._target

    def successors(self) -> List["BasicBlock"]:
        return [self._target]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self._target is old:
            self._target = new
        else:
            raise ValueError(f"{old.name} is not a successor")


class CondBranchInst(TerminatorInst):
    """Two-way conditional branch."""

    __slots__ = ("_true_target", "_false_target")

    def __init__(self, cond: Value, true_target: "BasicBlock",
                 false_target: "BasicBlock") -> None:
        if cond.type is not I1:
            raise TypeError("condbr condition must be i1")
        super().__init__("condbr", VOID, [cond])
        self._true_target = true_target
        self._false_target = false_target

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def true_target(self) -> "BasicBlock":
        return self._true_target

    @property
    def false_target(self) -> "BasicBlock":
        return self._false_target

    def successors(self) -> List["BasicBlock"]:
        return [self._true_target, self._false_target]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        replaced = False
        if self._true_target is old:
            self._true_target = new
            replaced = True
        if self._false_target is old:
            self._false_target = new
            replaced = True
        if not replaced:
            raise ValueError(f"{old.name} is not a successor")


class RetInst(TerminatorInst):
    """Function return (with optional value)."""

    __slots__ = ()

    def __init__(self, value: Optional[Value] = None) -> None:
        operands = [value] if value is not None else []
        super().__init__("ret", VOID, operands)

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None


class UnreachableInst(TerminatorInst):
    """Marks statically unreachable control flow."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("unreachable", VOID, [])
