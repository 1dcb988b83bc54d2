"""Constant values.

Constants are interned per ``(type, value)`` so that identical constants are
one object: value numbering and the simplification passes can then compare
constants with ``is`` and use them as dictionary keys without special cases.
An interned constant lives as long as the process and is shared by every
module and thread, so it keeps no use-list: a list of its users would pin
every instruction that ever held ``i32 0`` and be mutated by concurrent
compiles.
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple, Union

from .types import F32, F64, I1, FloatType, IntType, Type
from .values import Use, Value


class Constant(Value):
    """Base class for constants; ``uses`` stays empty (see the module doc)."""

    __slots__ = ()

    def add_use(self, use: Use) -> None:
        pass

    def remove_use(self, use: Use) -> None:
        pass


class ConstantInt(Constant):
    """Integer constant, stored signed-wrapped to its width."""

    __slots__ = ("value",)
    _cache: Dict[Tuple[IntType, int], "ConstantInt"] = {}

    def __new__(cls, type_: IntType, value: int) -> "ConstantInt":
        value = type_.wrap(int(value))
        key = (type_, value)
        cached = cls._cache.get(key)
        if cached is not None:
            return cached
        obj = super().__new__(cls)
        Value.__init__(obj, type_, "")
        obj.value = value
        cls._cache[key] = obj
        return obj

    def __init__(self, type_: IntType, value: int) -> None:
        # Initialisation happens in __new__ (interned); nothing to do here.
        pass

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def is_one(self) -> bool:
        return self.value == 1

    @property
    def is_true(self) -> bool:
        return self.type is I1 and self.value == 1

    @property
    def is_false(self) -> bool:
        return self.type is I1 and self.value == 0

    def unsigned(self) -> int:
        return self.type.to_unsigned(self.value)

    def short_name(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"<ConstantInt {self.type!r} {self.value}>"


class ConstantFloat(Constant):
    """Floating point constant, canonicalised through its bit pattern."""

    __slots__ = ("value",)
    _cache: Dict[Tuple[FloatType, bytes], "ConstantFloat"] = {}

    def __new__(cls, type_: FloatType, value: float) -> "ConstantFloat":
        value = float(value)
        if type_ is F32:
            # Round-trip through binary32 so the constant matches what the
            # simulated machine would hold.
            value = struct.unpack("f", struct.pack("f", value))[0]
            key_bits = struct.pack("f", value)
        else:
            key_bits = struct.pack("d", value)
        key = (type_, key_bits)
        cached = cls._cache.get(key)
        if cached is not None:
            return cached
        obj = super().__new__(cls)
        Value.__init__(obj, type_, "")
        obj.value = value
        cls._cache[key] = obj
        return obj

    def __init__(self, type_: FloatType, value: float) -> None:
        pass

    @property
    def is_zero(self) -> bool:
        return self.value == 0.0

    def short_name(self) -> str:
        return repr(self.value)

    def __repr__(self) -> str:
        return f"<ConstantFloat {self.type!r} {self.value}>"


class Undef(Constant):
    """An undefined value of a given type."""

    __slots__ = ()
    _cache: Dict[Type, "Undef"] = {}

    def __new__(cls, type_: Type) -> "Undef":
        cached = cls._cache.get(type_)
        if cached is not None:
            return cached
        obj = super().__new__(cls)
        Value.__init__(obj, type_, "")
        cls._cache[type_] = obj
        return obj

    def __init__(self, type_: Type) -> None:
        pass

    def short_name(self) -> str:
        return "undef"

    def __repr__(self) -> str:
        return f"<Undef {self.type!r}>"


NumberLike = Union[int, float]


def const(type_: Type, value: NumberLike) -> Constant:
    """Build the constant of ``type_`` holding ``value``."""
    if isinstance(type_, IntType):
        return ConstantInt(type_, int(value))
    if isinstance(type_, FloatType):
        return ConstantFloat(type_, float(value))
    raise TypeError(f"cannot build a constant of type {type_!r}")


TRUE = ConstantInt(I1, 1)
FALSE = ConstantInt(I1, 0)


def bool_const(flag: bool) -> ConstantInt:
    return TRUE if flag else FALSE


def f64(value: float) -> ConstantFloat:
    return ConstantFloat(F64, value)


def f32(value: float) -> ConstantFloat:
    return ConstantFloat(F32, value)
