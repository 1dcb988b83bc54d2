"""Core value classes and def-use tracking.

Every SSA value in the IR derives from :class:`Value`.  Instructions keep
their operands through :class:`Use` edges so that both directions of the
def-use graph are cheap to traverse: a value knows all its uses and a user
knows all its operands.  ``replace_all_uses_with`` is the workhorse for the
rewriting passes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

from .types import Type

if TYPE_CHECKING:
    from .instructions import Instruction


class Use:
    """A single operand slot: ``user.operands[index] is value``."""

    __slots__ = ("user", "index")

    def __init__(self, user: "User", index: int) -> None:
        self.user = user
        self.index = index

    @property
    def value(self) -> "Value":
        return self.user.operands[self.index]

    def set(self, new_value: "Value") -> None:
        self.user.set_operand(self.index, new_value)

    def __repr__(self) -> str:
        return f"<Use {self.user!r}[{self.index}]>"


class Value:
    """Base class for anything that can be used as an operand."""

    __slots__ = ("type", "name", "uses")

    def __init__(self, type_: Type, name: str = "") -> None:
        self.type = type_
        self.name = name
        self.uses: List[Use] = []

    def add_use(self, use: Use) -> None:
        self.uses.append(use)

    def remove_use(self, use: Use) -> None:
        # Identity removal: a user may hold the same value in several slots.
        # Newest first: cloning and DCE mostly drop uses they just added,
        # and a Use object is registered once, so the list left behind is
        # the same whichever end the search starts from.
        uses = self.uses
        for i in range(len(uses) - 1, -1, -1):
            if uses[i] is use:
                del uses[i]
                return
        raise ValueError(f"use {use!r} not registered on {self!r}")

    def users(self) -> Iterator["User"]:
        """Iterate over distinct users of this value."""
        seen = set()
        for use in list(self.uses):
            if id(use.user) not in seen:
                seen.add(id(use.user))
                yield use.user

    @property
    def num_uses(self) -> int:
        return len(self.uses)

    @property
    def is_used(self) -> bool:
        return bool(self.uses)

    def replace_all_uses_with(self, new_value: "Value") -> None:
        """Rewrite every use of ``self`` to refer to ``new_value``."""
        if new_value is self:
            return
        for use in list(self.uses):
            use.set(new_value)

    def short_name(self) -> str:
        return f"%{self.name}" if self.name else f"%<{id(self):x}>"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.short_name()}: {self.type!r}>"


class User(Value):
    """A value that holds operands (instructions, mostly)."""

    __slots__ = ("operands", "_operand_uses")

    def __init__(self, type_: Type, operands: List[Value], name: str = "") -> None:
        super().__init__(type_, name)
        self.operands: List[Value] = []
        self._operand_uses: List[Use] = []
        for op in operands:
            self.append_operand(op)

    def append_operand(self, value: Value) -> None:
        index = len(self.operands)
        self.operands.append(value)
        use = Use(self, index)
        self._operand_uses.append(use)
        value.add_use(use)

    def set_operand(self, index: int, value: Value) -> None:
        old = self.operands[index]
        if old is value:
            return
        old.remove_use(self._operand_uses[index])
        self.operands[index] = value
        value.add_use(self._operand_uses[index])

    def remove_operand(self, index: int) -> None:
        """Remove one operand slot, shifting later slots down."""
        self.operands[index].remove_use(self._operand_uses[index])
        del self.operands[index]
        del self._operand_uses[index]
        for i in range(index, len(self._operand_uses)):
            self._operand_uses[i].index = i

    def drop_all_operands(self) -> None:
        for i in reversed(range(len(self.operands))):
            self.remove_operand(i)


class Argument(Value):
    """A formal parameter of a function."""

    __slots__ = ("parent", "index")

    def __init__(self, type_: Type, name: str, index: int) -> None:
        super().__init__(type_, name)
        self.parent = None
        self.index = index

    def __repr__(self) -> str:
        return f"<Argument %{self.name}: {self.type!r}>"


class GlobalVariable(Value):
    """A module-level array/scalar living in the simulated global memory."""

    __slots__ = ("element_type", "count", "initializer")

    def __init__(self, element_type: Type, count: int, name: str,
                 initializer=None) -> None:
        from .types import PointerType

        super().__init__(PointerType(element_type), name)
        self.element_type = element_type
        self.count = count
        self.initializer = initializer

    def short_name(self) -> str:
        return f"@{self.name}"

    def __repr__(self) -> str:
        return f"<GlobalVariable @{self.name}: {self.element_type!r} x {self.count}>"
