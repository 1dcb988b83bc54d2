"""Modules: a named set of functions and global arrays."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from .function import Function
from .types import FunctionType, Type
from .values import GlobalVariable


class Module:
    """Container for the functions and globals of one compiled program."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}

    # -- functions -----------------------------------------------------------
    def add_function(self, name: str, ftype: FunctionType,
                     arg_names: Optional[List[str]] = None) -> Function:
        if name in self.functions:
            raise ValueError(f"duplicate function @{name}")
        func = Function(name, ftype, arg_names)
        func.parent = self
        self.functions[name] = func
        return func

    def get_function(self, name: str) -> Function:
        func = self.functions.get(name)
        if func is None:
            raise KeyError(f"no function @{name} in module {self.name}")
        return func

    # -- globals -----------------------------------------------------------
    def add_global(self, name: str, element_type: Type, count: int,
                   initializer=None) -> GlobalVariable:
        if name in self.globals:
            raise ValueError(f"duplicate global @{name}")
        gv = GlobalVariable(element_type, count, name, initializer)
        self.globals[name] = gv
        return gv

    def get_global(self, name: str) -> GlobalVariable:
        gv = self.globals.get(name)
        if gv is None:
            raise KeyError(f"no global @{name} in module {self.name}")
        return gv

    # -- metrics ---------------------------------------------------------------
    def instruction_count(self) -> int:
        return sum(f.instruction_count() for f in self.functions.values())

    def code_size(self) -> int:
        """Proxy for binary size: summed cost-model size of all functions."""
        return sum(f.code_size() for f in self.functions.values())

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())

    def __repr__(self) -> str:
        return f"<Module {self.name} [{len(self.functions)} functions]>"
