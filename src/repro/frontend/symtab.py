"""Symbol tables for the EARTH-C frontend.

A :class:`Scope` chain maps names to :class:`VarSymbol`; a
:class:`ProgramSymbols` object holds the global scope, struct registry
and function signatures for a whole translation unit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import TypeError_
from repro.frontend.types import FunctionType, StructType, Type


class VarSymbol:
    """A declared variable.

    ``storage`` is one of ``"global"``, ``"param"`` or ``"local"``.
    ``is_shared`` marks EARTH-C ``shared`` variables, which may only be
    accessed through the atomic built-ins.
    """

    __slots__ = ("name", "type", "storage", "is_shared")

    def __init__(self, name: str, type: Type, storage: str,
                 is_shared: bool = False):
        assert storage in ("global", "param", "local")
        self.name = name
        self.type = type
        self.storage = storage
        self.is_shared = is_shared

    @property
    def is_global(self) -> bool:
        return self.storage == "global"

    def __repr__(self) -> str:
        shared = "shared " if self.is_shared else ""
        return f"VarSymbol({shared}{self.type} {self.name} [{self.storage}])"


class FunctionSymbol:
    """A declared or built-in function."""

    __slots__ = ("name", "type", "is_builtin", "is_variadic")

    def __init__(self, name: str, type: FunctionType,
                 is_builtin: bool = False, is_variadic: bool = False):
        self.name = name
        self.type = type
        self.is_builtin = is_builtin
        self.is_variadic = is_variadic

    def __repr__(self) -> str:
        tag = " builtin" if self.is_builtin else ""
        return f"FunctionSymbol({self.name}{tag}: {self.type})"


class Scope:
    """One lexical scope; lookups fall through to the parent."""

    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self._vars: Dict[str, VarSymbol] = {}

    def declare(self, symbol: VarSymbol) -> VarSymbol:
        if symbol.name in self._vars:
            raise TypeError_(
                f"redeclaration of {symbol.name!r} in the same scope")
        self._vars[symbol.name] = symbol
        return symbol

    def lookup(self, name: str) -> Optional[VarSymbol]:
        scope: Optional[Scope] = self
        while scope is not None:
            symbol = scope._vars.get(name)
            if symbol is not None:
                return symbol
            scope = scope.parent
        return None

    def symbols(self) -> List[VarSymbol]:
        return list(self._vars.values())


class ProgramSymbols:
    """All global names of one translation unit."""

    def __init__(self):
        self.global_scope = Scope()
        self.functions: Dict[str, FunctionSymbol] = {}
        self.structs: Dict[str, StructType] = {}

    def declare_function(self, symbol: FunctionSymbol) -> FunctionSymbol:
        existing = self.functions.get(symbol.name)
        if existing is not None:
            if existing.type != symbol.type:
                raise TypeError_(
                    f"conflicting declarations of function {symbol.name!r}: "
                    f"{existing.type} vs {symbol.type}")
            return existing
        self.functions[symbol.name] = symbol
        return symbol

    def function(self, name: str) -> Optional[FunctionSymbol]:
        return self.functions.get(name)
