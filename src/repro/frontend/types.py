"""The EARTH-C type system.

Types are immutable value objects.  Sizes are measured in *words*, the unit
of the EARTH-MANNA communication cost model (Table I of the paper charges
per word).  On the i860-based MANNA nodes a word is 4 bytes: ``char``,
``int``, ``float`` and pointers occupy one word; ``double`` occupies two.
Struct fields are laid out contiguously in declaration order with no
padding, so ``sizeof`` (in words) is the sum of the field sizes.  The
communication optimizer's pipelining-vs-blocking threshold ("block when
three or more words move together") is computed over these word sizes.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import TypeError_

#: Size in words of each scalar kind.
_SCALAR_WORDS = {
    "void": 0,
    "char": 1,
    "int": 1,
    "float": 1,
    "double": 2,
}


class Type:
    """Base class for all EARTH-C types."""

    def size_words(self) -> int:
        """Storage size of a value of this type, in machine words."""
        raise NotImplementedError

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_struct(self) -> bool:
        return isinstance(self, StructType)

    @property
    def is_void(self) -> bool:
        return isinstance(self, ScalarType) and self.kind == "void"

    @property
    def is_numeric(self) -> bool:
        return isinstance(self, ScalarType) and self.kind != "void"

    @property
    def is_integral(self) -> bool:
        return isinstance(self, ScalarType) and self.kind in ("char", "int")


class ScalarType(Type):
    """A builtin scalar: void, char, int, float or double."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        if kind not in _SCALAR_WORDS:
            raise TypeError_(f"unknown scalar kind {kind!r}")
        self.kind = kind

    def size_words(self) -> int:
        return _SCALAR_WORDS[self.kind]

    def __repr__(self) -> str:
        return f"ScalarType({self.kind!r})"

    def __str__(self) -> str:
        return self.kind

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ScalarType) and other.kind == self.kind

    def __hash__(self) -> int:
        return hash(("scalar", self.kind))


# Shared singletons for the common scalars.
VOID = ScalarType("void")
CHAR = ScalarType("char")
INT = ScalarType("int")
FLOAT = ScalarType("float")
DOUBLE = ScalarType("double")


class PointerType(Type):
    """A pointer to ``target``.

    ``is_local`` records the EARTH-C ``local`` qualifier: the programmer
    (or locality analysis) asserts the pointee resides in the memory of
    the executing node, so dereferences compile to cheap local accesses
    instead of remote operations.
    """

    __slots__ = ("target", "is_local")

    def __init__(self, target: Type, is_local: bool = False):
        self.target = target
        self.is_local = is_local

    def size_words(self) -> int:
        return 1

    def as_local(self) -> "PointerType":
        """The same pointer type with the ``local`` qualifier set."""
        if self.is_local:
            return self
        return PointerType(self.target, is_local=True)

    def __repr__(self) -> str:
        return f"PointerType({self.target!r}, is_local={self.is_local})"

    def __str__(self) -> str:
        qual = " local" if self.is_local else ""
        return f"{self.target}{qual} *"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PointerType)
            and other.target == self.target
            and other.is_local == self.is_local
        )

    def __hash__(self) -> int:
        return hash(("ptr", self.target, self.is_local))


class Field:
    """A named struct field at a fixed word offset."""

    __slots__ = ("name", "type", "offset_words")

    def __init__(self, name: str, type: Type, offset_words: int):
        self.name = name
        self.type = type
        self.offset_words = offset_words

    def __repr__(self) -> str:
        return f"Field({self.name!r}, {self.type!r}, offset={self.offset_words})"


class StructType(Type):
    """A named struct with ordered fields.

    Structs may be declared before their fields are known (for recursive
    types such as list nodes); :meth:`define` installs the field list.
    Identity is by name, so two references to ``struct node`` compare
    equal even when obtained from different lookups.
    """

    __slots__ = ("name", "_fields", "_by_name", "_size_words",
                 "_layout_epoch")

    def __init__(self, name: str):
        self.name = name
        self._fields: Optional[List[Field]] = None
        self._by_name: Dict[str, Field] = {}
        self._size_words = 0
        #: Bumped on every (re-)definition; :meth:`FieldPath.resolve`
        #: memoizes per epoch so field reordering invalidates caches.
        self._layout_epoch = 0

    @property
    def is_defined(self) -> bool:
        return self._fields is not None

    def define(self, members: List[Tuple[str, Type]]) -> None:
        """Install the field list.  ``members`` is ``[(name, type), ...]``."""
        if self._fields is not None:
            raise TypeError_(f"struct {self.name} redefined")
        fields: List[Field] = []
        offset = 0
        for fname, ftype in members:
            if fname in self._by_name:
                raise TypeError_(
                    f"duplicate field {fname!r} in struct {self.name}")
            if ftype.is_struct and not ftype.is_defined:  # type: ignore[attr-defined]
                raise TypeError_(
                    f"field {fname!r} of struct {self.name} has incomplete type")
            field = Field(fname, ftype, offset)
            fields.append(field)
            self._by_name[fname] = field
            offset += ftype.size_words()
        self._fields = fields
        self._size_words = offset
        self._layout_epoch += 1

    @property
    def fields(self) -> List[Field]:
        if self._fields is None:
            raise TypeError_(f"struct {self.name} is not defined")
        return self._fields

    def field(self, name: str) -> Field:
        if self._fields is None:
            raise TypeError_(f"struct {self.name} is not defined")
        try:
            return self._by_name[name]
        except KeyError:
            raise TypeError_(
                f"struct {self.name} has no field {name!r}") from None

    def size_words(self) -> int:
        if self._fields is None:
            raise TypeError_(f"sizeof applied to incomplete struct {self.name}")
        return self._size_words

    def __repr__(self) -> str:
        return f"StructType({self.name!r})"

    def __str__(self) -> str:
        return f"struct {self.name}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StructType) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("struct", self.name))


class ArrayType(Type):
    """A fixed-size array.  Arrays decay to pointers in expressions."""

    __slots__ = ("element", "length")

    def __init__(self, element: Type, length: int):
        if length <= 0:
            raise TypeError_(f"array length must be positive, got {length}")
        self.element = element
        self.length = length

    def size_words(self) -> int:
        return self.element.size_words() * self.length

    def __repr__(self) -> str:
        return f"ArrayType({self.element!r}, {self.length})"

    def __str__(self) -> str:
        return f"{self.element}[{self.length}]"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArrayType)
            and other.element == self.element
            and other.length == self.length
        )

    def __hash__(self) -> int:
        return hash(("array", self.element, self.length))


class FunctionType(Type):
    """The type of an EARTH-C function."""

    __slots__ = ("return_type", "param_types")

    def __init__(self, return_type: Type, param_types: List[Type]):
        self.return_type = return_type
        self.param_types = list(param_types)

    def size_words(self) -> int:
        raise TypeError_("sizeof applied to a function type")

    def __repr__(self) -> str:
        return f"FunctionType({self.return_type!r}, {self.param_types!r})"

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.param_types)
        return f"{self.return_type} (*)({params})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FunctionType)
            and other.return_type == self.return_type
            and other.param_types == self.param_types
        )

    def __hash__(self) -> int:
        return hash(("func", self.return_type, tuple(self.param_types)))


class FieldPath:
    """A dotted chain of struct field names, e.g. ``hosp.free_personnel``.

    The paper's communication tuples ``(p, f, n, Dlist)`` use a field name
    ``f``; in real programs (health, Fig. 11c) the accessed field may be
    nested, so we generalize ``f`` to a path.  A path resolves to a word
    offset and a width against the base struct type.
    """

    __slots__ = ("names", "_resolve_cache")

    def __init__(self, names: Tuple[str, ...]):
        if not names:
            raise TypeError_("empty field path")
        self.names = tuple(names)
        #: ``id(struct) -> (struct, layout_epoch, offset, type)``.
        #: Resolving a path is a hot interpreter/analysis operation; the
        #: layout of a struct only changes when it is re-defined (field
        #: reordering), which bumps ``_layout_epoch`` and invalidates
        #: the entry.  The entry keeps a strong reference to the struct
        #: so the ``id`` key can never be recycled while cached.
        self._resolve_cache: Dict[int, Tuple[StructType, int, int, Type]] \
            = {}

    @classmethod
    def single(cls, name: str) -> "FieldPath":
        return cls((name,))

    @classmethod
    def parse(cls, dotted: str) -> "FieldPath":
        return cls(tuple(dotted.split(".")))

    def extend(self, name: str) -> "FieldPath":
        return FieldPath(self.names + (name,))

    def resolve(self, base: StructType) -> Tuple[int, Type]:
        """Return ``(word_offset, field_type)`` of this path within
        ``base``.  Results are memoized per base struct layout."""
        if base.__class__ is not StructType:
            return self._resolve_walk(base)
        entry = self._resolve_cache.get(id(base))
        if entry is not None and entry[0] is base \
                and entry[1] == base._layout_epoch:
            return entry[2], entry[3]
        offset, current = self._resolve_walk(base)
        self._resolve_cache[id(base)] = (base, base._layout_epoch,
                                         offset, current)
        return offset, current

    def _resolve_walk(self, base: StructType) -> Tuple[int, Type]:
        offset = 0
        current: Type = base
        for name in self.names:
            if not isinstance(current, StructType):
                raise TypeError_(
                    f"field access {name!r} on non-struct type {current}")
            field = current.field(name)
            offset += field.offset_words
            current = field.type
        return offset, current

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __repr__(self) -> str:
        return f"FieldPath({'.'.join(self.names)!r})"

    def __str__(self) -> str:
        return ".".join(self.names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldPath) and other.names == self.names

    def __hash__(self) -> int:
        return hash(("fieldpath", self.names))


def common_numeric_type(left: Type, right: Type) -> Type:
    """The usual-arithmetic-conversion result of two numeric operands."""
    if not (left.is_numeric and right.is_numeric):
        raise TypeError_(f"non-numeric operands: {left}, {right}")
    ranks = {"char": 0, "int": 1, "float": 2, "double": 3}
    lk = left.kind  # type: ignore[attr-defined]
    rk = right.kind  # type: ignore[attr-defined]
    winner = lk if ranks[lk] >= ranks[rk] else rk
    # char promotes to int in arithmetic, as in C.
    if winner == "char":
        winner = "int"
    return ScalarType(winner)


def is_assignable(target: Type, value: Type) -> bool:
    """Loose C-style assignment compatibility used by the type checker."""
    if target == value:
        return True
    if target.is_numeric and value.is_numeric:
        return True
    if target.is_pointer and value.is_pointer:
        tt = target.target  # type: ignore[attr-defined]
        vt = value.target  # type: ignore[attr-defined]
        # Locality qualifiers never affect assignability; void* is a wildcard.
        return tt == vt or tt.is_void or vt.is_void or _strip_local_eq(tt, vt)
    if target.is_pointer and value.is_integral:
        # Allows `p = 0` (NULL).
        return True
    return False


def _strip_local_eq(a: Type, b: Type) -> bool:
    if isinstance(a, PointerType) and isinstance(b, PointerType):
        return _strip_local_eq(a.target, b.target)
    return a == b
