"""Remote communication expressions -- the tuples of the paper.

A remote communication expression (RCE) is the paper's 4-tuple
``(p, f, n, Dlist)``: base pointer variable ``p``, field ``f`` (here a
:class:`FieldPath`, or ``None`` for a scalar ``*p`` access), an estimated
execution frequency ``n``, and the set of basic-statement labels the
tuple came from.  Tuples are immutable; merging (the paper's
``addToSet`` when two tuples name the same location) sums frequencies
and unions the label sets.

A :class:`CommSet` maps tuple keys to tuples and implements the merge
discipline.  :class:`SelectedOp` is the ``(p, f, d)`` triple stored in
communication selection's hash table; :class:`Rewrite` logs a rewrite.
"""

from __future__ import annotations

from typing import (Dict, FrozenSet, Iterable, Iterator, NamedTuple,
                    Optional, Tuple)

from repro.frontend.types import FieldPath

#: Key identifying the *location* a tuple refers to.
TupleKey = Tuple[str, Optional[Tuple[str, ...]]]


def make_key(base: str, path: Optional[FieldPath]) -> TupleKey:
    return (base, path.names if path is not None else None)


class CommTuple:
    """One remote communication expression ``(p, f, n, Dlist)``."""

    __slots__ = ("base", "path", "freq", "dlist", "key")

    def __init__(self, base: str, path: Optional[FieldPath], freq: float,
                 dlist: FrozenSet[int]):
        self.base = base
        self.path = path
        #: The location it names (:func:`make_key`), computed once.
        self.key: TupleKey = make_key(base, path)
        self.freq = freq
        self.dlist = frozenset(dlist)

    @classmethod
    def single(cls, base: str, path: Optional[FieldPath],
               label: int) -> "CommTuple":
        return cls(base, path, 1.0, frozenset((label,)))

    def scaled(self, factor: float) -> "CommTuple":
        """Frequency adjustment (the paper's ``adjustFrequency``)."""
        return CommTuple(self.base, self.path, self.freq * factor,
                         self.dlist)

    def merged_with(self, other: "CommTuple") -> "CommTuple":
        """The paper's merge: same location, summed frequency, unioned
        definition lists."""
        assert self.key == other.key
        return CommTuple(self.base, self.path, self.freq + other.freq,
                         self.dlist | other.dlist)

    def __repr__(self) -> str:
        field = str(self.path) if self.path is not None else "*"
        labels = ":".join(f"S{d}" for d in sorted(self.dlist))
        return f"({self.base}->{field}, {self.freq:g}, {labels})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommTuple):
            return NotImplemented
        return (self.key == other.key and self.freq == other.freq
                and self.dlist == other.dlist)

    def __hash__(self) -> int:
        return hash((self.key, self.freq, self.dlist))


class CommSet:
    """A set of communication tuples keyed by location.

    ``add`` implements the paper's ``addToSet``: a tuple for an
    already-present location is merged (frequencies summed, Dlists
    unioned) instead of duplicated.
    """

    __slots__ = ("_tuples",)

    def __init__(self, tuples: Iterable[CommTuple] = ()):
        self._tuples: Dict[TupleKey, CommTuple] = {}
        for t in tuples:
            self.add(t)

    def add(self, t: CommTuple) -> None:
        existing = self._tuples.get(t.key)
        if existing is None:
            self._tuples[t.key] = t
        else:
            self._tuples[t.key] = existing.merged_with(t)

    def get(self, key: TupleKey) -> Optional[CommTuple]:
        return self._tuples.get(key)

    def remove(self, key: TupleKey) -> None:
        self._tuples.pop(key, None)

    def replace(self, t: CommTuple) -> None:
        """Overwrite (no merge) -- used when filtering Dlists."""
        self._tuples[t.key] = t

    def copy(self) -> "CommSet":
        fresh = CommSet()
        fresh._tuples = dict(self._tuples)
        return fresh

    def keys(self):
        return self._tuples.keys()

    def __iter__(self) -> Iterator[CommTuple]:
        return iter(self._tuples.values())

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, key: TupleKey) -> bool:
        return key in self._tuples

    def __repr__(self) -> str:
        inner = ", ".join(repr(t) for t in sorted(
            self._tuples.values(), key=lambda t: str(t.key)))
        return "{" + inner + "}"


#: Hash-table entry of communication selection: one selected remote
#: memory operation ``(p, f, d)``.
SelectedOp = Tuple[str, Optional[Tuple[str, ...]], int]


class Rewrite(NamedTuple):
    """One rewrite: ``rule`` applied through ``base`` in ``function``
    to the origin statements labelled ``consumed``, inserting those
    labelled ``emitted`` (none for forwarding and the in-place rules)."""

    function: str
    rule: str
    base: str
    consumed: Tuple[int, ...]
    emitted: Tuple[int, ...] = ()

    def __str__(self) -> str:
        consumed, emitted = (",".join(f"S{n}" for n in labels) or "-"
                             for labels in (self.consumed, self.emitted))
        return (f"{self.function:<24} {self.rule:<14} {self.base:<10} "
                f"{consumed} -> {emitted}")
