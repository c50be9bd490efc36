"""Isomorphism types of finite simple groups, identified by numeric invariants.

The shipped table lists every nonabelian finite simple group of order at most
10^6 together with the order of its Schur multiplier. Within that range the
group order determines the isomorphism type except at order 20160, where the
maximal element order separates the two types.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import NamedTuple

from .errors import InputFormatError, UnknownGroupError
from .group import PermGroup, conjugacy_classes, is_prime

_DATA_PATH = Path(__file__).parent / "data" / "schur_multipliers.txt"

# order 20160 is realized by two isomorphism types; maximal element order
# separates them
_MAX_ELEMENT_ORDER = {("A8", 20160): 15, ("PSL(3,4)", 20160): 7}


class SimpleGroupRow(NamedTuple):
    name: str
    order: int
    multiplier_order: int


class SimpleTypeId:
    """Immutable label for the isomorphism type of a finite simple group.

    Two ids are equal exactly when order and fingerprint agree; the name is a
    human-readable synonym derived from them. A plain class rather than a
    named tuple, so that != follows the == below.
    """

    __slots__ = ("name", "order", "fingerprint")

    def __init__(self, name: str, order: int, fingerprint: tuple[tuple[int, int], ...]):
        for field, value in zip(self.__slots__, (name, order, fingerprint)):
            object.__setattr__(self, field, value)

    def __setattr__(self, name: str, _value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of SimpleTypeId")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimpleTypeId):
            return NotImplemented
        return self.order == other.order and self.fingerprint == other.fingerprint

    def __hash__(self) -> int:
        return hash((self.order, self.fingerprint))

    @property
    def is_cyclic(self) -> bool:
        return is_prime(self.order)

    @staticmethod
    def cyclic(p: int) -> SimpleTypeId:
        if not is_prime(p):
            raise ValueError(f"cyclic simple groups have prime order, not {p}")
        return SimpleTypeId(name=f"C{p}", order=p, fingerprint=((1, 1), (p, p - 1)))

    def __repr__(self) -> str:
        return f"SimpleTypeId({self.name}, order={self.order})"


def element_order_multiset(g: PermGroup) -> tuple[tuple[int, int], ...]:
    """Sorted (element order, count) pairs; an isomorphism invariant."""
    counts: dict[int, int] = {}
    for x in g.elements():
        o = x.order()
        counts[o] = counts.get(o, 0) + 1
    return tuple(sorted(counts.items()))


def group_fingerprint(g: PermGroup) -> tuple:
    """(order, element order multiset, abelianness); equal for isomorphic groups."""
    return (g.order, element_order_multiset(g), g.is_abelian())


def is_simple(g: PermGroup) -> bool:
    """Whether g is simple; nontrivial with no proper nontrivial normal subgroup.

    The normal closure of an element is constant on its conjugacy class, so
    checking one representative per class covers every candidate generator of
    a normal subgroup. Closures are position sets on g's element index; no
    group is built for them.
    """
    if g.is_trivial():
        return False
    classes = conjugacy_classes(g)
    index = g.element_index()
    for rep, _cls in classes:
        if rep.is_identity():
            continue
        if len(index.normal_closure([index.pos[rep]], index.gens)[0]) < g.order:
            return False
    return True


@functools.lru_cache(maxsize=1)
def simple_table_rows() -> tuple[SimpleGroupRow, ...]:
    """The shipped nonabelian simple group table, ascending in order."""
    rows: list[SimpleGroupRow] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(_DATA_PATH.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise InputFormatError(f"schur table line {lineno}: expected 3 fields")
        name, order_s, mult_s = parts
        try:
            order, mult = int(order_s), int(mult_s)
        except ValueError as exc:
            raise InputFormatError(f"schur table line {lineno}: {exc}") from exc
        if not name or name in seen or order < 60 or mult < 1:
            raise InputFormatError(f"schur table line {lineno}: bad row {line!r}")
        if rows and order < rows[-1].order:
            raise InputFormatError(f"schur table line {lineno}: rows out of order")
        seen.add(name)
        rows.append(SimpleGroupRow(name, order, mult))
    if not rows:
        raise InputFormatError("schur table is empty")
    return tuple(rows)


def identify_simple_type(s: PermGroup) -> SimpleTypeId:
    """Canonical SimpleTypeId of a simple group; ValueError if not simple.

    Nonabelian types beyond the shipped table bound are reported as unknown
    rather than guessed.
    """
    if not is_simple(s):
        raise ValueError("input group is not simple")
    if is_prime(s.order):
        return SimpleTypeId.cyclic(s.order)
    hits = [r for r in simple_table_rows() if r.order == s.order]
    if not hits:
        raise UnknownGroupError(f"no nonabelian simple group of order {s.order} in table")
    fp = element_order_multiset(s)
    if len(hits) == 1:
        return SimpleTypeId(name=hits[0].name, order=s.order, fingerprint=fp)
    max_order = fp[-1][0]
    for row in hits:
        if _MAX_ELEMENT_ORDER.get((row.name, row.order)) == max_order:
            return SimpleTypeId(name=row.name, order=s.order, fingerprint=fp)
    raise UnknownGroupError(
        f"ambiguous simple order {s.order} with unrecognized maximal element order {max_order}"
    )
