"""Isomorphism types of finite simple groups, read off the order of a section.

The shipped table lists every nonabelian finite simple group of order at most
10^6 together with the order of its Schur multiplier. A simple type is its
table row, a name and an order, and a characteristically simple section S^k
is named by its order alone (see section_type).
"""

from __future__ import annotations

import functools
import math
from pathlib import Path
from typing import NamedTuple

from .errors import InputFormatError, UnknownGroupError
from .group import PermGroup, is_prime

_DATA_PATH = Path(__file__).parent / "data" / "schur_multipliers.txt"

# the two simple types of order 20160, told apart by their largest element order
_MAX_ELEMENT_ORDER = {"A8": 15, "PSL(3,4)": 7}


class SimpleGroupRow(NamedTuple):
    name: str
    order: int
    multiplier_order: int


class SimpleTypeId(NamedTuple):
    """A finite simple group's type: Cp, or its table row's name, and its order."""

    name: str
    order: int

    @property
    def is_cyclic(self) -> bool:
        return is_prime(self.order)

    @staticmethod
    def cyclic(p: int) -> SimpleTypeId:
        if not is_prime(p):
            raise ValueError(f"cyclic simple groups have prime order, not {p}")
        return SimpleTypeId(f"C{p}", p)

    def __repr__(self) -> str:
        return f"SimpleTypeId({self.name}, order={self.order})"


def is_simple(g: PermGroup) -> bool:
    """Whether g is simple; nontrivial with no proper nontrivial normal subgroup.

    The normal closure of an element is constant on its conjugacy class, so
    closing the head of each orbit of g's element index under its generators,
    bar the identity at position 0, covers every candidate generator of a
    normal subgroup. Closures are position sets on the index; no group is built.
    """
    index = g.element_index()
    return not g.is_trivial() and all(
        len(index.normal_closure([orbit[0]], index.gens)[0]) == g.order
        for orbit in index.orbits(range(1, g.order), index.gens)
    )


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


def prime_power_base(n: int) -> int:
    """The prime p with n = p^k for some k >= 1, or 0."""
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    while n > 1 and n % p == 0:
        n //= p
    return p if n == 1 < p else 0


def max_coset_order(hi: PermGroup, lo: PermGroup) -> int:
    """The largest order of an element x*lo of the section hi/lo (lo normal in
    hi): the least d dividing x.order() with x**d in lo."""
    best = 1
    for x in hi.elements():
        o = x.order()
        if o > best:
            best = max(best, next(d for d in range(1, o + 1) if o % d == 0 and lo.contains(x**d)))
    return best


def section_type(hi: PermGroup, lo: PermGroup) -> tuple[SimpleTypeId, int]:
    """(S, k) for a characteristically simple section hi/lo, isomorphic to S^k.

    Read off m = |hi|/|lo|: Cp when m = p^k (no nonabelian simple group has
    prime-power order), else the one table row whose order has k-th power m,
    with the largest coset order picking A8 or PSL(3,4) at 20160 (the only
    case that lists elements). Anything else raises UnknownGroupError.
    """
    m = hi.order // lo.order
    p = prime_power_base(m)
    if p:
        return SimpleTypeId.cyclic(p), next(k for k in range(1, m) if p**k == m)
    rows = simple_table_rows()
    fits = [(r, k) for r in rows for k in range(1, m.bit_length()) if r.order**k == m]
    if len(fits) > 1 and all(k == 1 for _r, k in fits):
        top = max_coset_order(hi, lo)
        fits = [(r, k) for r, k in fits if _MAX_ELEMENT_ORDER.get(r.name) == top]
    if len(fits) != 1:
        raise UnknownGroupError(f"no single simple type S in table with |S|^k = {m}")
    [(row, k)] = fits
    return SimpleTypeId(row.name, row.order), k


def identify_simple_type(s: PermGroup) -> SimpleTypeId:
    """The SimpleTypeId of a simple group; ValueError if not simple, and
    UnknownGroupError, not a guess, for a type beyond the table bound."""
    if not is_simple(s):
        raise ValueError("input group is not simple")
    return section_type(s, PermGroup.trivial(s.degree))[0]
