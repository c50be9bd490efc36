"""Classes of finite simple groups and Schur multiplier reference data.

A class here is a plain set of isomorphism types. The closure check asks, for
each prime p whose cyclic group lies in the class, whether the class also
contains every nonabelian simple group (within the table bound) whose Schur
multiplier has order divisible by p. The table bound is part of every verdict;
the check never claims anything beyond it. The shipped table is spot-checked
once, by the test suite (an SL(2,5) witness for its order-60 row), not on
every load.
"""

from __future__ import annotations

import functools
import re
from typing import Iterable, NamedTuple

from .group import PermGroup
from .lattice import composition_factors
from .simples import SimpleGroupRow, SimpleTypeId, simple_table_rows


class SimpleClass(NamedTuple):
    """A set of simple isomorphism types, closed over nothing by itself."""

    members: frozenset[SimpleTypeId]

    @property
    def primes(self) -> frozenset[int]:
        """Primes p with the cyclic group of order p in the class."""
        return frozenset(m.order for m in self.members if m.is_cyclic)

    @property
    def member_names(self) -> frozenset[str]:
        return frozenset(m.name for m in self.members)


class SchurTable(NamedTuple):
    """Nonabelian simple groups up to order_bound with Schur multiplier orders."""

    rows: tuple[SimpleGroupRow, ...]
    order_bound: int

    @staticmethod
    def load(order_bound: int = 1_000_000) -> SchurTable:
        return _load_table(order_bound)

    def multiplier_order(self, name: str) -> int:
        for row in self.rows:
            if row.name == name:
                return row.multiplier_order
        raise KeyError(name)


@functools.lru_cache(maxsize=None)
def _load_table(order_bound: int) -> SchurTable:
    rows = tuple(r for r in simple_table_rows() if r.order <= order_bound)
    return SchurTable(rows=rows, order_bound=order_bound)


class SchurClosureVerdict(NamedTuple):
    ok: bool
    missing: tuple[str, ...]
    order_bound: int

    @property
    def text(self) -> str:
        if self.ok:
            return f"pass (up to order {self.order_bound})"
        return f"fail: missing {', '.join(self.missing)} (up to order {self.order_bound})"


def schur_closure_check(cls: SimpleClass, table: SchurTable) -> SchurClosureVerdict:
    """Whether the class contains every tabulated nonabelian simple group whose
    multiplier order is divisible by one of the class's primes."""
    names = cls.member_names
    missing = sorted(
        {
            row.name
            for p in cls.primes
            for row in table.rows
            if row.multiplier_order % p == 0 and row.name not in names
        }
    )
    return SchurClosureVerdict(
        ok=not missing, missing=tuple(missing), order_bound=table.order_bound
    )


def count_class_factors(g: PermGroup, cls: SimpleClass) -> int:
    """Number of composition factors of g lying in the class, with multiplicity."""
    names = cls.member_names
    return sum(k for name, k in composition_factors(g).items() if name in names)


def class_from_names(names: Iterable[str], table: SchurTable) -> SimpleClass:
    """Class with the named members: C<p> for primes, table names otherwise.

    Each member is its table row's (name, order), the same id that
    identify_simple_type and section_type give for that type.
    """
    members = set()
    for name in names:
        m = re.fullmatch(r"C(\d+)", name)
        if m:
            members.add(SimpleTypeId.cyclic(int(m.group(1))))
            continue
        row = next((row for row in table.rows if row.name == name), None)
        if row is None:
            raise KeyError(f"unknown simple group name {name!r}")
        members.add(SimpleTypeId(row.name, row.order))
    return SimpleClass(frozenset(members))
