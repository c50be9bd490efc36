"""Finite permutation groups: a stabilizer chain, or positions on an element index.

Every group is given by its generators, or by its chain, or by its positions
on an element index, and builds a stabilizer chain only when it needs one.
The chain gives the order and membership before any element is listed, so a
group may be far past any table's reach. A group's own element index is
built on first use, from the chain with one product per element, and only if
the group's order is at most its bound; past the bound, elements() raises
DenseBoundExceededError before enumerating.

The index lists the elements once, as image tuples sorted ascending, and
numbers them. A subgroup of a group whose index exists is the set of its
positions there: sweeps, closures, centralizers and intersections on the
index return such groups, and a subgroup generated under a group (or a
kernel inside it) takes its positions on the group's index the first time it
is asked after the index exists. Two groups on one index compare, include
and intersect as sets; permutations are made only for generators, and for
elements() on demand. A group made on an index, or given by its element set
alone, is named by its greedy generators, the least element outside the span
so far each time, so its name does not depend on how it was found.

All derived orderings (sorted elements, conjugacy classes, generator
reduction) are deterministic so that downstream reports are byte-stable.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

from .chain import StabilizerChain
from .errors import (
    DegreeMismatchError,
    DenseBoundExceededError,
    KernelBugError,
    MembershipError,
    NotNormalError,
)
from .perm import Permutation, _compose, _invert, comm

DEFAULT_DENSE_BOUND = 2_000_000


class ElementIndex:
    """A group's elements as image tuples sorted ascending, and their positions.

    A subgroup is a set of positions. Sorting positions sorts elements by
    image tuple, so sorted position lists order subgroups as their sorted
    element lists do; the identity sorts first, at position 0.

    The right row of position j maps each position i to the position of
    elems[i] * elems[j]. Only the generators' rows are built from products,
    pos[_compose(x, t)] for each x in elems. Every other row is composed
    along the path of its element in a breadth-first spanning tree over
    positions, one generator row at a time with perm._compose, since
    row(a * b)[i] = row(b)[row(a)[i]]. A row is kept only for a position
    used as a generator (of the group or of a closure, or a conjugator),
    never for a coset representative or a path. The conjugation row of
    position j maps i to the position of elems[i] ** elems[j]; it is composed
    from the right row of j and the inversion map, pos[_invert(x)] for each
    x, built once. Every group made here is named by its greedy generators,
    the least position outside the span so far each time, so its name rests
    on its position set alone. The invariant-subgroup lattices (sweeps) are
    kept here, keyed by the position set of the swept subgroup and that of
    the group normalizing it, so one lattice serves every generator list.
    """

    __slots__ = (
        "degree",
        "elems",
        "pos",
        "sweeps",
        "commuting_closures",
        "gens",
        "_gen_rows",
        "_up",
        "_via",
        "_right",
        "_inv",
        "_conj",
    )

    def __init__(self, degree: int, elems: Sequence[tuple[int, ...]], gens: Sequence[tuple[int, ...]]):
        self.degree = degree
        self.elems = elems
        self.pos = pos = {x: i for i, x in enumerate(elems)}
        # (swept position set, normalizing position set) -> lattice; None
        # stands for the whole group
        self.sweeps: dict[
            tuple[frozenset[int] | None, frozenset[int] | None], tuple[PermGroup, ...]
        ] = {}
        # position set of a subgroup -> its normal closure if it is non-normal
        # with pairwise-commuting conjugates, else None; filled by the certifier
        self.commuting_closures: dict[frozenset[int], PermGroup | None] = {}
        # positions of the generators
        self.gens = tuple(pos[t] for t in gens)
        self._gen_rows = [tuple(pos[_compose(x, t)] for x in elems) for t in gens]
        identity_row = tuple(range(len(elems)))
        self._right: dict[int, tuple[int, ...]] = {0: identity_row}
        self._right.update(zip(self.gens, self._gen_rows))
        self._inv: tuple[int, ...] | None = None
        self._conj: dict[int, tuple[int, ...]] = {0: identity_row}
        # elems[i] = elems[_up[i]] * gens[_via[i]] on the spanning tree
        self._up = up = [-1] * len(elems)
        self._via = via = [-1] * len(elems)
        frontier = [0]
        reached = 1
        while frontier:
            fresh = []
            for i in frontier:
                for k, row in enumerate(self._gen_rows):
                    j = row[i]
                    if j and up[j] < 0:
                        up[j], via[j] = i, k
                        fresh.append(j)
            reached += len(fresh)
            frontier = fresh
        if reached != len(elems):
            raise KernelBugError("group generators do not reach every element")

    def right_row(self, j: int) -> tuple[int, ...]:
        row = self._right.get(j)
        if row is None:
            path = []
            k = j
            while k not in self._right:
                path.append(self._via[k])
                k = self._up[k]
            row = self._right[k]
            for g in reversed(path):
                row = _compose(self._gen_rows[g], row)
            self._right[j] = row
        return row

    def conj_row(self, j: int) -> tuple[int, ...]:
        row = self._conj.get(j)
        if row is None:
            row = self._conj[j] = self._conjugation(j)
        return row

    def _conjugation(self, j: int) -> tuple[int, ...]:
        """The conjugation row of position j, composed afresh and not kept."""
        if self._inv is None:
            self._inv = tuple(self.pos[_invert(x)] for x in self.elems)
        right, inv = self.right_row(j), self._inv
        # x ** t = (x^-1 * t)^-1 * t
        return _compose(right, _compose(inv, _compose(right, inv)))

    def extend(self, h: frozenset[int], gens: Sequence[int], j: int) -> frozenset[int]:
        """Positions of <H, elems[j]>, where h holds the positions of H = <gens>.

        Dimino's method: the union of the right cosets of H that the right
        rows of gens and elems[j] reach from H itself.
        """
        have = set(h)
        _push_cosets(tuple(h), [self.right_row(i) for i in (*gens, j)], have)
        return frozenset(have)

    def normal_closure(
        self,
        seeds: Iterable[int],
        under: Sequence[int],
        h: frozenset[int] = frozenset([0]),
        gens: Sequence[int] = (),
    ) -> tuple[frozenset[int], tuple[int, ...]]:
        """Positions of the normal closure of N and the seeds in <under>, and
        its generators.

        h holds the positions of a subgroup N = <gens> that the elements at
        the positions under normalize. Seeds are taken first in, first out;
        one outside the closure so far is kept and its conjugates under each
        of under are queued. The generators returned are gens followed by the
        kept seeds. With no under, the seeds are closed in their given order.
        """
        conj = [self.conj_row(t) for t in under]
        kept = list(gens)
        pending = deque(seeds)
        while pending:
            s = pending.popleft()
            if s in h:
                continue
            h = self.extend(h, kept, s)
            kept.append(s)
            pending.extend(row[s] for row in conj)
        return h, tuple(kept)

    def orbits(self, span: Iterable[int], under: Sequence[int]) -> list[list[int]]:
        """The orbits of the positions span under conjugation by the elements
        at the positions under, each headed by its least position, sorted by
        size and then by that position.

        span must be ascending and a union of orbits.
        """
        rows = [self.conj_row(t) for t in under]
        seen = bytearray(len(self.elems))
        out = []
        for i in span:
            if seen[i]:
                continue
            seen[i] = 1
            orbit = [i]
            for y in orbit:
                for row in rows:
                    z = row[y]
                    if not seen[z]:
                        seen[z] = 1
                        orbit.append(z)
            out.append(orbit)
        out.sort(key=len)  # stable: equal sizes stay in order of least position
        return out

    def subgroup(self, positions: frozenset[int]) -> PermGroup:
        """The group on a closed set of positions, under its greedy generators."""
        return PermGroup(degree=self.degree, bound=len(positions), host=self, span=positions)

    def subgroups(self, found: Iterable[frozenset[int]]) -> tuple[PermGroup, ...]:
        """The groups on closed position sets, sorted by order and then by
        sorted element list."""
        return tuple(map(self.subgroup, sorted(found, key=lambda m: (len(m), sorted(m)))))


def _push_cosets(start: tuple, rows: Sequence[tuple], have: set[int]) -> list[tuple]:
    """Add to have the right cosets of a subgroup H that the rows reach from
    the coset start, and return them, start first.

    have is a union of right cosets of H that holds start. Each coset is a
    tuple of positions, and its first entry r serves as its representative:
    for the row of s, r * s lies in a coset in have, or H * r * s is new, the
    coset pushed through the row.
    """
    cosets = [start]
    for coset in cosets:
        for row in rows:
            if row[coset[0]] not in have:
                cosets.append(_compose(row, coset))
                have.update(cosets[-1])
    return cosets


class PermGroup:
    """A subgroup of Sym({0, ..., degree-1}).

    Instances are immutable, unhashable handles. Groups of the same degree
    compare equal when they contain each other's generators. An element
    index may be built when the order is at most bound.

    _gens None stands for the greedy generators of the element set. _span
    holds the positions on _host, the index of a larger group, or on the index
    of _root once that exists; _index is the group's own index.
    """

    __slots__ = (
        "degree",
        "bound",
        "_gens",
        "_chain",
        "_order",
        "_index",
        "_root",
        "_host",
        "_span",
    )

    def __init__(self, *, degree: int, bound: int, gens=None, chain=None, root=None, host=None, span=None):
        self.degree = degree
        self.bound = bound
        self._gens = gens
        self._chain = chain
        self._root = root
        self._host = host
        self._span = span
        self._order = None
        self._index = None

    # -- factories ----------------------------------------------------------

    @staticmethod
    def from_generators(
        degree: int,
        generators: Iterable[Permutation],
        dense_bound: int = DEFAULT_DENSE_BOUND,
    ) -> PermGroup:
        gens = _normalize_gens(degree, generators)
        return PermGroup(degree=degree, bound=dense_bound, gens=gens)

    @staticmethod
    def trivial(degree: int) -> PermGroup:
        return PermGroup(degree=degree, bound=1, gens=())

    @staticmethod
    def from_element_set(degree: int, elements: frozenset[Permutation]) -> PermGroup:
        """Wrap a set the caller guarantees to be closed under the operation,
        as its greedy generators and the chain they grow."""
        gens, chain = _greedy_generators(degree, [x.images for x in elements], len(elements))
        return PermGroup(degree=degree, bound=len(elements), gens=gens, chain=chain)

    # -- basic queries ------------------------------------------------------

    @property
    def generators(self) -> tuple[Permutation, ...]:
        if self._gens is None:
            host = self._hosted()
            if host is not None:
                _, kept = host.normal_closure(sorted(self._span), ())
                self._gens = tuple(Permutation._raw(host.elems[j]) for j in kept)
            else:
                self._gens, _ = _greedy_generators(self.degree, self._chain.elements(), self.order)
        return self._gens

    def _stab_chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self.degree, self.generators)
        return self._chain

    def _hosted(self) -> Optional[ElementIndex]:
        """The index self is a position set on, if one exists yet; the positions
        are read off self's chain, or closed from its generators, on the first
        call that finds it."""
        if self._span is None:
            host = self._host
            if host is None and self._root is not None:
                host = self._root._index or self._root._hosted()
            if host is None:
                return None
            if self._chain is not None:
                self._span = frozenset(map(host.pos.__getitem__, self._chain.elements()))
            else:
                self._span, _ = host.normal_closure([host.pos[g.images] for g in self._gens], ())
            self._host, self._root = host, None
        return self._host

    @property
    def order(self) -> int:
        if self._order is None:
            if self._index is not None:
                self._order = len(self._index.elems)
            elif self._hosted() is not None:
                self._order = len(self._span)
            else:
                self._order = self._stab_chain().order()
        return self._order

    @property
    def may_hold_table(self) -> bool:
        """Whether an element index may be built: the order is at most bound."""
        return self.order <= self.bound

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def _element_tuples(self) -> Sequence[tuple[int, ...]]:
        """The elements' image tuples, ascending; DenseBoundExceededError past
        the bound."""
        if self._index is not None:
            return self._index.elems
        host = self._hosted()
        if host is not None:
            return [host.elems[i] for i in sorted(self._span)]
        if not self.may_hold_table:
            raise DenseBoundExceededError(self.order, self.bound)
        return sorted(self._stab_chain().elements())

    def elements(self) -> frozenset[Permutation]:
        """The elements, made afresh, if the order is at most bound."""
        return frozenset(map(Permutation._raw, self._element_tuples()))

    def sorted_elements(self) -> tuple[Permutation, ...]:
        return tuple(map(Permutation._raw, self._element_tuples()))

    def element_index(self) -> ElementIndex:
        """The element index, built on first use."""
        if self._index is None:
            gens = [g.images for g in self.generators]
            self._index = ElementIndex(self.degree, self._element_tuples(), gens)
        return self._index

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatchError(f"degree {p.degree} element vs degree {self.degree} group")
        return self._holds(p.images)

    def _holds(self, t: tuple[int, ...]) -> bool:
        """Membership of an image tuple of the group's degree: on an index if
        self is on one, else by sifting through the chain."""
        if self._index is not None:
            return t in self._index.pos
        host = self._hosted()
        if host is not None:
            return host.pos.get(t) in self._span
        return self._stab_chain().contains(t)

    def is_trivial(self) -> bool:
        return self.order == 1

    def is_abelian(self) -> bool:
        gens = [g.images for g in self.generators]
        return commute(gens, gens)

    def is_subgroup_of(self, other: PermGroup) -> bool:
        if self.degree != other.degree:
            raise DegreeMismatchError("subgroup test across degrees")
        if _shared_index(self, other):
            return self._span <= other._span
        return all(other.contains(g) for g in self.generators)

    def is_normal_in(self, other: PermGroup) -> bool:
        return self.is_subgroup_of(other) and normalizes(other, self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PermGroup):
            return NotImplemented
        if self.degree != other.degree or self.order != other.order:
            return False
        if _shared_index(self, other):
            return self._span == other._span
        return self.is_subgroup_of(other) and other.is_subgroup_of(self)

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order}, bound={self.bound})"


def _shared_index(a: PermGroup, b: PermGroup) -> Optional[ElementIndex]:
    """The index a and b are both position sets on (each in its _span), if
    any. A group is no position set on its own index, where membership is a
    lookup already."""
    index = a._hosted()
    return index if index is not None and index is b._hosted() else None


def positions(g: PermGroup, sub: PermGroup) -> frozenset[int]:
    """The positions of sub, a subgroup of g, on g's element index."""
    index = g.element_index()
    if sub._hosted() is index:
        return sub._span
    return frozenset(map(index.pos.__getitem__, sub._element_tuples()))


def normalizes(a: PermGroup, h: PermGroup) -> bool:
    """Whether the generators of a normalize h, conjugated as image tuples."""
    return all(
        h._holds(_compose(_invert(y.images), _compose(x.images, y.images)))
        for y in a.generators
        for x in h.generators
    )


def commute(xs: Iterable[tuple[int, ...]], ys: Sequence[tuple[int, ...]]) -> bool:
    """Whether every image tuple in xs commutes with every one in ys."""
    return all(_compose(x, y) == _compose(y, x) for x in xs for y in ys)


def _normalize_gens(degree: int, generators: Iterable[Permutation]) -> tuple[Permutation, ...]:
    out: list[Permutation] = []
    for g in generators:
        if g.degree != degree:
            raise DegreeMismatchError(f"generator degree {g.degree} != {degree}")
        if not g.is_identity() and g not in out:
            out.append(g)
    return tuple(out)


def _greedy_generators(
    degree: int, elements: Iterable[tuple[int, ...]], order: int
) -> tuple[tuple[Permutation, ...], StabilizerChain]:
    """The greedy generators of a closed set of image tuples, and the chain
    they grow: the least tuple the chain so far does not hold, each time."""
    gens: list[Permutation] = []
    chain = StabilizerChain(degree, ())
    for x in sorted(elements):
        if chain.order() == order:
            break
        if not chain.contains_tuple(x):
            gens.append(Permutation._raw(x))
            chain.add(x)
    return tuple(gens), chain


def greedily_named(sub: PermGroup) -> PermGroup:
    """sub's element set under its greedy generators, where sub is."""
    host = sub._hosted()
    if host is not None:
        return host.subgroup(sub._span)
    return PermGroup(degree=sub.degree, bound=sub.bound, chain=sub._stab_chain(), root=sub._root)


def subgroup_generated(parent: PermGroup, elems: Iterable[Permutation]) -> PermGroup:
    """Subgroup of parent generated by elems. When parent may hold a table
    the subgroup may too, and it takes its positions on parent's index (or
    its host's) once that index exists."""
    gens = _normalize_gens(parent.degree, elems)
    for g in gens:
        if not parent.contains(g):
            raise MembershipError(f"{g!r} is not in the parent group")
    if not parent.may_hold_table:
        return PermGroup(degree=parent.degree, bound=0, gens=gens)
    return PermGroup(degree=parent.degree, bound=parent.order, gens=gens, root=parent)


def normal_closure(parent: PermGroup, sub) -> PermGroup:
    """Smallest normal subgroup of parent containing sub.

    sub may be a PermGroup or an iterable of elements of parent. Generator
    conjugates are chased transitively, so only generators are ever conjugated:
    on parent's element index if parent may hold a table, else on a chain
    grown in place, and then the closure may hold no table either.
    """
    seed = sub.generators if isinstance(sub, PermGroup) else tuple(sub)
    gens = _normalize_gens(parent.degree, seed)
    for g in gens:
        if not parent.contains(g):
            raise MembershipError("normal closure seed outside the parent group")
    if parent.may_hold_table:
        return _index_closure(parent, gens, parent.generators)
    kept = []
    chain = StabilizerChain(parent.degree, ())
    pending = deque(gens)
    while pending:
        s = pending.popleft()
        if chain.contains(s):
            continue
        kept.append(s)
        chain.add(s)
        pending.extend(s ** g for g in parent.generators)
    return PermGroup(degree=parent.degree, bound=0, gens=tuple(kept), chain=chain)


def _index_closure(
    parent: PermGroup, seeds: Sequence[Permutation], under: Sequence[Permutation]
) -> PermGroup:
    """The normal closure of the seeds in <under>, on parent's element index."""
    index = parent.element_index()
    pos = index.pos
    have, _ = index.normal_closure([pos[s.images] for s in seeds], [pos[t.images] for t in under])
    return index.subgroup(have)


def join(parent: PermGroup, a: PermGroup, b: PermGroup) -> PermGroup:
    return subgroup_generated(parent, a.generators + b.generators)


def intersection(a: PermGroup, b: PermGroup) -> PermGroup:
    """A n B under its greedy generators: on a and b's common index, or on
    the own index of the one that holds the other, else from element sets."""
    if a.degree != b.degree:
        raise DegreeMismatchError("intersection across degrees")
    index = _shared_index(a, b)
    if index is not None:
        return index.subgroup(a._span & b._span)
    for x, y in ((a, b), (b, a)):
        if x._index is not None and y._hosted() is x._index:  # y lies in x
            return x._index.subgroup(y._span)
    return PermGroup.from_element_set(a.degree, a.elements() & b.elements())


def product_order(a: PermGroup, b: PermGroup) -> int:
    """|AB| for subgroups of a common group, read off their intersection."""
    return a.order * b.order // intersection(a, b).order


def commutator_subgroup(parent: PermGroup, a: PermGroup, b: PermGroup) -> PermGroup:
    """[A, B]: the normal closure in <A, B> of the nontrivial generator commutators.

    Under a parent that may hold a table the closure runs on its element index,
    conjugating by the generators of <A, B>, so <A, B> is never built.
    """
    for sub in (a, b):
        if not sub.is_subgroup_of(parent):
            raise MembershipError("commutator arguments must be subgroups of parent")
    seeds = _normalize_gens(parent.degree, [comm(x, y) for x in a.generators for y in b.generators])
    if not seeds:
        return PermGroup.trivial(parent.degree)
    envelope = _normalize_gens(parent.degree, a.generators + b.generators)
    if parent.may_hold_table:
        return _index_closure(parent, seeds, envelope)
    return normal_closure(subgroup_generated(parent, envelope), seeds)


def derived_subgroup(g: PermGroup) -> PermGroup:
    return commutator_subgroup(g, g, g)


def centralizer(parent: PermGroup, a: PermGroup, b: PermGroup | None = None) -> PermGroup:
    """C_parent(A), or with b C_parent(A/B) = {g : [A, g] <= B} for B <= A
    both normal in parent, on parent's element index.

    g centralizes A/B exactly when g ** x lies in the right coset B * g for
    each generator x of A (for C(A), g ** x is g), so each generator costs
    one conjugation row. The coset labels are the cosets _push_cosets
    reaches from B through the group's generator rows.
    """
    index = parent.element_index()
    movers = [index.pos.get(x.images) for x in a.generators]
    if None in movers:
        raise MembershipError("A is not a subgroup of the parent group")
    label: Sequence[int] = range(len(index.elems))
    if b is not None:
        if not b.is_subgroup_of(a):
            raise MembershipError("B must be contained in A")
        if not (a.is_normal_in(parent) and b.is_normal_in(parent)):
            raise NotNormalError("section centralizer needs normal A and B")
        start = tuple(sorted(positions(parent, b)))
        label = [0] * len(index.elems)
        rows = [index.right_row(t) for t in index.gens]
        for k, coset in enumerate(_push_cosets(start, rows, set(start))):
            for i in coset:
                label[i] = k
    hits: Iterable[int] = range(len(index.elems))
    for j in movers:
        row = index._conjugation(j)  # not kept: a row per centralized generator would pile up
        hits = [i for i in hits if label[row[i]] == label[i]]
    return index.subgroup(frozenset(hits))


def center(g: PermGroup) -> PermGroup:
    return centralizer(g, g)


def lower_central_series(g: PermGroup) -> list[PermGroup]:
    """G = gamma_1 >= gamma_2 >= ... down to the stable term."""
    series = [g]
    while True:
        nxt = commutator_subgroup(g, series[-1], g)
        if nxt.order == series[-1].order:
            break
        series.append(nxt)
        if nxt.is_trivial():
            break
    return series


def is_nilpotent(g: PermGroup) -> bool:
    return lower_central_series(g)[-1].is_trivial()


def e_p_subgroup(g: PermGroup, p: int) -> PermGroup:
    """<[G,G], generator p-th powers> = [G,G] G^p.

    Modulo the derived subgroup the p-power map is a homomorphism, so p-th
    powers of generators already generate the image of the whole power map.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    seeds = list(derived_subgroup(g).generators)
    seeds.extend(x ** p for x in g.generators)
    return subgroup_generated(g, seeds)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def conjugacy_classes(g: PermGroup) -> tuple[tuple[Permutation, frozenset[Permutation]], ...]:
    """Classes as (least member, element set), sorted by (size, least member), off the index."""
    index = g.element_index()
    perm = Permutation._raw
    elems = index.elems
    return tuple(
        (perm(elems[orbit[0]]), frozenset(perm(elems[k]) for k in orbit))
        for orbit in index.orbits(range(len(elems)), index.gens)
    )


def direct_product(a: PermGroup, b: PermGroup) -> PermGroup:
    """A x B acting on the disjoint union of the two point sets."""
    da, db = a.degree, b.degree
    gens = []
    for g in a.generators:
        gens.append(Permutation(tuple(g.images) + tuple(range(da, da + db))))
    for g in b.generators:
        gens.append(Permutation(tuple(range(da)) + tuple(da + i for i in g.images)))
    prod = PermGroup.from_generators(da + db, gens)
    if prod.order != a.order * b.order:
        raise KernelBugError("direct product order mismatch")
    return prod


def wreath_product(base: PermGroup, top: PermGroup) -> PermGroup:
    """base wr top in the imprimitive action on top.degree blocks.

    Point t*db + o is offset o in block t. The order is checked against
    |base|^top.degree * |top| after construction.
    """
    db, dt = base.degree, top.degree
    gens = _wreath_gens(base.generators, db, top.generators, dt)
    w = PermGroup.from_generators(db * dt, gens)
    if w.order != base.order ** dt * top.order:
        raise KernelBugError("wreath product order mismatch")
    return w


def _wreath_gens(base_gens, db: int, top_gens, dt: int) -> list[Permutation]:
    """Generators of a degree-db base wr a degree-dt top: each base generator
    copied into block 0, then block 1, and so on, then the top generators
    permuting whole blocks."""
    degree = db * dt
    gens = []
    for i in range(dt):
        for g in base_gens:
            images = list(range(degree))
            images[i * db : (i + 1) * db] = [i * db + x for x in g.images]
            gens.append(Permutation(images))
    for s in top_gens:
        gens.append(Permutation([s.images[t] * db + o for t in range(dt) for o in range(db)]))
    return gens
