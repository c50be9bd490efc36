"""Finite permutation groups: a stabilizer chain, and an element table on demand.

Every group is given by its generators, or by an element set, and carries a
stabilizer chain that it builds when it first needs one. The chain gives the
order and membership before any element is listed, so a group may be far past
any table's reach. The element table is built on first use, from the chain
with one product per element, and only if the group's order is at most its
bound; past the bound, elements() raises DenseBoundExceededError before
enumerating. Anything that scans elements (centralizers, conjugacy classes,
normal-subgroup lattices) reads the table. A group given by its element set
alone gets greedy generators, each tested for membership on a chain grown one
generator at a time.

A group with a table also carries an element index, built on first use and
kept on the group: its elements sorted by image tuple and each element's
position. Only the generators' multiplication rows are built with permutation
products, and the inversion map with one inverse per element; every other
multiplication or conjugation row is composed from them. Closure under a
parent that may hold a table works on sets of positions: normal closures,
commutator subgroups, conjugacy classes and the invariant-subgroup sweeps
(the normal lattice among them) all run on the index, so they multiply no
permutations per closure step.

All derived orderings (sorted elements, conjugacy classes, generator
reduction) are deterministic so that downstream reports are byte-stable.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter, itemgetter
from typing import Iterable, Mapping, Sequence

from .chain import StabilizerChain
from .errors import (
    DegreeMismatchError,
    DenseBoundExceededError,
    KernelBugError,
    MembershipError,
    NotNormalError,
)
from .perm import Permutation, comm

DEFAULT_DENSE_BOUND = 2_000_000


class ElementIndex:
    """The elements of a group's table sorted by image tuple, and their positions.

    A subgroup is a set of positions. Sorting positions sorts elements by
    image tuple, so sorted position lists order subgroups as their sorted
    element lists do; the identity sorts first, at position 0.

    The right row of position j maps each position i to the position of
    elems[i] * elems[j]. Only the generators' rows are built with
    permutation products. Every other row is composed along the path of its
    element in a breadth-first spanning tree over positions, one generator
    row at a time and in C, since row(a * b)[i] = row(b)[row(a)[i]]. A row is
    kept only for a position used as a generator (of the group or of a
    closure, or a conjugator), never for a coset representative or a path.
    The conjugation row of position j maps i to the position of
    elems[i] ** elems[j]; it is composed from the right row of j and the
    inversion map, which is built once with one inverse per element. The
    invariant-subgroup lattices (sweeps) are kept here, keyed by the position
    set of the swept subgroup (None for the whole group) and the positions of
    the elements that normalize them; the normal lattice is the entry of the
    group's own generators.
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

    def __init__(self, degree: int, elems: tuple[Permutation, ...], gens: Sequence[Permutation]):
        self.degree = degree
        self.elems = elems
        self.pos = pos = {x: i for i, x in enumerate(elems)}
        self.sweeps: dict[
            tuple[frozenset[int] | None, tuple[int, ...]], tuple[PermGroup, ...]
        ] = {}
        # element set of a subgroup -> its normal closure if it is non-normal
        # with pairwise-commuting conjugates, else None; filled by the certifier
        self.commuting_closures: dict[frozenset[Permutation], PermGroup | None] = {}
        # positions of the generators
        self.gens = tuple(pos[t] for t in gens)
        self._gen_rows = [tuple(pos[x * t] for x in elems) for t in gens]
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
                row = itemgetter(*row)(self._gen_rows[g])
            self._right[j] = row
        return row

    def conj_row(self, j: int) -> tuple[int, ...]:
        row = self._conj.get(j)
        if row is None:
            if self._inv is None:
                pos = self.pos
                self._inv = tuple(pos[x.inverse()] for x in self.elems)
            right, inv = self.right_row(j), self._inv
            # x ** t = (x^-1 * t)^-1 * t
            row = itemgetter(*itemgetter(*itemgetter(*inv)(right))(inv))(right)
            self._conj[j] = row
        return row

    def extend(self, h: frozenset[int], gens: Sequence[int], j: int) -> frozenset[int]:
        """Positions of <H, elems[j]>, where h holds the positions of H = <gens>.

        Dimino's method: the union of the right cosets of H that the right
        rows of gens and elems[j] reach from H itself.
        """
        have = set(h)
        _push_cosets((0, *h), [self.right_row(i) for i in (*gens, j)], have)
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
        kept seeds.
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

    def subgroup(self, positions: Iterable[int], gens: Sequence[int]) -> PermGroup:
        """The group on a closed set of positions, generated by gens, with its table."""
        elems = self.elems
        ordered = sorted(positions)
        sub = PermGroup(
            degree=self.degree,
            bound=len(ordered),
            gens=tuple(elems[j] for j in gens),
            elements=frozenset(elems[i] for i in ordered),
        )
        sub._sorted = tuple(elems[i] for i in ordered)
        return sub

    def subgroups(self, found: Mapping[frozenset[int], Sequence[int]]) -> tuple[PermGroup, ...]:
        """The groups on found's closed position sets, generated as found says,
        sorted by order and then by sorted element list."""
        return tuple(
            self.subgroup(m, found[m]) for m in sorted(found, key=lambda m: (len(m), sorted(m)))
        )


def _push_cosets(start: tuple[int, ...], rows: Sequence[tuple[int, ...]], have: set[int]) -> None:
    """Add to have the right cosets of a subgroup H that the rows reach from
    the coset start.

    have is a union of right cosets of H that holds start. Each coset H * r
    is a tuple headed by its representative r, so a one-element H still
    gives a tuple. For the row of s, r * s lies in a coset in have, or
    H * r * s is new: the coset H * r pushed through the row.
    """
    cosets = [start]
    for coset in cosets:
        for row in rows:
            if row[coset[0]] not in have:
                cosets.append(itemgetter(*coset)(row))
                have.update(cosets[-1])


class PermGroup:
    """A subgroup of Sym({0, ..., degree-1}).

    Instances are immutable, unhashable handles. Groups of the same degree
    compare equal when they contain each other's generators. An element
    table may be built when the order is at most bound.
    """

    __slots__ = (
        "degree",
        "bound",
        "_gens",
        "_elements",
        "_sorted",
        "_chain",
        "_order",
        "_classes",
        "_index",
    )

    def __init__(self, *, degree: int, bound: int, gens=None, elements=None, chain=None):
        self.degree = degree
        self.bound = bound
        self._gens = gens
        self._elements = elements
        self._chain = chain
        self._sorted = None
        self._order = None
        self._classes = None
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
        return PermGroup(
            degree=degree,
            bound=1,
            gens=(),
            elements=frozenset({Permutation.identity(degree)}),
        )

    @staticmethod
    def from_element_set(degree: int, elements: frozenset[Permutation]) -> PermGroup:
        """Wrap a set the caller guarantees to be closed under the operation."""
        return PermGroup(degree=degree, bound=len(elements), elements=frozenset(elements))

    # -- basic queries ------------------------------------------------------

    @property
    def generators(self) -> tuple[Permutation, ...]:
        if self._gens is None:
            self._gens = _elements_to_generators(self.degree, self._elements)
        return self._gens

    def _stab_chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self.degree, self.generators)
        return self._chain

    @property
    def order(self) -> int:
        if self._order is None:
            if self._elements is not None:
                self._order = len(self._elements)
            else:
                self._order = self._stab_chain().order()
        return self._order

    @property
    def may_hold_table(self) -> bool:
        """Whether an element table may be built: the order is at most bound."""
        return self.order <= self.bound

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def elements(self) -> frozenset[Permutation]:
        """The element table, built on first use if the order is at most bound."""
        if self._elements is None:
            if not self.may_hold_table:
                raise DenseBoundExceededError(self.order, self.bound)
            self._elements = frozenset(map(Permutation._raw, self._stab_chain().elements()))
        return self._elements

    def sorted_elements(self) -> tuple[Permutation, ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self.elements(), key=attrgetter("images")))
        return self._sorted

    def element_index(self) -> ElementIndex:
        """The element index, built on first use."""
        if self._index is None:
            self._index = ElementIndex(self.degree, self.sorted_elements(), self.generators)
        return self._index

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatchError(f"degree {p.degree} element vs degree {self.degree} group")
        if self._elements is not None:
            return p in self._elements
        return self._stab_chain().contains(p)

    def is_trivial(self) -> bool:
        return self.order == 1

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1 :])

    def is_subgroup_of(self, other: PermGroup) -> bool:
        if self.degree != other.degree:
            raise DegreeMismatchError("subgroup test across degrees")
        return all(other.contains(g) for g in self.generators)

    def is_normal_in(self, other: PermGroup) -> bool:
        if not self.is_subgroup_of(other):
            return False
        return all(
            self.contains(s ** g) for s in self.generators for g in other.generators
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PermGroup):
            return NotImplemented
        if self.degree != other.degree or self.order != other.order:
            return False
        if self._elements is not None and other._elements is not None:
            return self._elements == other._elements
        return self.is_subgroup_of(other) and other.is_subgroup_of(self)

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order}, bound={self.bound})"


def _normalize_gens(degree: int, generators: Iterable[Permutation]) -> tuple[Permutation, ...]:
    out: list[Permutation] = []
    for g in generators:
        if g.degree != degree:
            raise DegreeMismatchError(f"generator degree {g.degree} != {degree}")
        if not g.is_identity() and g not in out:
            out.append(g)
    return tuple(out)


def _elements_to_generators(degree: int, elements: frozenset[Permutation]) -> tuple[Permutation, ...]:
    """Deterministic small generating set for a known closed element set."""
    order = len(elements)
    if order == 1:
        return ()
    gens: list[Permutation] = []
    chain = StabilizerChain(degree, ())
    for x in sorted(elements):
        if chain.order() == order:
            break
        if chain.contains(x):
            continue
        gens.append(x)
        chain.add(x)
    return tuple(gens)


def subgroup_generated(parent: PermGroup, elems: Iterable[Permutation]) -> PermGroup:
    """Subgroup of parent generated by elems; it may hold a table when parent may."""
    gens = _normalize_gens(parent.degree, elems)
    for g in gens:
        if not parent.contains(g):
            raise MembershipError(f"{g!r} is not in the parent group")
    bound = parent.order if parent.may_hold_table else 0
    return PermGroup(degree=parent.degree, bound=bound, gens=gens)


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
    have, kept = index.normal_closure([pos[s] for s in seeds], [pos[t] for t in under])
    return index.subgroup(have, kept)


def join(parent: PermGroup, a: PermGroup, b: PermGroup) -> PermGroup:
    return subgroup_generated(parent, a.generators + b.generators)


def intersection(a: PermGroup, b: PermGroup) -> PermGroup:
    if a.degree != b.degree:
        raise DegreeMismatchError("intersection across degrees")
    return PermGroup.from_element_set(a.degree, a.elements() & b.elements())


def product_order(a: PermGroup, b: PermGroup) -> int:
    """|AB| for subgroups of a common group, read off their element tables."""
    return a.order * b.order // intersection(a, b).order


def commutator_subgroup(parent: PermGroup, a: PermGroup, b: PermGroup) -> PermGroup:
    """[A, B]: the normal closure in <A, B> of generator commutators.

    Under a parent that may hold a table the closure runs on its element index,
    conjugating by the generators of <A, B>, so <A, B> is never built.
    """
    for sub in (a, b):
        if not sub.is_subgroup_of(parent):
            raise MembershipError("commutator arguments must be subgroups of parent")
    envelope = _normalize_gens(parent.degree, a.generators + b.generators)
    seeds = [comm(x, y) for x in a.generators for y in b.generators]
    if parent.may_hold_table:
        return _index_closure(parent, _normalize_gens(parent.degree, seeds), envelope)
    return normal_closure(subgroup_generated(parent, envelope), seeds)


def derived_subgroup(g: PermGroup) -> PermGroup:
    return commutator_subgroup(g, g, g)


def centralizer(parent: PermGroup, sub: PermGroup) -> PermGroup:
    """C_parent(sub), by scanning parent's element table."""
    gens = sub.generators
    hits = frozenset(
        g for g in parent.elements() if all(g * s == s * g for s in gens)
    )
    return PermGroup.from_element_set(parent.degree, hits)


def center(g: PermGroup) -> PermGroup:
    return centralizer(g, g)


def centralizer_of_section(parent: PermGroup, a: PermGroup, b: PermGroup) -> PermGroup:
    """C_parent(A/B) = {g : [A, g] <= B}, for B <= A both normal in parent.

    Testing generators of A suffices: in parent/B, an element centralizes the
    image of A exactly when it commutes with the images of A's generators.
    """
    if not b.is_subgroup_of(a):
        raise MembershipError("B must be contained in A")
    for sub in (a, b):
        if not sub.is_normal_in(parent):
            raise NotNormalError("section centralizer needs normal A and B")
    # [x, g] = x^-1 * g^-1 * x * g, with each inverse formed once
    pairs = [(x.inverse(), x) for x in a.generators]
    hits = []
    for g in parent.elements():
        g_inv = g.inverse()
        if all(b.contains(x_inv * g_inv * x * g) for x_inv, x in pairs):
            hits.append(g)
    return PermGroup.from_element_set(parent.degree, frozenset(hits))


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
    """Classes as (least member, element set), sorted by (size, least member)."""
    if g._classes is not None:
        return g._classes
    index = g.element_index()
    elems = index.elems
    g._classes = tuple(
        (elems[orbit[0]], frozenset(elems[k] for k in orbit))
        for orbit in index.orbits(range(len(elems)), index.gens)
    )
    return g._classes


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
    degree = db * dt
    gens = []
    for i in range(dt):
        for g in base.generators:
            images = list(range(degree))
            for o in range(db):
                images[i * db + o] = i * db + g.images[o]
            gens.append(Permutation(images))
    for s in top.generators:
        gens.append(Permutation([s.images[t] * db + o for t in range(dt) for o in range(db)]))
    projected = base.order ** dt * top.order
    w = PermGroup.from_generators(degree, gens)
    if w.order != projected:
        raise KernelBugError("wreath product order mismatch")
    return w
