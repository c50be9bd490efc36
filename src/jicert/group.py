"""Finite permutation groups in two computation modes.

Dense mode materializes the full element set by breadth-first closure and is
required by anything that scans elements (centralizers, conjugacy classes,
normal-subgroup lattices). Chain mode stores a stabilizer chain only and
scales to groups far past the dense bound; operations that would need the
element table raise NeedsDenseModeError instead of trying.

A dense group also carries an element index, built on first use and kept on
the group: its elements sorted by image tuple and each element's position.
Subgroup sweeps work on sets of positions and close them with lazily built
multiplication and conjugation rows, so a sweep multiplies permutations once
per row entry rather than once per closure step.

All derived orderings (sorted elements, conjugacy classes, generator
reduction) are deterministic so that downstream reports are byte-stable.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Sequence

from .chain import StabilizerChain
from .errors import (
    DegreeMismatchError,
    DenseBoundExceededError,
    KernelBugError,
    MembershipError,
    NeedsDenseModeError,
    NotNormalError,
)
from .perm import Permutation, comm

DEFAULT_DENSE_BOUND = 2_000_000


def _close(degree: int, gens: Sequence[Permutation], bound: int) -> frozenset[Permutation]:
    idt = Permutation.identity(degree)
    elements = {idt}
    frontier = [idt]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in elements:
                    if len(elements) >= bound:
                        raise DenseBoundExceededError(bound)
                    elements.add(y)
                    fresh.append(y)
        frontier = fresh
    return frozenset(elements)


def _extend_closure(
    degree: int, have: set[Permutation], gens: list[Permutation], new_gen: Permutation
) -> None:
    """Grow a closed set in place after appending new_gen to gens."""
    frontier = [x * new_gen for x in list(have)]
    frontier = [y for y in frontier if y not in have]
    have.update(frontier)
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in have:
                    have.add(y)
                    fresh.append(y)
        frontier = fresh


class ElementIndex:
    """The elements of a dense group sorted by image tuple, and their positions.

    A subgroup is a set of positions. Sorting positions sorts elements by
    image tuple, so sorted position tuples order subgroups as their canonical
    keys do. A row maps each position i to the position of elems[i] * t
    (right_row) or of elems[i] ** t (conj_row); each row is built on first
    use and kept.
    """

    __slots__ = ("degree", "elems", "pos", "commuting_closures", "_right", "_conj")

    def __init__(self, degree: int, elems: tuple[Permutation, ...]):
        self.degree = degree
        self.elems = elems
        self.pos = {x: i for i, x in enumerate(elems)}
        # canonical key of a subgroup -> its normal closure if it is non-normal
        # with pairwise-commuting conjugates, else None; filled by the certifier
        self.commuting_closures: dict[tuple, PermGroup | None] = {}
        self._right: dict[int, tuple[int, ...]] = {}
        self._conj: dict[Permutation, tuple[int, ...]] = {}

    def right_row(self, j: int) -> tuple[int, ...]:
        row = self._right.get(j)
        if row is None:
            t, pos = self.elems[j], self.pos
            row = self._right[j] = tuple(pos[x * t] for x in self.elems)
        return row

    def conj_row(self, t: Permutation) -> tuple[int, ...]:
        row = self._conj.get(t)
        if row is None:
            ti, pos = t.inverse(), self.pos
            row = self._conj[t] = tuple(pos[ti * x * t] for x in self.elems)
        return row

    def extend(self, h: frozenset[int], gens: Sequence[int], j: int) -> frozenset[int]:
        """Positions of <H, elems[j]>, where h holds the positions of H = <gens>.

        The closure starts from h, which is already closed under gens.
        """
        new = self.right_row(j)
        rows = [self.right_row(i) for i in gens]
        rows.append(new)
        have = set(h)
        frontier = [k for k in (new[i] for i in h) if k not in have]
        have.update(frontier)
        while frontier:
            fresh = []
            for i in frontier:
                for row in rows:
                    k = row[i]
                    if k not in have:
                        have.add(k)
                        fresh.append(k)
            frontier = fresh
        return frozenset(have)

    def subgroup(self, positions: Iterable[int], gens: Sequence[int]) -> PermGroup:
        """The dense group on a closed set of positions, generated by gens."""
        elems = self.elems
        ordered = sorted(positions)
        sub = PermGroup(
            degree=self.degree,
            mode="dense",
            gens=tuple(elems[j] for j in gens),
            elements=frozenset(elems[i] for i in ordered),
        )
        sub._sorted = tuple(elems[i] for i in ordered)
        return sub


class PermGroup:
    """A subgroup of Sym({0, ..., degree-1}).

    Instances are immutable handles. Groups of the same degree compare equal
    when they contain each other's generators.
    """

    __slots__ = (
        "degree",
        "mode",
        "_gens",
        "_elements",
        "_sorted",
        "_chain",
        "_order",
        "_classes",
        "_key",
        "_index",
    )

    def __init__(self, *, degree: int, mode: str, gens=None, elements=None, chain=None):
        self.degree = degree
        self.mode = mode
        self._gens = gens
        self._elements = elements
        self._chain = chain
        self._sorted = None
        self._order = None
        self._classes = None
        self._key = None
        self._index = None

    # -- factories ----------------------------------------------------------

    @staticmethod
    def from_generators(
        degree: int,
        generators: Iterable[Permutation],
        mode: str = "dense",
        dense_bound: int = DEFAULT_DENSE_BOUND,
    ) -> PermGroup:
        gens = _normalize_gens(degree, generators)
        if mode == "auto":
            chain = StabilizerChain(degree, gens)
            if chain.order() <= dense_bound:
                return PermGroup(
                    degree=degree,
                    mode="dense",
                    gens=gens,
                    elements=_close(degree, gens, dense_bound + 1),
                )
            g = PermGroup(degree=degree, mode="chain", gens=gens, chain=chain)
            return g
        if mode == "dense":
            return PermGroup(
                degree=degree,
                mode="dense",
                gens=gens,
                elements=_close(degree, gens, dense_bound),
            )
        if mode == "chain":
            return PermGroup(
                degree=degree, mode="chain", gens=gens, chain=StabilizerChain(degree, gens)
            )
        raise ValueError(f"unknown mode {mode!r}")

    @staticmethod
    def trivial(degree: int) -> PermGroup:
        return PermGroup(
            degree=degree,
            mode="dense",
            gens=(),
            elements=frozenset({Permutation.identity(degree)}),
        )

    @staticmethod
    def from_element_set(degree: int, elements: frozenset[Permutation]) -> PermGroup:
        """Wrap a set the caller guarantees to be closed under the operation."""
        return PermGroup(degree=degree, mode="dense", elements=frozenset(elements))

    # -- basic queries ------------------------------------------------------

    @property
    def generators(self) -> tuple[Permutation, ...]:
        if self._gens is None:
            self._gens = _elements_to_generators(self.degree, self._elements)
        return self._gens

    @property
    def order(self) -> int:
        if self._order is None:
            if self.mode == "dense":
                self._order = len(self._elements)
            else:
                self._order = self._chain.order()
        return self._order

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def elements(self) -> frozenset[Permutation]:
        if self.mode != "dense":
            raise NeedsDenseModeError("element enumeration needs dense mode")
        return self._elements

    def sorted_elements(self) -> tuple[Permutation, ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self.elements(), key=attrgetter("images")))
        return self._sorted

    def element_index(self) -> ElementIndex:
        """The element index of a dense group, built on first use."""
        if self._index is None:
            self._index = ElementIndex(self.degree, self.sorted_elements())
        return self._index

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatchError(f"degree {p.degree} element vs degree {self.degree} group")
        if self.mode == "dense":
            return p in self._elements
        return self._chain.contains(p)

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

    def canonical_key(self) -> tuple:
        """Sorted element tuple; the deterministic identity of a dense subgroup."""
        if self._key is None:
            self._key = tuple(p.images for p in self.sorted_elements())
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PermGroup):
            return NotImplemented
        if self.degree != other.degree or self.order != other.order:
            return False
        if self.mode == "dense" and other.mode == "dense":
            return self._elements == other._elements
        return self.is_subgroup_of(other) and other.is_subgroup_of(self)

    def __hash__(self) -> int:
        return hash((self.degree, self.order))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order}, mode={self.mode})"


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
    have: set[Permutation] = {Permutation.identity(degree)}
    for x in sorted(elements):
        if len(have) == order:
            break
        if x in have:
            continue
        gens.append(x)
        _extend_closure(degree, have, gens, x)
    return tuple(gens)


def subgroup_generated(parent: PermGroup, elems: Iterable[Permutation]) -> PermGroup:
    """Subgroup of parent generated by elems, in parent's mode."""
    gens = _normalize_gens(parent.degree, elems)
    for g in gens:
        if not parent.contains(g):
            raise MembershipError(f"{g!r} is not in the parent group")
    if parent.mode == "dense":
        return PermGroup(
            degree=parent.degree,
            mode="dense",
            gens=gens,
            elements=_close(parent.degree, gens, parent.order),
        )
    return PermGroup(
        degree=parent.degree,
        mode="chain",
        gens=gens,
        chain=StabilizerChain(parent.degree, gens),
    )


def normal_closure(parent: PermGroup, sub) -> PermGroup:
    """Smallest normal subgroup of parent containing sub.

    sub may be a PermGroup or an iterable of elements of parent. Generator
    conjugates are chased transitively, so only generators are ever conjugated.
    """
    seed = sub.generators if isinstance(sub, PermGroup) else tuple(sub)
    gens = _normalize_gens(parent.degree, seed)
    for g in gens:
        if not parent.contains(g):
            raise MembershipError("normal closure seed outside the parent group")
    if parent.mode == "dense":
        have: set[Permutation] = {parent.identity}
        kept: list[Permutation] = []
        pending = list(gens)
        while pending:
            s = pending.pop(0)
            if s in have:
                continue
            kept.append(s)
            _extend_closure(parent.degree, have, kept, s)
            pending.extend(s ** g for g in parent.generators)
        return PermGroup(
            degree=parent.degree, mode="dense", gens=tuple(kept), elements=frozenset(have)
        )
    kept = []
    chain = StabilizerChain(parent.degree, ())
    pending = list(gens)
    while pending:
        s = pending.pop(0)
        if chain.contains(s):
            continue
        kept.append(s)
        chain = StabilizerChain(parent.degree, kept)
        pending.extend(s ** g for g in parent.generators)
    return PermGroup(degree=parent.degree, mode="chain", gens=tuple(kept), chain=chain)


def join(parent: PermGroup, a: PermGroup, b: PermGroup) -> PermGroup:
    return subgroup_generated(parent, a.generators + b.generators)


def intersection(a: PermGroup, b: PermGroup) -> PermGroup:
    if a.degree != b.degree:
        raise DegreeMismatchError("intersection across degrees")
    return PermGroup.from_element_set(a.degree, a.elements() & b.elements())


def product_order(a: PermGroup, b: PermGroup) -> int:
    """|AB| for dense subgroups of a common group."""
    return a.order * b.order // intersection(a, b).order


def commutator_subgroup(parent: PermGroup, a: PermGroup, b: PermGroup) -> PermGroup:
    """[A, B]: the normal closure in <A, B> of generator commutators."""
    for sub in (a, b):
        if not sub.is_subgroup_of(parent):
            raise MembershipError("commutator arguments must be subgroups of parent")
    envelope = subgroup_generated(parent, a.generators + b.generators)
    seeds = [comm(x, y) for x in a.generators for y in b.generators]
    return normal_closure(envelope, seeds)


def derived_subgroup(g: PermGroup) -> PermGroup:
    return commutator_subgroup(g, g, g)


def centralizer(parent: PermGroup, sub: PermGroup) -> PermGroup:
    """C_parent(sub), by scanning elements; dense mode only."""
    if parent.mode != "dense":
        raise NeedsDenseModeError("centralizer scans the element table")
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
    if parent.mode != "dense":
        raise NeedsDenseModeError("section centralizer scans the element table")
    if not b.is_subgroup_of(a):
        raise MembershipError("B must be contained in A")
    for sub in (a, b):
        if not sub.is_normal_in(parent):
            raise NotNormalError("section centralizer needs normal A and B")
    agens = a.generators
    hits = frozenset(
        g for g in parent.elements() if all(b.contains(comm(x, g)) for x in agens)
    )
    return PermGroup.from_element_set(parent.degree, hits)


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
    if g.mode != "dense":
        raise NeedsDenseModeError("conjugacy classes need the element table")
    if g._classes is not None:
        return g._classes
    gens = g.generators
    remaining = set(g.elements())
    classes = []
    for x in g.sorted_elements():
        if x not in remaining:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for s in gens:
                z = y ** s
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        remaining -= orbit
        classes.append((min(orbit), frozenset(orbit)))
    classes.sort(key=lambda c: (len(c[1]), c[0].images))
    g._classes = tuple(classes)
    return g._classes


def direct_product(a: PermGroup, b: PermGroup, dense_bound: int = DEFAULT_DENSE_BOUND) -> PermGroup:
    """A x B acting on the disjoint union of the two point sets."""
    da, db = a.degree, b.degree
    gens = []
    for g in a.generators:
        gens.append(Permutation(tuple(g.images) + tuple(range(da, da + db))))
    for g in b.generators:
        gens.append(Permutation(tuple(range(da)) + tuple(da + i for i in g.images)))
    mode = "dense" if a.order * b.order <= dense_bound else "chain"
    prod = PermGroup.from_generators(da + db, gens, mode=mode, dense_bound=dense_bound)
    if prod.order != a.order * b.order:
        raise KernelBugError("direct product order mismatch")
    return prod


def wreath_product(base: PermGroup, top: PermGroup, dense_bound: int = DEFAULT_DENSE_BOUND) -> PermGroup:
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
    mode = "dense" if projected <= dense_bound else "chain"
    w = PermGroup.from_generators(degree, gens, mode=mode, dense_bound=dense_bound)
    if w.order != projected:
        raise KernelBugError("wreath product order mismatch")
    return w
