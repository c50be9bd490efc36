"""Homomorphisms between permutation groups; kernels, preimages, quotients.

A dense source gets a full evaluation table by breadth-first closure, which
is also the well-definedness proof: phi(x*g) = phi(x)*phi(g) is enforced at
every table entry, and a clash is a concrete witness that the generator
images extend to no homomorphism.

A chain source uses the graph group: the subgroup of Sym(source points +
shifted target points) generated by the paired permutations (g, phi(g)). The
map is well defined exactly when the pointwise stabilizer of the source
points in the graph group is trivial; a stabilizer chain with the source
points as forced base prefix decides that exactly and doubles as the
evaluator (lift a source element through the prefix, read the target half).
A second chain with the target points first yields the kernel, and its order
is checked against |image| * |kernel| = |source|.
"""

from __future__ import annotations

from typing import Sequence

from .chain import StabilizerChain
from .errors import (
    DegreeMismatchError,
    HomomorphismError,
    KernelBugError,
    MembershipError,
    NeedsDenseModeError,
    NotNormalError,
)
from .group import DEFAULT_DENSE_BOUND, PermGroup, subgroup_generated
from .perm import Permutation


class GroupHom:
    """A verified homomorphism given by images of the source generators."""

    __slots__ = ("source", "target", "generator_images", "_table", "_graph_gens",
                 "_graph_src", "_graph_tgt")

    def __init__(
        self,
        source: PermGroup,
        target: PermGroup,
        generator_images: Sequence[Permutation],
    ):
        images = tuple(generator_images)
        if len(images) != len(source.generators):
            raise HomomorphismError(
                f"{len(images)} images for {len(source.generators)} generators"
            )
        for im in images:
            if im.degree != target.degree:
                raise DegreeMismatchError("image degree differs from target degree")
            if not target.contains(im):
                raise HomomorphismError(f"image {im!r} is outside the target group")
        self.source = source
        self.target = target
        self.generator_images = images
        self._table = None
        self._graph_gens = None
        self._graph_src = None
        self._graph_tgt = None
        if source.mode == "dense":
            self._build_table()
        else:
            self._build_graph()

    # -- validation ---------------------------------------------------------

    def _build_table(self) -> None:
        gens = self.source.generators
        images = self.generator_images
        table = {self.source.identity: self.target.identity}
        frontier = [self.source.identity]
        while frontier:
            fresh = []
            for x in frontier:
                fx = table[x]
                for g, fg in zip(gens, images):
                    y = x * g
                    fy = fx * fg
                    known = table.get(y)
                    if known is None:
                        table[y] = fy
                        fresh.append(y)
                    elif known != fy:
                        raise HomomorphismError(
                            f"generator images are inconsistent at {y!r}"
                        )
            frontier = fresh
        self._table = table

    def _build_graph(self) -> None:
        ds, dt = self.source.degree, self.target.degree
        gens = []
        for g, fg in zip(self.source.generators, self.generator_images):
            gens.append(tuple(g.images) + tuple(ds + j for j in fg.images))
        self._graph_gens = gens
        src_chain = StabilizerChain(ds + dt, gens, base_prefix=range(ds))
        for t in src_chain.gens_fixing_prefix(ds):
            if t != tuple(range(ds + dt)):
                witness = Permutation(tuple(x - ds for x in t[ds:]))
                raise HomomorphismError(
                    f"generator images satisfy no homomorphism; "
                    f"a trivial source relation maps to {witness!r}"
                )
        self._graph_src = src_chain

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x: Permutation) -> Permutation:
        if self._table is not None:
            fx = self._table.get(x)
            if fx is None:
                raise MembershipError("argument is outside the source group")
            return fx
        ds, dt = self.source.degree, self.target.degree
        lifted = self._graph_src.lift_points({i: x.images[i] for i in range(ds)}, ds)
        return Permutation(tuple(p - ds for p in lifted[ds:]))

    def image(self, sub: PermGroup | None = None) -> PermGroup:
        """Image of sub (default: the whole source) as a subgroup of target."""
        if sub is None:
            images = self.generator_images
        else:
            if not sub.is_subgroup_of(self.source):
                raise MembershipError("image argument must be a subgroup of the source")
            images = tuple(self(g) for g in sub.generators)
        return subgroup_generated(self.target, images)

    def is_surjective(self) -> bool:
        return self.image().order == self.target.order

    def kernel(self, dense_bound: int = DEFAULT_DENSE_BOUND) -> PermGroup:
        ds, dt = self.source.degree, self.target.degree
        if self._table is not None:
            elems = frozenset(x for x, fx in self._table.items() if fx.is_identity())
            return PermGroup.from_element_set(ds, elems)
        if self._graph_tgt is None:
            self._graph_tgt = StabilizerChain(
                ds + dt, self._graph_gens, base_prefix=range(ds, ds + dt)
            )
        kgens = [Permutation(t[:ds]) for t in self._graph_tgt.gens_fixing_prefix(dt)]
        ker = PermGroup.from_generators(ds, kgens, mode="auto", dense_bound=dense_bound)
        if ker.order * self.image().order != self.source.order:
            raise KernelBugError("kernel order inconsistent with image order")
        return ker

    def preimage(self, sub: PermGroup) -> PermGroup:
        """Full preimage of sub, which must lie inside the image."""
        if sub.degree != self.target.degree:
            raise DegreeMismatchError("preimage argument has the wrong degree")
        if self._table is not None:
            elems = frozenset(x for x, fx in self._table.items() if sub.contains(fx))
            return PermGroup.from_element_set(self.source.degree, elems)
        ds, dt = self.source.degree, self.target.degree
        if self._graph_tgt is None:
            self._graph_tgt = StabilizerChain(
                ds + dt, self._graph_gens, base_prefix=range(ds, ds + dt)
            )
        gens = [Permutation(t[:ds]) for t in self._graph_tgt.gens_fixing_prefix(dt)]
        for k in sub.generators:
            lifted = self._graph_tgt.lift_points(
                {ds + j: ds + k.images[j] for j in range(dt)}, dt
            )
            gens.append(Permutation(lifted[:ds]))
        return PermGroup.from_generators(self.source.degree, gens, mode="chain")

    def compose(self, inner: GroupHom) -> GroupHom:
        """self after inner."""
        if inner.target.degree != self.source.degree:
            raise DegreeMismatchError("composition degree mismatch")
        images = tuple(self(inner(g)) for g in inner.source.generators)
        return GroupHom(inner.source, self.target, images)


def quotient(
    g: PermGroup, n: PermGroup, dense_bound: int = DEFAULT_DENSE_BOUND
) -> tuple[PermGroup, GroupHom]:
    """G/N in its regular action on right cosets, plus the projection.

    The action is by left translation, Nx -> N(gx): on right cosets of a
    normal subgroup that is a homomorphism under this composition order,
    while right translation would compose the other way around. Cosets are
    labeled 0..index-1 in lexicographic order of their least member, so the
    construction is independent of traversal order. The identity coset is
    always point 0.
    """
    if g.mode != "dense":
        raise NeedsDenseModeError("quotients enumerate cosets of the element table")
    if not n.is_normal_in(g):
        raise NotNormalError("quotient modulus must be normal")
    index = g.order // n.order
    if index > dense_bound:
        raise NeedsDenseModeError(f"quotient index {index} exceeds dense bound")
    n_elems = n.elements()
    elem_to_coset: dict[Permutation, int] = {}
    coset_mins: list[Permutation] = []
    queue = [g.identity]
    while queue:
        x = queue.pop(0)
        if x in elem_to_coset:
            continue
        coset = [m * x for m in n_elems]
        idx = len(coset_mins)
        coset_mins.append(min(coset))
        for y in coset:
            elem_to_coset[y] = idx
        for gen in g.generators:
            y = x * gen
            if y not in elem_to_coset:
                queue.append(y)
    order = sorted(range(len(coset_mins)), key=lambda i: coset_mins[i].images)
    relabel = {old: new for new, old in enumerate(order)}
    reps = [coset_mins[old] for old in order]
    gen_images = []
    for gen in g.generators:
        gen_images.append(
            Permutation([relabel[elem_to_coset[gen * reps[i]]] for i in range(index)])
        )
    q = PermGroup.from_generators(index, gen_images, mode="dense", dense_bound=dense_bound)
    if q.order != index:
        raise KernelBugError("regular coset action has the wrong order")
    proj = GroupHom(g, q, gen_images)
    return q, proj
