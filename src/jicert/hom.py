"""Homomorphisms between permutation groups; kernels and preimages.

Every map is validated by its graph group: the subgroup of Sym(source points +
shifted target points) generated by the paired permutations (g, phi(g)). The
map is well defined exactly when no nontrivial element of the graph group
fixes every source point. A new chain level's base point is the least point
its first generator moves, so on the graph group's chain that holds exactly
when every base point is a source point; otherwise the first generator of the
first level with a target base point is the witness. Cut down to the source
points, the chain of a well-defined map is the chain that
PermGroup.from_generators builds for the source, so a stage group can be read
off its map's chain. The chain doubles as the evaluator: lift a source
element through the base points, read the target half.

A second chain with the target points forced first, built on first use,
yields preimages, and its tail below the target points, cut down to the
source points, is the kernel's chain. The kernel order is checked against
|image| * |kernel| = |source|.

Kernels and preimages reach report witnesses through their generator lists.
Under a source that may hold an element table they are named by the greedy
generators of their element sets (PermGroup.from_element_set), so the bytes do
not depend on the chain; under any other source they keep the chain's
generators.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .chain import StabilizerChain
from .errors import (
    DegreeMismatchError,
    HomomorphismError,
    KernelBugError,
    MembershipError,
)
from .group import PermGroup, subgroup_generated
from .perm import Permutation


def _graph_gens(
    source_degree: int, source_gens: Sequence[Permutation], images: Sequence[Permutation]
) -> list[tuple]:
    return [
        tuple(g.images) + tuple(source_degree + j for j in fg.images)
        for g, fg in zip(source_gens, images)
    ]


def graph_chain(
    source_degree: int,
    source_gens: Sequence[Permutation],
    target: PermGroup,
    images: Sequence[Permutation],
) -> StabilizerChain:
    """The graph-group chain of the map sending source_gens to images.

    Raises HomomorphismError if the images do not lie in target or define no
    homomorphism from the group source_gens generate.
    """
    if len(images) != len(source_gens):
        raise HomomorphismError(f"{len(images)} images for {len(source_gens)} generators")
    for im in images:
        if im.degree != target.degree:
            raise DegreeMismatchError("image degree differs from target degree")
        if not target.contains(im):
            raise HomomorphismError(f"image {im!r} is outside the target group")
    ds = source_degree
    chain = StabilizerChain(ds + target.degree, _graph_gens(ds, source_gens, images))
    for k, point in enumerate(chain.base()):
        if point >= ds:
            # the level's first generator moves no point below its base
            t = chain.gens_fixing_prefix(k)[0]
            witness = Permutation._raw(tuple(x - ds for x in t[ds:]))
            raise HomomorphismError(
                f"generator images satisfy no homomorphism; "
                f"a trivial source relation maps to {witness!r}"
            )
    return chain


class GroupHom:
    """A verified homomorphism given by images of the source generators."""

    __slots__ = ("source", "target", "generator_images", "_graph", "_graph_tgt", "_image")

    def __init__(
        self,
        source: PermGroup,
        target: PermGroup,
        generator_images: Sequence[Permutation],
        graph: Optional[StabilizerChain] = None,
    ):
        """graph, if given, is graph_chain(source.degree, source.generators,
        target, generator_images)."""
        images = tuple(generator_images)
        if graph is None:
            graph = graph_chain(source.degree, source.generators, target, images)
        self.source = source
        self.target = target
        self.generator_images = images
        self._graph = graph
        self._graph_tgt = None
        self._image = None

    def _target_first(self) -> StabilizerChain:
        if self._graph_tgt is None:
            ds, dt = self.source.degree, self.target.degree
            self._graph_tgt = StabilizerChain(
                ds + dt,
                _graph_gens(ds, self.source.generators, self.generator_images),
                base_prefix=range(ds, ds + dt),
            )
        return self._graph_tgt

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x: Permutation) -> Permutation:
        ds = self.source.degree
        if x.degree != ds:
            raise MembershipError(f"degree {x.degree} argument to a map on degree {ds}")
        lifted = self._graph.lift_points(x.images, len(self._graph.levels))
        if lifted[:ds] != x.images:
            raise MembershipError(f"{x!r} is outside the source group")
        return Permutation._raw(tuple(p - ds for p in lifted[ds:]))

    def image(self, sub: PermGroup | None = None) -> PermGroup:
        """Image of sub (default: the whole source, closed once and kept) as a
        subgroup of target."""
        if sub is None:
            if self._image is None:
                self._image = subgroup_generated(self.target, self.generator_images)
            return self._image
        if not sub.is_subgroup_of(self.source):
            raise MembershipError("image argument must be a subgroup of the source")
        return subgroup_generated(self.target, tuple(self(g) for g in sub.generators))

    def is_surjective(self) -> bool:
        return self.image().order == self.target.order

    def _kernel_gens(self) -> list[Permutation]:
        ds, dt = self.source.degree, self.target.degree
        return [Permutation._raw(t[:ds]) for t in self._target_first().gens_fixing_prefix(dt)]

    def kernel(self) -> PermGroup:
        """The kernel, under the source's bound."""
        src = self.source
        ds, dt = src.degree, self.target.degree
        chain = self._target_first().cut(dt, ds)
        if src.may_hold_table:
            elements = frozenset(map(Permutation._raw, chain.elements()))
            ker = PermGroup.from_element_set(ds, elements)
        else:
            gens = tuple(self._kernel_gens())
            ker = PermGroup(degree=ds, bound=src.bound, gens=gens, chain=chain)
        if ker.order * self.image().order != src.order:
            raise KernelBugError("kernel order inconsistent with image order")
        return ker

    def preimage(self, sub: PermGroup) -> PermGroup:
        """Full preimage of sub, which must lie inside the image: by its element
        set under a source that may hold a table, else by generators alone,
        and then it may hold no table."""
        ds, dt = self.source.degree, self.target.degree
        if sub.degree != dt:
            raise DegreeMismatchError("preimage argument has the wrong degree")
        chain = self._target_first()
        gens = self._kernel_gens()
        for k in sub.generators:
            lifted = chain.lift_points({ds + j: ds + k.images[j] for j in range(dt)}, dt)
            gens.append(Permutation._raw(lifted[:ds]))
        if self.source.may_hold_table:
            pre = subgroup_generated(self.source, gens)
            return PermGroup.from_element_set(ds, pre.elements())
        return PermGroup.from_generators(ds, gens, dense_bound=0)
