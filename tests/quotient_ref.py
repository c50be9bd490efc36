"""The regular-representation quotient: the reference for the section checks.

jicert names each chief factor by its order (jicert.simples.section_type),
splits abelian groups over their Frattini subgroup and glues central products
on the cosets of the glued involution, so it builds no quotient group. This
module keeps the quotient path those replaced, so the tests can check each
of them against it: G/N in its regular action on cosets, the element order
fingerprint that compared two such quotients, the decomposition of a
characteristically simple group through a minimal normal subgroup, and the
abelian split and central product built on quotients.

The regular action stores |G/N|^2 points, so these are for small tests only.
"""

import math
from collections import deque

from jicert.errors import DenseBoundExceededError, KernelBugError, NotNormalError
from jicert.group import (
    DEFAULT_DENSE_BOUND,
    PermGroup,
    _normalize_gens,
    direct_product,
    e_p_subgroup,
    subgroup_generated,
)
from jicert.hom import GroupHom
from jicert.lattice import minimal_normal_subgroups
from jicert.library import _least_central_involution
from jicert.perm import Permutation
from jicert.simples import SimpleTypeId, identify_simple_type


def quotient(g: PermGroup, n: PermGroup) -> tuple[PermGroup, GroupHom]:
    """G/N in its regular action on right cosets, plus the projection.

    The action is by left translation, Nx -> N(gx): on right cosets of a
    normal subgroup that is a homomorphism under this composition order,
    while right translation would compose the other way around. Cosets are
    labeled 0..index-1 in lexicographic order of their least member, so the
    construction is independent of traversal order. The identity coset is
    always point 0.

    The breadth-first search over cosets records which coset and generator
    first reached each coset. Each element of G/N, the image of a coset's
    representative x * gen, is then read off that tree with one product,
    lam(x * gen) = lam(x) * lam(gen), so the regular action is never closed.
    """
    if not g.may_hold_table:
        raise DenseBoundExceededError(g.order, g.bound)
    if not n.is_normal_in(g):
        raise NotNormalError("quotient modulus must be normal")
    index = g.order // n.order
    if index > DEFAULT_DENSE_BOUND:
        raise DenseBoundExceededError(index, DEFAULT_DENSE_BOUND)
    n_elems = n.elements()
    elem_to_coset: dict[Permutation, int] = {}
    coset_mins: list[Permutation] = []
    # coset c was first reached from its representative x as x * generators[via[c]],
    # where x represents coset up[c]
    up: list[int] = []
    via: list[int] = []
    queue = deque([(g.identity, -1, -1)])
    while queue:
        x, parent, step = queue.popleft()
        if x in elem_to_coset:
            continue
        coset = [m * x for m in n_elems]
        idx = len(coset_mins)
        coset_mins.append(min(coset))
        up.append(parent)
        via.append(step)
        for y in coset:
            elem_to_coset[y] = idx
        for k, gen in enumerate(g.generators):
            y = x * gen
            if y not in elem_to_coset:
                queue.append((y, idx, k))
    order = sorted(range(len(coset_mins)), key=lambda i: coset_mins[i].images)
    relabel = {old: new for new, old in enumerate(order)}
    reps = [coset_mins[old] for old in order]
    gen_images = []
    for gen in g.generators:
        gen_images.append(
            Permutation._raw(tuple(relabel[elem_to_coset[gen * reps[i]]] for i in range(index)))
        )
    lam = [Permutation.identity(index)]
    for c in range(1, len(up)):
        lam.append(lam[up[c]] * gen_images[via[c]])
    q = PermGroup(
        degree=index, bound=index, gens=_normalize_gens(index, gen_images), elements=frozenset(lam)
    )
    if q.order != index:
        raise KernelBugError("regular coset action has the wrong order")
    proj = GroupHom(g, q, gen_images)
    return q, proj


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


def decompose_char_simple(q: PermGroup) -> tuple[SimpleTypeId, int]:
    """Write a characteristically simple group as (simple type, multiplicity).

    Abelian inputs must be elementary abelian; nonabelian inputs must be a
    direct power of a simple group, whose isomorphism type is read off any
    minimal normal subgroup. Anything else raises ValueError, which signals
    that the input was not a chief factor.
    """
    if q.is_trivial():
        raise ValueError("the trivial group is not characteristically simple")
    if q.is_abelian():
        p = min(x.order() for x in q.elements() if not x.is_identity())
        k = round(math.log(q.order, p))
        if p**k != q.order or any(x.order() not in (1, p) for x in q.elements()):
            raise ValueError("abelian input is not elementary abelian")
        return SimpleTypeId.cyclic(p), k
    s = minimal_normal_subgroups(q)[0]
    tid = identify_simple_type(s)
    k = round(math.log(q.order, s.order))
    if s.order**k != q.order:
        raise ValueError("input is not a direct power of a simple group")
    return tid, k


def abelian_split(g: PermGroup, p: int) -> list[PermGroup]:
    """The two hyperplane preimages that jicert.lattice._abelian_split gives a
    non-cyclic abelian p-group g, pulled back from g/Φ(g) in its regular
    action: the least elements of g/Φ(g) that span it, all but the last and
    all but the first."""
    ep = e_p_subgroup(g, p)
    q, proj = quotient(g, ep)
    basis: list[Permutation] = []
    span = PermGroup.trivial(q.degree)
    for x in q.sorted_elements():
        if span.contains(x):
            continue
        basis.append(x)
        span = subgroup_generated(q, basis)
        if span.order == q.order:
            break
    w1 = subgroup_generated(q, basis[:-1])
    w2 = subgroup_generated(q, basis[1:])
    return [proj.preimage(w1), proj.preimage(w2)]


def central_product(a: PermGroup, b: PermGroup) -> PermGroup:
    """jicert.library.central_product, as the regular action of the quotient
    of A x B by the glued involutions."""
    za = _least_central_involution(a)
    zb = _least_central_involution(b)
    prod = direct_product(a, b)
    glued = Permutation(tuple(za.images) + tuple(a.degree + i for i in zb.images))
    diag = PermGroup.from_generators(prod.degree, [glued])
    q, _ = quotient(prod, diag)
    return q
