"""Normal subgroup lattices, chief series, critical pairs, central decompositions.

Inputs must be groups whose order is at most their table bound (composition
factors of p-groups excepted); past it, DenseBoundExceededError is raised.
One engine, invariant_subgroups, lists the subgroups normalized by given
elements: the normal lattice of a subgroup n is its case of n's generators,
the group's own among them, and the certifier's dichotomy sweep its case of a
mark's. No function here lists all subgroups. Every subgroup found on an
element index is named by its greedy generators, and subgroup lists are
sorted by order and then by sorted element list, so results rest on element
sets alone, not on search order; lattices are kept on the element index of
the group they are swept in, one per swept set and normalizing group.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import KernelBugError, NotNormalError
from .group import (
    PermGroup,
    center,
    centralizer,
    e_p_subgroup,
    commute,
    intersection,
    positions,
    product_order,
)
from .perm import Permutation
from .simples import SimpleTypeId, prime_power_base, section_type


class CriticalPair(NamedTuple):
    """Pair of normal subgroups B < A such that every normal N < A lies in B."""

    top: PermGroup
    bottom: PermGroup


def _proper_in(n: PermGroup, g: PermGroup) -> bool:
    return n.order < g.order


def invariant_subgroups(
    g: PermGroup, under: Sequence[Permutation], n: Optional[PermGroup] = None
) -> tuple[PermGroup, ...]:
    """The subgroups of n (default g) normalized by the elements under, sorted
    by order and then by sorted element list; under must normalize n.

    If H < H' are both normalized by A = <under>, then for any x in H'
    outside H the least subgroup that holds H and x and that A normalizes
    lies in H' and is larger than H, so closing each found subgroup with
    each seed reaches every such subgroup from the trivial one. That closure
    is the same for x and for any conjugate of x under A, so the seeds are
    the heads of the orbits of n's positions under conjugation by under (see
    ElementIndex.orbits). The search runs on g's element index, and each
    found subgroup is named by its greedy generators, so neither the order of
    the seeds nor the generators in under reach the result. The lattice is
    kept there under n's position set and that of the group under generates
    (None for the whole group), so equal groups share it.
    """
    index = g.element_index()
    movers = tuple(index.pos[t.images] for t in under)
    span = None if n is None else positions(g, n)
    # the index's own generators span the whole group, so their closure, a
    # transient set of the group's order, is skipped
    acting = None if movers == index.gens else index.normal_closure(movers, ())[0]
    # None stands for the whole group
    key = tuple(None if m is None or len(m) == len(index.elems) else m for m in (span, acting))
    if key not in index.sweeps:
        orbits = index.orbits(range(len(index.elems)) if key[0] is None else sorted(span), movers)
        seeds = [orbit[0] for orbit in orbits]
        # each found subgroup's generators, which Dimino's extend needs
        found: dict[frozenset[int], tuple[int, ...]] = {frozenset([0]): ()}
        frontier = list(found)
        while frontier:
            h = frontier.pop()
            for s in seeds:
                if s in h:
                    continue
                m, kept = index.normal_closure([s], movers, h, found[h])
                if m not in found:
                    found[m] = kept
                    frontier.append(m)
        index.sweeps[key] = index.subgroups(found)
    return index.sweeps[key]


def normal_subgroups(g: PermGroup, n: Optional[PermGroup] = None) -> tuple[PermGroup, ...]:
    """All normal subgroups of n (default g), sorted by order and then by
    sorted element list, under their greedy generators; n must be a
    subgroup of g.

    A subgroup is normal iff n's generators normalize it, so this is the
    invariant sweep under them, on g's index. The lattice is kept under n's
    element set, so every group equal to n, g among them, shares it.
    """
    return invariant_subgroups(g, (g if n is None else n).generators, n)


def minimal_normal_subgroups(g: PermGroup) -> tuple[PermGroup, ...]:
    """Minimal elements among the nontrivial normal subgroups (g itself counts
    when it is simple)."""
    if g.is_trivial():
        raise ValueError("the trivial group has no nontrivial normal subgroup")
    nontrivial = [n for n in normal_subgroups(g) if not n.is_trivial()]
    return tuple(
        n
        for n in nontrivial
        if not any(m.order < n.order and m.is_subgroup_of(n) for m in nontrivial)
    )


def maximal_normal_subgroups(g: PermGroup, n: Optional[PermGroup] = None) -> tuple[PermGroup, ...]:
    """Maximal elements among the proper normal subgroups of n (default g), a
    normal subgroup of g (trivial counts when n is simple). n's normal
    lattice is swept on g's index."""
    top = g if n is None else n
    if top.is_trivial():
        raise ValueError("the trivial group has no proper normal subgroup")
    proper = [m for m in normal_subgroups(g, n) if _proper_in(m, top)]
    return tuple(
        m
        for m in proper
        if not any(m.order < h.order and m.is_subgroup_of(h) for h in proper)
    )


def _covers(g: PermGroup, lo: PermGroup, hi: PermGroup) -> bool:
    """hi covers lo in the normal lattice: nothing normal strictly between."""
    return not any(
        lo.order < n.order < hi.order and lo.is_subgroup_of(n) and n.is_subgroup_of(hi)
        for n in normal_subgroups(g)
    )


def chief_factor_pairs(g: PermGroup) -> tuple[tuple[PermGroup, PermGroup], ...]:
    """All covering pairs (bottom, top) of the normal lattice of g."""
    normals = normal_subgroups(g)
    out = []
    for lo in normals:
        for hi in normals:
            if lo.order < hi.order and lo.is_subgroup_of(hi) and _covers(g, lo, hi):
                out.append((lo, hi))
    return tuple(out)


def chief_series(g: PermGroup) -> tuple[PermGroup, ...]:
    """An ascending chief series 1 = N_0 < ... < N_k = g.

    Consecutive quotients N_{i+1}/N_i are minimal normal subgroups of g/N_i,
    equivalently each step is a covering pair of the normal lattice. Each
    step is the first normal subgroup strictly above the current term in the
    sorted lattice: one strictly between them would be smaller and sort
    earlier, so the step covers the term, and the series is deterministic.
    """
    normals = normal_subgroups(g)
    series = [normals[0]]
    while series[-1].order < g.order:
        cur = series[-1]
        series.append(next(n for n in normals if cur.order < n.order and cur.is_subgroup_of(n)))
    return tuple(series)


def critical_pair_fails(
    g: PermGroup, a: PermGroup, b: PermGroup, n: Optional[PermGroup]
) -> bool:
    """Whether (a, b) is not a critical pair of g: with n None, because b is
    not a proper subgroup of a; otherwise because n is a normal subgroup of g
    properly inside a and not inside b."""
    if n is None:
        return a.order == b.order or not b.is_subgroup_of(a)
    escapes = _proper_in(n, a) and n.is_subgroup_of(a) and not n.is_subgroup_of(b)
    return escapes and n.is_normal_in(g)


def is_critical_pair(
    g: PermGroup, a: PermGroup, b: PermGroup
) -> tuple[bool, Optional[PermGroup]]:
    """Whether every normal subgroup of g properly inside a lies inside b.

    Returns (True, None) or (False, witness) with the least offending normal
    subgroup as witness. A bottom that is not a proper subgroup of the top
    is rejected: the pair carries no section.
    """
    for sub in (a, b):
        if not sub.is_normal_in(g):
            raise NotNormalError("critical pair members must be normal")
    if critical_pair_fails(g, a, b, None):
        raise ValueError("the bottom of a critical pair must lie properly inside the top")
    n = next((n for n in normal_subgroups(g) if critical_pair_fails(g, a, b, n)), None)
    return n is None, n


def critical_pairs(g: PermGroup) -> tuple[CriticalPair, ...]:
    """All critical pairs of g, ascending in the top subgroup.

    For each nontrivial normal A the only possible partner is the join B of
    all normal subgroups properly inside A; the pair exists iff B < A. B is
    closed from the union of their position sets on g's index, and named by
    its greedy generators.
    """
    index = g.element_index()
    normals = normal_subgroups(g)
    out = []
    for a in normals:
        if a.is_trivial():
            continue
        inside = [positions(g, n) for n in normals if _proper_in(n, a) and n.is_subgroup_of(a)]
        b = index.subgroup(index.normal_closure(sorted(frozenset().union(*inside)), ())[0])
        if b.order < a.order:
            out.append(CriticalPair(a, b))
    return tuple(out)


def find_critical_refinement(g: PermGroup, k: PermGroup, lsub: PermGroup) -> CriticalPair:
    """Critical pair (A, B) with A/B carrying the chief factor k/lsub.

    A is the least normal subgroup inside k not inside lsub and B = A n lsub.
    Minimality of A forces A*lsub = k, A/B isomorphic to k/lsub with the same
    section centralizer, and criticality of (A, B); all four consequences are
    re-verified on the output and a violation is reported as a kernel bug.
    Both sections are chief factors, so each is S^m for a simple S, and they
    are isomorphic when section_type gives both the same (S, m); a nonabelian
    factor beyond the shipped table raises UnknownGroupError, as in
    composition_factors.
    """
    for sub in (k, lsub):
        if not sub.is_normal_in(g):
            raise NotNormalError("chief factor members must be normal")
    if not lsub.is_subgroup_of(k) or lsub.order == k.order:
        raise ValueError("need lsub properly inside k")
    if not _covers(g, lsub, k):
        raise ValueError("k/lsub is not a chief factor: a normal subgroup lies between")
    a = next(
        n
        for n in normal_subgroups(g)
        if n.is_subgroup_of(k) and not n.is_subgroup_of(lsub)
    )
    b = intersection(a, lsub)
    if product_order(a, lsub) != k.order:
        raise KernelBugError("refinement does not generate the chief factor top")
    if section_type(a, b) != section_type(k, lsub):
        raise KernelBugError("refined section is not isomorphic to the chief factor")
    if centralizer(g, a, b) != centralizer(g, k, lsub):
        raise KernelBugError("refined section has a different centralizer")
    ok, _witness = is_critical_pair(g, a, b)
    if not ok:
        raise KernelBugError("refined pair is not critical")
    return CriticalPair(a, b)


def _chief_factors(g: PermGroup) -> Iterator[tuple[PermGroup, PermGroup, SimpleTypeId, int]]:
    """(lo, hi, simple type, multiplicity) for each step lo < hi of
    chief_series(g), ascending. hi/lo is characteristically simple, so
    section_type reads its type off its order, with no quotient."""
    series = chief_series(g)
    for lo, hi in zip(series, series[1:]):
        yield lo, hi, *section_type(hi, lo)


def composition_factors(g: PermGroup) -> dict[str, int]:
    """Composition factor multiplicities, keyed by simple type name.

    Computed by refining a chief series: a chief factor isomorphic to S^k
    contributes k composition factors S. The multiset does not depend on the
    chosen series. A group of order p^k is one section (Cp)^k for this count,
    so it builds no lattice and needs no element table.
    """
    if prime_power_base(g.order):
        tid, k = section_type(g, PermGroup.trivial(g.degree))
        return {tid.name: k}
    out: dict[str, int] = {}
    for _lo, _hi, tid, k in _chief_factors(g):
        out[tid.name] = out.get(tid.name, 0) + k
    return out


# -- central decompositions --------------------------------------------------


def _abelian_split(g: PermGroup, n: PermGroup) -> Optional[list[PermGroup]]:
    """Two proper subgroups that generate n, an abelian subgroup of g, as
    position sets on g's index under their greedy generators; None when n is
    trivial or cyclic of prime power order."""
    if n.is_trivial():
        return None
    index = g.element_index()
    span = sorted(positions(g, n))
    order = {i: Permutation._raw(index.elems[i]).order() for i in span}
    p = prime_power_base(n.order)
    if not p:
        # Elements of p-power order (dividing p^e > |n|) form one factor,
        # elements of order prime to p the other; both are proper, together
        # they span n, and each is closed, since n is abelian.
        p = min(q for q in range(2, n.order + 1) if n.order % q == 0)
        p_e = p ** n.order.bit_length()
        part = frozenset(i for i in span if p_e % order[i] == 0)
        rest = frozenset(i for i in span if order[i] % p)
        return [index.subgroup(part), index.subgroup(rest)]
    if max(order.values()) == n.order:
        return None  # cyclic of prime power order: the subgroup lattice is a chain
    # Non-cyclic abelian p-group: with x_1..x_r the least elements that span n
    # over its Frattini subgroup phi = n^p, <phi, x_1..x_(r-1)> and
    # <phi, x_2..x_r> are two distinct maximal subgroups.
    phi = e_p_subgroup(n, p)
    base = [index.pos[x.images] for x in phi.generators]
    _, kept = index.normal_closure(span, (), positions(g, phi), base)
    basis = kept[len(base):]
    halves = (basis[:-1], basis[1:])
    return [index.subgroup(index.normal_closure([*base, *w], ())[0]) for w in halves]


def _central_factor_scan(g: PermGroup, n: PermGroup) -> Optional[list[PermGroup]]:
    """A central decomposition (M, C_n(M) = C_g(M) n n) of n, M normal in n.

    Complete for nonabelian n: if n = H*K with [H, K] = 1 and both proper,
    then M = C(C(H)) is normal (it is a factor in n = M * C(M), so inner
    conjugation fixes it), C(M) is proper unless M is central, and the central
    case collapses to n = K * Z(n) with K normal. Either way some normal
    subgroup passes the scan below.
    """
    for m in normal_subgroups(g, n):
        if m.is_trivial() or not _proper_in(m, n):
            continue
        c = intersection(centralizer(g, m), n)
        if _proper_in(c, n) and product_order(m, c) == n.order:
            return [m, c]
    return None


def central_decomposition(g: PermGroup, n: Optional[PermGroup] = None) -> Optional[list[PermGroup]]:
    """Two proper subgroups that commute elementwise and generate n (default
    g), a normal subgroup of g, or None; the factors n gives as a group,
    found on g's element index.

    None is a definitive verdict: the searches are complete (abelian structure
    on one side, the normal-subgroup centralizer scan on the other).
    """
    top = g if n is None else n
    found = _abelian_split(g, top) if top.is_abelian() else _central_factor_scan(g, top)
    if found is not None:
        h, k = found
        if not (_proper_in(h, top) and _proper_in(k, top)):
            raise KernelBugError("central factor is not proper")
        if product_order(h, k) != top.order or not commute(
            [x.images for x in h.generators], [y.images for y in k.generators]
        ):
            raise KernelBugError("central factors do not decompose the group")
    return found


def centdec_witness(
    g: PermGroup, k: PermGroup, lsub: PermGroup
) -> tuple[PermGroup, PermGroup]:
    """For decomposable g: normal H and maximal normal M of lsub with
    H not inside M and k not inside H.

    k must be a non-central subgroup and lsub a nontrivial normal subgroup
    (maximal normal subgroups of the trivial group do not exist). Such a pair
    always exists for decomposable g; exhaustion is a kernel bug.
    """
    if central_decomposition(g) is None:
        raise ValueError("group is not centrally decomposable")
    if not k.is_subgroup_of(g) or k.is_subgroup_of(center(g)):
        raise ValueError("k must be a non-central subgroup")
    if not lsub.is_normal_in(g):
        raise NotNormalError("lsub must be normal")
    if lsub.is_trivial():
        raise ValueError("lsub must be nontrivial")
    maximal = maximal_normal_subgroups(g, lsub)
    for h in normal_subgroups(g):
        if k.is_subgroup_of(h):
            continue
        for m in maximal:
            if not h.is_subgroup_of(m):
                return h, m
    raise KernelBugError("no witness pair found for a decomposable group")
