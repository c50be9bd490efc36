"""Normal subgroup lattices, chief series, critical pairs, central decompositions.

Inputs must be groups whose order is at most their table bound (composition
factors of p-groups excepted); past it, DenseBoundExceededError is raised.
One engine, invariant_subgroups, lists the subgroups normalized by given
elements: the normal lattice is its case of the group's own generators, and
the certifier's sweeps are its case of a normal subgroup's generators (the
normal lattice of that subgroup) or of a mark's. No function here lists all
subgroups. Subgroup lists are sorted by order and then by sorted element
list, so every search is deterministic; lattices are kept on each group's
element index.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import KernelBugError, NotNormalError
from .group import (
    PermGroup,
    center,
    centralizer,
    centralizer_of_section,
    e_p_subgroup,
    intersection,
    product_order,
    subgroup_generated,
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
    ElementIndex.orbits). Found subgroups are closed last in, first out;
    each keeps the generators of its first discovery, H's generators
    followed by the kept seeds. The search runs on g's element index, and the
    lattice is kept there under n's position set and under's positions.
    """
    index = g.element_index()
    pos = index.pos
    movers = tuple(pos[t] for t in under)
    whole = n is None or n.order == g.order
    span = None if whole else frozenset(map(pos.__getitem__, n.elements()))
    key = (span, movers)
    if key not in index.sweeps:
        orbits = index.orbits(range(len(index.elems)) if whole else sorted(span), movers)
        seeds = [orbit[0] for orbit in orbits]
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
    sorted element list; n must be a subgroup of g.

    A subgroup is normal iff n's generators normalize it, so this is the
    invariant sweep under them, on g's index; n = g (with any generators)
    is swept under g's own generators, so it shares g's lattice. Their
    orbits are the conjugacy classes, in the order of conjugacy_classes,
    and each found subgroup keeps the generators of its first discovery:
    N's generators followed by the kept class representatives and their
    conjugates.
    """
    if n is None or n.order == g.order:
        return invariant_subgroups(g, g.generators)
    return invariant_subgroups(g, n.generators, n)


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


def maximal_normal_subgroups(g: PermGroup) -> tuple[PermGroup, ...]:
    """Maximal elements among the proper normal subgroups (trivial counts when
    g is simple)."""
    if g.is_trivial():
        raise ValueError("the trivial group has no proper normal subgroup")
    proper = [n for n in normal_subgroups(g) if _proper_in(n, g)]
    return tuple(
        n
        for n in proper
        if not any(n.order < m.order and n.is_subgroup_of(m) for m in proper)
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
    all normal subgroups properly inside A; the pair exists iff B < A.
    """
    normals = normal_subgroups(g)
    out = []
    for a in normals:
        if a.is_trivial():
            continue
        inside = [n for n in normals if _proper_in(n, a) and n.is_subgroup_of(a)]
        gens = [p for n in inside for p in n.generators]
        b = subgroup_generated(g, gens)
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
    if centralizer_of_section(g, a, b) != centralizer_of_section(g, k, lsub):
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


def _abelian_split(g: PermGroup) -> Optional[list[PermGroup]]:
    if g.is_trivial():
        return None
    p = prime_power_base(g.order)
    if not p:
        # Elements of p-power order form one factor, elements of order prime
        # to p the other; both are proper and together they span g.
        p = min(q for q in range(2, g.order + 1) if g.order % q == 0)
        part = [x for x in g.elements() if _is_ppow(x.order(), p)]
        rest = [x for x in g.elements() if x.order() % p != 0]
        return [subgroup_generated(g, part), subgroup_generated(g, rest)]
    if max(x.order() for x in g.elements()) == g.order:
        return None  # cyclic of prime power order: the subgroup lattice is a chain
    # Non-cyclic abelian p-group: with x_1..x_r the least elements that span g
    # over its Frattini subgroup phi = g^p, <phi, x_1..x_(r-1)> and
    # <phi, x_2..x_r> are two distinct maximal subgroups.
    phi = e_p_subgroup(g, p)
    basis: list[Permutation] = []
    span = phi
    for x in g.sorted_elements():
        if span.contains(x):
            continue
        basis.append(x)
        span = subgroup_generated(g, [*phi.generators, *basis])
        if span.order == g.order:
            break
    w1 = subgroup_generated(g, [*phi.generators, *basis[:-1]])
    w2 = subgroup_generated(g, [*phi.generators, *basis[1:]])
    # named by the greedy generators of their element sets, however they were closed
    return [PermGroup.from_element_set(g.degree, w.elements()) for w in (w1, w2)]


def _is_ppow(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def _central_factor_scan(g: PermGroup) -> Optional[list[PermGroup]]:
    """Search (N, C_g(N)) over normal subgroups for a central decomposition.

    Complete for nonabelian g: if g = H*K with [H, K] = 1 and both proper,
    then N = C(C(H)) is normal (it is a factor in g = N * C(N), so inner
    conjugation fixes it), C(N) is proper unless N is central, and the central
    case collapses to g = K * Z(g) with K normal. Either way some normal
    subgroup passes the scan below.
    """
    for n in normal_subgroups(g):
        if n.is_trivial() or not _proper_in(n, g):
            continue
        c = centralizer(g, n)
        if _proper_in(c, g) and product_order(n, c) == g.order:
            return [n, c]
    return None


def central_decomposition(g: PermGroup) -> Optional[list[PermGroup]]:
    """Two proper subgroups that commute elementwise and generate g, or None.

    None is a definitive verdict: the searches are complete (abelian structure
    on one side, the normal-subgroup centralizer scan on the other).
    """
    found = _abelian_split(g) if g.is_abelian() else _central_factor_scan(g)
    if found is not None:
        h, k = found
        if not (_proper_in(h, g) and _proper_in(k, g)):
            raise KernelBugError("central factor is not proper")
        if product_order(h, k) != g.order or not all(
            x * y == y * x for x in h.generators for y in k.generators
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
    maximal = maximal_normal_subgroups(lsub)
    for h in normal_subgroups(g):
        if k.is_subgroup_of(h):
            continue
        for m in maximal:
            if not h.is_subgroup_of(m):
                return h, m
    raise KernelBugError("no witness pair found for a decomposable group")
