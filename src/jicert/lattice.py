"""Normal subgroup lattices, chief series, critical pairs, central decompositions.

Inputs must be dense-mode groups (composition factors of p-groups excepted).
Subgroup lists are sorted by order and then by sorted element list, so every
search is deterministic; lattices are kept on each group's element index.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Optional

from .errors import KernelBugError, NotNormalError
from .group import (
    ElementIndex,
    PermGroup,
    center,
    centralizer,
    centralizer_of_section,
    conjugacy_classes,
    e_p_subgroup,
    intersection,
    normal_closure,
    product_order,
    subgroup_generated,
)
from .hom import quotient
from .perm import Permutation
from .simples import SimpleTypeId, group_fingerprint, identify_simple_type


class CriticalPair(NamedTuple):
    """Pair of normal subgroups B < A such that every normal N < A lies in B."""

    top: PermGroup
    bottom: PermGroup


def _proper_in(n: PermGroup, g: PermGroup) -> bool:
    return n.order < g.order


def normal_subgroups(g: PermGroup) -> tuple[PermGroup, ...]:
    """All normal subgroups of g, sorted by order and then by sorted element list.

    A subgroup is normal iff it is a union of conjugacy classes, so the lattice
    is generated by closing class representatives into the subgroups already
    found: the normal closure of a found N and a representative is a new
    candidate. The search runs on g's element index: subgroups are position
    sets, each closure grows N's set by the representative and its
    conjugates, and each found subgroup keeps the generators of its first
    discovery, N's generators followed by the kept seeds. Group objects are
    built once, at the end, and the lattice is kept on the index.
    """
    classes = conjugacy_classes(g)
    index = g.element_index()
    if index.normals is None:
        reps = [index.pos[rep] for rep, _cls in classes]
        found: dict[frozenset[int], tuple[int, ...]] = {frozenset([0]): ()}
        frontier = list(found)
        while frontier:
            n = frontier.pop()
            for r in reps:
                if r in n:
                    continue
                m, kept = index.normal_closure([r], index.gens, n, found[n])
                if m not in found:
                    found[m] = kept
                    frontier.append(m)
        index.normals = index.subgroups(found)
    return index.normals


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
    qa, _ = quotient(a, b)
    qk, _ = quotient(k, lsub)
    if group_fingerprint(qa) != group_fingerprint(qk):
        raise KernelBugError("refined section is not isomorphic to the chief factor")
    if centralizer_of_section(g, a, b) != centralizer_of_section(g, k, lsub):
        raise KernelBugError("refined section has a different centralizer")
    ok, _witness = is_critical_pair(g, a, b)
    if not ok:
        raise KernelBugError("refined pair is not critical")
    return CriticalPair(a, b)


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


def _chief_factors(g: PermGroup) -> Iterator[tuple[PermGroup, PermGroup, SimpleTypeId, int]]:
    """(lo, hi, simple type, multiplicity) for each step lo < hi of
    chief_series(g), ascending; hi/lo is isomorphic to the type's power."""
    series = chief_series(g)
    for lo, hi in zip(series, series[1:]):
        q, _ = quotient(hi, lo)
        yield lo, hi, *decompose_char_simple(q)


def composition_factors(g: PermGroup) -> dict[str, int]:
    """Composition factor multiplicities, keyed by simple type name.

    Computed by refining a chief series: a chief factor isomorphic to S^k
    contributes k composition factors S. The multiset does not depend on the
    chosen series. A group of order p^k has k factors Cp and builds no lattice.
    """
    is_pp, p = _is_prime_power(g.order)
    if is_pp:
        return {SimpleTypeId.cyclic(p).name: next(k for k in range(g.order) if p**k == g.order)}
    out: dict[str, int] = {}
    for _lo, _hi, tid, k in _chief_factors(g):
        out[tid.name] = out.get(tid.name, 0) + k
    return out


# -- central decompositions --------------------------------------------------


def _is_prime_power(n: int) -> tuple[bool, int]:
    for p in range(2, n + 1):
        if p * p > n:
            return True, n
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1, p
    return False, 0


def _abelian_split(g: PermGroup) -> Optional[list[PermGroup]]:
    if g.is_trivial():
        return None
    is_pp, p = _is_prime_power(g.order)
    if not is_pp:
        # Elements of p-power order form one factor, elements of order prime
        # to p the other; both are proper and together they span g.
        p = min(q for q in range(2, g.order + 1) if g.order % q == 0)
        part = [x for x in g.elements() if _is_ppow(x.order(), p)]
        rest = [x for x in g.elements() if x.order() % p != 0]
        return [subgroup_generated(g, part), subgroup_generated(g, rest)]
    if max(x.order() for x in g.elements()) == g.order:
        return None  # cyclic of prime power order: the subgroup lattice is a chain
    # Non-cyclic abelian p-group: pull back two distinct hyperplanes of the
    # quotient by the p-th powers.
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


# -- full subgroup enumeration ------------------------------------------------


def all_subgroups(g: PermGroup, n: Optional[PermGroup] = None) -> tuple[PermGroup, ...]:
    """All subgroups of n (default g), by order, then by sorted element list.

    Cyclic extension (Holt, Eick & O'Brien, Handbook of Computational Group
    Theory, section 10.1): every subgroup arises from the trivial one by
    repeatedly adjoining an element of prime power order, so extending each
    found subgroup H by all such x outside it reaches everything. The sweep
    runs on g's element index: a subgroup is a set of positions, <H, x> is
    closed from H's set with right-multiplication rows, and sets are deduped
    before any group object is built. Only the least generator x of each
    cyclic subgroup of n is offered. Found subgroups are extended last in,
    first out, with x in sorted order, and each keeps the generators
    H.generators + (x,) of its first discovery, so the output (generator
    lists included) does not depend on how the closures are computed.

    <H, y> = <H, x> for every y in the double coset H x H, so once <H, x> is
    closed the rest of H x H is skipped: a skipped y would only close a
    subgroup already found, and the first discovery of every subgroup, with
    its generators, is the same as without the skip.

    The output, generator lists included, is that of n's sweep on its own
    index: subgroups of n are reached only from subgroups of n by elements of
    n, and positions sort the same way on both indexes. It is kept on g's
    index under n's position set. Exponential; callers gate on the order.
    """
    index = g.element_index()
    span = frozenset(map(index.pos.__getitem__, index.elems if n is None else n.elements()))
    if span not in index.sweeps:
        found: dict[frozenset[int], tuple[int, ...]] = {frozenset([0]): ()}
        frontier = list(found)
        cyclic = _cyclic_generators(index, span)
        while frontier:
            h = frontier.pop()
            gens = found[h]
            covered = set(h)
            for j in cyclic:
                if j in covered:
                    continue
                m = index.extend(h, gens, j)
                if m not in found:
                    found[m] = gens + (j,)
                    frontier.append(m)
                index.cover_double_coset(h, gens, j, covered)
        index.sweeps[span] = index.subgroups(found)
    return index.sweeps[span]


def _cyclic_generators(index: ElementIndex, span: frozenset[int]) -> list[int]:
    """The least position generating each cyclic subgroup of prime power
    order > 1 inside the subgroup at the positions span, ascending.

    <H, y> = <H, x> whenever <y> = <x>, and the least generator comes first
    in every extension loop, so offering only it changes no first discovery.
    """
    out: list[int] = []
    skip: set[int] = set()
    for j in sorted(span):
        if j in skip:
            continue
        n = index.elems[j].order()
        is_pp, p = _is_prime_power(n)
        if not is_pp:
            continue
        out.append(j)
        # x^k generates <x> exactly when p does not divide k
        row, k = index.right_row(j), 0
        for e in range(1, n):
            k = row[k]
            if e % p:
                skip.add(k)
    return out
