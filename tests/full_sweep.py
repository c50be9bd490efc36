"""The full subgroup sweep: the reference for the invariant sweeps.

jicert sweeps only the subgroups that a witness can be (the subgroups
normalized by given elements, jicert.lattice.invariant_subgroups). This
module lists every subgroup, so the tests can check each invariant sweep and
each stage check against the search it replaced.

Cyclic extension (Holt, Eick & O'Brien, Handbook of Computational Group
Theory, section 10.1): every subgroup arises from the trivial one by
repeatedly adjoining an element of prime power order, so extending each found
subgroup H by all such x outside it reaches everything.
"""

from operator import itemgetter

from jicert.group import ElementIndex, PermGroup, _push_cosets, positions
from jicert.perm import Permutation
from jicert.simples import prime_power_base


def all_subgroups(g: PermGroup, n: PermGroup | None = None) -> tuple[PermGroup, ...]:
    """All subgroups of n (default g), by order, then by sorted element list.

    The sweep runs on g's element index: a subgroup is a set of positions,
    <H, x> is closed from H's set with right-multiplication rows, and sets
    are deduped before any group object is built. Only the least generator x
    of each cyclic subgroup of n is offered. Found subgroups are extended
    last in, first out, with x in sorted order, and each is named by the
    greedy generators of its element set, so the output does not depend on
    the order of the search.

    <H, y> = <H, x> for every y in the double coset H x H, so once <H, x> is
    closed the rest of H x H is skipped: a skipped y would only close a
    subgroup already found.

    The output, generator lists included, is that of n's sweep on its own
    index: subgroups of n are reached only from subgroups of n by elements of
    n, and positions sort the same way on both indexes. Exponential, and
    nothing is kept: each call sweeps again.
    """
    index = g.element_index()
    span = frozenset(range(len(index.elems))) if n is None else positions(g, n)
    found: dict[frozenset[int], tuple[int, ...]] = {frozenset([0]): ()}
    frontier = list(found)
    cyclic = cyclic_generators(index, span)
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
            cover_double_coset(index, h, gens, j, covered)
    return index.subgroups(found)


def cyclic_generators(index: ElementIndex, span: frozenset[int]) -> list[int]:
    """The least position generating each cyclic subgroup of prime power
    order > 1 inside the subgroup at the positions span, ascending.

    <H, y> = <H, x> whenever <y> = <x>, so offering only the least generator
    finds the same subgroups.
    """
    out: list[int] = []
    skip: set[int] = set()
    for j in sorted(span):
        if j in skip:
            continue
        n = Permutation._raw(index.elems[j]).order()
        p = prime_power_base(n)
        if not p:
            continue
        out.append(j)
        # x^k generates <x> exactly when p does not divide k
        row, k = index.right_row(j), 0
        for e in range(1, n):
            k = row[k]
            if e % p:
                skip.add(k)
    return out


def cover_double_coset(
    index: ElementIndex, h: frozenset[int], gens, j: int, covered: set[int]
) -> None:
    """Add the positions of H * elems[j] * H to covered, where h holds the
    positions of H = <gens> and covered is a union of right cosets of H.

    The right cosets of H that the rows of gens reach from H * elems[j],
    which is h pushed through j's right row. Only the rows of j and of H's
    generators are used.
    """
    start = itemgetter(0, *h)(index.right_row(j))
    covered.update(start)
    _push_cosets(start, [index.right_row(i) for i in gens], covered)
