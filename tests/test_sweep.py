"""The indexed subgroup sweep against the permutation-closure sweep it replaced,
and the conjugate families of the certifier against brute force."""

import random

from hypothesis import given, settings, strategies as st

import oracles
from jicert import (
    PermGroup,
    Permutation,
    cyclic,
    dihedral,
    direct_product,
    quaternion8,
    subgroup_generated,
    symmetric,
)
from jicert.certifier import _commuting_family, _conjugates
from jicert.lattice import all_subgroups

# The reference sweep takes 8.5 s on S5 and minutes on A6, so it runs on the
# corpus groups up to this order.
REFERENCE_ORDER_BOUND = 60


def reference_all_subgroups(g):
    """Cyclic extension with a fresh permutation closure per extension.

    This is the sweep as it ran before the element index: the same traversal
    (last in, first out; prime-power elements in sorted order; generators of
    the first discovery), with every <H, x> closed from the identity.
    """
    ppow = [x for x in g.sorted_elements() if oracles.is_prime_power(x.order())]
    trivial = PermGroup.trivial(g.degree)
    found = {trivial.elements(): trivial}
    frontier = [trivial]
    while frontier:
        h = frontier.pop()
        for x in ppow:
            if h.contains(x):
                continue
            m = subgroup_generated(g, h.generators + (x,))
            if m.elements() not in found:
                found[m.elements()] = m
                frontier.append(m)
    return sorted(found.values(), key=lambda s: (s.order, s.canonical_key()))


def signature(subs):
    return [(s.order, s.elements(), s.generators) for s in subs]


def tuples(g):
    return frozenset(x.images for x in g.elements())


def test_sweep_matches_reference_on_corpus(small_corpus):
    checked = 0
    for name, g in small_corpus.items():
        if g.order > REFERENCE_ORDER_BOUND:
            continue
        assert signature(all_subgroups(g)) == signature(reference_all_subgroups(g)), name
        checked += 1
    assert checked >= 25


def _relabelled_subgroup(rng):
    base = rng.choice(
        [symmetric(4), dihedral(6), quaternion8(), direct_product(cyclic(2), symmetric(3))]
    )
    n = base.degree
    sigma = Permutation(rng.sample(range(n), n))
    elems = base.sorted_elements()
    gens = [elems[rng.randrange(len(elems))] ** sigma for _ in range(rng.randint(1, 3))]
    return PermGroup.from_generators(n, gens)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_sweep_matches_reference_on_random_groups(seed):
    g = _relabelled_subgroup(random.Random(seed))
    assert signature(all_subgroups(g)) == signature(reference_all_subgroups(g))


def test_conjugates_match_brute_force(small_corpus):
    for name, g in small_corpus.items():
        if g.order > 120:
            continue
        elements = tuples(g)
        for u in all_subgroups(g):
            family = _conjugates(g, u)
            assert family[0].elements() == u.elements(), name
            got = [tuples(c) for c in family]
            assert len(set(got)) == len(got), name
            assert set(got) == oracles.conjugate_subgroups(elements, tuples(u)), name
            for c in family:
                gens = [x.images for x in c.generators]
                assert oracles.closure_gens(g.degree, gens) == tuples(c), name


def test_commuting_family_memo_matches_fresh_computation(small_corpus):
    def closure(stage, u):
        c = _commuting_family(stage, u)
        return None if c is None else tuples(c)

    for name, g in small_corpus.items():
        if g.order > REFERENCE_ORDER_BOUND:
            continue
        elements = tuples(g)
        fresh_stage = PermGroup.from_generators(g.degree, g.generators)
        for u in all_subgroups(g):
            want = None
            if oracles.has_commuting_conjugates(elements, tuples(u)):
                # the normal closure is the join of the conjugates
                want = oracles.join_sets(
                    g.degree, oracles.conjugate_subgroups(elements, tuples(u))
                )
            assert closure(g, u) == want, name
            memo = g.element_index().commuting_closures
            assert memo[u.canonical_key()] is _commuting_family(g, u), name  # a memo hit
            # a subgroup equal to u, found with other generators, shares the entry
            twin = subgroup_generated(g, reversed(u.generators))
            assert _commuting_family(g, twin) is memo[u.canonical_key()], name
            assert closure(fresh_stage, u) == want, name
