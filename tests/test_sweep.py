"""The full subgroup sweep of full_sweep.py, the reference for the invariant
sweeps, against the sweeps it replaced (a fresh permutation closure per
extension, and the index sweep without double-coset pruning), and the
conjugate families of the certifier against brute force."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from jicert import (
    PermGroup,
    Permutation,
    build_wreath_tower,
    cyclic,
    dihedral,
    direct_product,
    parse_system,
    quaternion8,
    subgroup_generated,
    symmetric,
)
from jicert.certifier import _commuting_family, _conjugates
from jicert.group import ElementIndex, positions
from full_sweep import all_subgroups, cyclic_generators

DATA = Path(__file__).parent / "data"

# The reference sweep takes 8.5 s on S5 and minutes on A6, so it runs on the
# corpus groups up to this order.
REFERENCE_ORDER_BOUND = 60


def by_order_and_elements(groups):
    """The groups sorted by order, then by their element lists in image order."""
    return sorted(groups, key=lambda s: (s.order, sorted(x.images for x in s.elements())))


def reference_all_subgroups(g):
    """Cyclic extension with a fresh permutation closure per extension.

    This is the sweep as it ran before the element index: the same traversal
    (last in, first out; prime-power elements in sorted order), with every
    <H, x> closed from the identity. Each group keeps the generators of its
    first discovery; compare it with greedy_signature.
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
    return by_order_and_elements(found.values())


def reference_index_sweep(g):
    """Cyclic extension on g's element index, closing <H, x> for every offered
    x outside H: the sweep as it ran before double-coset pruning."""
    index = g.element_index()
    trivial = frozenset([0])
    found = {trivial: ()}
    frontier = [trivial]
    cyclic_gens = cyclic_generators(index, frozenset(range(g.order)))
    while frontier:
        h = frontier.pop()
        gens = found[h]
        for j in cyclic_gens:
            if j in h:
                continue
            m = index.extend(h, gens, j)
            if m not in found:
                found[m] = gens + (j,)
                frontier.append(m)
    return by_order_and_elements(map(index.subgroup, found))


def signature(subs):
    return [(s.order, s.elements(), s.generators) for s in subs]


def greedy_name(degree, elements):
    """An element set and the greedy generators of it, from the brute-force
    oracle on raw image tuples."""
    gens = oracles.greedy_gens(degree, frozenset(x.images for x in elements))
    return elements, tuple(map(Permutation, gens))


def greedy_signature(subs):
    """signature(subs) with each group named by the greedy generators of its
    element set, however it was found."""
    return [(s.order, *greedy_name(s.degree, s.elements())) for s in subs]


def tuples(g):
    return frozenset(x.images for x in g.elements())


def test_sweep_matches_reference_on_corpus(small_corpus):
    checked = 0
    for name, g in small_corpus.items():
        if g.order > REFERENCE_ORDER_BOUND:
            continue
        assert signature(all_subgroups(g)) == greedy_signature(reference_all_subgroups(g)), name
        checked += 1
    assert checked >= 25


def test_pruned_sweep_matches_index_sweep_on_corpus(small_corpus):
    for name, g in small_corpus.items():
        want = signature(reference_index_sweep(g))
        assert signature(all_subgroups(g)) == want, name


def _certify_sweep_prefix():
    """The certify-sweep tower: stage 1 is C2 wr S3 of order 48, marked with
    the preimage of A3."""
    prefix = build_wreath_tower([("S3", 3), ("C2", 2)], 2)
    s3 = prefix.groups[0]
    a3 = subgroup_generated(s3, [x for x in s3.generators if x.order() == 3])
    mark = prefix.homs[0].preimage(a3)
    marked = prefix.with_marks({0: s3, 1: mark}, b0=a3)
    assert (marked.groups[1].order, mark.order) == (48, 24)
    return marked


def _certify_sweep_stage():
    return _certify_sweep_prefix().groups[1]


@pytest.mark.parametrize("tower", ["s4_s3_prefix.json", "cyclic2_tower.json", "certify-sweep"])
def test_pruned_sweep_matches_index_sweep_on_towers(tower):
    if tower == "certify-sweep":
        stages = [_certify_sweep_stage()]
    else:
        stages = parse_system((DATA / tower).read_text()).groups
    for n, g in enumerate(stages):
        want = signature(reference_index_sweep(g))
        assert signature(all_subgroups(g)) == want, (tower, n)


@pytest.mark.parametrize("name,bound", [("S4", 120), ("S5", 1600)])
def test_pruned_sweep_closes_fewer_subgroups(small_corpus, monkeypatch, name, bound):
    # 392 closures on S4 and 8031 on S5 without double-coset pruning
    calls = []
    original = ElementIndex.extend

    def counting(self, h, gens, j):
        calls.append(j)
        return original(self, h, gens, j)

    monkeypatch.setattr(ElementIndex, "extend", counting)
    g = small_corpus[name]
    all_subgroups(PermGroup.from_generators(g.degree, g.generators))
    assert 0 < len(calls) <= bound, name


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
    assert signature(all_subgroups(g)) == greedy_signature(reference_all_subgroups(g))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_pruned_sweep_matches_index_sweep_on_random_groups(seed):
    g = _relabelled_subgroup(random.Random(seed))
    assert signature(all_subgroups(g)) == signature(reference_index_sweep(g))


def test_conjugates_match_brute_force(small_corpus):
    for name, g in small_corpus.items():
        if g.order > 120:
            continue
        elements = tuples(g)
        images = list(g.element_index().elems)
        for u in all_subgroups(g):
            family = list(_conjugates(g, u))
            got = [frozenset(images[i] for i in c) for c, _gens in family]
            assert tuples(u) not in got, name
            assert len(set(got)) == len(got), name
            want = oracles.conjugate_subgroups(elements, tuples(u))
            assert set(got) | {tuples(u)} == want, name
            for c, (_, gens) in zip(got, family):
                assert oracles.closure_gens(g.degree, [images[i] for i in gens]) == c, name


def _check_commuting_family(name, g):
    """_commuting_family on every subgroup of g against the all-pairs oracle,
    its memo, an equal subgroup with other generators, and a fresh stage."""

    def closure(stage, u):
        c = _commuting_family(stage, u)
        return None if c is None else tuples(c)

    elements = tuples(g)
    fresh_stage = PermGroup.from_generators(g.degree, g.generators)
    for u in all_subgroups(g):
        want = None
        if oracles.has_commuting_conjugates(elements, tuples(u)):
            # the normal closure is the join of the conjugates
            want = oracles.join_sets(g.degree, oracles.conjugate_subgroups(elements, tuples(u)))
        assert closure(g, u) == want, name
        memo = g.element_index().commuting_closures
        assert memo[positions(g, u)] is _commuting_family(g, u), name  # a memo hit
        # a subgroup equal to u, found with other generators, shares the entry
        twin = subgroup_generated(g, reversed(u.generators))
        assert _commuting_family(g, twin) is memo[positions(g, u)], name
        assert closure(fresh_stage, u) == want, name


def test_commuting_family_memo_matches_fresh_computation(small_corpus):
    for name, g in small_corpus.items():
        if g.order <= REFERENCE_ORDER_BOUND:
            _check_commuting_family(name, g)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_commuting_family_matches_oracle_on_random_groups(seed):
    _check_commuting_family(seed, _relabelled_subgroup(random.Random(seed)))


def test_commuting_walk_stops_at_the_first_non_commuting_conjugate(small_corpus, monkeypatch):
    # the conjugacy orbits of the 156 subgroups of S5 hold 1686 subgroups in all
    from jicert import certifier

    built = []
    walk = certifier._conjugates

    def counting(g, u):
        built.append(u)  # the walk starts from u's own set
        for conjugate in walk(g, u):
            built.append(conjugate)
            yield conjugate

    monkeypatch.setattr(certifier, "_conjugates", counting)
    s5 = small_corpus["S5"]
    g = PermGroup.from_generators(s5.degree, s5.generators)
    qualifying = [u for u in all_subgroups(g) if _commuting_family(g, u) is not None]
    assert qualifying == []
    assert 156 < len(built) <= 400
