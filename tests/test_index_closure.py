"""Normal closure, commutator subgroups, conjugacy classes and the normal
lattice on the element index, against the permutation-closure versions they
replaced and against brute force, each named by the greedy generators of its
element set; the composed rows of the index against product rows; the coset
closure of ElementIndex.extend against the breadth-first closure it
replaced; and the rows the index keeps."""

import random
from pathlib import Path

from hypothesis import given, settings, strategies as st

import oracles
from full_sweep import all_subgroups, cyclic_generators
from jicert import PermGroup, alternating, is_simple, parse_system, subgroup_generated
from jicert.group import (
    _normalize_gens,
    commutator_subgroup,
    conjugacy_classes,
    normal_closure,
)
from jicert.perm import Permutation, comm
from jicert.lattice import normal_subgroups
from test_sweep import _relabelled_subgroup, greedy_name, tuples

DATA = Path(__file__).parent / "data"


def _extend_closure(have, gens, new_gen):
    """Grow a closed element set in place after appending new_gen to gens."""
    frontier = [y for y in (x * new_gen for x in list(have)) if y not in have]
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


def reference_extend(index, h, gens, j):
    """<H, elems[j]> as ElementIndex.extend closed it before: breadth-first
    from h over the right rows of gens and j."""
    new = index.right_row(j)
    rows = [index.right_row(i) for i in gens]
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


def assert_extend_matches_reference(g, rng, name=""):
    """Grow random subgroups one position at a time; on the way, extend each
    by random positions, inside it or not, and compare with the reference."""
    index = g.element_index()
    n = len(index.elems)
    for _ in range(6):
        h, gens = frozenset([0]), []
        for j in rng.sample(range(n), min(n, 3)):
            for k in rng.sample(range(n), min(n, 6)):
                got = index.extend(h, gens, k)
                assert got == reference_extend(index, h, gens, k), (name, gens, k)
            h, gens = index.extend(h, gens, j), gens + [j]


def reference_normal_closure(parent, seeds):
    """The dense normal closure as it ran before the element index: the same
    first-in, first-out queue of seeds and generator conjugates, closed with
    permutation products. Returns the element set and the kept generators."""
    have = {parent.identity}
    kept = []
    pending = list(_normalize_gens(parent.degree, seeds))
    while pending:
        s = pending.pop(0)
        if s in have:
            continue
        kept.append(s)
        _extend_closure(have, kept, s)
        pending.extend(s ** g for g in parent.generators)
    return frozenset(have), tuple(kept)


def reference_commutator_subgroup(parent, a, b):
    """[A, B] as it ran before: the reference normal closure inside a freshly
    closed envelope <A, B>."""
    envelope = subgroup_generated(parent, a.generators + b.generators)
    return reference_normal_closure(envelope, [comm(x, y) for x in a.generators for y in b.generators])


def reference_normal_subgroups(g):
    """Every normal subgroup as (element set, generators), in discovery
    order: each found subgroup closed with each class representative outside
    it, from the identity, last in, first out."""
    reps = [rep for rep, _cls in reference_conjugacy_classes(g)]
    trivial = frozenset([g.identity])
    found = {trivial: ()}
    frontier = [trivial]
    while frontier:
        n = frontier.pop()
        for rep in reps:
            if rep in n:
                continue
            m, kept = reference_normal_closure(g, found[n] + (rep,))
            if m not in found:
                found[m] = kept
                frontier.append(m)
    return sorted(found.items(), key=lambda item: (len(item[0]), sorted(item[0])))


def reference_conjugacy_classes(g):
    """Classes as (least member, element set), chased with ** on permutations."""
    remaining = set(g.elements())
    classes = []
    for x in g.sorted_elements():
        if x not in remaining:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for s in g.generators:
                z = y ** s
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        remaining -= orbit
        classes.append((min(orbit), frozenset(orbit)))
    classes.sort(key=lambda c: (len(c[1]), c[0].images))
    return classes


def assert_matches_reference(g, name=""):
    """Element sets against the references; generators against the greedy
    generators of those sets."""
    assert list(conjugacy_classes(g)) == reference_conjugacy_classes(g), name
    got = [(n.elements(), n.generators) for n in normal_subgroups(g)]
    assert got == [greedy_name(g.degree, m) for m, _kept in reference_normal_subgroups(g)], name
    for x in g.sorted_elements()[:: max(1, g.order // 12)]:
        n = normal_closure(g, [x])
        want, _kept = reference_normal_closure(g, [x])
        assert (n.elements(), n.generators) == greedy_name(g.degree, want), name
    normals = normal_subgroups(g)
    for a in normals[:4] + normals[-2:]:
        for b in (a, normals[-1]):
            c = commutator_subgroup(g, a, b)
            want, _kept = reference_commutator_subgroup(g, a, b)
            assert (c.elements(), c.generators) == greedy_name(g.degree, want), name


def tower_stages():
    for path in ("s4_s3_prefix.json", "cyclic2_tower.json"):
        prefix = parse_system((DATA / path).read_text())
        for i, g in enumerate(prefix.groups):
            yield f"{path}[{i}]", g


def test_index_paths_match_reference_on_corpus(small_corpus):
    for name, g in small_corpus.items():
        assert_matches_reference(g, name)


def test_index_paths_match_reference_on_tower_stages():
    for name, g in tower_stages():
        assert_matches_reference(g, name)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_index_paths_match_reference_on_random_groups(seed):
    assert_matches_reference(_relabelled_subgroup(random.Random(seed)))


def test_index_paths_match_oracles(small_corpus):
    for name, g in small_corpus.items():
        elements = tuples(g)
        want = oracles.conj_classes(g.degree, elements)
        assert [frozenset(x.images for x in c) for _rep, c in conjugacy_classes(g)] == want, name
        for x in g.sorted_elements()[:: max(1, g.order // 12)]:
            conjugates = {oracles.conj(x.images, t) for t in elements}
            want = oracles.closure_gens(g.degree, list(conjugates))
            assert tuples(normal_closure(g, [x])) == want, name


def test_composed_rows_equal_product_rows(small_corpus):
    for name, g in small_corpus.items():
        index = PermGroup.from_generators(g.degree, g.generators).element_index()
        elems, pos = [Permutation._raw(x) for x in index.elems], index.pos
        assert elems[0] == g.identity, name
        for j, t in enumerate(elems):
            assert index.right_row(j) == tuple(pos[(x * t).images] for x in elems), (name, j)
        for j, t in enumerate(elems):
            assert index.conj_row(j) == tuple(pos[(x ** t).images] for x in elems), (name, j)


def test_extend_matches_reference_on_corpus(small_corpus):
    rng = random.Random(7)
    for name, g in small_corpus.items():
        assert_extend_matches_reference(g, rng, name)


def test_extend_matches_reference_on_tower_stages():
    rng = random.Random(8)
    for name, g in tower_stages():
        assert_extend_matches_reference(g, rng, name)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_extend_matches_reference_on_random_groups(seed):
    rng = random.Random(seed)
    assert_extend_matches_reference(_relabelled_subgroup(rng), rng)


def test_closures_keep_no_row_per_coset_representative():
    """is_simple on A8 (order 20160) runs normal closures whose cosets are
    pushed through generator rows; a row per coset representative would
    leave thousands of 20160-entry rows behind."""
    g = alternating(8)
    assert is_simple(g)
    assert len(g.element_index()._right) <= 64


def test_subgroup_sweep_keeps_only_generator_rows(small_corpus):
    for name in ("S5", "C2xA4", "D4oC4"):
        g = small_corpus[name]
        fresh = PermGroup.from_generators(g.degree, g.generators)
        all_subgroups(fresh)
        index = fresh.element_index()
        allowed = {0, *index.gens, *cyclic_generators(index, frozenset(range(fresh.order)))}
        assert set(index._right) <= allowed, name
