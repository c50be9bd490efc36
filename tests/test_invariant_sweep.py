"""The invariant sweeps of jicert.lattice against the full subgroup sweep.

invariant_subgroups against the full sweep of tests/full_sweep.py filtered
down to the invariant subgroups, and against brute force; wilson_ii,
commuting_conjugates and the dichotomy against the same searches run over
the full sweep, with every normal subgroup as the kernel and as the mark;
normal_subgroups against the class-representative search it replaced,
generator lists included; and the work an all-flag check does.
"""

import random

from hypothesis import given, settings, strategies as st

import oracles
from full_sweep import all_subgroups
from jicert import (
    CertifyOptions,
    PermGroup,
    Permutation,
    build_wreath_tower,
    certify_system,
    derive_critical_marks,
    revalidate_witness,
    subgroup_generated,
)
from jicert.certifier import (
    CHECK_COMMUTING_CONJUGATES,
    CHECK_DICHOTOMY,
    CHECK_WILSON_II,
    FAIL,
    PASS,
    _centralizer_product,
    _commuting_conjugates_fails,
    _dichotomy_fails,
    _wilson_ii_fails,
    check_commuting_conjugates_stage,
    check_strengthened_stage,
    check_wilson_stage,
)
from jicert.classdata import SchurTable, class_from_names
from jicert.group import ElementIndex
from jicert.lattice import invariant_subgroups, maximal_normal_subgroups, normal_subgroups
from test_index_closure import reference_conjugacy_classes, tower_stages as data_tower_stages
from test_sweep import _certify_sweep_stage, _relabelled_subgroup, signature, tuples

# The full sweep runs on groups up to this order, and brute force (5 s on
# S5) up to the second.
SWEEP_ORDER_BOUND = 120
BRUTE_ORDER_BOUND = 60


def tower_stages():
    yield from data_tower_stages()
    yield "certify-sweep[1]", _certify_sweep_stage()
    for i, g in enumerate(build_wreath_tower([("C2", 2)], 3).groups):
        yield f"C2:2 depth 3[{i}]", g


def normalized_by(h, under):
    return all(h.contains(x ** t) for t in under for x in h.generators)


def element_sets(subs):
    return [s.elements() for s in subs]


def assert_sweeps_match(g, name):
    """For each normal n: the normal lattice of n, and the subgroups of g
    that n normalizes, against the filtered full sweeps; the lattice of n
    against n's own normal lattice, generator lists included, and against
    brute force up to order BRUTE_ORDER_BOUND."""
    full = all_subgroups(g)
    brute = oracles.all_subgroups(g.degree, tuples(g)) if g.order <= BRUTE_ORDER_BOUND else None
    for n in normal_subgroups(g):
        got = normal_subgroups(g, n)
        want = [u for u in all_subgroups(g, n) if normalized_by(u, n.generators)]
        assert element_sets(got) == element_sets(want), (name, n.order)
        own = normal_subgroups(PermGroup.from_generators(n.degree, n.generators))
        swept = invariant_subgroups(g, n.generators, n)
        assert signature(swept) == signature(own), (name, n.order)
        if brute is not None:
            inside = [s for s in brute if s <= tuples(n)]
            want = {s for s in inside if oracles.is_normal_set(tuples(n), s)}
            assert {tuples(u) for u in got} == want, (name, n.order)

        got = invariant_subgroups(g, n.generators)
        want = [h for h in full if normalized_by(h, n.generators)]
        assert element_sets(got) == element_sets(want), (name, n.order)
        for h in got:
            assert subgroup_generated(g, h.generators) == h, (name, n.order)


def test_invariant_sweeps_match_full_sweep_on_corpus(small_corpus):
    for name, g in small_corpus.items():
        if g.order <= SWEEP_ORDER_BOUND:
            assert_sweeps_match(g, name)


def test_invariant_sweeps_match_full_sweep_on_towers():
    for name, g in tower_stages():
        if g.order <= SWEEP_ORDER_BOUND:
            assert_sweeps_match(g, name)


# -- the checks against their full-sweep searches ------------------------------


def full_sweep_wilson_ii(g, k, sweeps):
    above = [n for n in normal_subgroups(g) if not n.is_subgroup_of(k)]
    swept = ((n, u) for n in above for u in sweeps(n))
    return next(((n, u) for n, u in swept if _wilson_ii_fails(g, k, n, u)), None)


def full_sweep_commuting_conjugates(g, a, full):
    return next((u for u in full if _commuting_conjugates_fails(g, a, u)), None)


def full_sweep_dichotomy(g, a, pc, full):
    swept = ((h, m) for h in full for m in maximal_normal_subgroups(g, a))
    return next(((h, m) for h, m in swept if _dichotomy_fails(g, a, pc, h, m)), None)


def witness_sets(g, witness, keys):
    out = []
    for key in keys:
        gens = [Permutation(row) for row in witness[key]["generators"]]
        out.append(subgroup_generated(g, gens).elements())
    return out


def assert_same_verdict(g, check, res, hit, keys, label, **context):
    if hit is None:
        assert res.status == PASS, (label, check, res)
        return
    assert res.status == FAIL, (label, check, res)
    assert witness_sets(g, res.witness, keys) == [h.elements() for h in hit], (label, check)
    assert revalidate_witness(check, res.witness, g=g, **context), (label, check)


def assert_checks_match(g, label):
    """wilson_ii, commuting_conjugates and the dichotomy, with each normal
    subgroup x as the kernel, as the mark a, and as the image mark p, give
    the verdicts and witness element sets of the full-sweep searches, and
    every witness revalidates. Returns the number of failures seen."""
    full = all_subgroups(g)
    kept = {}

    def sweeps(n):
        if n.elements() not in kept:
            kept[n.elements()] = all_subgroups(g, n)
        return kept[n.elements()]

    bound = g.order
    trivial = PermGroup.trivial(g.degree)
    fails = 0
    for x in normal_subgroups(g):
        res = check_wilson_stage(g, x, subgroup_bound=bound).checks[CHECK_WILSON_II]
        hit = full_sweep_wilson_ii(g, x, sweeps)
        keys = ("normal_subgroup", "subgroup")
        assert_same_verdict(g, CHECK_WILSON_II, res, hit, keys, label, k=x)
        fails += res.status == FAIL

        res = check_commuting_conjugates_stage(g, x, subgroup_bound=bound)
        res = res.checks[CHECK_COMMUTING_CONJUGATES]
        hit = full_sweep_commuting_conjugates(g, x, full)
        hit = None if hit is None else (hit,)
        keys = ("subgroup",)
        assert_same_verdict(g, CHECK_COMMUTING_CONJUGATES, res, hit, keys, label, a=x)
        fails += res.status == FAIL

        if x.is_trivial():
            continue
        for p in (trivial, x):
            sv = check_strengthened_stage(g, x, trivial, p, subgroup_bound=bound)
            res = sv.checks[CHECK_DICHOTOMY]
            hit = full_sweep_dichotomy(g, x, _centralizer_product(g, p), full)
            keys = ("subgroup", "maximal_normal")
            assert_same_verdict(g, CHECK_DICHOTOMY, res, hit, keys, label, a=x, p=p)
            fails += res.status == FAIL
    return fails


def test_checks_match_full_sweep_on_corpus(small_corpus):
    groups = [(name, g) for name, g in small_corpus.items() if g.order <= SWEEP_ORDER_BOUND]
    assert sum(assert_checks_match(g, name) for name, g in groups) > 400


def test_checks_match_full_sweep_on_towers():
    groups = [(name, g) for name, g in tower_stages() if g.order <= SWEEP_ORDER_BOUND]
    assert sum(assert_checks_match(g, name) for name, g in groups) > 50


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_sweeps_and_checks_match_full_sweep_on_random_groups(seed):
    g = _relabelled_subgroup(random.Random(seed))
    assert_sweeps_match(g, seed)
    assert_checks_match(g, seed)


# -- the normal lattice, pinned ------------------------------------------------


def class_seed_lattice(g):
    """The normal lattice as normal_subgroups closed it before the invariant
    engine: the class representatives, in class order (the classes chased
    with ** on permutations), closed into each found subgroup on g's index,
    last in, first out. Returns (element set, generators) pairs, sorted by
    order and then by sorted element list."""
    index = g.element_index()
    reps = [index.pos[rep.images] for rep, _cls in reference_conjugacy_classes(g)]
    found = {frozenset([0]): ()}
    frontier = list(found)
    while frontier:
        n = frontier.pop()
        for r in reps:
            if r not in n:
                m, kept = index.normal_closure([r], index.gens, n, found[n])
                if m not in found:
                    found[m] = kept
                    frontier.append(m)
    return [(s.elements(), s.generators) for s in index.subgroups(found)]


def assert_lattice_pinned(g, name):
    fresh = PermGroup.from_generators(g.degree, g.generators)
    got = [(n.elements(), n.generators) for n in normal_subgroups(fresh)]
    assert got == class_seed_lattice(g), name


def test_normal_lattice_is_unchanged_on_corpus(corpus):
    for name, g in corpus.items():
        assert_lattice_pinned(g, name)


def test_normal_lattice_is_unchanged_on_towers():
    for name, g in tower_stages():
        assert_lattice_pinned(g, name)
    for i, g in enumerate(build_wreath_tower([("S3", 3)], 2).groups):
        assert_lattice_pinned(g, f"S3:3 depth 2[{i}]")


# -- work ----------------------------------------------------------------------


def test_marked_all_flag_wreath_check_closes_few_cosets(monkeypatch):
    """The marked all-flag check of S3:3 at depth 2 made 226k extend calls
    with the full sweep; the invariant sweeps need under 1000. A count, not
    a wall time, so the guard does not depend on the host."""
    prefix = derive_critical_marks(build_wreath_tower([("S3", 3)], 2))
    calls = []
    original = ElementIndex.extend

    def counting(self, h, gens, j):
        calls.append(j)
        return original(self, h, gens, j)

    monkeypatch.setattr(ElementIndex, "extend", counting)
    options = CertifyOptions(
        wilson=True,
        commuting_conjugates=True,
        strengthened=True,
        count_class=class_from_names(["C2", "C3"], SchurTable.load()),
    )
    certify_system(prefix, options)
    assert 0 < len(calls) < 5000
