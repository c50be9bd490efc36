"""Element tables enumerated from stabilizer chains, greedy generators
tested on a growing chain, quotients read off the coset tree and the
normal closure under a table-free parent grown in place, against the permutation-closure and
rebuild versions they replaced."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from jicert import (
    DenseBoundExceededError,
    PermGroup,
    alternating,
    build_wreath_tower,
    certify_system,
    serialize_system,
    normal_subgroups,
    subgroup_generated,
    symmetric,
    wreath_product,
)
from jicert.chain import StabilizerChain
from jicert.cli import main
from jicert.group import _normalize_gens, normal_closure
from jicert.perm import Permutation
from quotient_ref import quotient
from test_index_closure import _extend_closure, tower_stages
from test_sweep import _relabelled_subgroup


def reference_close(degree, gens):
    """The element set by breadth-first closure over permutation products,
    as dense groups were built before they were enumerated from a chain."""
    gens = _normalize_gens(degree, gens)
    idt = Permutation.identity(degree)
    elements = {idt}
    frontier = [idt]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in elements:
                    elements.add(y)
                    fresh.append(y)
        frontier = fresh
    return frozenset(elements)


def reference_generators(degree, elements):
    """The greedy generators of a closed set, with membership in the closure
    so far decided by the closed set itself."""
    gens = []
    have = {Permutation.identity(degree)}
    for x in sorted(elements):
        if len(have) == len(elements):
            break
        if x in have:
            continue
        gens.append(x)
        _extend_closure(have, gens, x)
    return tuple(gens)


def reference_chain_normal_closure(parent, seeds):
    """The table-free normal closure as it ran before: a new chain for every
    kept generator. Returns the kept generators and the order."""
    kept = []
    chain = StabilizerChain(parent.degree, ())
    pending = list(_normalize_gens(parent.degree, seeds))
    while pending:
        s = pending.pop(0)
        if chain.contains(s):
            continue
        kept.append(s)
        chain = StabilizerChain(parent.degree, kept)
        pending.extend(s ** g for g in parent.generators)
    return tuple(kept), chain.order()


def sample(g):
    return g.sorted_elements()[:: max(1, g.order // 12)]


def assert_matches_reference(g, name=""):
    rebuilt = PermGroup.from_generators(g.degree, g.generators)
    assert rebuilt.elements() == reference_close(g.degree, g.generators), name
    assert rebuilt.generators == _normalize_gens(g.degree, g.generators), name
    xs = sample(g)
    for x, y in zip(xs, xs[1:] + xs[:1]):
        sub = subgroup_generated(g, [x, y])
        assert sub.elements() == reference_close(g.degree, [x, y]), name
        assert sub.generators == _normalize_gens(g.degree, [x, y]), name
    for n in normal_subgroups(g):
        wrapped = PermGroup.from_element_set(g.degree, n.elements())
        assert wrapped.generators == reference_generators(g.degree, n.elements()), name
        q, proj = quotient(g, n)
        assert q.order == g.order // n.order, name
        assert q.generators == _normalize_gens(q.degree, proj.generator_images), name
        assert q.elements() == reference_close(q.degree, proj.generator_images), name


def test_dense_groups_match_closure_on_corpus(small_corpus):
    for name, g in small_corpus.items():
        assert_matches_reference(g, name)


def test_dense_groups_match_closure_on_tower_stages():
    for name, g in tower_stages():
        assert_matches_reference(g, name)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_dense_groups_match_closure_on_random_groups(seed):
    assert_matches_reference(_relabelled_subgroup(random.Random(seed)))


def test_chain_elements_are_each_element_once(small_corpus):
    for name, g in small_corpus.items():
        for prefix in ((), tuple(range(g.degree - 1, -1, -1))):
            elements = StabilizerChain(g.degree, g.generators, base_prefix=prefix).elements()
            assert len(elements) == g.order, name
            assert {Permutation(t) for t in elements} == g.elements(), name


def test_chain_add_grows_the_chain_built_at_once(small_corpus):
    for name, g in small_corpus.items():
        grown = StabilizerChain(g.degree, ())
        for x in g.generators:
            grown.add(x)
        whole = StabilizerChain(g.degree, g.generators)
        assert grown.base() == whole.base(), name
        assert [sorted(lv.tr) for lv in grown.levels] == [sorted(lv.tr) for lv in whole.levels], name


def test_chain_normal_closure_matches_rebuild(small_corpus):
    for name, g in small_corpus.items():
        chain_g = PermGroup.from_generators(g.degree, g.generators, dense_bound=0)
        for x in sample(g):
            n = normal_closure(chain_g, [x])
            with pytest.raises(DenseBoundExceededError):
                n.elements()
            assert (n.generators, n.order) == reference_chain_normal_closure(chain_g, [x]), name
            assert n.order == normal_closure(g, [x]).order, name


def test_dense_bound_is_checked_on_the_order():
    s4 = symmetric(4)
    assert len(PermGroup.from_generators(4, s4.generators, dense_bound=24).elements()) == 24
    with pytest.raises(DenseBoundExceededError) as exc:
        PermGroup.from_generators(4, s4.generators, dense_bound=23).elements()
    assert str(exc.value) == "group order 24 exceeds dense bound 23"


def test_dense_bound_refused_before_enumeration(monkeypatch):
    a5 = alternating(5)
    w = wreath_product(a5, a5)

    def no_enumeration(self):
        raise AssertionError("elements enumerated past the dense bound")

    monkeypatch.setattr(StabilizerChain, "elements", no_enumeration)
    with pytest.raises(DenseBoundExceededError) as exc:
        PermGroup.from_generators(w.degree, w.generators).elements()
    assert str(exc.value) == "group order 46656000000 exceeds dense bound 2000000"


def test_build_and_plain_check_list_no_elements(monkeypatch, tmp_path, capsys):
    """A group is its chain until something reads its elements: building a
    tower and a plain check of it enumerate no element table, even where the
    stages fit under the dense bound."""

    def no_enumeration(self):
        raise AssertionError("an element table was built")

    monkeypatch.setattr(StabilizerChain, "elements", no_enumeration)
    prefix = build_wreath_tower([("C3", 3)], 3)
    assert [g.order for g in prefix.groups] == [3, 3**4, 3**13]
    assert len(certify_system(prefix).stages) == 3
    path = tmp_path / "c2_tower.json"
    path.write_text(serialize_system(build_wreath_tower([("C2", 2)], 4)))
    assert main(["check", str(path)]) == 0
    capsys.readouterr()
