import pytest

import oracles
from jicert import (
    DegreeMismatchError,
    DenseBoundExceededError,
    MembershipError,
    PermGroup,
    Permutation,
    alternating,
    center,
    centralizer,
    commutator_subgroup,
    cyclic,
    derived_subgroup,
    dihedral,
    direct_product,
    e_p_subgroup,
    intersection,
    is_nilpotent,
    join,
    normal_closure,
    subgroup_generated,
    symmetric,
    wreath_product,
)
from jicert.group import conjugacy_classes, lower_central_series, product_order


def elem_tuples(g):
    return {tuple(x) for x in g.elements()}


def test_from_generators_dense():
    g = PermGroup.from_generators(4, [Permutation([1, 2, 3, 0])])
    assert g.order == 4
    assert elem_tuples(g) == oracles.closure_gens(4, [(1, 2, 3, 0)])


def test_from_generators_normalizes():
    e = Permutation.identity(3)
    x = Permutation([1, 2, 0])
    g = PermGroup.from_generators(3, [e, x, x])
    assert g.generators == (x,)


def test_dense_bound_trips():
    gens = [Permutation([1, 2, 3, 4, 0]), Permutation([1, 0, 2, 3, 4])]
    with pytest.raises(DenseBoundExceededError):
        PermGroup.from_generators(5, gens, dense_bound=50).elements()


def test_auto_mode_picks_chain_above_bound():
    gens = [Permutation([1, 2, 3, 4, 0]), Permutation([1, 0, 2, 3, 4])]
    g = PermGroup.from_generators(5, gens, dense_bound=50)
    with pytest.raises(DenseBoundExceededError):
        g.elements()
    assert g.order == 120
    small = PermGroup.from_generators(5, gens[:1], dense_bound=50)
    assert len(small.elements()) == 5


def test_chain_mode_membership():
    g = symmetric(5)
    h = PermGroup.from_generators(5, g.generators, dense_bound=0)
    assert h.order == 120
    assert h.contains(Permutation([4, 3, 2, 1, 0]))
    with pytest.raises(DegreeMismatchError):
        h.contains(Permutation([0, 1, 2]))
    # a group past its bound refuses to list its elements rather than enumerate
    with pytest.raises(DenseBoundExceededError):
        h.elements()
    assert h.is_abelian() is False


def test_trivial_group():
    t = PermGroup.trivial(4)
    assert t.order == 1
    assert t.is_trivial()
    assert t.generators == ()


def test_equality_and_hash_by_element_set():
    a = PermGroup.from_generators(3, [Permutation([1, 2, 0])])
    b = subgroup_generated(symmetric(3), [Permutation([2, 0, 1])])
    assert a == b
    with pytest.raises(TypeError):  # equal groups may differ in generators
        hash(a)


def test_subgroup_generated_checks_membership():
    g = alternating(4)
    with pytest.raises(MembershipError):
        subgroup_generated(g, [Permutation([1, 0, 2, 3])])


def test_is_normal_in(small_corpus):
    for name, g in small_corpus.items():
        if g.order > 60:
            continue
        normals = oracles.normal_subgroups(g.degree, elem_tuples(g))
        for sub in oracles.all_subgroups(g.degree, elem_tuples(g)):
            h = PermGroup.from_element_set(g.degree, frozenset(map(Permutation, sub)))
            assert h.is_normal_in(g) == (sub in normals), name


def test_normal_closure():
    g = symmetric(4)
    swap = Permutation([1, 0, 2, 3])
    n = normal_closure(g, [swap])
    assert n == g  # transpositions generate S4
    three = normal_closure(g, [Permutation([1, 2, 0, 3])])
    assert three.order == 12
    with pytest.raises(MembershipError):
        normal_closure(alternating(4), [swap])


def test_normal_closure_chain_mode():
    g = PermGroup.from_generators(5, symmetric(5).generators, dense_bound=0)
    n = normal_closure(g, [Permutation([1, 2, 0, 3, 4])])
    with pytest.raises(DenseBoundExceededError):
        n.elements()
    assert n.order == 60


def test_join_and_intersection():
    g = symmetric(4)
    a = subgroup_generated(g, [Permutation([1, 0, 2, 3])])
    b = subgroup_generated(g, [Permutation([0, 1, 3, 2])])
    j = join(g, a, b)
    assert j.order == 4
    assert intersection(a, b).is_trivial()
    assert product_order(a, b) == 4
    assert intersection(j, a) == a


def test_commutator_and_derived():
    s4 = symmetric(4)
    assert derived_subgroup(s4) == alternating(4)
    assert derived_subgroup(alternating(4)).order == 4
    a = alternating(4)
    v = derived_subgroup(a)
    assert commutator_subgroup(s4, a, v).order == 4
    assert elem_tuples(derived_subgroup(s4)) == oracles.commutator_set(
        4, elem_tuples(s4), elem_tuples(s4)
    )


def test_center_matches_oracle(small_corpus):
    for name, g in small_corpus.items():
        assert elem_tuples(center(g)) == oracles.center_set(g.degree, elem_tuples(g)), name


def test_centralizer():
    g = symmetric(4)
    x = Permutation([1, 0, 3, 2])
    c = centralizer(g, subgroup_generated(g, [x]))
    assert elem_tuples(c) == oracles.centralizer_of_element(elem_tuples(g), tuple(x))
    assert centralizer(g, g) == center(g)


def test_centralizer_matches_oracle(small_corpus):
    """C(A) for every normal and every cyclic subgroup A, against the
    commutator test over all of A."""
    for name, g in small_corpus.items():
        elems = elem_tuples(g)
        trivial = {oracles.identity(g.degree)}
        cyclic_sets = {frozenset(subgroup_generated(g, [x]).elements()) for x in g.elements()}
        subs = [frozenset(map(Permutation, n)) for n in oracles.normal_subgroups(g.degree, elems)]
        for a_set in subs + sorted(cyclic_sets, key=sorted):
            a = PermGroup.from_element_set(g.degree, a_set)
            want = oracles.section_centralizer(g.degree, elems, {tuple(x) for x in a_set}, trivial)
            assert elem_tuples(centralizer(g, a)) == want, name


def test_centralizer_needs_a_subgroup_of_the_parent():
    s3 = PermGroup.from_generators(4, [Permutation([1, 2, 0, 3]), Permutation([1, 0, 2, 3])])
    s4 = symmetric(4)
    with pytest.raises(MembershipError):
        centralizer(s3, s4)
    with pytest.raises(MembershipError):
        centralizer(s3, s4, PermGroup.trivial(4))
    v4 = subgroup_generated(s4, [Permutation([1, 0, 3, 2]), Permutation([2, 3, 0, 1])])
    with pytest.raises(MembershipError):
        centralizer(s4, v4, alternating(4))  # B must lie in A


def test_centralizer_of_section(small_corpus):
    for name, g in small_corpus.items():
        if g.order > 60:
            continue
        elems = elem_tuples(g)
        normals = oracles.normal_subgroups(g.degree, elems)
        for a_set in normals:
            for b_set in normals:
                if not b_set < a_set:
                    continue
                a = PermGroup.from_element_set(g.degree, frozenset(map(Permutation, a_set)))
                b = PermGroup.from_element_set(g.degree, frozenset(map(Permutation, b_set)))
                got = elem_tuples(centralizer(g, a, b))
                want = oracles.section_centralizer(g.degree, elems, a_set, b_set)
                assert got == want, name


def test_lower_central_series_and_nilpotence(small_corpus):
    d4 = dihedral(4)
    series = lower_central_series(d4)
    assert [h.order for h in series] == [8, 2, 1]
    for name, g in small_corpus.items():
        assert is_nilpotent(g) == oracles.is_nilpotent_set(g.degree, elem_tuples(g)), name


def test_e_p_subgroup(small_corpus):
    for name, g in small_corpus.items():
        if g.order > 120:
            continue
        for p in (2, 3, 5):
            got = elem_tuples(e_p_subgroup(g, p))
            want = oracles.e_p_set(g.degree, elem_tuples(g), p)
            assert got == want, (name, p)
    with pytest.raises(ValueError):
        e_p_subgroup(symmetric(3), 4)


def test_conjugacy_classes(small_corpus):
    for name, g in small_corpus.items():
        if g.order > 400:
            continue
        got = conjugacy_classes(g)
        want = oracles.conj_classes(g.degree, elem_tuples(g))
        got_sets = sorted(sorted(map(tuple, cls)) for _, cls in got)
        assert got_sets == sorted(sorted(cls) for cls in want), name
        for rep, cls in got:
            assert rep == min(cls)


def test_direct_product_order_and_structure():
    g = direct_product(symmetric(3), cyclic(4))
    assert g.order == 24
    assert g.degree == 7
    assert center(g).order == 4


def test_wreath_product_small():
    g = wreath_product(cyclic(2), symmetric(3))
    assert g.order == 48
    assert g.degree == 6
    assert elem_tuples(derived_subgroup(g)) <= elem_tuples(g)


def test_wreath_product_auto_chain():
    g = wreath_product(alternating(5), alternating(5))
    with pytest.raises(DenseBoundExceededError):
        g.elements()
    assert g.order == 60**5 * 60
