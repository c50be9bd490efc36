from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import quotient_ref
from full_sweep import all_subgroups
from jicert import (
    NotNormalError,
    PermGroup,
    Permutation,
    alternating,
    central_decomposition,
    centdec_witness,
    chief_series,
    composition_factors,
    critical_pairs,
    cyclic,
    direct_product,
    find_critical_refinement,
    is_critical_pair,
    maximal_normal_subgroups,
    minimal_normal_subgroups,
    normal_subgroups,
    parse_system,
    subgroup_generated,
    symmetric,
)
from jicert.group import center, intersection, product_order
from jicert.lattice import _abelian_split, chief_factor_pairs
from jicert.simples import prime_power_base
from quotient_ref import decompose_char_simple


DATA = Path(__file__).parent / "data"


def elem_tuples(g):
    return {tuple(x) for x in g.elements()}


def canon(groups):
    return sorted(sorted(elem_tuples(h)) for h in groups)


def test_normal_subgroups_match_oracle(small_corpus):
    for name, g in small_corpus.items():
        want = sorted(sorted(n) for n in oracles.normal_subgroups(g.degree, elem_tuples(g)))
        assert canon(normal_subgroups(g)) == want, name


def test_minimal_and_maximal_normals_match_oracle(small_corpus):
    for name, g in small_corpus.items():
        if g.is_trivial():
            with pytest.raises(ValueError):
                minimal_normal_subgroups(g)
            continue
        elems = elem_tuples(g)
        want_min = sorted(sorted(n) for n in oracles.minimal_normals(g.degree, elems))
        want_max = sorted(sorted(n) for n in oracles.maximal_normals(g.degree, elems))
        assert canon(minimal_normal_subgroups(g)) == want_min, name
        assert canon(maximal_normal_subgroups(g)) == want_max, name


def test_critical_pairs_match_oracle(small_corpus):
    for name, g in small_corpus.items():
        got = sorted(
            (sorted(elem_tuples(p.top)), sorted(elem_tuples(p.bottom)))
            for p in critical_pairs(g)
        )
        want = sorted(
            (sorted(a), sorted(b))
            for a, b in oracles.critical_pairs(g.degree, elem_tuples(g))
        )
        assert got == want, name


def test_is_critical_pair_details():
    s4 = symmetric(4)
    v4 = subgroup_generated(s4, [Permutation([1, 0, 3, 2]), Permutation([2, 3, 0, 1])])
    a4 = alternating(4)
    triv = PermGroup.trivial(4)
    ok, witness = is_critical_pair(s4, v4, triv)
    assert ok and witness is None
    ok, witness = is_critical_pair(s4, a4, triv)
    assert not ok and witness == v4
    with pytest.raises(ValueError):
        is_critical_pair(s4, v4, v4)
    with pytest.raises(ValueError):
        is_critical_pair(s4, v4, a4)
    c2 = subgroup_generated(s4, [Permutation([1, 0, 2, 3])])
    with pytest.raises(NotNormalError):
        is_critical_pair(s4, c2, triv)


def test_chief_series_is_a_chief_series(small_corpus):
    for name, g in small_corpus.items():
        series = chief_series(g)
        assert series[0].is_trivial() and series[-1] == g, name
        normals = normal_subgroups(g)
        for lo, hi in zip(series, series[1:]):
            assert lo.is_subgroup_of(hi) and lo.order < hi.order, name
            between = [
                n
                for n in normals
                if lo.order < n.order < hi.order
                and lo.is_subgroup_of(n)
                and n.is_subgroup_of(hi)
            ]
            assert not between, name


def test_chief_factor_pairs_of_s4():
    pairs = chief_factor_pairs(symmetric(4))
    orders = sorted((lo.order, hi.order) for lo, hi in pairs)
    assert orders == [(1, 4), (4, 12), (12, 24)]


def test_composition_factors_match_oracle(small_corpus):
    for name, g in small_corpus.items():
        if g.is_trivial():
            assert composition_factors(g) == {}
            continue
        got = composition_factors(g)
        expanded = tuple(sorted(n for n, k in got.items() for _ in range(k)))
        want = oracles.composition_factor_names(g.degree, elem_tuples(g))
        assert expanded == want, name


def test_decompose_char_simple():
    v4 = direct_product(cyclic(2), cyclic(2))
    tid, k = decompose_char_simple(v4)
    assert (tid.name, k) == ("C2", 2)
    tid, k = decompose_char_simple(cyclic(3))
    assert (tid.name, k) == ("C3", 1)
    tid, k = decompose_char_simple(alternating(5))
    assert (tid.name, k) == ("A5", 1)
    tid, k = decompose_char_simple(direct_product(alternating(5), alternating(5)))
    assert (tid.name, k) == ("A5", 2)
    for bad in (cyclic(4), cyclic(6), symmetric(3)):
        with pytest.raises(ValueError):
            decompose_char_simple(bad)
    with pytest.raises(ValueError):
        decompose_char_simple(PermGroup.trivial(2))


def test_find_critical_refinement_properties(small_corpus):
    # the acceptance sweep covers the whole corpus; spot-check the contract here
    for name in ("S4", "C2xS3", "D4", "SL(2,3)"):
        g = small_corpus[name]
        for lo, hi in chief_factor_pairs(g):
            pair = find_critical_refinement(g, hi, lo)
            assert pair.top.is_normal_in(g) and pair.bottom.is_normal_in(g)
            assert product_order(pair.top, lo) == hi.order
            assert intersection(pair.top, lo) == pair.bottom


def test_find_critical_refinement_rejects_non_factors():
    s4 = symmetric(4)
    a4 = alternating(4)
    triv = PermGroup.trivial(4)
    with pytest.raises(ValueError):
        find_critical_refinement(s4, a4, triv)  # V4 sits strictly between
    with pytest.raises(ValueError):
        find_critical_refinement(s4, a4, a4)
    c2 = subgroup_generated(s4, [Permutation([1, 0, 2, 3])])
    with pytest.raises(NotNormalError):
        find_critical_refinement(s4, c2, triv)


def test_central_decomposition_verdicts_match_oracle(small_corpus):
    for name, g in small_corpus.items():
        if g.order > 200:
            continue
        want, _ = oracles.central_decomposition_verdict(g.degree, elem_tuples(g))
        got = central_decomposition(g)
        assert (got is not None) == want, name
        if got is not None:
            h, k = got
            assert h.order < g.order and k.order < g.order
            assert all(x * y == y * x for x in h.generators for y in k.generators)
            assert product_order(h, k) == g.order


def test_central_decomposition_known_cases(corpus):
    decomposable = {"V4", "C6", "C12", "C2^3", "C2^4", "C3^2",
                    "C2xS3", "S3xS3", "C2xA4", "C2xC2xS3", "D4oC4", "Q8oC4"}
    for name in decomposable:
        assert central_decomposition(corpus[name]) is not None, name
    for name in ("C1", "C2", "C8", "S4", "A5", "Q8", "D4", "SL(2,3)"):
        assert central_decomposition(corpus[name]) is None, name


def _split_subjects(g):
    """The non-cyclic abelian p-groups among the normal subgroups of g, with
    their primes: the groups that _abelian_split splits over Frattini."""
    for n in normal_subgroups(g):
        p = prime_power_base(n.order)
        if p and n.is_abelian() and max(x.order() for x in n.elements()) < n.order:
            yield n, p


def assert_split_matches_reference(name, g, p):
    got, want = _abelian_split(g, g), quotient_ref.abelian_split(g, p)
    assert [h.elements() for h in got] == [h.elements() for h in want], name
    assert [h.generators for h in got] == [h.generators for h in want], name


def test_abelian_split_matches_quotient_reference(small_corpus):
    checked = 0
    stages = dict(small_corpus)
    for path in ("s4_s3_prefix.json", "cyclic2_tower.json"):
        for i, g in enumerate(parse_system((DATA / path).read_text()).groups):
            stages[f"{path}[{i}]"] = g
    for name, g in stages.items():
        for n, p in _split_subjects(g):
            assert_split_matches_reference(f"{name} > {n.order}", n, p)
            checked += 1
    assert checked >= 20


def _cyclic_p_product(p, exponents):
    return reduce(direct_product, [cyclic(p**e) for e in exponents])


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from((2, 3, 5))
    .flatmap(lambda p: st.tuples(st.just(p), st.lists(st.integers(1, 3), min_size=2, max_size=4)))
    .filter(lambda pe: pe[0] ** sum(pe[1]) <= 2048)
)
def test_abelian_split_matches_quotient_reference_on_products(drawn):
    p, exponents = drawn
    assert_split_matches_reference(drawn, _cyclic_p_product(p, exponents), p)


def test_centdec_witness_contract():
    g = direct_product(cyclic(2), symmetric(3))
    z = center(g)
    k = next(h for h in all_subgroups(g) if not h.is_subgroup_of(z))
    for lsub in normal_subgroups(g):
        if lsub.is_trivial():
            continue
        h, m = centdec_witness(g, k, lsub)
        assert h.is_normal_in(g)
        assert m in maximal_normal_subgroups(lsub)
        assert not k.is_subgroup_of(h)
        assert not h.is_subgroup_of(m)


def test_centdec_witness_rejects_bad_inputs():
    g = direct_product(cyclic(2), symmetric(3))
    s4 = symmetric(4)
    z = subgroup_generated(g, [g.generators[0]])  # the central involution
    nonc = subgroup_generated(g, [g.generators[1]])
    with pytest.raises(ValueError):
        centdec_witness(s4, alternating(4), alternating(4))  # not decomposable
    with pytest.raises(ValueError):
        centdec_witness(g, z, g)  # central k
    with pytest.raises(ValueError):
        centdec_witness(g, nonc, PermGroup.trivial(g.degree))  # trivial lsub


def test_all_subgroups_match_oracle(small_corpus):
    for name, g in small_corpus.items():
        if g.order > 60:
            continue
        want = sorted(sorted(s) for s in oracles.all_subgroups(g.degree, elem_tuples(g)))
        assert canon(all_subgroups(g)) == want, name


def test_frozen_s3_wreath_s3(corpus):
    g = corpus["S3wrS3"]
    assert g.order == 1296
    assert [n.order for n in normal_subgroups(g)] == [
        1, 27, 54, 108, 216, 324, 648, 648, 648, 1296
    ]
    assert [(p.top.order, p.bottom.order) for p in critical_pairs(g)] == [
        (27, 1), (54, 27), (108, 27), (324, 108), (648, 324), (648, 324)
    ]
    assert [n.order for n in chief_series(g)] == [1, 27, 54, 216, 648, 1296]
    assert composition_factors(g) == {"C2": 4, "C3": 4}


def test_frozen_c2_wreath_s5(corpus):
    g = corpus["C2wrS5"]
    assert g.order == 3840
    assert [n.order for n in normal_subgroups(g)] == [1, 2, 16, 32, 960, 1920, 1920, 1920, 3840]
    dec = central_decomposition(g)
    assert dec is not None
    assert sorted(h.order for h in dec) == [2, 1920]
    assert composition_factors(g) == {"C2": 6, "A5": 1}
