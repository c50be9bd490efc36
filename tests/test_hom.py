import pytest
from hypothesis import given, settings, strategies as st

import oracles
from jicert import (
    DegreeMismatchError,
    GroupHom,
    HomomorphismError,
    MembershipError,
    NotNormalError,
    PermGroup,
    Permutation,
    alternating,
    cyclic,
    quotient,
    subgroup_generated,
    symmetric,
)


def sign_map(g):
    """g -> C2 by parity of the generators."""
    c2 = cyclic(2)
    flip = Permutation([1, 0])
    images = [
        flip if sum(len(c) - 1 for c in x.cycles()) % 2 else c2.identity
        for x in g.generators
    ]
    return GroupHom(g, c2, images)


def sign_hom(n):
    return sign_map(symmetric(n))


def test_sign_hom_basics():
    phi = sign_hom(4)
    assert phi.is_surjective()
    assert phi.kernel() == alternating(4)
    assert phi(Permutation([1, 0, 2, 3])) == Permutation([1, 0])
    assert phi(Permutation([1, 2, 0, 3])) == Permutation([0, 1])


def test_table_rejects_inconsistent_images():
    # C4 has no surjection onto C2 sending the generator to an order-1 image
    # wrong way round: send an order-2 source generator to an order-4 image
    c2 = cyclic(2)
    c4 = cyclic(4)
    with pytest.raises(HomomorphismError):
        GroupHom(c2, c4, [Permutation([1, 2, 3, 0])])


def test_image_count_must_match():
    s3 = symmetric(3)
    with pytest.raises(HomomorphismError):
        GroupHom(s3, s3, [s3.identity])


def test_images_must_lie_in_target():
    s3 = symmetric(3)
    a3 = subgroup_generated(s3, [Permutation([1, 2, 0])])
    with pytest.raises(HomomorphismError):
        GroupHom(a3, a3, [Permutation([1, 0, 2])])


def test_evaluation_outside_source():
    phi = sign_hom(3)
    with pytest.raises(MembershipError):
        phi(Permutation([1, 0, 2, 3]))


def test_multiplicativity_everywhere():
    phi = sign_hom(4)
    elems = sorted(phi.source.elements())
    for x in elems:
        for y in elems[:8]:
            assert phi(x * y) == phi(x) * phi(y)


def test_image_of_subgroup():
    phi = sign_hom(4)
    v4 = subgroup_generated(phi.source, [Permutation([1, 0, 3, 2]), Permutation([2, 3, 0, 1])])
    assert phi.image(v4).is_trivial()
    assert phi.image().order == 2
    with pytest.raises(DegreeMismatchError):
        phi.image(cyclic(2))


def test_preimage():
    phi = sign_hom(4)
    assert phi.preimage(cyclic(2)) == phi.source
    assert phi.preimage(PermGroup.trivial(2)) == alternating(4)
    with pytest.raises(DegreeMismatchError):
        phi.preimage(PermGroup.trivial(3))


def test_compose():
    s4 = symmetric(4)
    # S4 -> S3 on the three coordinate pairings, then S3 -> C2 by sign
    s3 = symmetric(3)
    onto3 = GroupHom(s4, s3, [Permutation([2, 1, 0]), Permutation([0, 2, 1])])
    sign3 = sign_hom(3)
    both = sign3.compose(onto3)
    assert both.source is s4
    assert both.kernel() == alternating(4)


def test_chain_source_hom_and_kernel():
    s5 = PermGroup.from_generators(5, symmetric(5).generators, mode="chain")
    c2 = cyclic(2)
    flip = Permutation([1, 0])
    images = [
        flip if sum(len(c) - 1 for c in g.cycles()) % 2 else c2.identity
        for g in s5.generators
    ]
    phi = GroupHom(s5, c2, images)
    assert phi.is_surjective()
    ker = phi.kernel()
    assert ker.order == 60
    assert phi(Permutation([1, 0, 2, 3, 4])) == flip


def test_chain_source_rejects_non_hom():
    a5 = PermGroup.from_generators(
        5,
        [Permutation([1, 2, 3, 4, 0]), Permutation([1, 2, 0, 3, 4])],
        mode="chain",
    )
    c2 = cyclic(2)
    # A5 is simple: no surjection onto C2
    with pytest.raises(HomomorphismError):
        GroupHom(a5, c2, [Permutation([1, 0]), Permutation([1, 0])])


def test_chain_preimage():
    s5 = PermGroup.from_generators(5, symmetric(5).generators, mode="chain")
    c2 = cyclic(2)
    flip = Permutation([1, 0])
    images = [
        flip if sum(len(c) - 1 for c in g.cycles()) % 2 else c2.identity
        for g in s5.generators
    ]
    phi = GroupHom(s5, c2, images)
    pre = phi.preimage(PermGroup.trivial(2))
    assert pre.order == 60
    assert pre.mode == "chain"


def test_quotient_regular_action():
    s4 = symmetric(4)
    v4 = subgroup_generated(s4, [Permutation([1, 0, 3, 2]), Permutation([2, 3, 0, 1])])
    q, proj = quotient(s4, v4)
    assert q.order == 6
    assert q.degree == 6
    assert proj.source is s4
    assert proj.kernel() == v4
    assert proj.is_surjective()
    # regular action: only the identity fixes a point
    assert all(x.is_identity() or all(x(i) != i for i in range(6)) for x in q.elements())


def test_quotient_requires_normal():
    s4 = symmetric(4)
    c2 = subgroup_generated(s4, [Permutation([1, 0, 2, 3])])
    with pytest.raises(NotNormalError):
        quotient(s4, c2)


def test_quotient_composition_factor_names(small_corpus):
    # quotient by a maximal normal subgroup is simple of the right order
    for name, g in small_corpus.items():
        if g.order > 120 or g.is_trivial():
            continue
        elems = {tuple(x) for x in g.elements()}
        for m_set in oracles.maximal_normals(g.degree, elems):
            m = PermGroup.from_element_set(g.degree, frozenset(map(Permutation, m_set)))
            q, _ = quotient(g, m)
            assert q.order == g.order // len(m_set), name
            assert len(oracles.normal_subgroups(q.degree, {tuple(x) for x in q.elements()})) == 2, name


def test_kernel_bug_guard_runs_clean():
    # the |ker| * |im| = |G| self-check on a chain hom must pass for a real hom
    s6 = PermGroup.from_generators(6, symmetric(6).generators, mode="chain")
    assert sign_map(s6).kernel().order == 360


def _chain_twin(dense):
    """The same map, built on a chain-mode copy of the source."""
    g = dense.source
    src = PermGroup.from_generators(g.degree, g.generators, mode="chain")
    return GroupHom(src, dense.target, [dense(x) for x in src.generators])


def test_chain_maps_match_dense_tables(small_corpus):
    # the graph-group evaluator agrees with the BFS table on every element
    for name, g in small_corpus.items():
        maps = [sign_map(g)]
        if not g.is_trivial():
            elems = {tuple(x) for x in g.elements()}
            m_set = oracles.maximal_normals(g.degree, elems)[0]
            m = PermGroup.from_element_set(g.degree, frozenset(map(Permutation, m_set)))
            maps.append(quotient(g, m)[1])
        for dense in maps:
            chain = _chain_twin(dense)
            values = {x: chain(x) for x in g.elements()}
            assert values == {x: dense(x) for x in g.elements()}, name
            if g.order <= 60:
                for x in values:
                    for y in values:
                        assert values[x * y] == values[x] * values[y], name
            assert chain.kernel() == dense.kernel(), name


_SOURCES = [symmetric(n) for n in (3, 4, 5)]
_CHAIN_SOURCES = [
    PermGroup.from_generators(g.degree, g.generators, mode="chain") for g in _SOURCES
]
_TARGETS = [cyclic(2), symmetric(3)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chain_and_dense_validation_agree(data):
    i = data.draw(st.integers(0, len(_SOURCES) - 1))
    target = data.draw(st.sampled_from(_TARGETS))
    images = [
        data.draw(st.sampled_from(target.sorted_elements()))
        for _ in _SOURCES[i].generators
    ]
    try:
        dense = GroupHom(_SOURCES[i], target, images)
    except HomomorphismError:
        with pytest.raises(HomomorphismError):
            GroupHom(_CHAIN_SOURCES[i], target, images)
        return
    chain = GroupHom(_CHAIN_SOURCES[i], target, images)
    assert all(chain(x) == dense(x) for x in _SOURCES[i].elements())
