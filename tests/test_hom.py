"""Homomorphisms, and the graph-group evaluator against the evaluation table
it replaced."""

from pathlib import Path

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
    build_wreath_tower,
    cyclic,
    parse_system,
    subgroup_generated,
    symmetric,
)
from jicert.lattice import minimal_normal_subgroups
from quotient_ref import quotient

DATA = Path(__file__).parent / "data"


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
    # a longer or shorter argument, on a dense and on a chain-mode source
    s3_chain = PermGroup.from_generators(3, symmetric(3).generators, mode="chain")
    for phi in (sign_hom(3), sign_map(s3_chain)):
        for arg in (Permutation([1, 0, 2, 3]), Permutation([1, 0])):
            with pytest.raises(MembershipError):
                phi(arg)
    a3 = subgroup_generated(symmetric(3), [Permutation([1, 2, 0])])
    with pytest.raises(MembershipError):
        sign_map(a3)(Permutation([1, 0, 2]))


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
    both = GroupHom(s4, sign3.target, [sign3(onto3(g)) for g in s4.generators])
    assert all(both(x) == sign3(onto3(x)) for x in s4.elements())
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


def reference_table(source, target, images):
    """Every value of the map, by breadth-first closure from the identity.

    This is the evaluation table dense sources were validated with before
    every map went through the graph chain: phi(x * g) = phi(x) * phi(g) is
    enforced at every entry, and a clash rejects the generator images.
    """
    table = {source.identity: target.identity}
    frontier = [source.identity]
    while frontier:
        fresh = []
        for x in frontier:
            fx = table[x]
            for g, fg in zip(source.generators, images):
                y, fy = x * g, fx * fg
                known = table.get(y)
                if known is None:
                    table[y] = fy
                    fresh.append(y)
                elif known != fy:
                    raise HomomorphismError(f"generator images are inconsistent at {y!r}")
        frontier = fresh
    return table


def reference_preimage(degree, table, sub):
    """The full preimage of sub as the table path built it."""
    return PermGroup.from_element_set(
        degree, frozenset(x for x, fx in table.items() if sub.contains(fx))
    )


def cyclic_subgroups(g):
    subs = {}
    for y in g.sorted_elements():
        c = subgroup_generated(g, [y])
        subs.setdefault(c.elements(), c)
    return list(subs.values())


def assert_matches_reference(phi, table, subs):
    """Values, kernel and the preimages of subs agree with the table.

    A dense source must also give the table's generators, which reports print;
    a chain source is compared as a group.
    """
    assert {x: phi(x) for x in table} == table
    degree, trivial = phi.source.degree, PermGroup.trivial(phi.target.degree)
    pairs = [(phi.kernel(), reference_preimage(degree, table, trivial))]
    pairs += [(phi.preimage(s), reference_preimage(degree, table, s)) for s in subs]
    for got, want in pairs:
        if phi.source.mode == "dense":
            assert got.mode == "dense"
            assert got.elements() == want.elements()
            assert got.generators == want.generators
        else:
            assert got == want


def _chain_twin(phi):
    """The same map, built on a chain-mode copy of the source."""
    g = phi.source
    src = PermGroup.from_generators(g.degree, g.generators, mode="chain")
    return GroupHom(src, phi.target, [phi(x) for x in src.generators])


def test_chain_maps_match_dense_tables(small_corpus):
    # the graph-group evaluator agrees with the BFS table on every element,
    # kernel and preimage, on dense sources and their chain-mode twins
    for name, g in small_corpus.items():
        maps = [sign_map(g)]
        if not g.is_trivial():
            elems = {tuple(x) for x in g.elements()}
            m_set = oracles.maximal_normals(g.degree, elems)[0]
            m = PermGroup.from_element_set(g.degree, frozenset(map(Permutation, m_set)))
            maps.append(quotient(g, m)[1])
        for phi in maps:
            table = reference_table(g, phi.target, phi.generator_images)
            subs = cyclic_subgroups(phi.image())
            assert_matches_reference(phi, table, subs)
            assert_matches_reference(_chain_twin(phi), table, subs)
            if g.order <= 60:
                for x in table:
                    for y in table:
                        assert table[x * y] == table[x] * table[y], name


@pytest.mark.parametrize(
    "build",
    [
        lambda: parse_system((DATA / "s4_s3_prefix.json").read_text()),
        lambda: parse_system((DATA / "cyclic2_tower.json").read_text()),
        lambda: build_wreath_tower([("S3", 3)], 2),
        lambda: build_wreath_tower([("C2", 2)], 3),
    ],
    ids=["s4_s3_prefix", "cyclic2_tower", "S3:3", "C2:2"],
)
def test_tower_maps_match_dense_tables(build):
    # the connecting maps, their prefix kernels, and the preimages that
    # mark derivation takes, against the table
    prefix = build()
    for n, phi in enumerate(prefix.homs, start=1):
        assert phi.source.mode == "dense"
        table = reference_table(phi.source, phi.target, phi.generator_images)
        subs = cyclic_subgroups(phi.target) + list(minimal_normal_subgroups(phi.target))
        assert_matches_reference(phi, table, subs)
        want = reference_preimage(phi.source.degree, table, PermGroup.trivial(phi.target.degree))
        assert prefix.kernel(n).elements() == want.elements()
        assert prefix.kernel(n).generators == want.generators


_SOURCES = [symmetric(n) for n in (3, 4, 5)]
_CHAIN_SOURCES = [
    PermGroup.from_generators(g.degree, g.generators, mode="chain") for g in _SOURCES
]
_TARGETS = [cyclic(2), symmetric(3)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chain_and_dense_validation_agree(data):
    # both source modes accept exactly the images the table accepts
    i = data.draw(st.integers(0, len(_SOURCES) - 1))
    target = data.draw(st.sampled_from(_TARGETS))
    images = [
        data.draw(st.sampled_from(target.sorted_elements()))
        for _ in _SOURCES[i].generators
    ]
    try:
        table = reference_table(_SOURCES[i], target, images)
    except HomomorphismError:
        for source in (_SOURCES[i], _CHAIN_SOURCES[i]):
            with pytest.raises(HomomorphismError):
                GroupHom(source, target, images)
        return
    for source in (_SOURCES[i], _CHAIN_SOURCES[i]):
        assert_matches_reference(GroupHom(source, target, images), table, [])
