"""Subgroups of a stage as position sets on the stage's element index.

The group operations on position sets (membership, inclusion, equality,
intersection, product order, centralizers, greedy generators, kernels and
preimages) against the frozenset-of-Permutation operations they replaced,
kept here as the reference, and against the brute force of tests/oracles.py.
Then what the representation saves on the certify-sweep input: permutations
are made only for generators and witnesses, only a group on no index sifts
through a chain, and parsing or building a prefix builds no index.
"""

import random
import sys

from hypothesis import given, settings, strategies as st

import oracles
from jicert import (
    CertifyOptions,
    GroupHom,
    PermGroup,
    Permutation,
    build_wreath_tower,
    centralizer,
    certify_system,
    intersection,
    parse_system,
    product_order,
    serialize_system,
    subgroup_generated,
)
from jicert.chain import StabilizerChain
from jicert.classdata import SchurTable, class_from_names
from jicert.cli import main
from jicert.group import ElementIndex, greedily_named
from jicert.lattice import normal_subgroups
from jicert.perm import comm
from test_index_closure import DATA
from test_sweep import _certify_sweep_prefix, _relabelled_subgroup

# -- the reference: element tables as frozensets of permutations -------------


def reference_elements(g):
    """g's element table as it was built: the chain's elements, wrapped."""
    return frozenset(map(Permutation._raw, StabilizerChain(g.degree, g.generators).elements()))


def reference_generators(degree, elements):
    """The greedy generators of a closed element set as they were taken: the
    least element, in sorted order, that a chain grown so far does not hold."""
    gens = []
    chain = StabilizerChain(degree, ())
    for x in sorted(elements):
        if chain.order() == len(elements):
            break
        if chain.contains(x):
            continue
        gens.append(x)
        chain.add(x)
    return tuple(gens)


def reference_centralizer(g_set, a_gens, b_set):
    """{x in G : [y, x] in B for each generator y of A}, by products."""
    return frozenset(x for x in g_set if all(comm(y, x) in b_set for y in a_gens))


def named(elements, degree):
    """What a group named by its element set held: the set and its greedy generators."""
    return elements, reference_generators(degree, elements)


def signature(h):
    return h.elements(), h.generators


# -- subjects ------------------------------------------------------------------


def subjects(g):
    """Subgroups of g on g's index, in both ways a group gets there: found on
    it (the normal lattice), and generated under g, placed on it when first
    asked; g itself last."""
    subs = list(normal_subgroups(g))
    for x in g.sorted_elements()[1 :: max(1, g.order // 4)]:
        subs.append(subgroup_generated(g, [x]))
    subs.append(g)
    return subs


def assert_set_operations_match_reference(g, name=""):
    g_set = reference_elements(g)
    subs = subjects(g)
    sets = [reference_elements(h) for h in subs]
    samples = sorted(g_set)[:: max(1, len(g_set) // 8)]
    for h, h_set in zip(subs, sets):
        assert h.elements() == h_set, name
        for x in samples:
            assert h.contains(x) == (x in h_set), name
        for k, k_set in zip(subs, sets):
            assert h.is_subgroup_of(k) == all(x in k_set for x in h.generators), name
            assert (h == k) == (h_set == k_set), name
            meet = intersection(h, k)
            assert signature(meet) == named(h_set & k_set, g.degree), name
            tuples_meet = frozenset(x.images for x in h_set & k_set)
            want = (tuples_meet, oracles.greedy_gens(g.degree, tuples_meet))
            assert (tuples_meet, [x.images for x in meet.generators]) == want, name
            assert product_order(h, k) == len(h_set) * len(k_set) // len(h_set & k_set), name


def assert_centralizers_match_reference(g, name=""):
    g_set = reference_elements(g)
    identity = frozenset([g.identity])
    normals = normal_subgroups(g)
    for a in normals:
        a_set = reference_elements(a)
        want = named(reference_centralizer(g_set, a.generators, identity), g.degree)
        assert signature(centralizer(g, a)) == want, (name, a.order)
        tuples = frozenset(x.images for x in g_set)
        a_tuples = frozenset(x.images for x in a_set)
        assert frozenset(x.images for x in want[0]) == oracles.section_centralizer(
            g.degree, tuples, a_tuples, frozenset([g.identity.images])
        ), name
        for b in normals:
            if b.order < a.order and b.is_subgroup_of(a):
                got = centralizer(g, a, b)
                want = reference_centralizer(g_set, a.generators, reference_elements(b))
                assert signature(got) == named(want, g.degree), (name, a.order, b.order)


def assert_greedy_generators_match_reference(g, name=""):
    index = g.element_index()
    for h in [*normal_subgroups(g), g]:
        h_set = reference_elements(h)
        span = frozenset(index.pos[x.images] for x in h_set)
        want = reference_generators(g.degree, h_set)
        assert index.subgroup(span).generators == want, name
        assert greedily_named(h).generators == want, name
        tuples = frozenset(x.images for x in h_set)
        assert [x.images for x in want] == oracles.greedy_gens(g.degree, tuples), name


def assert_kernel_and_preimage_match_reference(phi, name=""):
    """On a fresh copy of phi's source whose index does not exist yet, then
    on one whose index exists: both must name the same sets the same way."""
    for indexed in (False, True):
        src = PermGroup.from_generators(phi.source.degree, phi.source.generators)
        if indexed:
            src.element_index()
        hom = GroupHom(src, phi.target, phi.generator_images)
        src_set = reference_elements(src)
        images = {x: hom(x) for x in src_set}
        kernel = frozenset(x for x, y in images.items() if y.is_identity())
        assert signature(hom.kernel()) == named(kernel, src.degree), (name, indexed)
        for sub in normal_subgroups(phi.target):
            sub_set = reference_elements(sub)
            want = named(frozenset(x for x, y in images.items() if y in sub_set), src.degree)
            assert signature(hom.preimage(sub)) == want, (name, indexed, sub.order)


def trivial_tower():
    """build-wreath C1:1 --depth 2: two trivial stages of degree 1."""
    return build_wreath_tower([("C1", 1)], 2)


def towers():
    yield "trivial", trivial_tower()
    for path in ("s4_s3_prefix.json", "cyclic2_tower.json"):
        yield path, parse_system((DATA / path).read_text())


def groups_under_test(small_corpus):
    yield from small_corpus.items()
    for name, prefix in towers():
        for i, g in enumerate(prefix.groups):
            if g.order <= 1500:
                yield f"{name}[{i}]", g


def test_set_operations_match_reference(small_corpus):
    for name, g in groups_under_test(small_corpus):
        if g.order <= 200:
            assert_set_operations_match_reference(g, name)


def test_centralizers_match_reference(small_corpus):
    for name, g in groups_under_test(small_corpus):
        if g.order <= 400:
            assert_centralizers_match_reference(g, name)


def test_greedy_generators_match_reference(small_corpus):
    for name, g in groups_under_test(small_corpus):
        assert_greedy_generators_match_reference(g, name)


def test_kernels_and_preimages_match_reference():
    for name, prefix in towers():
        for i, phi in enumerate(prefix.homs):
            if phi.source.order <= 1500:
                assert_kernel_and_preimage_match_reference(phi, f"{name}[{i}]")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_position_sets_match_reference_on_random_groups(seed):
    g = _relabelled_subgroup(random.Random(seed))
    assert_set_operations_match_reference(g, seed)
    assert_centralizers_match_reference(g, seed)
    assert_greedy_generators_match_reference(g, seed)


def test_groups_on_an_index_hold_no_permutations(small_corpus):
    g = PermGroup.from_generators(small_corpus["S4"].degree, small_corpus["S4"].generators)
    index = g.element_index()
    assert all(type(x) is tuple for x in index.elems)
    normals = normal_subgroups(g)
    for h in [*normals, centralizer(g, g), intersection(normals[-1], normals[-2])]:
        assert h._host is index and isinstance(h._span, frozenset)
        h.elements(), h.sorted_elements()  # made on demand, not kept
        for slot in PermGroup.__slots__:
            value = getattr(h, slot)
            if slot != "_gens" and isinstance(value, (frozenset, tuple, list)):
                assert not any(isinstance(x, Permutation) for x in value), slot


# -- what the certify-sweep input no longer does -------------------------------

ALL_FLAGS = CertifyOptions(
    wilson=True,
    commuting_conjugates=True,
    strengthened=True,
    count_class=class_from_names(["C2", "C3"], SchurTable.load()),
)

# where certify_system may make a permutation: a generator, a generator's
# image under a connecting map, or the centralizer-product witness
MAKERS = (
    "PermGroup.generators",
    "ElementIndex.subgroup",
    "GroupHom.__call__",
    "_greedy_generators",
    "check_critical_stage",
)


def test_certify_makes_permutations_only_for_generators_and_witnesses(monkeypatch):
    prefix = parse_system(serialize_system(_certify_sweep_prefix()))
    made = []
    raw, init = Permutation._raw, Permutation.__init__

    def where():
        return sys._getframe(2).f_code.co_qualname

    def counting_raw(images):
        made.append(where())
        return raw(images)

    def counting_init(self, images):
        made.append(where())
        init(self, images)

    monkeypatch.setattr(Permutation, "_raw", staticmethod(counting_raw))
    monkeypatch.setattr(Permutation, "__init__", counting_init)
    certify_system(prefix, ALL_FLAGS)
    assert [site for site in made if not site.startswith(MAKERS)] == []
    assert 0 < len(made) <= 100  # 654 when tables were sets of permutations


def test_only_groups_on_no_index_sift(monkeypatch):
    prefix = parse_system(serialize_system(_certify_sweep_prefix()))
    sifts = []
    contains, holds = StabilizerChain.contains, PermGroup._holds

    def counting_contains(self, p):
        sifts.append(p)
        return contains(self, p)

    def checked_holds(self, t):
        on_index = self._index is not None or self._hosted() is not None
        before = len(sifts)
        got = holds(self, t)
        assert not (on_index and len(sifts) > before), "a group on an index sifted"
        return got

    monkeypatch.setattr(StabilizerChain, "contains", counting_contains)
    monkeypatch.setattr(PermGroup, "_holds", checked_holds)
    certify_system(prefix, ALL_FLAGS)
    # 116 when subgroups generated under an indexed stage sifted through
    # chains of their own; these are the marks, kernels and stages asked
    # before their stage's index exists
    assert len(sifts) <= 80


def test_parsing_and_building_build_no_index(monkeypatch, tmp_path):
    built = []
    original = ElementIndex.__init__

    def counting(self, degree, elems, gens):
        built.append(len(elems))
        original(self, degree, elems, gens)

    monkeypatch.setattr(ElementIndex, "__init__", counting)
    parse_system(serialize_system(_certify_sweep_prefix()))
    for spec, depth in (("A5", 5), 2), (("C3", 3), 3), (("S3", 3), 2):
        parse_system(serialize_system(build_wreath_tower([spec], depth)))
    assert main(["build-wreath", "C3:3", "--depth", "3", "-o", str(tmp_path / "t.json")]) == 0
    assert built == []
