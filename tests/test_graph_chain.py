"""Connecting maps on one graph-group chain each: stage chains cut from it,
validity read off its base, kernels from the tail of the target-first chain
on first use, against the forced-prefix validator and the kernel closure
they replaced."""

import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from jicert import (
    GroupHom,
    HomomorphismError,
    InputFormatError,
    MembershipError,
    PermGroup,
    Permutation,
    alternating,
    build_wreath_tower,
    cyclic,
    parse_system,
    serialize_system,
    subgroup_generated,
    symmetric,
)
from jicert.chain import StabilizerChain
from jicert.cli import main
from jicert.group import _normalize_gens
from quotient_ref import quotient
from test_hom import _chain_twin, lists_elements, sign_map

DATA = Path(__file__).parent / "data"


def graph_gens(source, images):
    ds = source.degree
    return [tuple(g.images) + tuple(ds + j for j in fg.images)
            for g, fg in zip(source.generators, images)]


def reference_graph_chain(source, target, images):
    """The graph chain with every source point forced as a base prefix, as
    maps were validated before: the map is well defined exactly when the
    pointwise stabilizer of the source points is trivial."""
    ds, dt = source.degree, target.degree
    chain = StabilizerChain(ds + dt, graph_gens(source, images), base_prefix=range(ds))
    for t in chain.gens_fixing_prefix(ds):
        if t != tuple(range(ds + dt)):
            raise HomomorphismError("a trivial source relation maps to a nontrivial image")
    return chain


def reference_value(chain, ds, x):
    """phi(x), lifted through the forced source prefix."""
    lifted = chain.lift_points({i: x.images[i] for i in range(ds)}, ds)
    return Permutation(tuple(p - ds for p in lifted[ds:]))


def reference_kernel(phi):
    """The kernel as parsing computed it before: the target-first chain's
    kernel generators closed on a chain of their own, under the source's bound."""
    ds, dt = phi.source.degree, phi.target.degree
    gens = graph_gens(phi.source, phi.generator_images)
    tgt = StabilizerChain(ds + dt, gens, base_prefix=range(ds, ds + dt))
    kernel_gens = [Permutation(t[:ds]) for t in tgt.gens_fixing_prefix(dt)]
    if lists_elements(phi.source):
        sub = subgroup_generated(phi.source, kernel_gens)
        return PermGroup.from_element_set(ds, sub.elements())
    return PermGroup.from_generators(ds, kernel_gens, dense_bound=phi.source.bound)


def levels(chain):
    return [(lv.base, lv.gens, lv.tr, lv.tr_inv, lv.orbit_order) for lv in chain.levels]


def witness_of(exc, degree):
    """The target element t named by an invalid-map message."""
    text = re.search(r"maps to (Perm\(.*\))$", str(exc)).group(1)
    cycles = [tuple(map(int, c.split())) for c in re.findall(r"\(([\d ]+)\)", text)]
    return Permutation.from_cycles(degree, cycles)


def assert_map_matches_reference(phi, name=""):
    """One valid map against the forced-prefix chain and the old kernel."""
    ds, source = phi.source.degree, phi.source
    ref = reference_graph_chain(source, phi.target, phi.generator_images)
    assert all(b < ds for b in phi._graph.base()), name
    cut = phi._graph.cut(0, ds)
    assert levels(cut) == levels(StabilizerChain(ds, source.generators)), name
    assert cut.order() == source.order, name
    tabled = lists_elements(source)
    xs = source.sorted_elements()[:: max(1, source.order // 24)] if tabled \
        else list(source.generators)
    for x in xs:
        assert phi(x) == reference_value(ref, ds, x), name
    ker, want = phi.kernel(), reference_kernel(phi)
    if tabled:
        assert lists_elements(ker), name
        assert ker.elements() == want.elements(), name
        assert ker.generators == want.generators, name
    else:
        assert (lists_elements(ker), ker.order) == (lists_elements(want), want.order), name
        assert ker.generators == want.generators, name
        assert all(ker.contains(k) for k in want.generators), name
        assert all(want.contains(k) for k in ker.generators), name


def assert_rejection_matches_reference(source, target, images, name=""):
    """GroupHom rejects exactly what the reference rejects, and a witness t
    is nontrivial with (id, t) in the graph group."""
    try:
        ref = reference_graph_chain(source, target, images)
    except HomomorphismError:
        ref = None
    if ref is not None:
        assert_map_matches_reference(GroupHom(source, target, images), name)
        return
    with pytest.raises(HomomorphismError) as exc:
        GroupHom(source, target, images)
    t = witness_of(exc.value, target.degree)
    assert not t.is_identity(), name
    ds = source.degree
    graph = StabilizerChain(ds + target.degree, graph_gens(source, images))
    assert graph.contains_tuple(tuple(range(ds)) + tuple(ds + j for j in t.images)), name


def corpus_maps(small_corpus):
    for name, g in small_corpus.items():
        maps = [sign_map(g)]
        if not g.is_trivial():
            elems = {tuple(x) for x in g.elements()}
            m_set = oracles.maximal_normals(g.degree, elems)[0]
            m = PermGroup.from_element_set(g.degree, frozenset(map(Permutation, m_set)))
            maps.append(quotient(g, m)[1])
        for phi in maps:
            yield name, phi
            yield name, _chain_twin(phi)


TOWERS = {
    "s4_s3_prefix": lambda: parse_system((DATA / "s4_s3_prefix.json").read_text()),
    "cyclic2_tower": lambda: parse_system((DATA / "cyclic2_tower.json").read_text()),
    "S3:3": lambda: build_wreath_tower([("S3", 3)], 2),
    "C2:2": lambda: build_wreath_tower([("C2", 2)], 4),
    "A5:5 chain": lambda: build_wreath_tower([("A5", 5)], 2),
}


def test_corpus_maps_match_reference(small_corpus):
    for name, phi in corpus_maps(small_corpus):
        assert_map_matches_reference(phi, name)


@pytest.mark.parametrize("name", list(TOWERS))
def test_stage_chains_are_cut_from_the_graph_chain(name):
    prefix = TOWERS[name]()
    for n, phi in enumerate(prefix.homs, start=1):
        rec, grp = prefix.records[n], prefix.groups[n]
        gens = _normalize_gens(rec.degree, rec.generators)
        want = StabilizerChain(rec.degree, gens)
        assert levels(phi._graph.cut(0, rec.degree)) == levels(want), (name, n)
        assert grp.generators == gens, (name, n)
        assert grp.order == want.order(), (name, n)
        assert levels(grp._chain) == levels(want), (name, n)
        if lists_elements(grp):
            rebuilt = PermGroup.from_generators(rec.degree, gens)
            assert grp.elements() == rebuilt.elements(), (name, n)


@pytest.mark.parametrize("name", list(TOWERS))
def test_tower_maps_and_kernels_match_reference(name):
    prefix = TOWERS[name]()
    for n, phi in enumerate(prefix.homs, start=1):
        assert_map_matches_reference(phi, (name, n))
        ker, want = prefix.kernel(n), reference_kernel(phi)
        assert ker is prefix.kernel(n)
        if lists_elements(phi.source):
            assert (ker.elements(), ker.generators) == (want.elements(), want.generators)
        else:
            assert (ker.order, lists_elements(ker)) == (want.order, lists_elements(want))
            assert all(ker.contains(k) for k in want.generators)
            assert all(want.contains(k) for k in ker.generators)


@pytest.mark.parametrize("name", list(TOWERS))
def test_evaluation_outside_the_source_is_refused(name):
    prefix = TOWERS[name]()
    for phi in prefix.homs:
        ds = phi.source.degree
        outside = [x for x in (Permutation.from_cycles(ds, [(i, i + 1)]) for i in range(ds - 1))
                   if not phi.source.contains(x)]
        for psi in (phi, _chain_twin(phi)):
            for x in outside:
                with pytest.raises(MembershipError):
                    psi(x)


def test_evaluation_outside_a_subgroup_source_is_refused():
    a4 = alternating(4)
    for phi in (sign_map(a4), _chain_twin(sign_map(a4))):
        with pytest.raises(MembershipError):
            phi(Permutation([1, 0, 2, 3]))


def test_tower_rejects_exactly_what_the_reference_rejects():
    prefix = build_wreath_tower([("S3", 3)], 2)
    doc = json.loads(serialize_system(prefix))
    stage = doc["stages"][1]
    target = prefix.groups[0]
    rng = random.Random(7)
    rejected = 0
    for _ in range(6):
        images = [list(rng.choice(target.sorted_elements()).images)
                  for _ in stage["generators"]]
        stage["images"] = images
        gens = _normalize_gens(9, [Permutation(g) for g in stage["generators"]])
        mapping = dict(zip((Permutation(g) for g in stage["generators"]),
                           (Permutation(i) for i in images)))
        try:
            reference_graph_chain(prefix.groups[1], target, [mapping[g] for g in gens])
        except HomomorphismError:
            rejected += 1
            with pytest.raises(InputFormatError, match="do not define a homomorphism"):
                parse_system(json.dumps(doc))
    assert rejected > 0


@pytest.mark.parametrize(
    "source, target, images",
    [
        # the relation g^2 = 1 maps to c^2, and the image c itself is no witness
        (cyclic(2), cyclic(4), [Permutation([1, 2, 3, 0])]),
        (cyclic(4), cyclic(8), [Permutation([1, 2, 3, 4, 5, 6, 7, 0])]),
    ],
    ids=["C2->C4", "C4->C8"],
)
def test_witness_is_a_relation_image(source, target, images):
    assert_rejection_matches_reference(source, target, images)


_SOURCES = [symmetric(3), symmetric(4), alternating(4), symmetric(5),
            build_wreath_tower([("S3", 3)], 2).groups[1]]
_TARGETS = [cyclic(2), symmetric(3), symmetric(4)]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_drawn_maps_match_reference(data):
    # some draws are the sign map, most random images, which are mostly invalid
    source = data.draw(st.sampled_from(_SOURCES))
    if data.draw(st.booleans()):
        source = PermGroup.from_generators(source.degree, source.generators, dense_bound=0)
    if data.draw(st.integers(0, 3)) == 0:
        phi = sign_map(source)
        target, images = phi.target, phi.generator_images
    else:
        target = data.draw(st.sampled_from(_TARGETS))
        images = [data.draw(st.sampled_from(target.sorted_elements()))
                  for _ in source.generators]
    assert_rejection_matches_reference(source, target, images)


def _count_calls(monkeypatch, cls, attr):
    calls = []
    original = getattr(cls, attr)

    def counting(self, *args, **kwargs):
        calls.append(id(self))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, attr, counting)
    return calls


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_wreath_tower([("A5", 5)], 2),
        lambda: build_wreath_tower([("C2", 2)], 3),
    ],
    ids=["A5:5 chain", "C2:2 depth 3"],
)
def test_plain_check_of_an_unmarked_tower_builds_no_kernel(monkeypatch, tmp_path, capsys, build):
    # the pair checks read a kernel only where both a marks are present
    path = tmp_path / "tower.json"
    path.write_text(serialize_system(build()))
    target_first = _count_calls(monkeypatch, GroupHom, "_target_first")
    kernels = _count_calls(monkeypatch, GroupHom, "kernel")
    assert main(["check", str(path)]) == 0
    capsys.readouterr()
    assert target_first == []
    assert kernels == []


@pytest.mark.parametrize("path", ["s4_s3_prefix.json", "cyclic2_tower.json"])
def test_each_kernel_is_computed_at_most_once(monkeypatch, capsys, path):
    kernels = _count_calls(monkeypatch, GroupHom, "kernel")
    args = ["check", str(DATA / path), "--wilson", "--commuting-conjugates",
            "--strengthened", "--subgroup-bound", "100"]
    main(args)
    capsys.readouterr()
    assert kernels
    assert len(kernels) == len(set(kernels))
