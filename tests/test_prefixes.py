import json

import pytest

from jicert import (
    DenseBoundExceededError,
    InputFormatError,
    Permutation,
    UnknownGroupError,
    build_wreath_tower,
    derive_critical_marks,
    parse_system,
    serialize_system,
    subgroup_generated,
)


S3_STAGE = {"degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]}
S4_STAGE = {
    "degree": 4,
    "generators": [[1, 2, 3, 0], [1, 0, 2, 3]],
    "images": [[2, 1, 0], [0, 2, 1]],
}


def doc(*stages, **top):
    d = {"format": "jicert-system/1", "stages": list(stages)}
    d.update(top)
    return json.dumps(d)


def test_parse_single_stage():
    prefix = parse_system(doc(S3_STAGE))
    assert len(prefix) == 1
    assert prefix.groups[0].order == 6
    assert prefix.homs == ()
    assert prefix.kernel(0) is None
    assert prefix.a_marks == (None,)
    assert prefix.b0 is None


def test_parse_two_stages_recomputes_kernel():
    prefix = parse_system(doc(S3_STAGE, S4_STAGE))
    assert [g.order for g in prefix.groups] == [6, 24]
    assert prefix.homs[0].is_surjective()
    k = prefix.kernel(1)
    assert k.order == 4  # the connecting map's kernel, never read from the file
    assert all(k.contains(x ** g) for x in k.generators for g in prefix.groups[1].generators)


def test_parse_marks():
    stage0 = dict(S3_STAGE, a=[[1, 2, 0], [1, 0, 2]], b0=[[1, 2, 0]])
    stage1 = dict(S4_STAGE, a=[[1, 2, 0, 3], [0, 2, 3, 1]])
    prefix = parse_system(doc(stage0, stage1))
    assert prefix.a_marks[0].order == 6
    assert prefix.a_marks[1].order == 12
    assert prefix.b0.order == 3
    # empty mark list means the trivial subgroup, not "no mark"
    empty = parse_system(doc(dict(S3_STAGE, a=[])))
    assert empty.a_marks[0] is not None
    assert empty.a_marks[0].is_trivial()


def test_round_trip():
    text = serialize_system(parse_system(doc(dict(S3_STAGE, b0=[[1, 2, 0]]), S4_STAGE)))
    again = parse_system(text)
    assert serialize_system(again) == text


def test_json_syntax_error_names_position():
    with pytest.raises(InputFormatError, match=r"line 2, column"):
        parse_system('{\n  "format": oops\n}')


@pytest.mark.parametrize(
    "text,hint",
    [
        ("[]", "top level"),
        (json.dumps({"stages": [S3_STAGE]}), "format tag"),
        (json.dumps({"format": "jicert-system/2", "stages": [S3_STAGE]}), "format tag"),
        (doc(S3_STAGE, extra=1), "unknown top-level"),
        (doc(), "non-empty"),
        (json.dumps({"format": "jicert-system/1", "stages": {}}), "non-empty"),
        (doc({"degree": 3}), "generators"),
    ],
)
def test_structural_rejections(text, hint):
    with pytest.raises(InputFormatError):
        parse_system(text)


@pytest.mark.parametrize(
    "stage,message",
    [
        (dict(S3_STAGE, b0=[[1, 2, 0]], degree=3), None),  # control: parses at stage 0
        ({"degree": 0, "generators": []}, "'degree'"),
        ({"degree": True, "generators": []}, "'degree'"),
        ({"degree": 3, "generators": [[1, 2, 0]], "extra": 1}, "unknown or misplaced"),
        ({"degree": 3, "generators": [[1, 2]]}, "3 entries|stage degree"),
        ({"degree": 3, "generators": [[1, 1, 0]]}, "not a permutation"),
        ({"degree": 3, "generators": [[True, False, 2]]}, "list of integers"),
        ({"degree": 3, "generators": [["0", 1, 2]]}, "list of integers"),
        ({"degree": 3, "generators": 7}, "list of permutations"),
        ({"degree": 3, "generators": [[1, 2, 0]], "images": [[0, 1, 2]]}, "misplaced"),
    ],
)
def test_stage_zero_rejections(stage, message):
    if message is None:
        parse_system(doc(stage))
        return
    with pytest.raises(InputFormatError, match=message):
        parse_system(doc(stage))


@pytest.mark.parametrize(
    "stage,message",
    [
        ({"degree": 4, "generators": [[1, 2, 3, 0]]}, "'images' is required"),
        (dict(S4_STAGE, b0=[[1, 2, 0, 3]]), "unknown or misplaced"),
        (dict(S4_STAGE, images=[[2, 1, 0]]), "2 generators but 1 images"),
        (dict(S4_STAGE, images=[[2, 1, 0], [0, 2, 1, 3]]), "stage degree"),
        # order-4 generator sent to an order-3 image: no homomorphism extends this
        (dict(S4_STAGE, images=[[1, 2, 0], [0, 2, 1]]), "do not define a homomorphism"),
    ],
)
def test_later_stage_rejections(stage, message):
    with pytest.raises(InputFormatError, match=message):
        parse_system(doc(S3_STAGE, stage))


def test_non_surjective_map_rejected():
    stage1 = {
        "degree": 4,
        "generators": [[1, 0, 3, 2], [2, 3, 0, 1]],
        "images": [[0, 1, 2], [0, 1, 2]],
    }
    with pytest.raises(InputFormatError, match="not surjective"):
        parse_system(doc(S3_STAGE, stage1))


def test_images_that_satisfy_no_homomorphism():
    # C3 -> C2 sending the 3-cycle to the flip satisfies no homomorphism
    stage0 = {"degree": 2, "generators": [[1, 0]]}
    stage1 = {"degree": 3, "generators": [[1, 2, 0]], "images": [[1, 0]]}
    with pytest.raises(InputFormatError, match="homomorphism"):
        parse_system(doc(stage0, stage1))


def test_conflicting_duplicate_generator_images():
    stage1 = {
        "degree": 4,
        "generators": [[1, 2, 3, 0], [1, 2, 3, 0], [1, 0, 2, 3]],
        "images": [[2, 1, 0], [1, 2, 0], [0, 2, 1]],
    }
    with pytest.raises(InputFormatError, match="conflicting"):
        parse_system(doc(S3_STAGE, stage1))


def test_identity_generator_with_nonidentity_image():
    stage1 = {
        "degree": 4,
        "generators": [[0, 1, 2, 3], [1, 2, 3, 0], [1, 0, 2, 3]],
        "images": [[1, 2, 0], [2, 1, 0], [0, 2, 1]],
    }
    with pytest.raises(InputFormatError, match="identity generator"):
        parse_system(doc(S3_STAGE, stage1))


def test_redundant_duplicate_generators_accepted():
    stage1 = {
        "degree": 4,
        "generators": [[1, 2, 3, 0], [1, 2, 3, 0], [1, 0, 2, 3]],
        "images": [[2, 1, 0], [2, 1, 0], [0, 2, 1]],
    }
    prefix = parse_system(doc(S3_STAGE, stage1))
    assert prefix.groups[1].order == 24
    # verbatim records survive the round trip
    assert len(prefix.records[1].generators) == 3
    assert "generators" in serialize_system(prefix)


@pytest.mark.parametrize(
    "mark,message",
    [
        ({"a": [[1, 0, 2, 3]]}, "not normal"),
        ({"a": [[1, 0, 2]]}, "stage degree|entries"),
        ({"a": [[132, 1, 2, 3]]}, "not a permutation"),
    ],
)
def test_mark_rejections(mark, message):
    with pytest.raises(InputFormatError, match=message):
        parse_system(doc(S3_STAGE, dict(S4_STAGE, **mark)))


def test_mark_outside_group_rejected():
    # the 4-cycle mark is not inside A4
    stage = {"degree": 4, "generators": [[1, 2, 0, 3], [0, 2, 3, 1]], "a": [[1, 2, 3, 0]]}
    with pytest.raises(InputFormatError, match="stage 0.a"):
        parse_system(doc(stage))


def test_with_marks():
    prefix = parse_system(doc(S3_STAGE, S4_STAGE))
    g1 = prefix.groups[1]
    v4 = subgroup_generated(g1, [Permutation([1, 0, 3, 2]), Permutation([2, 3, 0, 1])])
    a3 = subgroup_generated(prefix.groups[0], [Permutation([1, 2, 0])])
    marked = prefix.with_marks({1: v4}, b0=a3)
    assert marked.a_marks == (None, v4)
    assert marked.b0 == a3
    assert prefix.a_marks == (None, None)  # original untouched
    text = serialize_system(marked)
    assert parse_system(text).a_marks[1] == v4
    c2 = subgroup_generated(g1, [Permutation([1, 0, 2, 3])])
    with pytest.raises(InputFormatError, match="not normal"):
        prefix.with_marks({1: c2})


def test_with_marks_keeps_mode_and_dense_bound():
    prefix = parse_system(serialize_system(build_wreath_tower([("C2", 2)], 3)), dense_bound=4)
    marked = prefix.with_marks({0: prefix.groups[0]})
    for p in (prefix, marked):
        assert len(p.groups[0].elements()) == 2
        for g in p.groups[1:]:
            with pytest.raises(DenseBoundExceededError):
                g.elements()
    assert [g.bound for g in marked.groups] == [4, 4, 4]


def test_with_marks_reuses_groups_maps_and_kernels(monkeypatch):
    from jicert import prefixes

    calls = []
    real = prefixes.graph_chain
    monkeypatch.setattr(prefixes, "graph_chain", lambda *args: calls.append(args) or real(*args))
    prefix = build_wreath_tower([("S3", 3)], 2)
    assert len(calls) == 1
    kernel = prefix.kernel(1)
    derived = derive_critical_marks(prefix)
    assert len(calls) == 1
    assert all(a is b for a, b in zip(derived.groups, prefix.groups))
    assert derived.homs is prefix.homs
    assert derived.kernel(1) is kernel
    # the same marks as a prefix assembled afresh from the new records
    again = parse_system(serialize_system(derived))
    assert again.a_marks == derived.a_marks and again.b0 == derived.b0
    assert [m.generators for m in again.a_marks] == [m.generators for m in derived.a_marks]


def test_build_wreath_tower_two_stages():
    prefix = build_wreath_tower([("S3", 3)], 2)
    assert [g.order for g in prefix.groups] == [6, 6**3 * 6]
    assert [g.degree for g in prefix.groups] == [3, 9]
    assert prefix.kernel(1).order == 6**3
    assert prefix.homs[0].is_surjective()


def test_build_wreath_tower_cycles_bases():
    prefix = build_wreath_tower([("C2", 2), ("C3", 3)], 3)
    assert [g.order for g in prefix.groups] == [2, 2 * 3**2, 2 * 3**2 * 2**6]
    assert [g.degree for g in prefix.groups] == [2, 6, 12]


def test_build_wreath_tower_chain_mode():
    prefix = parse_system(serialize_system(build_wreath_tower([("A5", 5)], 2)), dense_bound=10_000)
    with pytest.raises(DenseBoundExceededError):
        prefix.groups[1].elements()
    assert prefix.groups[1].order == 60**5 * 60
    assert prefix.kernel(1).order == 60**5


def test_build_wreath_tower_rejections():
    with pytest.raises(InputFormatError):
        build_wreath_tower([("S3", 3)], 0)
    with pytest.raises(InputFormatError):
        build_wreath_tower([], 2)
    with pytest.raises(UnknownGroupError):
        build_wreath_tower([("B7", 7)], 1)
    with pytest.raises(InputFormatError, match="acts on 3 points"):
        build_wreath_tower([("S3", 4)], 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: parse_system(doc(S3_STAGE, S4_STAGE)),
        lambda: build_wreath_tower([("A5", 5)], 2),
    ],
    ids=["dense", "chain"],
)
def test_defect_in_map_construction_is_not_an_input_error(monkeypatch, build):
    import jicert.prefixes

    def broken(source_degree, source_gens, target, images):
        raise RuntimeError("internal defect")

    monkeypatch.setattr(jicert.prefixes, "graph_chain", broken)
    with pytest.raises(RuntimeError, match="internal defect"):
        build()


def test_parsing_closes_each_map_image_once(monkeypatch):
    import jicert.hom

    text = serialize_system(build_wreath_tower([("C2", 2)], 3))
    calls = []
    original = jicert.hom.subgroup_generated

    def counting(parent, elems):
        elems = tuple(elems)
        calls.append((parent, elems))
        return original(parent, elems)

    monkeypatch.setattr(jicert.hom, "subgroup_generated", counting)
    prefix = parse_system(text)
    assert len(prefix.homs) == 2
    for hom in prefix.homs:
        closures = [c for c in calls if c[0] is hom.target and c[1] == hom.generator_images]
        assert len(closures) == 1
        assert hom.image() is hom.image()
    assert len(calls) == 2  # each map's image once
    # a kernel is read off the map's chain on first use, with no closure, and kept
    for n in (1, 2):
        assert prefix.kernel(n) is prefix.kernel(n)
    assert len(calls) == 2
