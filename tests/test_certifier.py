import json
from pathlib import Path

import pytest

from jicert import (
    CertifyOptions,
    DerivationError,
    KernelBugError,
    NotNormalError,
    PermGroup,
    Permutation,
    SchurTable,
    alternating,
    build_wreath_tower,
    certify_system,
    check_centralize_or_contain,
    check_critical_stage,
    check_ep_proper,
    check_wilson_stage,
    class_from_names,
    critical_pairs,
    cyclic,
    derive_critical_marks,
    direct_product,
    parse_system,
    revalidate_witness,
    subgroup_generated,
    symmetric,
)
from jicert.certifier import (
    BOUNDED,
    CHECK_CENTRALIZER_PRODUCT,
    CHECK_ORDER,
    CHECK_COMMUTING_CONJUGATES,
    CHECK_CRITICAL_PAIR,
    CHECK_DICHOTOMY,
    CHECK_NO_CENTRAL_FACTOR,
    CHECK_WILSON_I,
    CHECK_WILSON_II,
    FAIL,
    NOT_APPLICABLE,
    PASS,
    check_commuting_conjugates_stage,
    check_strengthened_stage,
)
from jicert.prefixes import SystemPrefix
from test_report_cli import WHOLE_GROUP_BOTTOM_DOCS

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def golden_prefix():
    return parse_system((DATA / "s4_s3_prefix.json").read_text())


@pytest.fixture(scope="module")
def tower_prefix():
    return parse_system((DATA / "cyclic2_tower.json").read_text())


def s4_subgroups():
    s4 = symmetric(4)
    v4 = subgroup_generated(s4, [Permutation([1, 0, 3, 2]), Permutation([2, 3, 0, 1])])
    return s4, v4, alternating(4), PermGroup.trivial(4)


def _blob(generators):
    return {"generators": generators}


# -- kernel-containment / commuting-generation checks --------------------------


def test_wilson_stage_passes_on_s4_v4():
    s4, v4, _, _ = s4_subgroups()
    sv = check_wilson_stage(s4, v4)
    assert sv.checks[CHECK_WILSON_I].status == PASS
    assert sv.checks[CHECK_WILSON_II].status == PASS
    assert "each contains it" in sv.checks[CHECK_WILSON_I].note


def test_wilson_stage_vacuous_when_kernel_is_whole():
    s4, _, _, _ = s4_subgroups()
    sv = check_wilson_stage(s4, s4)
    assert sv.checks[CHECK_WILSON_I].status == PASS
    assert "vacuous" in sv.checks[CHECK_WILSON_I].note


def test_wilson_ii_fails_on_s4_with_trivial_kernel():
    s4, v4, _, triv = s4_subgroups()
    sv = check_wilson_stage(s4, triv)
    assert sv.checks[CHECK_WILSON_I].status == PASS  # trivial lies in everything
    res = sv.checks[CHECK_WILSON_II]
    assert res.status == FAIL
    assert res.witness["normal_subgroup"]["order"] == 4
    assert res.witness["subgroup"]["order"] == 2
    assert revalidate_witness(CHECK_WILSON_II, res.witness, g=s4, k=triv)
    # tampering with the witness breaks revalidation
    bad = dict(res.witness, subgroup={"order": 2, "generators": [[1, 0, 2, 3]]})
    assert not revalidate_witness(CHECK_WILSON_II, bad, g=s4, k=triv)


def test_revalidation_does_not_reject_on_an_internal_defect(monkeypatch):
    s4, _, _, triv = s4_subgroups()
    witness = check_wilson_stage(s4, triv).checks[CHECK_WILSON_II].witness

    def defect(*args, **kwargs):
        raise KernelBugError("cross-check failed")

    monkeypatch.setattr("jicert.certifier.subgroup_generated", defect)
    with pytest.raises(KernelBugError):
        revalidate_witness(CHECK_WILSON_II, witness, g=s4, k=triv)


def test_wilson_i_fail_witness():
    # in C2 x C2 with kernel one factor, the other factor neither contains
    # nor lies inside it
    g = direct_product(cyclic(2), cyclic(2))
    k = subgroup_generated(g, [g.generators[0]])
    sv = check_wilson_stage(g, k)
    res = sv.checks[CHECK_WILSON_I]
    assert res.status == FAIL
    assert revalidate_witness(CHECK_WILSON_I, res.witness, g=g, k=k)
    assert not revalidate_witness(
        CHECK_WILSON_I, {"normal_subgroup": {"order": 4, "generators": [[1, 0, 2, 3]]}}, g=g, k=k
    )


def test_wilson_stage_bounded():
    s4, _, _, triv = s4_subgroups()
    sv = check_wilson_stage(s4, triv, subgroup_bound=2)
    res = sv.checks[CHECK_WILSON_II]
    assert res.status == BOUNDED
    assert "above the bound 2" in res.note


def test_wilson_stage_rejects_non_normal_kernel():
    s4 = symmetric(4)
    c2 = subgroup_generated(s4, [Permutation([1, 0, 2, 3])])
    with pytest.raises(NotNormalError):
        check_wilson_stage(s4, c2)


# -- critical pair stage check --------------------------------------------------


def test_critical_stage_golden_passes(golden_prefix):
    p = golden_prefix
    sv = check_critical_stage(p.homs[0], p.a_marks[1], p.a_marks[0], p.b0)
    assert sv.checks[CHECK_CRITICAL_PAIR].status == PASS
    assert sv.checks[CHECK_CRITICAL_PAIR].note == "pair orders (6, 3)"
    assert sv.checks[CHECK_CENTRALIZER_PRODUCT].status == PASS
    assert sv.checks[CHECK_CENTRALIZER_PRODUCT].note == "image order 3, product order 3"


def test_critical_stage_degenerate_pair(tower_prefix):
    p = tower_prefix
    sv = check_critical_stage(p.homs[1], p.a_marks[2], p.a_marks[1], p.kernel(1))
    res = sv.checks[CHECK_CRITICAL_PAIR]
    assert res.status == FAIL
    assert res.note == "degenerate pair: top and bottom marks coincide"
    assert res.witness["top"]["order"] == 2
    context = dict(g=p.groups[1], a=p.a_marks[1], b=p.kernel(1))
    assert revalidate_witness(CHECK_CRITICAL_PAIR, res.witness, **context)
    # the witness must name the pair it condemns
    for junk in ({}, {"top": 5, "bottom": "x"}, {"top": res.witness["top"]}):
        assert not revalidate_witness(CHECK_CRITICAL_PAIR, junk, **context)
    s4, v4, _, _ = s4_subgroups()
    assert not revalidate_witness(CHECK_CRITICAL_PAIR, {}, g=s4, a=v4, b=v4)


def test_critical_stage_escaping_normal_subgroup(golden_prefix):
    p = golden_prefix
    triv = PermGroup.trivial(3)
    sv = check_critical_stage(p.homs[0], p.a_marks[1], p.a_marks[0], triv)
    res = sv.checks[CHECK_CRITICAL_PAIR]
    assert res.status == FAIL
    assert res.witness["normal_subgroup"]["order"] == 3
    assert revalidate_witness(
        CHECK_CRITICAL_PAIR, res.witness, g=p.groups[0], a=p.a_marks[0], b=triv
    )


def test_critical_stage_centralizer_product_failure(tower_prefix):
    p = tower_prefix
    sv = check_critical_stage(p.homs[0], p.a_marks[1], p.a_marks[0], p.b0)
    assert sv.checks[CHECK_CRITICAL_PAIR].status == PASS
    res = sv.checks[CHECK_CENTRALIZER_PRODUCT]
    assert res.status == FAIL
    assert res.note == "the image times its centralizer escapes the bottom mark"
    assert revalidate_witness(
        CHECK_CENTRALIZER_PRODUCT,
        res.witness,
        g=p.groups[0],
        b=p.b0,
        p=p.homs[0].image(p.a_marks[1]),
    )


def test_critical_stage_rejects_bottom_outside_top(golden_prefix):
    p = golden_prefix
    triv = PermGroup.trivial(3)
    sv = check_critical_stage(p.homs[0], p.a_marks[1], triv, p.b0)
    res = sv.checks[CHECK_CRITICAL_PAIR]
    assert res.status == FAIL
    assert res.note == "bottom mark is not contained in the top mark"
    context = dict(g=p.groups[0], a=triv, b=p.b0)
    assert revalidate_witness(CHECK_CRITICAL_PAIR, res.witness, **context)
    swapped = {"top": res.witness["bottom"], "bottom": res.witness["top"]}
    for junk in ({}, {"top": 5, "bottom": "x"}, swapped):
        assert not revalidate_witness(CHECK_CRITICAL_PAIR, junk, **context)


@pytest.mark.parametrize("doc", WHOLE_GROUP_BOTTOM_DOCS.values(), ids=WHOLE_GROUP_BOTTOM_DOCS)
def test_critical_stage_whole_group_bottom_fails(doc):
    """A bottom mark equal to the whole stage group is a degenerate pair, not
    an error: the pair check fails with a witness that revalidates."""
    p = parse_system(json.dumps(doc))
    res = certify_system(p).stages[0].checks[CHECK_CRITICAL_PAIR]
    assert p.b0 == p.groups[0]
    assert res.status == FAIL
    assert res.note == "degenerate pair: top and bottom marks coincide"
    context = dict(g=p.groups[0], a=p.a_marks[0], b=p.b0)
    assert revalidate_witness(CHECK_CRITICAL_PAIR, res.witness, **context)


# -- commuting conjugates check -------------------------------------------------


def test_commuting_conjugates_fails_on_v4_mark():
    s4, v4, _, _ = s4_subgroups()
    sv = check_commuting_conjugates_stage(s4, v4)
    res = sv.checks[CHECK_COMMUTING_CONJUGATES]
    assert res.status == FAIL
    assert res.witness["subgroup"]["generators"] == [[1, 0, 3, 2]]
    assert revalidate_witness(CHECK_COMMUTING_CONJUGATES, res.witness, g=s4, a=v4)
    bad = {"subgroup": {"order": 12, "generators": [[1, 2, 0, 3], [0, 2, 3, 1]]}}
    assert not revalidate_witness(CHECK_COMMUTING_CONJUGATES, bad, g=s4, a=v4)


def test_commuting_conjugates_passes_on_a4_mark():
    s4, _, a4, _ = s4_subgroups()
    sv = check_commuting_conjugates_stage(s4, a4)
    assert sv.checks[CHECK_COMMUTING_CONJUGATES].status == PASS


def test_commuting_conjugates_passes_on_a5():
    a5 = alternating(5)
    sv = check_commuting_conjugates_stage(a5, a5)
    assert sv.checks[CHECK_COMMUTING_CONJUGATES].status == PASS


def test_commuting_conjugates_bounded():
    s4, v4, _, _ = s4_subgroups()
    sv = check_commuting_conjugates_stage(s4, v4, subgroup_bound=2)
    res = sv.checks[CHECK_COMMUTING_CONJUGATES]
    assert res.status == BOUNDED
    assert "exceeds the subgroup bound 2" in res.note


# -- dichotomy and central factor checks ----------------------------------------


def test_strengthened_fails_on_v4_marks():
    s4, v4, _, triv = s4_subgroups()
    sv = check_strengthened_stage(s4, v4, triv, v4)
    dich = sv.checks[CHECK_DICHOTOMY]
    assert dich.status == FAIL
    assert dich.witness["subgroup"]["generators"] == [[1, 0, 3, 2]]
    assert dich.witness["maximal_normal"]["generators"] == [[2, 3, 0, 1]]
    assert revalidate_witness(CHECK_DICHOTOMY, dich.witness, g=s4, a=v4, p=v4)
    ncf = sv.checks[CHECK_NO_CENTRAL_FACTOR]
    assert ncf.status == FAIL
    assert ncf.note == "a normal subgroup above the mark is a central product"
    assert revalidate_witness(CHECK_NO_CENTRAL_FACTOR, ncf.witness, g=s4, a=v4)
    # without the mark the check has no context, as every other check
    assert not revalidate_witness(CHECK_NO_CENTRAL_FACTOR, ncf.witness, g=s4)


def test_strengthened_passes_on_a4_marks():
    s4, v4, a4, _ = s4_subgroups()
    sv = check_strengthened_stage(s4, a4, v4, a4)
    assert sv.checks[CHECK_DICHOTOMY].status == PASS
    assert sv.checks[CHECK_NO_CENTRAL_FACTOR].status == PASS


def test_strengthened_central_factor_on_v4_group():
    g = direct_product(cyclic(2), cyclic(2))
    triv = PermGroup.trivial(g.degree)
    sv = check_strengthened_stage(g, g, triv, g)
    res = sv.checks[CHECK_NO_CENTRAL_FACTOR]
    assert res.status == FAIL
    assert revalidate_witness(CHECK_NO_CENTRAL_FACTOR, res.witness, g=g, a=g)


def test_strengthened_vacuous_on_trivial_mark():
    s4, v4, _, triv = s4_subgroups()
    sv = check_strengthened_stage(s4, triv, triv, triv)
    assert sv.checks[CHECK_DICHOTOMY].status == PASS
    assert "vacuous" in sv.checks[CHECK_DICHOTOMY].note
    # the trivial mark has no maximal normal subgroup, so no witness holds
    witness = {"subgroup": _blob([[1, 0, 3, 2]]), "maximal_normal": _blob([])}
    assert not revalidate_witness(CHECK_DICHOTOMY, witness, g=s4, a=triv, p=v4)


def test_revalidation_checks_each_condition():
    """A witness that meets every part of a failure condition but one is refused."""
    s4, v4, a4, triv = s4_subgroups()
    # C2 x C2 with one factor as kernel: the trivial group lies inside it
    g = direct_product(cyclic(2), cyclic(2))
    k = subgroup_generated(g, [g.generators[0]])
    assert not revalidate_witness(CHECK_WILSON_I, {"normal_subgroup": _blob([])}, g=g, k=k)
    # A4 is normalized by A4 and escapes V4, but contains A4 C(A4) = A4
    witness = {
        "subgroup": _blob([[1, 2, 0, 3], [0, 2, 3, 1]]),
        "maximal_normal": _blob([[1, 0, 3, 2], [2, 3, 0, 1]]),
    }
    assert not revalidate_witness(CHECK_DICHOTOMY, witness, g=s4, a=a4, p=a4)
    # <(01)> and <(23)> commute and have order 2, but generate a Klein group
    # other than the normal V4
    witness = {
        "normal_subgroup": _blob([[1, 0, 3, 2], [2, 3, 0, 1]]),
        "factors": [_blob([[1, 0, 2, 3]]), _blob([[0, 1, 3, 2]])],
    }
    assert not revalidate_witness(CHECK_NO_CENTRAL_FACTOR, witness, g=s4, a=triv)


def test_strengthened_bounded():
    s4, v4, _, triv = s4_subgroups()
    sv = check_strengthened_stage(s4, v4, triv, v4, subgroup_bound=2)
    assert sv.checks[CHECK_DICHOTOMY].status == BOUNDED


# -- centralize-or-contain ------------------------------------------------------


def test_centralize_or_contain_on_s4():
    s4, v4, a4, triv = s4_subgroups()
    pair = (v4, triv)
    for k in (triv, v4, a4, s4):
        assert check_centralize_or_contain(s4, pair, k)
    with pytest.raises(ValueError, match="not critical"):
        check_centralize_or_contain(s4, (a4, triv), a4)


def test_centralize_or_contain_negative_case():
    # D4: pair (Z, 1) with k = a non-central C2 x C2 that neither centralizes
    # nothing (it does centralize the center) -- build a real negative instead:
    # in C2 x S3 take the pair (S3', 1) = (A3, 1); k = the S3 factor contains
    # A3 but is not nilpotent, so True; k = C2 x A3 does not contain A3? it
    # does. Use k = the central C2: centralizes, True. A false case needs k
    # with a, k not nilpotent impossible... skip: criterion guarantees truth
    # for all normal k, so assert exactly that on a second group.
    g = direct_product(cyclic(2), symmetric(3))
    from jicert import normal_subgroups

    for pair in critical_pairs(g):
        for k in normal_subgroups(g):
            assert check_centralize_or_contain(g, (pair.top, pair.bottom), k)


# -- E^p properness -------------------------------------------------------------


def test_ep_s4_not_applicable():
    v = check_ep_proper(symmetric(4), 2)
    assert v.status == "not-applicable"
    assert v.note == "a chief factor of order 4 is not central"


def test_ep_c2_s3_passes():
    v = check_ep_proper(direct_product(cyclic(2), symmetric(3)), 2)
    assert v.status == "pass"
    assert v.ep_order == 3
    assert v.ep_index == 4


def test_ep_c6_passes():
    v = check_ep_proper(cyclic(6), 2)
    assert v.status == "pass"
    assert v.ep_order == 3
    assert v.ep_index == 2


def test_ep_a5_not_applicable():
    v = check_ep_proper(alternating(5), 2)
    assert v.status == "not-applicable"
    assert "no chief factor is elementary abelian of exponent 2" in v.note


def test_ep_trivial_group():
    v = check_ep_proper(cyclic(1), 5)
    assert v.status == "not-applicable"


def test_ep_rejects_non_prime():
    with pytest.raises(ValueError):
        check_ep_proper(symmetric(3), 4)


def test_ep_multiplier_blocks():
    # C2 x A5: the A5 factor has an even multiplier order, so p = 2 gives no verdict
    v = check_ep_proper(direct_product(cyclic(2), alternating(5)), 2)
    assert v.status == "not-applicable"
    assert "multiplier order divisible by 2" in v.note


def test_ep_table_incomplete():
    g = direct_product(cyclic(2), alternating(5))
    v = check_ep_proper(g, 2, table=SchurTable(rows=(), order_bound=50))
    assert v.status == "table-incomplete"
    assert "outside the multiplier table" in v.note


# -- mark derivation ------------------------------------------------------------


def test_derive_fails_on_cyclic_base():
    doc = {
        "format": "jicert-system/1",
        "stages": [
            {"degree": 2, "generators": [[1, 0]]},
            {"degree": 4, "generators": [[1, 2, 3, 0]], "images": [[1, 0]]},
        ],
    }
    with pytest.raises(DerivationError) as err:
        derive_critical_marks(parse_system(json.dumps(doc)))
    assert err.value.level == 1


def test_derive_needs_two_stages(golden_prefix):
    doc = {"format": "jicert-system/1", "stages": [{"degree": 3, "generators": [[1, 2, 0]]}]}
    with pytest.raises(ValueError):
        derive_critical_marks(parse_system(json.dumps(doc)))


def test_derive_reproduces_golden_marks(golden_prefix):
    bare = parse_system(
        json.dumps(
            {
                "format": "jicert-system/1",
                "stages": [
                    {"degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]},
                    {
                        "degree": 4,
                        "generators": [[1, 2, 3, 0], [1, 0, 2, 3]],
                        "images": [[2, 1, 0], [0, 2, 1]],
                    },
                ],
            }
        )
    )
    derived = derive_critical_marks(bare)
    assert derived.a_marks[0] == golden_prefix.a_marks[0]
    assert derived.b0 == golden_prefix.b0
    assert derived.a_marks[1] == golden_prefix.a_marks[1]


def test_derive_on_wreath_tower():
    prefix = build_wreath_tower([("S3", 3)], 2)
    derived = derive_critical_marks(prefix)
    assert derived.a_marks[0].order == 6
    assert derived.b0.order == 3
    assert derived.a_marks[1].order == 648
    sv = check_critical_stage(
        derived.homs[0], derived.a_marks[1], derived.a_marks[0], derived.b0
    )
    assert sv.checks[CHECK_CRITICAL_PAIR].status == PASS
    assert sv.checks[CHECK_CENTRALIZER_PRODUCT].status == PASS


# -- whole-system certification ---------------------------------------------------


def test_certify_golden_all_options(golden_prefix):
    options = CertifyOptions(
        wilson=True,
        commuting_conjugates=True,
        strengthened=True,
        count_class=class_from_names(["C2", "C3"], SchurTable.load()),
    )
    verdict = certify_system(golden_prefix, options)
    s0, s1 = verdict.stages
    for name in (
        CHECK_CRITICAL_PAIR,
        CHECK_CENTRALIZER_PRODUCT,
        CHECK_WILSON_I,
        CHECK_WILSON_II,
        CHECK_COMMUTING_CONJUGATES,
        CHECK_DICHOTOMY,
        CHECK_NO_CENTRAL_FACTOR,
    ):
        assert s0.checks[name].status == PASS, name
    for name in (CHECK_WILSON_I, CHECK_WILSON_II, CHECK_COMMUTING_CONJUGATES):
        assert s1.checks[name].status == PASS, name
    for name in (CHECK_CRITICAL_PAIR, CHECK_CENTRALIZER_PRODUCT, CHECK_DICHOTOMY):
        assert s1.checks[name].status == NOT_APPLICABLE, name
    assert verdict.summary == "all requested checks pass at every applicable stage"
    assert verdict.class_counts.counts == (2, 4)
    assert verdict.class_counts.strictly_increasing
    assert "just infinite and not virtually pronilpotent" in verdict.limit_claim
    assert "hereditarily just infinite" in verdict.limit_claim
    assert "virtually abelian or hereditarily just infinite" in verdict.limit_claim


def test_certify_default_options(golden_prefix):
    verdict = certify_system(golden_prefix)
    s0, s1 = verdict.stages
    assert set(s0.checks) == {CHECK_CRITICAL_PAIR, CHECK_CENTRALIZER_PRODUCT}
    assert s0.checks[CHECK_CRITICAL_PAIR].status == PASS
    assert s1.checks[CHECK_CRITICAL_PAIR].status == NOT_APPLICABLE
    assert verdict.class_counts is None
    assert verdict.limit_claim.startswith("if the pair conditions continue to hold")
    assert "commuting-conjugates" not in verdict.limit_claim


def test_certify_tower_statuses(tower_prefix):
    verdict = certify_system(tower_prefix, CertifyOptions(wilson=True))
    stages = verdict.stages
    assert [s.checks[CHECK_CRITICAL_PAIR].status for s in stages] == [
        PASS, FAIL, FAIL, NOT_APPLICABLE,
    ]
    assert [s.checks[CHECK_CENTRALIZER_PRODUCT].status for s in stages] == [
        FAIL, FAIL, FAIL, NOT_APPLICABLE,
    ]
    for s in stages:
        assert s.checks[CHECK_WILSON_I].status == PASS
        assert s.checks[CHECK_WILSON_II].status == PASS
    assert "critical_pair fails at stage 1, 2" in verdict.summary
    assert "centralizer_product fails at stage 0, 1, 2" in verdict.summary
    # wilson holds everywhere, so its conditional claim stands alone
    assert verdict.limit_claim.startswith("if the kernel-containment")
    assert "pronilpotent" not in verdict.limit_claim


def test_certify_tower_without_wilson_has_no_claim(tower_prefix):
    verdict = certify_system(tower_prefix)
    assert verdict.limit_claim.startswith("no limit property is certified")


def test_certify_single_stage():
    prefix = parse_system(
        json.dumps(
            {
                "format": "jicert-system/1",
                "stages": [{"degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]}],
            }
        )
    )
    verdict = certify_system(prefix, CertifyOptions(wilson=True))
    assert verdict.limit_claim == (
        "the prefix has a single stage; no limit property is certified"
    )
    # no b0 mark: stage 0 wilson checks cannot run
    assert verdict.stages[0].checks[CHECK_WILSON_I].status == NOT_APPLICABLE


def test_certify_missing_marks_reported():
    doc = {
        "format": "jicert-system/1",
        "stages": [
            {"degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]},
            {
                "degree": 4,
                "generators": [[1, 2, 3, 0], [1, 0, 2, 3]],
                "images": [[2, 1, 0], [0, 2, 1]],
            },
        ],
    }
    verdict = certify_system(parse_system(json.dumps(doc)))
    res = verdict.stages[0].checks[CHECK_CRITICAL_PAIR]
    assert res.status == NOT_APPLICABLE
    assert res.note == "missing marks: a[1], a[0], b0"
    assert verdict.summary == "no checks were applicable"
    assert verdict.limit_claim.startswith("no limit property is certified")


def test_certify_rejects_empty_prefix():
    empty = SystemPrefix(
        records=(), groups=(), homs=(), a_marks=(), b0=None
    )
    with pytest.raises(ValueError):
        certify_system(empty)


def test_revalidate_unknown_check():
    with pytest.raises(ValueError):
        revalidate_witness("nonsense", {}, g=symmetric(3))


def test_revalidate_malformed_witnesses():
    s4, v4, _, triv = s4_subgroups()
    assert not revalidate_witness(CHECK_WILSON_I, {}, g=s4, k=triv)
    assert not revalidate_witness(
        CHECK_WILSON_I, {"normal_subgroup": {"order": 5, "generators": []}}, g=s4, k=triv
    )
    for witness in ({"element": "xy"}, {}, {"element": None}, {"element": [0, 0, 1, 2]},
                    {"element": [1, 0, 2]}, []):
        assert not revalidate_witness(CHECK_CENTRALIZER_PRODUCT, witness, g=s4, b=triv, p=v4)
    assert not revalidate_witness(CHECK_DICHOTOMY, {}, g=s4, a=v4, p=v4)
    for name in CHECK_ORDER:
        for witness in ([], "witness", None):
            assert not revalidate_witness(name, witness, g=s4, k=triv, a=v4, b=triv, p=v4)


def test_revalidate_rejects_malformed_subgroup_blobs():
    s4, _, _, triv = s4_subgroups()
    for blob in ({"order": 2}, {"generators": "xy"}, {"generators": [3]},
                 {"generators": [[0, 0, 1, 2]]}, {"generators": [[0, 1, 2]]}):
        assert not revalidate_witness(CHECK_WILSON_I, {"normal_subgroup": blob}, g=s4, k=triv)


def test_revalidate_surfaces_internal_defects(monkeypatch):
    def broken(parent, elems):
        raise RuntimeError("internal defect")

    s4, _, _, triv = s4_subgroups()
    monkeypatch.setattr("jicert.certifier.subgroup_generated", broken)
    witness = {"normal_subgroup": {"order": 4, "generators": [[1, 0, 3, 2], [2, 3, 0, 1]]}}
    with pytest.raises(RuntimeError, match="internal defect"):
        revalidate_witness(CHECK_WILSON_I, witness, g=s4, k=triv)


def test_revalidate_surfaces_internal_defects_in_element_witnesses(monkeypatch):
    def broken(images):
        raise RuntimeError("internal defect")

    s4, v4, _, triv = s4_subgroups()
    monkeypatch.setattr("jicert.certifier.Permutation", broken)
    with pytest.raises(RuntimeError, match="internal defect"):
        revalidate_witness(
            CHECK_CENTRALIZER_PRODUCT, {"element": [1, 0, 3, 2]}, g=s4, b=triv, p=v4
        )


def test_each_qualifying_subgroup_is_closed_once(monkeypatch):
    from jicert import certifier

    calls = []

    original = certifier.normal_closure

    def counting(parent, sub):
        calls.append((id(parent), sub.elements()))
        return original(parent, sub)

    monkeypatch.setattr(certifier, "normal_closure", counting)
    # wilson_ii fails at stages 1 and 2, so its sweeps reach qualifying subgroups
    prefix = build_wreath_tower([("C2", 2)], 3)
    options = CertifyOptions(wilson=True, commuting_conjugates=True, strengthened=True)
    verdict = certify_system(prefix, options)
    # re-checking the witnesses asks for their closures again, from the memo
    for n, stage in enumerate(verdict.stages[1:], 1):
        res = stage.checks[CHECK_WILSON_II]
        assert res.status == FAIL
        g, k = prefix.groups[n], prefix.kernel(n)
        assert revalidate_witness(CHECK_WILSON_II, res.witness, g=g, k=k)
    assert calls and len(calls) == len(set(calls))
    closed = [
        c for g in prefix.groups for c in g.element_index().commuting_closures.values()
    ]
    assert len(calls) == sum(c is not None for c in closed) == 4


def test_sweeps_on_a_chain_stage_are_bounded():
    # stage 1 has order 60^6 and no element table, so the sweeps cannot run there
    prefix = derive_critical_marks(build_wreath_tower([("A5", 5)], 2, chain_mode=True))
    assert prefix.groups[1].mode == "chain"
    options = CertifyOptions(wilson=True, commuting_conjugates=True, subgroup_bound=10**12)
    stage0, stage1 = certify_system(prefix, options).stages
    for name in (CHECK_WILSON_I, CHECK_WILSON_II, CHECK_COMMUTING_CONJUGATES):
        assert stage0.checks[name].status == PASS
        res = stage1.checks[name]
        assert res.status == BOUNDED
        assert "stage 1 of order 46656000000" in res.note
        assert "--dense-bound" in res.note


def test_pair_checks_on_a_chain_stage_are_bounded():
    # stage 1 has order 60^6 and no element table, so the normal lattice and
    # the centralizer of the pair checks cannot be computed there
    prefix = build_wreath_tower([("A5", 5), ("A5", 5), ("C2", 2)], 3, chain_mode=True)
    marked = prefix.with_marks(
        dict(enumerate(prefix.groups)), b0=PermGroup.trivial(prefix.groups[0].degree)
    )
    assert [g.mode for g in marked.groups] == ["dense", "chain", "chain"]
    verdict = certify_system(marked)
    stage0, stage1, stage2 = verdict.stages
    assert stage0.checks[CHECK_CRITICAL_PAIR].status == PASS
    # A5 times its centralizer escapes the trivial bottom mark
    assert stage0.checks[CHECK_CENTRALIZER_PRODUCT].status == FAIL
    for name in (CHECK_CRITICAL_PAIR, CHECK_CENTRALIZER_PRODUCT):
        res = stage1.checks[name]
        assert res.status == BOUNDED
        assert "stage 1 of order 46656000000" in res.note
        assert "--dense-bound" in res.note
        assert stage2.checks[name].status == NOT_APPLICABLE
    assert "critical_pair inconclusive (bounded) at stage 1" in verdict.summary
