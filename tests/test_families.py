"""The family table against the hand-written family loops it replaced.

certify_system runs every check family from one table; tests/certify_ref.py
keeps the loop-per-family version. For every subset of the opt-in families
both give the same verdict: statuses, notes, witnesses, summary and limit
claim, stage by stage. A small subgroup bound and a small dense bound make
the families' bounded results show too.
"""

import itertools
from pathlib import Path

import pytest

from certify_ref import reference_certify_system, reference_limit_claim
from jicert import build_wreath_tower, derive_critical_marks, parse_system, serialize_system
from jicert.certifier import (
    CHECK_ORDER,
    PASS,
    CertifyOptions,
    CheckResult,
    StageVerdict,
    _limit_claim,
    certify_system,
)

DATA = Path(__file__).parent / "data"

FLAG_SUBSETS = [
    CertifyOptions(wilson=w, commuting_conjugates=c, strengthened=s)
    for w, c, s in itertools.product((False, True), repeat=3)
]
SMALL_SUBGROUP_BOUND = [o._replace(subgroup_bound=10) for o in FLAG_SUBSETS]


def _prefixes():
    wreath = build_wreath_tower([("S3", 3)], 2)
    return {
        "s4_s3_prefix": parse_system((DATA / "s4_s3_prefix.json").read_text()),
        "cyclic2_tower": parse_system((DATA / "cyclic2_tower.json").read_text()),
        "s3_wreath_unmarked": wreath,
        "s3_wreath_derived": derive_critical_marks(wreath),
        "s3_wreath_dense_bound_100": derive_critical_marks(
            parse_system(serialize_system(wreath), dense_bound=100)
        ),
    }


PREFIXES = _prefixes()


def _option_id(o: CertifyOptions) -> str:
    flags = "".join(f if on else "-" for f, on in zip("wcs", o[:3]))
    return f"{flags}-bound{o.subgroup_bound}"


@pytest.mark.parametrize("name", sorted(PREFIXES))
@pytest.mark.parametrize("options", FLAG_SUBSETS + SMALL_SUBGROUP_BOUND, ids=_option_id)
def test_table_matches_the_family_loops(name, options):
    prefix = PREFIXES[name]
    got, want = certify_system(prefix, options), reference_certify_system(prefix, options)
    assert [sv.checks for sv in got.stages] == [sv.checks for sv in want.stages]
    assert got == want


def test_every_family_and_note_is_exercised():
    # the comparison above sees every status and each not-applicable note
    everything = CertifyOptions(wilson=True, commuting_conjugates=True, strengthened=True)
    results = [
        res
        for prefix in PREFIXES.values()
        for options in (everything, everything._replace(subgroup_bound=10))
        for sv in certify_system(prefix, options).stages
        for res in sv.checks.values()
    ]
    notes = {res.note for res in results if res.status == "not-applicable"}
    assert {
        "missing marks: a[1], a[0], b0",
        "stage 0 has no b0 mark to act as kernel",
        "missing mark a[0]",
        "missing marks",
        "deepest stage: no further connecting map",
    } <= notes
    assert {res.status for res in results} == {"pass", "fail", "not-applicable", "bounded"}
    bounded = [res.note for res in results if res.status == "bounded"]
    assert any("--dense-bound" in note for note in bounded)
    assert any("subgroup bound 10" in note for note in bounded)


def test_check_order_is_unchanged():
    assert CHECK_ORDER == (
        "critical_pair",
        "centralizer_product",
        "wilson_i",
        "wilson_ii",
        "commuting_conjugates",
        "normalized_dichotomy",
        "no_central_factor",
    )


@pytest.mark.parametrize("options", FLAG_SUBSETS)
def test_limit_claim_matches_on_every_pass_pattern(options):
    # a three-stage prefix where each check passes or not at each stage, so
    # every family's stage range is tested, the deepest stage included
    names = CHECK_ORDER
    for mask in range(1 << len(names)):
        for failing_stage in (0, 1, 2):
            stages = tuple(
                StageVerdict(
                    n,
                    1,
                    1,
                    {
                        name: CheckResult(
                            "fail" if n == failing_stage and mask >> i & 1 else PASS
                        )
                        for i, name in enumerate(names)
                    },
                )
                for n in range(3)
            )
            assert _limit_claim(stages, options) == reference_limit_claim(stages, options)
