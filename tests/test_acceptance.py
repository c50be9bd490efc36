"""End-to-end acceptance sweep.

One test per advertised guarantee, so `pytest -v tests/test_acceptance.py`
prints one pass/fail line per criterion. The corpus sweeps cross-check the
package against the independent brute-force oracles in oracles.py.
"""

import math
import random
import time
from pathlib import Path

import pytest

import oracles
from full_sweep import all_subgroups
from jicert import (
    DenseBoundExceededError,
    PermGroup,
    Permutation,
    alternating,
    build_wreath_tower,
    central_decomposition,
    centdec_witness,
    check_centralize_or_contain,
    check_critical_stage,
    check_ep_proper,
    check_wilson_stage,
    chief_factor_pairs,
    composition_factors,
    critical_pairs,
    derive_critical_marks,
    find_critical_refinement,
    maximal_normal_subgroups,
    normal_subgroups,
    parse_system,
    wreath_product,
)
from jicert.certifier import (
    CHECK_CENTRALIZER_PRODUCT,
    CHECK_CRITICAL_PAIR,
    CHECK_WILSON_I,
    CHECK_WILSON_II,
    FAIL,
    PASS,
)
from jicert.cli import main as cli_main
from jicert.group import center, centralizer_of_section, intersection, product_order
from quotient_ref import element_order_multiset, quotient

DATA = Path(__file__).parent / "data"
SWEEP_ORDER_BOUND = 2000

GOLDEN_CHECK_ARGS = [
    "check",
    str(DATA / "s4_s3_prefix.json"),
    "--wilson",
    "--commuting-conjugates",
    "--strengthened",
    "--count-class",
    "C2,C3",
]


@pytest.fixture(scope="module")
def sweep(corpus):
    return {k: g for k, g in corpus.items() if g.order <= SWEEP_ORDER_BOUND}


def elem_tuples(g):
    return frozenset(tuple(p) for p in g.elements())


def canon(sets):
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def pair_key(top, bottom):
    return (len(top), sorted(top), len(bottom), sorted(bottom))


def test_criterion_01_corpus_matches_oracles(sweep):
    """Normal structure of every corpus group agrees with the oracles."""
    start = time.perf_counter()
    assert len(sweep) >= 25
    for name, g in sweep.items():
        elems = elem_tuples(g)

        got = canon([elem_tuples(n) for n in normal_subgroups(g)])
        assert got == oracles.normal_subgroups(g.degree, elems), name

        got_pairs = sorted(
            (elem_tuples(p.top), elem_tuples(p.bottom)) for p in critical_pairs(g)
        )
        want_pairs = sorted(
            (frozenset(a), frozenset(b))
            for a, b in oracles.critical_pairs(g.degree, elems)
        )
        assert got_pairs == want_pairs, name

        flat = []
        for factor, count in composition_factors(g).items():
            flat.extend([factor] * count)
        assert tuple(sorted(flat)) == oracles.composition_factor_names(
            g.degree, elems
        ), name

        witness = central_decomposition(g)
        want_verdict, _ = oracles.central_decomposition_verdict(g.degree, elems)
        assert (witness is not None) == want_verdict, name
        if witness is not None:
            h, k = witness
            assert h.order < g.order and k.order < g.order, name
            assert all(x * y == y * x for x in h.generators for y in k.generators), name
            assert product_order(h, k) == g.order, name
    assert time.perf_counter() - start < 300


def test_criterion_02_centralize_or_contain_everywhere(sweep):
    """Every normal subgroup centralizes a critical factor or contains its top."""
    checked = 0
    for name, g in sweep.items():
        normals = normal_subgroups(g)
        for pair in critical_pairs(g):
            for k in normals:
                assert check_centralize_or_contain(g, (pair.top, pair.bottom), k), (
                    name,
                    pair.top.order,
                    pair.bottom.order,
                    k.order,
                )
                checked += 1
    assert checked > 0


def test_criterion_03_every_chief_factor_refines(sweep):
    """Each chief factor is carried by a critical pair with the same section."""
    for name, g in sweep.items():
        for lo, hi in chief_factor_pairs(g):
            pair = find_critical_refinement(g, hi, lo)
            a, b = pair.top, pair.bottom
            assert a.is_subgroup_of(hi), name
            assert product_order(a, lo) == hi.order, name
            assert intersection(a, lo) == b, name
            chief_q, _ = quotient(hi, lo)
            pair_q, _ = quotient(a, b)
            assert chief_q.order == pair_q.order, name
            assert element_order_multiset(chief_q) == element_order_multiset(pair_q), name
            assert centralizer_of_section(g, hi, lo) == centralizer_of_section(g, a, b), name


def test_criterion_04_ep_subgroup_always_proper(sweep):
    """Wherever its hypotheses hold, the E^p subgroup comes out proper."""
    passed = 0
    for name, g in sweep.items():
        for p in (2, 3, 5, 7):
            v = check_ep_proper(g, p)
            assert v.status != "fail", (name, p, v.note)
            if v.status == "pass":
                assert v.ep_index > 1, (name, p)
                passed += 1
    assert passed > 0


def test_criterion_05_centdec_witness_never_exhausts(sweep):
    """Decomposable groups always yield a witness pair, for every K and L."""
    # D6 of order 12 splits as C2 x S3 off its central reflection
    expected = {"C2xS3", "D6", "S3xS3", "C2xA4", "C2xC2xS3", "D4oC4", "Q8oC4"}
    applicable = set()
    for name, g in sweep.items():
        if central_decomposition(g) is None:
            continue
        z = center(g)
        noncentral = [k for k in all_subgroups(g) if not k.is_subgroup_of(z)]
        if not noncentral:
            continue  # abelian decomposables have no non-central subgroup
        applicable.add(name)
        for k in noncentral:
            for lsub in normal_subgroups(g):
                if lsub.order == 1:
                    continue
                h, m = centdec_witness(g, k, lsub)
                assert h.is_normal_in(g), name
                assert m in maximal_normal_subgroups(lsub), name
                assert not k.is_subgroup_of(h), name
                assert not h.is_subgroup_of(m), name
    assert applicable == expected


def test_criterion_06_tower_verdicts_and_golden_bytes(tmp_path, capsys):
    """The cyclic 2-tower splits the check families; the golden report is stable."""
    prefix = parse_system((DATA / "cyclic2_tower.json").read_text())
    n = len(prefix.groups)
    for i in range(n):
        k = prefix.b0 if i == 0 else prefix.kernel(i)
        sv = check_wilson_stage(prefix.groups[i], k)
        assert sv.checks[CHECK_WILSON_I].status == PASS, i
        assert sv.checks[CHECK_WILSON_II].status == PASS, i
    for i in range(n - 1):
        b = prefix.b0 if i == 0 else prefix.kernel(i)
        sv = check_critical_stage(
            prefix.homs[i], prefix.a_marks[i + 1], prefix.a_marks[i], b
        )
        statuses = {res.status for res in sv.checks.values()}
        assert FAIL in statuses, i

    out = tmp_path / "report.json"
    code = cli_main(GOLDEN_CHECK_ARGS + ["--json", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == (DATA / "s4_s3_report.json").read_bytes()


def test_criterion_07_derived_marks_certify():
    """Marks derived for the wreath tower pass the pair checks unaided."""
    prefix = build_wreath_tower([("S3", 3)], 2)
    derived = derive_critical_marks(prefix)
    for i in range(len(derived.groups) - 1):
        b = derived.b0 if i == 0 else derived.kernel(i)
        sv = check_critical_stage(
            derived.homs[i], derived.a_marks[i + 1], derived.a_marks[i], b
        )
        assert sv.checks[CHECK_CRITICAL_PAIR].status == PASS, i
        assert sv.checks[CHECK_CENTRALIZER_PRODUCT].status == PASS, i


def test_criterion_08_reports_byte_identical(tmp_path, capsys):
    """Same fixture, same options, same bytes."""
    runs = [
        (GOLDEN_CHECK_ARGS, "golden"),
        (["check", str(DATA / "cyclic2_tower.json"), "--wilson"], "tower"),
    ]
    for args, tag in runs:
        first = tmp_path / f"{tag}1.json"
        second = tmp_path / f"{tag}2.json"
        code1 = cli_main(args + ["--json", str(first)])
        code2 = cli_main(args + ["--json", str(second)])
        capsys.readouterr()
        assert code1 == code2, tag
        assert first.read_bytes() == second.read_bytes(), tag


def test_criterion_09_chain_and_dense_modes_agree(corpus):
    """Both closure strategies see the same groups; big wreaths stay fast."""
    rng = random.Random(20260819)
    for name, g in corpus.items():
        gens = list(g.generators)
        dense = PermGroup.from_generators(g.degree, gens, dense_bound=10**7)
        chain = PermGroup.from_generators(g.degree, gens, dense_bound=0)
        assert chain.order == dense.order, name
        members = dense.elements()
        assert all(chain.contains(p) for p in members), name
        if dense.order < math.factorial(g.degree):
            misses = 0
            while misses < 5:
                images = list(range(g.degree))
                rng.shuffle(images)
                p = Permutation(images)
                if p in members:
                    continue
                assert not chain.contains(p), name
                misses += 1

    start = time.perf_counter()
    w = wreath_product(alternating(5), alternating(5))
    elapsed = time.perf_counter() - start
    with pytest.raises(DenseBoundExceededError):
        w.elements()
    assert w.order == 46_656_000_000
    assert elapsed < 10
