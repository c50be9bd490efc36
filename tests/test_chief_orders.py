"""Chief factors read off their orders.

_chief_factors names each chief factor hi/lo by section_type, from its order
alone. The reference is the quotient path it replaced (tests/quotient_ref.py):
the regular representation quotient(hi, lo), decomposed by
decompose_char_simple through a minimal normal subgroup and
identify_simple_type.
"""

from pathlib import Path

import pytest

import jicert
from jicert import (
    PermGroup,
    SchurTable,
    UnknownGroupError,
    alternating,
    build_wreath_tower,
    check_ep_proper,
    chief_series,
    class_from_names,
    composition_factors,
    count_class_factors,
    cyclic,
    direct_product,
    parse_system,
    sl2,
    wreath_product,
)
from jicert import hom, lattice, library, simples
from jicert.group import DEFAULT_DENSE_BOUND
from jicert.lattice import _chief_factors
from jicert.simples import SimpleGroupRow, max_coset_order, section_type, simple_table_rows
from quotient_ref import decompose_char_simple, quotient

DATA = Path(__file__).parent / "data"
SRC = Path(jicert.__file__).parent

# the quotient path's functions, kept in tests/quotient_ref.py
REFERENCE_ONLY = ("quotient", "group_fingerprint", "element_order_multiset", "decompose_char_simple")

TOWERS = {
    "C2:2 depth 3": ([("C2", 2)], 3),
    "S3:3 depth 2": ([("S3", 3)], 2),
    "S3:3,C2:2 depth 2": ([("S3", 3), ("C2", 2)], 2),
    "A4:4,C2:2 depth 2": ([("A4", 4), ("C2", 2)], 2),
    "C2:2,A5:5 depth 2": ([("C2", 2), ("A5", 5)], 2),
}

EXTRAS = {
    "A5xA5": lambda: direct_product(alternating(5), alternating(5)),
    "A5wrC2": lambda: wreath_product(alternating(5), cyclic(2)),
    "SL(2,5)": lambda: sl2(5),
    "C2xA7": lambda: direct_product(cyclic(2), alternating(7)),
}


def _stages():
    out = {}
    for path in ("s4_s3_prefix.json", "cyclic2_tower.json"):
        for i, g in enumerate(parse_system((DATA / path).read_text()).groups):
            out[f"{path}[{i}]"] = g
    for name, (specs, depth) in TOWERS.items():
        for i, g in enumerate(build_wreath_tower(specs, depth).groups):
            out[f"{name}[{i}]"] = g
    return out


def _regular_order(x):
    """Order of an element of a regular permutation group: every cycle has
    the same length, so it is the length of the cycle through point 0."""
    n, y = 1, x.images[0]
    while y != 0:
        n, y = n + 1, x.images[y]
    return n


# the quotient reference of each group, by element set: the A5 wr C2 of the
# products is also stage 1 of the C2:2,A5:5 tower
_REFERENCES = {}


def _reference(g):
    """(lo, hi, type, multiplicity, largest element order of the quotient) per
    chief factor, from quotient(hi, lo)."""
    if g.elements() not in _REFERENCES:
        series = chief_series(g)
        want = []
        for lo, hi in zip(series, series[1:]):
            q, _ = quotient(hi, lo)
            want.append((lo, hi, *decompose_char_simple(q), max(map(_regular_order, q.elements()))))
        _REFERENCES[g.elements()] = want
    return _REFERENCES[g.elements()]


def _assert_matches_reference(name, g):
    want = _reference(g)
    got = [(lo, hi, tid, k, max_coset_order(hi, lo)) for lo, hi, tid, k in _chief_factors(g)]
    assert got == want, name


def test_chief_factors_match_the_quotient_reference_on_the_corpus(small_corpus):
    for name, g in small_corpus.items():
        _assert_matches_reference(name, g)


def test_chief_factors_match_the_quotient_reference_on_the_towers():
    stages = _stages()
    assert len(stages) == 3 + 3 + 2 * len(TOWERS) + 1
    for name, g in stages.items():
        _assert_matches_reference(name, g)


@pytest.mark.parametrize("name", sorted(EXTRAS))
def test_chief_factors_match_the_quotient_reference_on_products(name):
    _assert_matches_reference(name, EXTRAS[name]())


def test_factor_counts_build_no_quotient(corpus):
    """The quotient path lives in the tests only: no jicert module exposes it
    or imports its reference, and the counts come out right without it."""
    for mod in (jicert, hom, lattice, simples, library):
        for name in REFERENCE_ONLY:
            assert not hasattr(mod, name), (mod.__name__, name)
    assert not hasattr(hom.GroupHom, "compose")
    for path in SRC.glob("*.py"):
        assert "quotient_ref" not in path.read_text(), path.name
    table = SchurTable.load()
    cls = class_from_names(["C2", "C3", "A5"], table)
    for name, g in corpus.items():
        factors = composition_factors(g)
        want = sum(k for factor, k in factors.items() if factor in cls.member_names)
        assert count_class_factors(g, cls) == want, name
        for p in (2, 3, 5):
            check_ep_proper(g, p, table)


def test_table_orders_fit_one_power_within_the_dense_bound():
    """Within the dense bound, a power of a table row's order is the power of
    no other row, except the two order-20160 rows."""
    fits = {}
    for row in simple_table_rows():
        power, k = row.order, 1
        while power <= DEFAULT_DENSE_BOUND:
            fits.setdefault(power, []).append((row.name, k))
            power, k = power * row.order, k + 1
    shared = {m: rows for m, rows in fits.items() if len(rows) > 1}
    assert shared == {20160: [("A8", 1), ("PSL(3,4)", 1)]}


def test_section_type_refuses_several_fits(monkeypatch):
    fake = (SimpleGroupRow("X1", 60, 1), SimpleGroupRow("X2", 3600, 1))
    monkeypatch.setattr(simples, "simple_table_rows", lambda: fake)
    a5 = alternating(5)
    g = direct_product(a5, a5)
    assert section_type(a5, PermGroup.trivial(5))[0].name == "X1"
    with pytest.raises(UnknownGroupError):
        section_type(g, PermGroup.trivial(g.degree))
