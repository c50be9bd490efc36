import pytest

from jicert import (
    InputFormatError,
    PermGroup,
    Permutation,
    UnknownGroupError,
    alternating,
    composition_factors,
    cyclic,
    dihedral,
    identify_simple_type,
    is_simple,
    sl2,
    symmetric,
)
from jicert import simples
from jicert.group import center
from jicert.simples import SimpleGroupRow, SimpleTypeId, simple_table_rows
from quotient_ref import element_order_multiset, group_fingerprint, quotient


# -- F4 linear algebra for the order-20160 ambiguity ---------------------------
# F4 as polynomials over F2 mod x^2 + x + 1, encoded 0..3; addition is xor.

def _f4_mul(a, b):
    out = 0
    for bit in (1, 2):
        if b & bit:
            out ^= a * bit
    # reduce the x^2 and x^3 terms
    for power, rem in ((8, 0b110), (4, 0b11)):
        if out & power:
            out ^= power | rem
    return out


def _proj_points():
    """The 21 points of PG(2, 4): nonzero triples scaled so the first nonzero
    coordinate is 1."""
    points = []
    for v in ((a, b, c) for a in range(4) for b in range(4) for c in range(4)):
        if v == (0, 0, 0):
            continue
        lead = next(x for x in v if x)
        if lead == 1:
            points.append(v)
    return points


def _proj_action(matrix, points, index):
    def apply(v):
        w = [0, 0, 0]
        for i in range(3):
            for j in range(3):
                w[i] ^= _f4_mul(matrix[i][j], v[j])
        lead = next(x for x in w if x)
        # normalize by lead^-1; in F4: 1->1, 2->3, 3->2
        inv = {1: 1, 2: 3, 3: 2}[lead]
        return tuple(_f4_mul(inv, x) for x in w)

    return Permutation([index[apply(v)] for v in points])


def psl34():
    points = _proj_points()
    index = {v: i for i, v in enumerate(points)}
    gens = []
    for (i, j) in ((0, 1), (1, 2), (2, 0)):
        for c in (1, 2):
            m = [[1 if r == s else 0 for s in range(3)] for r in range(3)]
            m[i][j] = c
            gens.append(_proj_action(m, points, index))
    return PermGroup.from_generators(21, gens)


# -- tests ---------------------------------------------------------------------


def test_table_shape():
    rows = simple_table_rows()
    assert len(rows) == 56
    assert rows[0] == SimpleGroupRow("A5", 60, 2)
    assert rows[-1].order <= 1_000_000
    orders = [r.order for r in rows]
    assert orders == sorted(orders)
    assert len({r.name for r in rows}) == len(rows)


def test_is_simple():
    for g in (cyclic(2), cyclic(3), cyclic(5), alternating(5), alternating(6)):
        assert is_simple(g)
    for g in (cyclic(1), cyclic(4), cyclic(6), symmetric(4), dihedral(4), sl2(3)):
        assert not is_simple(g)


def test_element_order_multiset():
    assert element_order_multiset(symmetric(3)) == ((1, 1), (2, 3), (3, 2))
    assert element_order_multiset(cyclic(4)) == ((1, 1), (2, 1), (4, 2))


def test_group_fingerprint_invariance():
    assert group_fingerprint(symmetric(3)) == group_fingerprint(dihedral(3))
    assert group_fingerprint(symmetric(3)) != group_fingerprint(cyclic(6))
    # the regular-action Q8 differs from D4 only in the order multiset
    assert group_fingerprint(dihedral(4)) != group_fingerprint(
        PermGroup.from_generators(
            8,
            [Permutation([2, 3, 1, 0, 6, 7, 5, 4]), Permutation([4, 5, 7, 6, 1, 0, 2, 3])],
        )
    )


def test_identify_cyclic():
    tid = identify_simple_type(cyclic(7))
    assert tid.name == "C7" and tid.order == 7 and tid.is_cyclic
    assert tid == SimpleTypeId.cyclic(7)
    with pytest.raises(ValueError):
        SimpleTypeId.cyclic(6)


def test_identify_a5_and_psl27():
    tid = identify_simple_type(alternating(5))
    assert (tid.name, tid.order) == ("A5", 60)
    assert not tid.is_cyclic
    psl27, _ = quotient(sl2(7), center(sl2(7)))
    tid = identify_simple_type(psl27)
    assert (tid.name, tid.order) == ("PSL(2,7)", 168)


def test_identify_rejects_non_simple():
    with pytest.raises(ValueError):
        identify_simple_type(symmetric(4))


def test_order_20160_disambiguation():
    a8 = alternating(8)
    assert a8.order == 20160
    tid = identify_simple_type(a8)
    assert tid.name == "A8"
    assert element_order_multiset(a8)[-1][0] == 15

    g = psl34()
    assert g.order == 20160
    assert is_simple(g)
    tid = identify_simple_type(g)
    assert tid.name == "PSL(3,4)"
    assert element_order_multiset(g)[-1][0] == 7

    assert identify_simple_type(a8) != identify_simple_type(g)


def test_composition_factors_of_order_20160():
    """Both order-20160 types are read off the order and the largest element
    order, with no quotient of the regular representation."""
    assert composition_factors(alternating(8)) == {"A8": 1}
    assert composition_factors(psl34()) == {"PSL(3,4)": 1}


def test_unknown_order_reported(monkeypatch):
    truncated = tuple(r for r in simple_table_rows() if r.order != 60)
    monkeypatch.setattr(simples, "simple_table_rows", lambda: truncated)
    with pytest.raises(UnknownGroupError):
        identify_simple_type(alternating(5))


def test_ambiguous_order_without_known_marker(monkeypatch):
    fake = (SimpleGroupRow("X1", 60, 1), SimpleGroupRow("X2", 60, 1))
    monkeypatch.setattr(simples, "simple_table_rows", lambda: fake)
    with pytest.raises(UnknownGroupError):
        identify_simple_type(alternating(5))


def _rows_from_text(monkeypatch, tmp_path, text):
    path = tmp_path / "table.txt"
    path.write_text(text)
    monkeypatch.setattr(simples, "_DATA_PATH", path)
    simples.simple_table_rows.cache_clear()
    try:
        return simples.simple_table_rows()
    finally:
        simples.simple_table_rows.cache_clear()


def test_table_parser_accepts_comments_and_blanks(monkeypatch, tmp_path):
    rows = _rows_from_text(monkeypatch, tmp_path, "# header\n\nA5\t60\t2\n")
    assert rows == (SimpleGroupRow("A5", 60, 2),)


@pytest.mark.parametrize(
    "text",
    [
        "A5\t60\n",  # missing field
        "A5\t60\ttwo\n",  # non-integer
        "A5\t59\t2\n",  # order below the least simple order
        "A5\t60\t2\nA5\t60\t2\n",  # duplicate name
        "A6\t360\t6\nA5\t60\t2\n",  # out of order
        "",  # empty
    ],
)
def test_table_parser_rejects_bad_rows(monkeypatch, tmp_path, text):
    with pytest.raises(InputFormatError):
        _rows_from_text(monkeypatch, tmp_path, text)
