import pytest

from jicert import (
    UnknownGroupError,
    alternating,
    central_product,
    cyclic,
    dihedral,
    direct_product,
    named_group,
    quaternion8,
    sl2,
    symmetric,
)
from jicert.group import center, derived_subgroup
import quotient_ref
from quotient_ref import group_fingerprint


def test_orders():
    assert cyclic(1).order == 1
    assert cyclic(12).order == 12
    assert symmetric(5).order == 120
    assert alternating(6).order == 360
    assert dihedral(7).order == 14
    assert quaternion8().order == 8
    assert sl2(3).order == 24
    assert sl2(5).order == 120


def test_degree_conventions():
    assert cyclic(6).degree == 6
    assert dihedral(6).degree == 6
    assert sl2(5).degree == 24  # nonzero vectors of F5^2


def test_argument_validation():
    with pytest.raises(ValueError):
        cyclic(0)
    with pytest.raises(ValueError):
        symmetric(0)
    with pytest.raises(ValueError):
        alternating(2)
    with pytest.raises(ValueError):
        dihedral(2)


def test_alternating_is_even_half():
    for n in (3, 4, 5, 6):
        assert alternating(n).order * 2 == symmetric(n).order
    assert alternating(4).is_subgroup_of(symmetric(4))


def test_quaternion_structure():
    q8 = quaternion8()
    assert center(q8).order == 2
    assert derived_subgroup(q8).order == 2
    # a single element of order 2
    assert sum(1 for x in q8.elements() if x.order() == 2) == 1


def test_sl2_structure():
    s = sl2(5)
    assert center(s).order == 2
    assert derived_subgroup(s) == s


def test_central_product_d4_c4():
    g = central_product(dihedral(4), cyclic(4))
    assert g.order == 16
    assert center(g).order == 4
    # D4 o C4 and Q8 o C4 are isomorphic; both are extraspecial-like of order 16
    h = central_product(quaternion8(), cyclic(4))
    assert h.order == 16
    assert group_fingerprint(g) == group_fingerprint(h)


@pytest.mark.parametrize(
    "a, b",
    [
        (dihedral(4), cyclic(4)),
        (quaternion8(), cyclic(4)),
        (dihedral(4), quaternion8()),
        (cyclic(4), cyclic(4)),
        (direct_product(cyclic(2), cyclic(2)), dihedral(4)),
    ],
    ids=["D4oC4", "Q8oC4", "D4oQ8", "C4oC4", "V4oD4"],
)
def test_central_product_matches_quotient_reference(a, b):
    got, want = central_product(a, b), quotient_ref.central_product(a, b)
    assert got.generators == want.generators
    assert got.sorted_elements() == want.sorted_elements()


def test_central_product_needs_central_involution():
    with pytest.raises(ValueError):
        central_product(symmetric(3), cyclic(4))


def test_named_group():
    assert named_group("C6").order == 6
    assert named_group("S4").order == 24
    assert named_group("A5").order == 60
    assert named_group("D4").order == 8
    assert named_group("Q8").order == 8
    assert named_group("SL(2,3)").order == 24
    for bad in ("B2", "S", "C-1", "PSL(2,7)", "q8", "SL(3,2)"):
        with pytest.raises(UnknownGroupError):
            named_group(bad)
