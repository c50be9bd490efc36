import json
from pathlib import Path

import pytest

from jicert import (
    SchurTable,
    SimpleClass,
    alternating,
    class_from_names,
    count_class_factors,
    direct_product,
    identify_simple_type,
    schur_closure_check,
    symmetric,
)
from jicert.cli import main
from jicert.errors import KernelBugError
from jicert.group import center, derived_subgroup
from jicert.library import sl2
from jicert.simples import SimpleGroupRow, SimpleTypeId, is_simple
from quotient_ref import quotient


def test_load_applies_bound():
    table = SchurTable.load()
    assert table.order_bound == 1_000_000
    assert len(table.rows) == 56
    small = SchurTable.load(10_000)
    assert all(r.order <= 10_000 for r in small.rows)
    assert len(small.rows) == 16


def test_load_is_cached():
    assert SchurTable.load() is SchurTable.load()


def test_multiplier_spot_values():
    table = SchurTable.load()
    expected = {
        "A5": 2,
        "A6": 6,
        "M11": 1,
        "M22": 12,
        "PSL(3,4)": 48,
        "Sz(8)": 4,
        "PSU(3,5)": 3,
    }
    for name, mult in expected.items():
        assert table.multiplier_order(name) == mult, name
    with pytest.raises(KeyError):
        table.multiplier_order("E8(2)")


def _spot_check(table: SchurTable) -> None:
    """Witness one table row: SL(2,5) is a perfect central extension, with
    center of order 2, of a simple group of order 60, so that row's
    multiplier order must be even."""
    s = sl2(5)
    if derived_subgroup(s).order != s.order:
        raise KernelBugError("SL(2,5) should be perfect")
    z = center(s)
    if z.order != 2:
        raise KernelBugError("SL(2,5) should have center of order 2")
    q, _ = quotient(s, z)
    if q.order != 60 or not is_simple(q):
        raise KernelBugError("SL(2,5) modulo its center should be simple of order 60")
    for row in table.rows:
        if row.order == 60:
            if row.multiplier_order % 2 != 0:
                raise KernelBugError("order-60 multiplier row contradicts its double cover")
            return
    if table.order_bound >= 60:
        raise KernelBugError("table is missing the order-60 simple group")


@pytest.mark.parametrize("order_bound", [1_000_000, 10_000])
def test_shipped_table_passes_spot_check(order_bound):
    # the table ships with the package, so it is checked here and not on every load
    _spot_check(SchurTable.load(order_bound))


def test_spot_check_detects_corruption():
    bad = SchurTable(rows=(SimpleGroupRow("A5", 60, 3),), order_bound=100)
    with pytest.raises(KernelBugError):
        _spot_check(bad)
    missing = SchurTable(rows=(), order_bound=100)
    with pytest.raises(KernelBugError):
        _spot_check(missing)
    # a table bounded below order 60 legitimately has no order-60 row
    _spot_check(SchurTable(rows=(), order_bound=50))


def test_class_from_names():
    table = SchurTable.load()
    cls = class_from_names(["C2", "C3", "A5"], table)
    assert cls.primes == {2, 3}
    assert cls.member_names == {"C2", "C3", "A5"}
    with pytest.raises(KeyError):
        class_from_names(["A2"], table)
    with pytest.raises(ValueError):
        class_from_names(["C4"], table)


def test_closure_check_pass():
    table = SchurTable.load()
    # {C5} needs every group whose multiplier order is divisible by 5
    fives = [r.name for r in table.rows if r.multiplier_order % 5 == 0]
    cls = class_from_names(["C5"] + fives, table)
    verdict = schur_closure_check(cls, table)
    assert verdict.ok
    assert verdict.missing == ()
    assert verdict.text == "pass (up to order 1000000)"


def test_closure_check_failure_lists_missing():
    table = SchurTable.load()
    verdict = schur_closure_check(class_from_names(["C2"], table), table)
    assert not verdict.ok
    assert len(verdict.missing) == 44
    assert "A5" in verdict.missing
    assert verdict.text.startswith("fail: missing ")
    # classes with no primes are vacuously closed
    assert schur_closure_check(class_from_names(["A5"], table), table).ok


def test_closure_check_two_primes():
    table = SchurTable.load()
    verdict = schur_closure_check(class_from_names(["C2", "C3"], table), table)
    assert not verdict.ok
    assert len(verdict.missing) == 45


def test_count_class_factors():
    table = SchurTable.load()
    cls = class_from_names(["C2"], table)
    assert count_class_factors(symmetric(4), cls) == 3
    assert count_class_factors(alternating(5), cls) == 0
    both = class_from_names(["C2", "A5"], table)
    assert count_class_factors(direct_product(alternating(5), symmetric(4)), both) == 4
    assert count_class_factors(symmetric(4), SimpleClass(frozenset())) == 0


def test_class_membership_identity():
    # a name-built id is the table row's (name, order), equal to the identified id
    table = SchurTable.load()
    (tid,) = class_from_names(["A5"], table).members
    assert (tid.name, tid.order) == ("A5", 60)
    assert tid == identify_simple_type(alternating(5))
    assert SimpleTypeId.cyclic(2) in class_from_names(["C2"], table).members


@pytest.mark.parametrize("names", [["A8", "PSL(3,4)"], ["PSL(3,4)", "A8"]])
def test_class_keeps_both_order_20160_members(names):
    cls = class_from_names(names, SchurTable.load())
    assert cls.member_names == {"A8", "PSL(3,4)"}
    assert len(cls.members) == 2


def test_count_class_report_lists_both_order_20160_members(tmp_path, capsys):
    prefix = Path(__file__).parent / "data" / "s4_s3_prefix.json"
    out = tmp_path / "report.json"
    assert main(["check", str(prefix), "--count-class", "A8,PSL(3,4)", "--json", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["class_factor_counts"]["members"] == ["A8", "PSL(3,4)"]
