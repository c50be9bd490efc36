"""Every question a check asks about a subgroup of a stage is answered on
the stage's own element index.

certify_system and derive_critical_marks build one ElementIndex per stage
that holds a table and none for a subgroup; maximal_normal_subgroups and
central_decomposition of a normal subgroup n, read on g's index, give what
n gives as the group, element sets and generator lists both.
"""

import pytest

from jicert import (
    CertifyOptions,
    build_wreath_tower,
    certify_system,
    derive_critical_marks,
    parse_system,
    serialize_system,
)
from jicert.classdata import SchurTable, class_from_names
from jicert.group import ElementIndex
from jicert.lattice import central_decomposition, maximal_normal_subgroups, normal_subgroups
from test_index_closure import DATA, tower_stages
from test_sweep import _certify_sweep_prefix

THREE_FAMILIES = CertifyOptions(wilson=True, commuting_conjugates=True, strengthened=True)


@pytest.fixture
def built(monkeypatch):
    """The orders of the element indexes built while the test runs."""
    orders = []
    original = ElementIndex.__init__

    def counting(self, degree, elems, gens):
        orders.append(len(elems))
        original(self, degree, elems, gens)

    monkeypatch.setattr(ElementIndex, "__init__", counting)
    return orders


def test_certify_sweep_builds_one_index_per_stage(built):
    options = THREE_FAMILIES._replace(
        count_class=class_from_names(["C2", "C3"], SchurTable.load())
    )
    certify_system(_certify_sweep_prefix(), options)
    assert built == [6, 48]  # 4 builds when each mark had an index of its own


def test_golden_prefix_builds_one_index_per_stage(built):
    prefix = parse_system((DATA / "s4_s3_prefix.json").read_text())
    certify_system(prefix, THREE_FAMILIES)
    assert built == [6, 24]


def test_marked_wreath_tower_builds_one_index_per_stage(built):
    prefix = derive_critical_marks(build_wreath_tower([("S3", 3)], 3))
    assert built == [6, 1296]
    built.clear()
    # parsed afresh, so no stage holds an index yet; the deepest stage, of
    # order 6^13, is above the dense bound
    certify_system(parse_system(serialize_system(prefix)), THREE_FAMILIES)
    assert built == [6, 1296]  # 7 builds when marks and normal subgroups had their own


def normal_subgroups_of_stages(corpus):
    for name, g in [*corpus.items(), *tower_stages()]:
        for n in normal_subgroups(g):
            if not n.is_trivial():
                yield name, g, n


def signature(groups):
    return None if groups is None else [(h.elements(), h.generators) for h in groups]


def test_maximal_normal_subgroups_on_the_stage_index(corpus):
    for name, g, n in normal_subgroups_of_stages(corpus):
        want = signature(maximal_normal_subgroups(n))
        assert signature(maximal_normal_subgroups(g, n)) == want, (name, n.order)


def test_central_decomposition_on_the_stage_index(corpus):
    for name, g, n in normal_subgroups_of_stages(corpus):
        want = signature(central_decomposition(n))
        assert signature(central_decomposition(g, n)) == want, (name, n.order)
