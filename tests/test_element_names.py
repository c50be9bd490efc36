"""Subgroups of a stage are named by their element sets: every group found on
an element index carries the greedy generators of its position set, so the
reports, the derived marks and the central factors do not depend on the
order in which a search meets the subgroups, and one lattice serves every
generator list of the group that normalizes it."""

import pytest

from jicert import (
    build_wreath_tower,
    cyclic,
    direct_product,
    parse_system,
    serialize_system,
)
from jicert.certifier import CertifyOptions, certify_system, derive_critical_marks
from jicert.cli import main
from jicert.group import ElementIndex
from jicert.lattice import central_decomposition, critical_pairs
from test_index_closure import DATA
from test_sweep import greedy_name

ALL_FLAGS = ["--wilson", "--commuting-conjugates", "--strengthened"]


def _wreath(spec, depth, marked=False):
    def build():
        prefix = build_wreath_tower(spec, depth)
        return serialize_system(derive_critical_marks(prefix) if marked else prefix)

    return build


INPUTS = {
    "golden": lambda: (DATA / "s4_s3_prefix.json").read_text(),
    "cyclic2_tower": lambda: (DATA / "cyclic2_tower.json").read_text(),
    "S3:3 depth 2": _wreath([("S3", 3)], 2),
    "marked S3:3 depth 2": _wreath([("S3", 3)], 2, marked=True),
    "C2:2 depth 3": _wreath([("C2", 2)], 3),
    "C2:2,S3:3 depth 3": _wreath([("C2", 2), ("S3", 3)], 3),
    # --count-class meets a stage past the dense bound here and exits 2
    "marked S3:3 depth 3": _wreath([("S3", 3)], 3, marked=True),
}


def reverse_orbits(monkeypatch):
    """Hand every search its orbits in the opposite order."""
    orbits = ElementIndex.orbits
    monkeypatch.setattr(
        ElementIndex, "orbits", lambda self, span, under: orbits(self, span, under)[::-1]
    )


def all_flag_report(name, path, capsys, tag):
    out = path.with_name(f"{tag}.report.json")
    args = ["check", str(path), *ALL_FLAGS, "--json", str(out)]
    if name != "marked S3:3 depth 3":
        args += ["--count-class", "C2,C3"]
    code = main(args)
    return code, capsys.readouterr().out, out.read_bytes()


@pytest.mark.parametrize("name", list(INPUTS))
def test_reports_do_not_depend_on_orbit_order(name, tmp_path, capsys, monkeypatch):
    path = tmp_path / "prefix.json"
    path.write_text(INPUTS[name]())
    want = all_flag_report(name, path, capsys, "plain")
    assert want[0] in (0, 1), want[1]
    reverse_orbits(monkeypatch)
    assert all_flag_report(name, path, capsys, "reversed") == want


def test_derived_marks_do_not_depend_on_orbit_order(monkeypatch):
    want = INPUTS["marked S3:3 depth 3"]()
    reverse_orbits(monkeypatch)
    assert INPUTS["marked S3:3 depth 3"]() == want


def test_strengthened_check_sweeps_each_lattice_once():
    """One sweep per swept set and normalizing group: stage 1 (order 1296)
    keeps its normal lattice, the mark's normal lattice and the subgroups the
    mark normalizes; stage 0 its normal lattice, which the mark, the whole
    stage, shares."""
    prefix = parse_system(INPUTS["marked S3:3 depth 3"]())
    certify_system(prefix, CertifyOptions(strengthened=True))
    stage0, stage1 = prefix.groups[:2]
    assert (stage0.order, stage1.order) == (6, 1296)
    assert len(stage1.element_index().sweeps) == 3
    assert len(stage0.element_index().sweeps) == 1


def test_coprime_abelian_factors_are_greedily_named():
    g = direct_product(cyclic(3), cyclic(8))
    factors = central_decomposition(g)
    assert sorted(f.order for f in factors) == [3, 8]
    for f in factors:
        assert (f.elements(), f.generators) == greedy_name(g.degree, f.elements())


def test_critical_pairs_are_greedily_named(small_corpus):
    checked = 0
    for name, g in small_corpus.items():
        if g.order > 120:
            continue
        for pair in critical_pairs(g):
            for sub in pair:
                want = greedy_name(g.degree, sub.elements())
                assert (sub.elements(), sub.generators) == want, name
                checked += 1
    assert checked > 20
