"""Lattices kept on the element index: each group object gets its own normal
lattice, a sweep of the whole group is shared, the reference sweep of a
subgroup runs on the parent's index and matches the subgroup's own sweep,
the certifier builds no index per swept normal subgroup, the reference's
double cosets against brute force, and composition factors of p-groups."""

from pathlib import Path

import pytest

import oracles
from full_sweep import all_subgroups, cover_double_coset
from jicert import (
    DenseBoundExceededError,
    PermGroup,
    Permutation,
    alternating,
    build_wreath_tower,
    parse_system,
    serialize_system,
)
from jicert.certifier import CertifyOptions, certify_system
from jicert.classdata import SchurTable, class_from_names
from jicert.group import ElementIndex
from jicert.lattice import (
    _chief_factors,
    composition_factors,
    invariant_subgroups,
    normal_subgroups,
)
from test_index_closure import reference_normal_subgroups
from test_sweep import _certify_sweep_prefix, _certify_sweep_stage, reference_index_sweep, signature

DATA = Path(__file__).parent / "data"


def fresh(n):
    """n again, as a new group object with the same generators and no index."""
    return PermGroup.from_generators(n.degree, n.generators)


def test_equal_groups_keep_their_own_normal_lattices():
    library = alternating(4)
    other = PermGroup.from_generators(4, [Permutation([1, 0, 3, 2]), Permutation([0, 2, 3, 1])])
    assert library == other and library.generators != other.generators
    for g in (library, other):
        got = [(n.elements(), n.generators) for n in normal_subgroups(g)]
        assert got == reference_normal_subgroups(g)
    # the two lattices differ in their V4 generators, so neither answered for the other
    assert normal_subgroups(library)[1].generators != normal_subgroups(other)[1].generators


def assert_restricted_sweeps_match(g, subgroups, name):
    for n in subgroups:
        want = signature(reference_index_sweep(fresh(n)))
        assert signature(all_subgroups(g, n)) == want, (name, n.order, n.generators)


def test_restricted_sweep_matches_own_sweep_on_corpus(small_corpus):
    for name, g in small_corpus.items():
        if g.order <= 120:
            assert_restricted_sweeps_match(g, normal_subgroups(g), name)
    for name in ("S4", "D8"):
        g = small_corpus[name]
        assert_restricted_sweeps_match(g, all_subgroups(g), name)


@pytest.mark.parametrize("tower", ["s4_s3_prefix.json", "cyclic2_tower.json", "certify-sweep"])
def test_restricted_sweep_matches_own_sweep_on_towers(tower):
    if tower == "certify-sweep":
        stages = [_certify_sweep_stage()]
    else:
        stages = parse_system((DATA / tower).read_text()).groups
    for i, g in enumerate(stages):
        assert_restricted_sweeps_match(g, normal_subgroups(g), f"{tower}[{i}]")


def test_sweep_of_a_normal_subgroup_equal_to_the_group_is_shared(small_corpus):
    g = fresh(small_corpus["S4"])
    top = normal_subgroups(g)[-1]
    assert top == g
    assert top.generators != g.generators
    assert normal_subgroups(g, top) is normal_subgroups(g)
    assert invariant_subgroups(g, g.generators, top) is normal_subgroups(g)


def test_all_flag_certify_sweep_builds_four_indexes(monkeypatch):
    """One index per stage group and per group the checks build for
    themselves; none per swept normal subgroup (8 when each had its own)."""
    marked = _certify_sweep_prefix()
    builds = []
    original = ElementIndex.__init__

    def counting(self, degree, elems, gens):
        builds.append(len(elems))
        original(self, degree, elems, gens)

    monkeypatch.setattr(ElementIndex, "__init__", counting)
    options = CertifyOptions(
        wilson=True,
        commuting_conjugates=True,
        strengthened=True,
        count_class=class_from_names(["C2", "C3"], SchurTable.load()),
    )
    certify_system(marked, options)
    assert 0 < len(builds) <= 4, builds


def test_cover_double_coset_matches_brute_force(small_corpus):
    checked = 0
    for name, g in small_corpus.items():
        if g.order > 24:
            continue
        index = g.element_index()
        pos = index.pos
        for sub in all_subgroups(g):
            h = frozenset(pos[x] for x in sub.elements())
            gens = [pos[x] for x in sub.generators]
            for j, x in enumerate(index.elems):
                covered = set(h)
                cover_double_coset(index, h, gens, j, covered)
                want = h | {pos[a * x * b] for a in sub.elements() for b in sub.elements()}
                assert covered == want, (name, sub.generators, x)
                checked += 1
    assert checked > 1000


def chief_factor_counts(g):
    out = {}
    for _lo, _hi, tid, k in _chief_factors(g):
        out[tid.name] = out.get(tid.name, 0) + k
    return out


def test_composition_factors_of_p_groups_match_chief_factors(small_corpus):
    groups = {name: g for name, g in small_corpus.items() if oracles.is_prime_power(g.order)}
    tower = parse_system((DATA / "cyclic2_tower.json").read_text()).groups
    for i, g in enumerate(tower + build_wreath_tower([("C2", 2)], 3).groups):
        groups[f"C2 tower[{i}]"] = g
    assert len(groups) >= 15
    for name, g in groups.items():
        want = chief_factor_counts(g)
        assert len(want) == 1, name  # a single prime
        assert composition_factors(g) == want, name


def test_composition_factors_of_chain_mode_p_groups():
    """A p-group's factors come from its order alone, so a stage past the
    dense bound gets them too (conjugacy classes would need its elements)."""
    prefix = parse_system(serialize_system(build_wreath_tower([("C2", 2)], 3)), dense_bound=4)
    assert len(prefix.groups[0].elements()) == 2
    for g in prefix.groups[1:]:
        with pytest.raises(DenseBoundExceededError):
            g.elements()
    assert [composition_factors(g) for g in prefix.groups] == [{"C2": 1}, {"C2": 3}, {"C2": 7}]
