import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import jicert.chain as chain_mod
from jicert import MembershipError, Permutation, build_wreath_tower, parse_system
from jicert.chain import StabilizerChain
from jicert.hom import _graph_gens


S4_GENS = [(1, 2, 3, 0), (1, 0, 2, 3)]
A5_GENS = [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)]


def test_trivial_chain():
    c = StabilizerChain(3, [])
    assert c.order() == 1
    assert c.base() == []
    assert c.contains_tuple((0, 1, 2))
    assert not c.contains_tuple((1, 0, 2))


def test_s4_order_and_membership():
    c = StabilizerChain(4, S4_GENS)
    assert c.order() == 24
    elements = oracles.closure_gens(4, S4_GENS)
    assert all(c.contains_tuple(t) for t in elements)


def test_membership_rejects_outside_elements():
    c = StabilizerChain(5, A5_GENS)
    assert c.order() == 60
    inside = oracles.closure_gens(5, A5_GENS)
    for t in itertools.permutations(range(5)):
        assert c.contains_tuple(t) == (t in inside)


def test_wrong_degree_membership_is_false():
    c = StabilizerChain(4, S4_GENS)
    assert not c.contains_tuple((0, 1, 2))


def test_generator_degree_checked():
    with pytest.raises(ValueError):
        StabilizerChain(4, [(1, 0)])


def test_accepts_permutation_objects():
    c = StabilizerChain(4, [Permutation(t) for t in S4_GENS])
    assert c.order() == 24
    assert c.contains(Permutation((3, 2, 1, 0)))


def test_base_prefix_validation():
    with pytest.raises(ValueError):
        StabilizerChain(4, S4_GENS, base_prefix=[0, 0])
    with pytest.raises(ValueError):
        StabilizerChain(4, S4_GENS, base_prefix=[7])


def test_base_prefix_respected():
    c = StabilizerChain(4, S4_GENS, base_prefix=[2, 0])
    assert c.base()[:2] == [2, 0]
    assert c.order() == 24


def test_gens_fixing_prefix():
    c = StabilizerChain(4, S4_GENS, base_prefix=[0])
    stab = StabilizerChain(4, c.gens_fixing_prefix(1))
    # stabilizer of one point in S4 is S3 on the rest
    assert stab.order() == 6
    assert all(t[0] == 0 for t in stab.gens_fixing_prefix(0))


def test_lift_points():
    c = StabilizerChain(4, S4_GENS, base_prefix=[0, 1])
    t = c.lift_points({0: 2, 1: 3}, 2)
    assert t[0] == 2 and t[1] == 3
    assert c.contains_tuple(t)


def test_lift_points_no_solution():
    # C4 = <(0 1 2 3)> cannot fix 0 while moving 1
    c = StabilizerChain(4, [(1, 2, 3, 0)], base_prefix=[0, 1])
    with pytest.raises(MembershipError):
        c.lift_points({0: 0, 1: 2}, 2)
    with pytest.raises(ValueError):
        c.lift_points({0: 0}, 9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_random_subgroups_of_s6_match_oracle(seed):
    rng = random.Random(seed)
    degree = 6
    gens = [tuple(rng.sample(range(degree), degree)) for _ in range(rng.randint(1, 3))]
    c = StabilizerChain(degree, gens)
    elements = oracles.closure_gens(degree, gens)
    assert c.order() == len(elements)
    sample = rng.sample(sorted(elements), min(40, len(elements)))
    assert all(c.contains_tuple(t) for t in sample)


def test_large_group_order():
    # S10 from a transposition and a 10-cycle; order is 10!
    ten_cycle = tuple(list(range(1, 10)) + [0])
    swap = tuple([1, 0] + list(range(2, 10)))
    c = StabilizerChain(10, [ten_cycle, swap])
    assert c.order() == 3628800


# -- strong generating sets ---------------------------------------------------

DATA = Path(__file__).parent / "data"


def _drain_to_every_level(self, i):
    """The residual placement the chain used before: every level 0..j."""
    level = self.levels[i]
    idt = self._identity
    while level.frontier:
        p, gi = level.frontier.popleft()
        s = level.gens[gi]
        g = chain_mod._mul(level.tr_inv[s[p]], chain_mod._mul(s, level.tr[p]))
        if g == idt:
            continue
        h, j = self._sift_from(g, i + 1)
        if h == idt:
            continue
        if j == len(self.levels):
            self._new_level(min(x for x in range(self.degree) if h[x] != x))
        for k in range(j + 1):
            self._add_gen(k, h)


def _chains_of(build):
    """(name, chain, generators) for every chain of what build() returns: a
    prefix gives each stage's chain, each map's graph chain and its
    target-first chain; a dict of groups gives each group's chain."""
    built = build()
    out = []
    if isinstance(built, dict):
        for name, g in built.items():
            gens = [p.images for p in g.generators]
            out.append((name, StabilizerChain(g.degree, gens), gens))
        return out
    for n, g in enumerate(built.groups):
        gens = [p.images for p in g.generators]
        chain = g._chain if g._chain is not None else StabilizerChain(g.degree, gens)
        out.append((f"stage {n}", chain, gens))
    for n, hom in enumerate(built.homs):
        gens = _graph_gens(hom.source.degree, hom.source.generators, hom.generator_images)
        out.append((f"graph {n}", hom._graph, gens))
        out.append((f"target-first {n}", hom._target_first(), gens))
    return out


def _level_gens(chain):
    return sum(len(level.gens) for level in chain.levels)


def _check_strong_generating_set(chain):
    idt = tuple(range(chain.degree))
    base = chain.base()
    for i, level in enumerate(chain.levels):
        for s in level.gens:
            assert all(s[b] == b for b in base[:i])
        for p, u in level.tr.items():
            assert u[level.base] == p and chain_mod._mul(u, level.tr_inv[p]) == idt
            for s in level.gens:
                g = chain_mod._mul(level.tr_inv[s[p]], chain_mod._mul(s, u))
                assert chain._sift_from(g, i + 1)[0] == idt


_SOURCES = {
    "small corpus": None,
    "s4_s3_prefix": lambda: parse_system((DATA / "s4_s3_prefix.json").read_text()),
    "cyclic2_tower": lambda: parse_system((DATA / "cyclic2_tower.json").read_text()),
    "A5:5 depth 2 chain": lambda: build_wreath_tower([("A5", 5)], 2),
}


@pytest.mark.parametrize("source", list(_SOURCES))
def test_strong_generating_sets_match_every_level_placement(source, small_corpus, monkeypatch):
    build = _SOURCES[source] or (lambda: small_corpus)
    chains = _chains_of(build)
    with monkeypatch.context() as m:
        m.setattr(StabilizerChain, "_drain", _drain_to_every_level)
        reference = _chains_of(build)
    assert [name for name, _, _ in chains] == [name for name, _, _ in reference]
    for (name, chain, gens), (_, ref, _) in zip(chains, reference):
        _check_strong_generating_set(chain)
        assert chain.base() == ref.base(), name
        assert [len(level.tr) for level in chain.levels] == [len(level.tr) for level in ref.levels]
        assert chain.order() == ref.order()
        assert _level_gens(chain) <= _level_gens(ref), name
        if chain.order() <= 5000:
            assert chain.order() == len(oracles.closure_gens(chain.degree, gens)), name


def test_a5_tower_graph_chain_keeps_fewer_strong_generators(monkeypatch):
    def graph():
        return build_wreath_tower([("A5", 5)], 2).homs[0]._graph

    with monkeypatch.context() as m:
        m.setattr(StabilizerChain, "_drain", _drain_to_every_level)
        assert _level_gens(graph()) == 132
    assert _level_gens(graph()) < 132
