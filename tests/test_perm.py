import pytest
from hypothesis import given, strategies as st

import oracles
from jicert import DegreeMismatchError, Permutation, PermGroup, normal_closure
from jicert.chain import StabilizerChain
from jicert.perm import _compose, _invert, comm


def perms(degree):
    return st.permutations(range(degree)).map(Permutation)


def test_identity():
    e = Permutation.identity(4)
    assert tuple(e) == (0, 1, 2, 3)
    assert e.is_identity()
    assert e.order() == 1
    assert e.cycles() == []


def test_constructor_rejects_non_permutations():
    for bad in [(0, 0), (1, 2), (0, 2), (0, 1, "2"), (-1, 0)]:
        with pytest.raises(ValueError):
            Permutation(bad)


def test_immutable():
    p = Permutation([1, 0])
    with pytest.raises(AttributeError):
        p.images = (0, 1)


def test_composition_convention():
    # (p * q)(x) = p(q(x))
    p = Permutation([1, 2, 0])
    q = Permutation([0, 2, 1])
    assert tuple(p * q) == tuple(p(q(x)) for x in range(3))


def test_composition_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        Permutation([1, 0]) * Permutation([1, 2, 0])


def test_from_cycles():
    p = Permutation.from_cycles(4, [(0, 1, 2)])
    assert tuple(p) == (1, 2, 0, 3)
    assert Permutation.from_cycles(4, [(0, 1), (2, 3)]) == Permutation([1, 0, 3, 2])
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(0, 5)])


def test_cycles_round_trip():
    p = Permutation([3, 4, 2, 0, 1, 6, 5])
    assert p.cycles() == [(0, 3), (1, 4), (5, 6)]
    assert Permutation.from_cycles(7, p.cycles()) == p


def test_pow():
    p = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
    assert p**5 == Permutation.identity(5)
    assert p**-1 == p.inverse()
    assert p**0 == Permutation.identity(5)
    assert p**7 == p**2


def test_pow_by_permutation_is_conjugation():
    x = Permutation([1, 0, 2, 3])
    g = Permutation([0, 2, 1, 3])
    assert tuple(x**g) == oracles.conj(tuple(x), tuple(g))


def test_order_matches_oracle_examples():
    for images in [(1, 0, 3, 2), (1, 2, 0, 4, 3), (0, 1, 2)]:
        assert Permutation(images).order() == oracles.order_of(images)


def test_repr():
    assert repr(Permutation([1, 0, 2])) == "Perm((0 1))"
    assert repr(Permutation.identity(3)) == "Perm(id:3)"


def test_sort_order_is_lexicographic():
    ps = sorted([Permutation([2, 1, 0]), Permutation([0, 1, 2]), Permutation([1, 0, 2])])
    assert [tuple(p) for p in ps] == [(0, 1, 2), (1, 0, 2), (2, 1, 0)]


@given(perms(6), perms(6))
def test_mul_matches_oracle(a, b):
    assert tuple(a * b) == oracles.mul(tuple(a), tuple(b))


@given(perms(6))
def test_inverse_cancels(p):
    assert p * p.inverse() == Permutation.identity(6)
    assert tuple(p.inverse()) == oracles.inv(tuple(p))


@given(perms(6))
def test_order_annihilates(p):
    n = p.order()
    assert (p**n).is_identity()
    assert n == oracles.order_of(tuple(p))
    assert not any((p**k).is_identity() for k in range(1, n))


@given(perms(5), perms(5))
def test_comm_matches_oracle(a, b):
    assert tuple(comm(a, b)) == oracles.comm(tuple(a), tuple(b))
    assert comm(a, b) == a.inverse() * (a**b)


# -- the image-tuple kernel ---------------------------------------------------
# itemgetter of a single index returns the item, not a 1-tuple, so degree 1
# is the case a kernel built on it gets wrong first.


def _tuple_pairs(max_degree):
    return st.integers(1, max_degree).flatmap(
        lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
    )


@given(_tuple_pairs(12))
def test_kernel_matches_oracle(pair):
    a, b = map(tuple, pair)
    ab = _compose(a, b)
    assert type(ab) is tuple and ab == oracles.mul(a, b)
    a_inv = _invert(a)
    assert type(a_inv) is tuple and a_inv == oracles.inv(a)


def test_degree_one_products():
    e = Permutation.identity(1)
    assert (e * e).images == (0,)
    assert e.inverse().images == (0,)
    assert e**3 == e**-2 == comm(e, e) == e


@pytest.mark.parametrize(
    "degree, gens",
    [(1, []), (1, [(0,)]), (2, []), (2, [(1, 0)]), (2, [(1, 0), (0, 1)])],
)
def test_chain_of_degree_one_and_two(degree, gens):
    chain = StabilizerChain(degree, gens)
    group = oracles.closure_gens(degree, gens)
    assert chain.order() == len(group)
    assert all(type(x) is tuple for x in chain.elements())
    assert frozenset(chain.elements()) == group
    assert all(chain.contains_tuple(x) for x in group)
    for x in group:
        assert chain.lift_points(dict(enumerate(x)), len(chain.levels)) == x


@pytest.mark.parametrize("degree", [1, 2])
def test_index_closure_of_one_element_subgroup(degree):
    # the closure pushes the one-element coset of the trivial subgroup
    flip = tuple(range(degree))[::-1]
    g = PermGroup.from_generators(degree, [Permutation(flip)])
    closure = normal_closure(g, g.generators)
    assert closure.elements() == frozenset(map(Permutation, oracles.closure_gens(degree, [flip])))
