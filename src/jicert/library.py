"""Constructors for the named groups used in towers and tests.

Names accepted by named_group: Cn (cyclic on n points), Sn, An, Dn (dihedral
on n points, order 2n), Q8, SL(2,p). Degrees are implied by the name.
"""

from __future__ import annotations

import re

from .errors import UnknownGroupError
from .group import PermGroup, center, direct_product
from .perm import Permutation


def cyclic(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    if n == 1:
        return PermGroup.trivial(1)
    gen = Permutation([(i + 1) % n for i in range(n)])
    return PermGroup.from_generators(n, [gen])


def symmetric(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("symmetric group needs n >= 1")
    if n == 1:
        return PermGroup.trivial(1)
    cycle = Permutation([(i + 1) % n for i in range(n)])
    swap = Permutation([1, 0] + list(range(2, n)))
    return PermGroup.from_generators(n, [cycle, swap])


def alternating(n: int) -> PermGroup:
    if n < 3:
        raise ValueError("alternating group needs n >= 3")
    three = Permutation.from_cycles(n, [(0, 1, 2)])
    if n == 3:
        return PermGroup.from_generators(3, [three])
    if n % 2 == 1:
        big = Permutation([(i + 1) % n for i in range(n)])
    else:
        big = Permutation.from_cycles(n, [tuple(range(1, n))])
    return PermGroup.from_generators(n, [three, big])


def dihedral(n: int) -> PermGroup:
    """Symmetries of the n-gon on n points; order 2n."""
    if n < 3:
        raise ValueError("dihedral group needs n >= 3")
    rot = Permutation([(i + 1) % n for i in range(n)])
    ref = Permutation([(n - i) % n for i in range(n)])
    return PermGroup.from_generators(n, [rot, ref])


def quaternion8() -> PermGroup:
    """Q8 in its regular action on the elements 1,-1,i,-i,j,-j,k,-k."""
    left_i = Permutation([2, 3, 1, 0, 6, 7, 5, 4])
    left_j = Permutation([4, 5, 7, 6, 1, 0, 2, 3])
    return PermGroup.from_generators(8, [left_i, left_j])


def sl2(p: int) -> PermGroup:
    """SL(2,p) acting on the p^2 - 1 nonzero vectors of F_p^2."""
    if p < 2:
        raise ValueError("sl2 needs a prime p")
    vectors = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    index = {v: i for i, v in enumerate(vectors)}

    def act(matrix):
        (m00, m01), (m10, m11) = matrix
        images = [0] * len(vectors)
        for (a, b), i in index.items():
            images[i] = index[((m00 * a + m01 * b) % p, (m10 * a + m11 * b) % p)]
        return Permutation(images)

    s = act(((0, p - 1), (1, 0)))
    t = act(((1, 1), (0, 1)))
    return PermGroup.from_generators(len(vectors), [s, t])


def central_product(a: PermGroup, b: PermGroup) -> PermGroup:
    """A and B glued over central involutions: (A x B) / <(z_a, z_b)>.

    Each factor must have at least one central involution; the
    lexicographically least one is identified. The result is returned in its
    regular action on the cosets {x, xz} of the glued involution z, each
    labeled by the rank of its least member; a generator t sends coset r to
    coset t * r.
    """
    za = _least_central_involution(a)
    zb = _least_central_involution(b)
    prod = direct_product(a, b)
    glued = Permutation(tuple(za.images) + tuple(a.degree + i for i in zb.images))
    reps = sorted(x for x in prod.elements() if x < x * glued)
    label = {y: i for i, r in enumerate(reps) for y in (r, r * glued)}
    gens = [Permutation._raw(tuple(label[t * r] for r in reps)) for t in prod.generators]
    return PermGroup.from_generators(len(reps), gens)


def _least_central_involution(g: PermGroup) -> Permutation:
    cands = sorted(z for z in center(g).elements() if z.order() == 2)
    if not cands:
        raise ValueError("factor has no central involution")
    return cands[0]


_NAME_RE = re.compile(r"^([CSAD])(\d+)$|^Q8$|^SL\(2,(\d+)\)$")


def named_group(name: str) -> PermGroup:
    m = _NAME_RE.match(name)
    if not m:
        raise UnknownGroupError(f"unknown group name {name!r}")
    if name == "Q8":
        return quaternion8()
    if m.group(3) is not None:
        return sl2(int(m.group(3)))
    kind, n = m.group(1), int(m.group(2))
    builder = {"C": cyclic, "S": symmetric, "A": alternating, "D": dihedral}[kind]
    return builder(n)
