"""Deterministic Schreier-Sims stabilizer chains.

Internal permutations are raw image tuples; Permutation objects are converted
at the boundary. The chain is built incrementally and every strong generator
is verified by sifting all of its Schreier generators, so the result is exact
with no randomization anywhere.

A residual that sifting a Schreier generator of level i leaves at level j
joins the generators of levels i+1..j only (Holt, Eick and O'Brien, Handbook
of Computational Group Theory, 4.4.2). It is a product of elements of the
group of level i, which lies in the group of every earlier level, so a copy
there would only add Schreier generators that sift to nothing. A new input
generator still joins levels 0..j.

A chain grows in place: add inserts one more generator and checks that the
grown chain contains it. elements lists the group once, each element one
product of transversal elements, which is how groups get their element
tables.

Each new level's base point is the least point its first generator moves.
A base prefix can also be forced: levels for the prefix points are created
up front, in the given order, before any generator is inserted. The pointwise
stabilizer of the prefix points is then read off a single level.

A chain of a group that preserves the block {0, ..., n-1} cuts down to a
chain of the group's action on that block (cut): every level keeps its base
point, orbit and order, and its generators and transversal elements keep
their first n images. Homomorphisms ride on this: the chain of a graph group
cuts down to the chain of the source, and the tail of a chain with the target
points forced first cuts down to the chain of the kernel.
"""

from __future__ import annotations

from collections import deque
from math import prod
from typing import Iterable, Mapping, Sequence

from .errors import KernelBugError, MembershipError
from .perm import Permutation


def _mul(a: tuple, b: tuple) -> tuple:
    # (a * b)(x) = a[b[x]]
    return tuple(map(a.__getitem__, b))


def _inv(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


class _Level:
    __slots__ = ("base", "gens", "tr", "tr_inv", "orbit_order", "frontier")

    def __init__(self, base: int, identity: tuple):
        self.base = base
        self.gens: list[tuple] = []
        self.tr: dict[int, tuple] = {base: identity}
        self.tr_inv: dict[int, tuple] = {base: identity}
        self.orbit_order: list[int] = [base]
        self.frontier: deque[tuple[int, int]] = deque()


class StabilizerChain:
    """Stabilizer chain for a permutation group on {0, ..., degree-1}.

    levels[i] holds strong generators for the pointwise stabilizer of the
    first i base points, together with the orbit and transversal of its base
    point under them. Transversal entries u satisfy u(base) = point and are
    never rewritten once assigned, which keeps sifting stable as the chain
    grows.
    """

    __slots__ = ("degree", "levels", "_identity")

    def __init__(
        self,
        degree: int,
        generators: Iterable[Permutation | Sequence[int]],
        base_prefix: Sequence[int] = (),
    ):
        self.degree = degree
        self._identity = tuple(range(degree))
        self.levels: list[_Level] = []
        seen_prefix = set()
        for p in base_prefix:
            if not 0 <= p < degree or p in seen_prefix:
                raise ValueError(f"bad base prefix point {p}")
            seen_prefix.add(p)
            self._new_level(p)
        for g in generators:
            self.add(g)

    # -- construction ------------------------------------------------------

    def add(self, g: Permutation | Sequence[int]) -> None:
        """Extend the chain in place to the group generated by it and g."""
        t = tuple(g.images) if isinstance(g, Permutation) else tuple(g)
        if len(t) != self.degree:
            raise ValueError(f"generator degree {len(t)} != {self.degree}")
        self._insert(t)
        if not self.contains_tuple(t):
            raise KernelBugError("chain lost a generator")

    def _new_level(self, base: int) -> None:
        self.levels.append(_Level(base, self._identity))

    def _insert(self, g: tuple) -> None:
        h, j = self._sift_from(g, 0)
        if h == self._identity:
            return
        if j == len(self.levels):
            self._new_level(min(x for x in range(self.degree) if h[x] != x))
        for k in range(j + 1):
            self._add_gen(k, h)
        self._run()

    def _add_gen(self, k: int, h: tuple) -> None:
        # h must fix the first k base points; valid for every k <= its sift depth
        level = self.levels[k]
        if h in level.gens:
            return
        gi = len(level.gens)
        level.gens.append(h)
        level.frontier.extend((p, gi) for p in level.orbit_order)
        queue: deque[int] = deque()
        for p in list(level.orbit_order):
            q = h[p]
            if q not in level.tr:
                self._orbit_add(level, q, _mul(h, level.tr[p]))
                queue.append(q)
        while queue:
            p = queue.popleft()
            for s in level.gens:
                q = s[p]
                if q not in level.tr:
                    self._orbit_add(level, q, _mul(s, level.tr[p]))
                    queue.append(q)

    def _orbit_add(self, level: _Level, point: int, rep: tuple) -> None:
        level.tr[point] = rep
        level.tr_inv[point] = _inv(rep)
        level.orbit_order.append(point)
        level.frontier.extend((point, gi) for gi in range(len(level.gens)))

    def _run(self) -> None:
        while True:
            dirty = -1
            for k in range(len(self.levels) - 1, -1, -1):
                if self.levels[k].frontier:
                    dirty = k
                    break
            if dirty < 0:
                return
            self._drain(dirty)

    def _drain(self, i: int) -> None:
        level = self.levels[i]
        idt = self._identity
        while level.frontier:
            p, gi = level.frontier.popleft()
            s = level.gens[gi]
            su = _mul(s, level.tr[p])
            if su == level.tr[s[p]]:
                continue
            h, j = self._sift_from(_mul(level.tr_inv[s[p]], su), i + 1)
            if h == idt:
                continue
            if j == len(self.levels):
                self._new_level(min(x for x in range(self.degree) if h[x] != x))
            for k in range(i + 1, j + 1):
                self._add_gen(k, h)

    def _sift_from(self, g: tuple, start: int) -> tuple[tuple, int]:
        """Sift g through levels[start:], returning (residual, stop level)."""
        idt = self._identity
        i = start
        while i < len(self.levels):
            if g == idt:
                return g, i
            level = self.levels[i]
            p = g[level.base]
            if p != level.base:
                u_inv = level.tr_inv.get(p)
                if u_inv is None:
                    return g, i
                g = _mul(u_inv, g)
            i += 1
        return g, i

    # -- queries -----------------------------------------------------------

    def order(self) -> int:
        return prod(len(level.tr) for level in self.levels) if self.levels else 1

    def elements(self) -> list[tuple]:
        """Every group element once, as an image tuple.

        Each element is u_0 * u_1 * ... * u_k with u_i from the transversal of
        level i, and each product is formed once: the partial products of the
        first i levels are extended by every transversal element of level i.
        """
        products = [self._identity]
        for level in self.levels:
            reps = [u for p, u in level.tr.items() if p != level.base]
            products += [_mul(x, u) for x in products for u in reps]
        return products

    def base(self) -> list[int]:
        return [level.base for level in self.levels]

    def contains_tuple(self, t: tuple) -> bool:
        if len(t) != self.degree:
            return False
        residual, _ = self._sift_from(t, 0)
        return residual == self._identity

    def contains(self, p: Permutation) -> bool:
        return self.contains_tuple(tuple(p.images))

    def gens_fixing_prefix(self, k: int) -> list[tuple]:
        """Strong generators of the pointwise stabilizer of the first k base points."""
        if k >= len(self.levels):
            return []
        return list(self.levels[k].gens)

    def cut(self, first_level: int, degree: int) -> StabilizerChain:
        """The levels from first_level on, each permutation cut to its first
        degree images.

        The strong generators of those levels must preserve {0, ..., degree-1}
        and act faithfully on it, and their base points must lie in it; then
        the result is a complete chain of the group they generate, acting on
        those points. No Schreier-Sims is run.
        """
        chain = StabilizerChain.__new__(StabilizerChain)
        chain.degree = degree
        chain._identity = tuple(range(degree))
        chain.levels = []
        for old in self.levels[first_level:]:
            level = _Level(old.base, chain._identity)
            level.gens = [g[:degree] for g in old.gens]
            level.tr = {p: u[:degree] for p, u in old.tr.items()}
            level.tr_inv = {p: u[:degree] for p, u in old.tr_inv.items()}
            level.tr[old.base] = level.tr_inv[old.base] = chain._identity
            level.orbit_order = list(old.orbit_order)
            chain.levels.append(level)
        return chain

    def lift_points(self, point_images: Mapping[int, int] | Sequence[int], k: int) -> tuple:
        """Some group element mapping the first k base points as prescribed.

        point_images must cover those base points. Raises MembershipError if
        no element of the group realizes the assignment.
        """
        if k > len(self.levels):
            raise ValueError("prefix longer than chain")
        c = self._identity
        c_inv = self._identity
        for level in self.levels[:k]:
            q = c_inv[point_images[level.base]]
            u = level.tr.get(q)
            if u is None:
                raise MembershipError(
                    f"no element maps point {level.base} as prescribed"
                )
            if u is not self._identity:
                c = _mul(c, u)
                c_inv = _inv(c)
        return c
