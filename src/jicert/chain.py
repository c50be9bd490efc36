"""Deterministic Schreier-Sims stabilizer chains.

Internal permutations are raw image tuples; Permutation objects are converted
at the boundary. The chain is built incrementally and every strong generator
is verified by sifting all of its Schreier generators, so the result is exact
with no randomization anywhere.

A base prefix can be forced: levels for the prefix points are created up
front, in the given order, before any generator is inserted. The pointwise
stabilizer of the prefix points is then read off a single level. Homomorphism
kernels and coset lifts ride on this.
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
        gens = []
        for g in generators:
            t = tuple(g.images) if isinstance(g, Permutation) else tuple(g)
            if len(t) != degree:
                raise ValueError(f"generator degree {len(t)} != {degree}")
            if t != self._identity and t not in gens:
                gens.append(t)
        for t in gens:
            self._insert(t)
        for t in gens:
            if not self.contains_tuple(t):
                raise KernelBugError("chain lost a generator")

    # -- construction ------------------------------------------------------

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
            g = _mul(level.tr_inv[s[p]], _mul(s, level.tr[p]))
            if g == idt:
                continue
            h, j = self._sift_from(g, i + 1)
            if h == idt:
                continue
            if j == len(self.levels):
                self._new_level(min(x for x in range(self.degree) if h[x] != x))
            for k in range(j + 1):
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
        """Strong generators of the pointwise stabilizer of the first k base points.

        Requires that the chain was built with a base prefix of length >= k.
        """
        if k >= len(self.levels):
            return []
        return list(self.levels[k].gens)

    def lift_points(self, point_images: Mapping[int, int], k: int) -> tuple:
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
