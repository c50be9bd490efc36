"""Permutations on {0, ..., n-1} as immutable image tuples.

Composition is function composition acting on the left: (p * q)(x) = p(q(x)).
Every product and inverse of image tuples goes through _compose and _invert.
Conjugation and commutators follow the right-conjugation convention
x ** g = g^-1 * x * g and comm(a, b) = a^-1 * b^-1 * a * b, so that
comm(a, b) = a^-1 * (a ** b).
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import DegreeMismatchError


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The image tuple of a * b: (a * b)[x] = a[b[x]]."""
    # itemgetter of one index returns the item itself, not a 1-tuple
    return itemgetter(*b)(a) if len(b) > 1 else tuple(map(a.__getitem__, b))


def _invert(a: tuple[int, ...]) -> tuple[int, ...]:
    """The image tuple of a^-1."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


class Permutation:
    __slots__ = ("images",)

    images: tuple[int, ...]

    def __init__(self, images: Sequence[int]):
        imgs = tuple(images)
        n = len(imgs)
        seen = [False] * n
        for x in imgs:
            if not isinstance(x, int) or not 0 <= x < n or seen[x]:
                raise ValueError(f"not a permutation of 0..{n - 1}: {imgs!r}")
            seen[x] = True
        object.__setattr__(self, "images", imgs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def _raw(images: tuple[int, ...]) -> Permutation:
        """Wrap an image tuple that is already a permutation, unchecked."""
        p = Permutation.__new__(Permutation)
        object.__setattr__(p, "images", images)
        return p

    @staticmethod
    def identity(degree: int) -> Permutation:
        return Permutation(range(degree))

    @staticmethod
    def from_cycles(degree: int, cycles: Iterable[Sequence[int]]) -> Permutation:
        images = list(range(degree))
        for cycle in cycles:
            for i, point in enumerate(cycle):
                if not 0 <= point < degree:
                    raise ValueError(f"cycle point {point} out of range 0..{degree - 1}")
                images[point] = cycle[(i + 1) % len(cycle)]
        return Permutation(images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: Permutation) -> Permutation:
        if len(self.images) != len(other.images):
            raise DegreeMismatchError(
                f"cannot compose degree {len(self.images)} with degree {len(other.images)}"
            )
        return Permutation._raw(_compose(self.images, other.images))

    def inverse(self) -> Permutation:
        return Permutation._raw(_invert(self.images))

    def __pow__(self, n: int | Permutation) -> Permutation:
        if isinstance(n, Permutation):
            return n.inverse() * self * n
        result = Permutation.identity(len(self.images))
        base = self if n >= 0 else self.inverse()
        for _ in range(abs(n)):
            result = result * base
        return result

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def order(self) -> int:
        return math.lcm(*map(len, self.cycles()))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, sorted by that point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cycle = []
            x = start
            while not seen[x]:
                seen[x] = True
                cycle.append(x)
                x = self.images[x]
            out.append(tuple(cycle))
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: Permutation) -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return f"Perm(id:{len(self.images)})"
        return "Perm(" + "".join("(" + " ".join(map(str, c)) + ")" for c in cycles) + ")"

    def __iter__(self) -> Iterator[int]:
        return iter(self.images)


def comm(a: Permutation, b: Permutation) -> Permutation:
    return a.inverse() * b.inverse() * a * b
