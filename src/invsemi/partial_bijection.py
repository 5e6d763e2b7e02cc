"""Partial bijections of a finite ground set {0, ..., n-1}.

These are the elements of the symmetric inverse monoid on n points:
injective partial maps, composed right-to-left (f * g applies g first).
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Iterable, Iterator, Mapping

from .errors import ContractViolation


class PartialBijection:
    """An injective partial map on {0, ..., ground_size-1}.

    Immutable and hashable. `pairs` is the sorted tuple of (source,
    target) pairs and is the canonical identity of the element.
    """

    __slots__ = ("ground_size", "pairs", "_map")

    def __init__(self, ground_size: int, mapping: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        if ground_size < 0:
            raise ContractViolation("ground_size must be non-negative")
        if not isinstance(mapping, dict):
            mapping = list(mapping)
            m = dict(mapping)
            if len(m) != len(mapping):
                raise ContractViolation(f"duplicate source points in {mapping}")
        else:
            m = dict(mapping)
        targets = set(m.values())
        if len(targets) != len(m):
            raise ContractViolation(f"not injective: {sorted(m.items())}")
        for x, y in m.items():
            if not (0 <= x < ground_size and 0 <= y < ground_size):
                raise ContractViolation(
                    f"pair ({x}, {y}) outside ground set of size {ground_size}")
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "pairs", tuple(sorted(m.items())))
        object.__setattr__(self, "_map", m)

    def __setattr__(self, name, value):
        raise AttributeError("PartialBijection is immutable")

    @classmethod
    def identity(cls, ground_size: int, domain: Iterable[int] | None = None) -> "PartialBijection":
        pts = range(ground_size) if domain is None else domain
        return cls(ground_size, {x: x for x in pts})

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(self._map)

    @property
    def image(self) -> frozenset[int]:
        return frozenset(self._map.values())

    def compose(self, other: "PartialBijection") -> "PartialBijection":
        """self after other: x -> self(other(x)) where both legs are defined."""
        if self.ground_size != other.ground_size:
            raise ContractViolation(
                f"ground sizes differ: {self.ground_size} vs {other.ground_size}")
        f, g = self._map, other._map
        return PartialBijection(
            self.ground_size,
            {x: f[y] for x, y in g.items() if y in f})

    __mul__ = compose

    def invert(self) -> "PartialBijection":
        return PartialBijection(self.ground_size, {y: x for x, y in self._map.items()})

    def is_idempotent(self) -> bool:
        return all(x == y for x, y in self.pairs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PartialBijection)
                and self.ground_size == other.ground_size
                and self.pairs == other.pairs)

    def __hash__(self) -> int:
        return hash((self.ground_size, self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def __repr__(self) -> str:
        return f"PartialBijection({self.ground_size}, {dict(self.pairs)!r})"

    def __str__(self) -> str:
        return format_pairs(self.pairs)


def format_pairs(pairs: Iterable[tuple[int, int]]) -> str:
    """The print format of a graph: "[0->1,2->2]", "[]" when empty."""
    return "[" + ",".join(f"{x}->{y}" for x, y in pairs) + "]"


def all_partial_bijections(ground_size: int) -> Iterator[PartialBijection]:
    """Every partial bijection on {0, ..., n-1}, in a fixed deterministic order.

    Count is sum over k of C(n,k)^2 * k! (7 for n=2, 34 for n=3).
    """
    pts = range(ground_size)
    for k in range(ground_size + 1):
        for dom in combinations(pts, k):
            for ran in combinations(pts, k):
                for per in permutations(ran):
                    yield PartialBijection(ground_size, dict(zip(dom, per)))


def count_partial_bijections(ground_size: int) -> int:
    """Closed-form count of partial bijections on n points."""
    import math

    n = ground_size
    return sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))
