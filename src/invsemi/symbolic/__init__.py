"""Countable inverse-semigroup families with decidable normal forms.

Three families share the criterion-report contract: free inverse
monoids (`munn`), graph inverse semigroups (`graphs`), and the
constructed atom-flip family (`atomflip`), the one whose FLIP element
genuinely refutes the finite downward cover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class AntichainWitness:
    """Generator of an infinite antichain refuting the finite cover.

    `member(i)` yields the i-th idempotent; members lie in J_s, have
    pairwise zero products, and are maximal among the idempotents of
    J_s, so no finite subset can cover them all downward.
    """

    description: str
    member: Callable[[int], object] = field(compare=False)


@dataclass(frozen=True)
class SymbolicCriterionReport:
    """Family-agnostic criterion verdict for one symbolic element."""

    family: str
    element: str
    j_set_description: str
    verdict: str
    witness: tuple | None
    antichain: AntichainWitness | None = None

    def witness_strings(self) -> tuple[str, ...] | None:
        if self.witness is None:
            return None
        return tuple(str(w) for w in self.witness)


FAMILIES = ("atomflip", "munn", "graph")

