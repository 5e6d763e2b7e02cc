"""Countable inverse-semigroup families with decidable normal forms.

Three families share the criterion-report contract: free inverse
monoids (`munn`), graph inverse semigroups (`graphs`), and the
constructed atom-flip family (`atomflip`), the one whose FLIP element
genuinely refutes the finite downward cover.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, NamedTuple


class AntichainWitness(NamedTuple):
    """Generator of an infinite antichain refuting the finite cover.

    `member(i)` yields the i-th idempotent; members lie in J_s, have
    pairwise zero products, and are maximal among the idempotents of
    J_s, so no finite subset can cover them all downward.  Two
    witnesses are equal when their descriptions are: `member` is a
    function, which compares only by identity.
    """

    description: str
    member: Callable[[int], object]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.description == other.description

    def __ne__(self, other):  # else tuple's own __ne__ would compare `member` too
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.description != other.description

    def __hash__(self):
        return hash(self.description)


class SymbolicCriterionReport(NamedTuple):
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


class Frozen:
    """An immutable value compared and hashed by its `__slots__`.

    The symbolic elements are frozen records that validate their
    fields.  The subclass's `__init__` checks its arguments and stores
    them with `object.__setattr__`; any other assignment raises
    AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls.__slots__)  # a tuple: every subclass has 2+ slots

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values  # not a descriptor: takes the instance as its argument
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


FAMILIES = ("atomflip", "munn", "graph")

