"""Countable inverse-semigroup families with decidable normal forms.

Three families share the criterion-report contract: free inverse
monoids (`munn`), graph inverse semigroups (`graphs`), and the
constructed atom-flip family (`atomflip`), the one whose FLIP element
genuinely refutes the finite downward cover.  `FAMILIES` is the one
table of them; a family's module loads only when it is asked for.
"""

from __future__ import annotations

from importlib import import_module
from operator import attrgetter
from typing import Callable, NamedTuple

from ..errors import ParseError


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


# name -> (its module here, the one option it reads as --<option>, its default or None)
FAMILIES = {"atomflip": ("atomflip", "truncation", None),
            "munn": ("munn", "rank", 2),
            "graph": ("graphs", "graph", None)}


def refuse_options(family: str | None, options: dict) -> None:
    """An option given to a call that would ignore it is a ParseError
    naming it; `options` maps each family's option to its value, None
    where not given, and `family` is None for a semigroup file."""
    for name, (_, option, _) in FAMILIES.items():
        if options[option] is not None and family != name:
            raise ParseError(f"--{option} applies only to {name}")


def evaluate(family: str, text: str, options: dict) -> tuple:
    """(element, report, pool) of the family module's `evaluate`: the
    element that `text` names, its criterion report, and the finite pool
    of elements on which `verify` checks the witness's cover."""
    module, option, _ = FAMILIES[family]
    return import_module(f"{__name__}.{module}").evaluate(text, options[option])


def verify(element, rep: SymbolicCriterionReport, pool) -> bool:
    """Check the verdict by the elements' own `*`, not by the code that
    made it.  An antichain's sample members are idempotents in J_s,
    distinct from the one element that all their pairwise products
    equal (the zero).  A witness lies in J_s and covers J_s downward on
    the pool, and on s, s s, s s* and s* s: every idempotent e among
    them with s e = e has e = f e for some witness member f."""
    if rep.antichain is not None:
        members = [rep.antichain.member(i) for i in range(1, 9)]
        zero = members[0] * members[1]
        return (all(element * a == a == a * a != zero for a in members)
                and all(a * b == zero for i, a in enumerate(members)
                        for b in members[i + 1:]))
    if rep.witness is None or not all(element * f == f == f * f for f in rep.witness):
        return False
    cover, star = set(rep.witness), element.inverse()  # e in cover covers itself: e = e e
    return all(e in cover or any(f * e == e for f in rep.witness)
               for e in (*pool, element, element * element, element * star, star * element)
               if element * e == e == e * e)

