"""The atom-flip family: the smallest refuting fixture for the finite cover.

Elements are ZERO, FLIP, SQUARE and countably many ATOM(i).  SQUARE is
the identity, FLIP is an order-two symmetry fixing every atom, and
distinct atoms annihilate each other.  J_FLIP is the zero together with
all atoms, an infinite antichain of maximal idempotents, so FLIP admits
no finite downward cover; every truncation to n atoms is a genuine
finite inverse semigroup where the cover is exactly the n atoms.
"""

from __future__ import annotations

from ..criterion import HAUSDORFF_WITNESS, REFUTED, hausdorff_criterion
from ..errors import ContractViolation, ParseError
from ..semigroup import FiniteInverseSemigroup
from . import AntichainWitness, Frozen, SymbolicCriterionReport

FAMILY = "atomflip"


class AtomFlipElement(Frozen):
    __slots__ = ("kind", "index")

    kind: str            # "zero" | "flip" | "square" | "atom"
    index: int | None

    def __init__(self, kind: str, index: int | None = None):
        if kind not in ("zero", "flip", "square", "atom"):
            raise ContractViolation(f"unknown atom-flip kind {kind!r}")
        if (kind == "atom") != (index is not None):
            raise ContractViolation("exactly the atoms carry an index")
        if index is not None and index < 1:
            raise ContractViolation("atom indices start at 1")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)

    def is_idempotent(self) -> bool:
        return self.kind != "flip"

    def __str__(self) -> str:
        return f"atom:{self.index}" if self.kind == "atom" else self.kind

    def __mul__(self, other: "AtomFlipElement") -> "AtomFlipElement":
        return multiply(self, other)

    def inverse(self) -> "AtomFlipElement":
        return self


ZERO = AtomFlipElement("zero")
FLIP = AtomFlipElement("flip")
SQUARE = AtomFlipElement("square")


def atom(i: int) -> AtomFlipElement:
    return AtomFlipElement("atom", i)


def multiply(a: AtomFlipElement, b: AtomFlipElement) -> AtomFlipElement:
    if a.kind == "zero" or b.kind == "zero":
        return ZERO
    if a.kind == "square":
        return b
    if b.kind == "square":
        return a
    if a.kind == "flip" and b.kind == "flip":
        return SQUARE
    if a.kind == "flip":
        return b
    if b.kind == "flip":
        return a
    return a if a.index == b.index else ZERO


def parse(text: str) -> AtomFlipElement:
    text = text.strip().lower()
    if text in ("zero", "flip", "square"):
        return AtomFlipElement(text)
    if text.startswith("atom:"):
        try:
            return atom(int(text[5:]))
        except (ValueError, ContractViolation) as exc:
            raise ParseError(f"bad atom-flip element {text!r}: {exc}") from None
    raise ParseError(f"bad atom-flip element {text!r}; "
                     "expected zero, flip, square or atom:<i>")


def evaluate(text: str, truncation_atoms: int | None) -> tuple:
    """(element, report, pool) for `symbolic.evaluate`: the pool is the
    truncation's elements, none without a bound.  A bound that is
    negative, or too small to hold the element, is a ParseError."""
    element = parse(text)
    try:
        rep = criterion(element, truncation_atoms=truncation_atoms)
    except ContractViolation as exc:
        raise ParseError(str(exc)) from None
    return element, rep, () if truncation_atoms is None else elements(truncation_atoms)


def elements(n_atoms: int) -> tuple[AtomFlipElement, ...]:
    """The elements of the truncation with n atoms, in table order."""
    return (ZERO, FLIP, SQUARE) + tuple(atom(i) for i in range(1, n_atoms + 1))


def truncation(n_atoms: int) -> FiniteInverseSemigroup:
    """The finite inverse semigroup on ZERO, FLIP, SQUARE and n atoms.

    Indices 0, 1, 2 are ZERO, FLIP, SQUARE and 2 + i is atom:i.  The
    rows follow the rules of `multiply`: ZERO times anything is ZERO,
    SQUARE times t is t, FLIP times t is t except FLIP FLIP = SQUARE
    and FLIP SQUARE = FLIP, and atom a times FLIP, SQUARE or a is a,
    times anything else ZERO.  Every element is its own inverse.
    The constructor trusts that map and the table with it, unchecked:
    each of the m rows is a closed form of length m over the indices
    0, 1, 2 and a, all below m = n + 3.
    """
    if n_atoms < 0:
        raise ContractViolation("atom count must be non-negative")
    m = n_atoms + 3
    flip = list(range(m))
    flip[1], flip[2] = 2, 1
    # Tuple rows, which the constructor keeps as they are: no list copy
    # of the table lives next to the stored one.
    mul = [(0,) * m, tuple(flip), tuple(range(m))]
    for a in range(3, m):
        row = [0] * m
        row[1] = row[2] = row[a] = a
        mul.append(tuple(row))
    return FiniteInverseSemigroup(mul, labels=elements(n_atoms), _inverse=range(m))


def criterion(s: AtomFlipElement, truncation_atoms: int | None = None) -> SymbolicCriterionReport:
    """Finite-cover verdict for one element.

    Without a truncation bound the full countable family is meant: FLIP
    is refuted by the antichain of all atoms; everything else is
    idempotent and covered by itself.  With a bound, the verdict is
    delegated to the exhaustive table criterion on the truncation.
    """
    antichain = None
    if truncation_atoms is not None:
        S = truncation(truncation_atoms)
        labels = {el: i for i, el in enumerate(S.labels)}
        if s not in labels:
            raise ContractViolation(
                f"{s} does not live in the truncation with {truncation_atoms} atoms")
        found = hausdorff_criterion(S, labels[s])
        verdict, witness = found.verdict, tuple(S.labels[f] for f in found.witness)
    elif s.kind == "flip":
        verdict, witness = REFUTED, None
        antichain = AntichainWitness(
            description="i -> atom:i, pairwise products zero, each maximal in J_s",
            member=atom)
    else:  # zero, square and the atoms are idempotent: J_s is their down-set
        verdict, witness = HAUSDORFF_WITNESS, (s,)
    return SymbolicCriterionReport(FAMILY, str(s), _describe_j_set(s, truncation_atoms),
                                   verdict, witness, antichain)


def _describe_j_set(s: AtomFlipElement, bound: int | None) -> str:
    if s.kind == "flip":
        atoms = "all atoms" if bound is None else f"atoms 1..{bound}"
        return f"zero and {atoms}"
    if s.kind == "zero":
        return "zero only"
    if s.kind == "atom":
        return f"zero and atom:{s.index}"
    atoms = "every atom" if bound is None else f"atoms 1..{bound}"
    return f"all idempotents (zero, square, {atoms})"
