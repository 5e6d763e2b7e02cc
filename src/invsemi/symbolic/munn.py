"""Free inverse monoids via Munn trees.

An element of rank r is a finite subtree of the Cayley graph of the free
group on r generators, rooted at the empty word, together with an
endpoint vertex.  Words are tuples of nonzero ints: letter i is the i-th
generator, -i its inverse.  Multiplication glues the right tree onto the
left endpoint; an element is idempotent exactly when its endpoint is the
root, and the monoid has no zero, so the unitary property takes its
zero-free form: an idempotent below s forces s idempotent.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..criterion import HAUSDORFF_WITNESS
from ..errors import ContractViolation, ParseError
from . import FAMILIES, Frozen, SymbolicCriterionReport

FAMILY = "munn"

Word = tuple[int, ...]

_NAMES = ("x", "y", "z")
DEFAULT_RANK = FAMILIES[FAMILY][2]  # an element's rank unless its word or --rank is larger


def reduce_word(letters: Iterable[int]) -> Word:
    """Free reduction: cancel adjacent inverse pairs."""
    out: list[int] = []
    for ltr in letters:
        if out and out[-1] == -ltr:
            out.pop()
        else:
            out.append(ltr)
    return tuple(out)


def invert_word(word: Word) -> Word:
    return tuple(-ltr for ltr in reversed(word))


class MunnTreeElement(Frozen):
    """A rooted subtree of the free-group Cayley graph plus an endpoint."""

    __slots__ = ("rank", "vertices", "endpoint")

    rank: int
    vertices: frozenset[Word]
    endpoint: Word

    def __init__(self, rank: int, vertices: Iterable[Word], endpoint: Word):
        if rank < 1:
            raise ContractViolation("rank must be at least 1")
        verts = frozenset(tuple(v) for v in vertices)
        endpoint = tuple(endpoint)
        for w in verts:
            for ltr in w:
                if ltr == 0 or abs(ltr) > rank:
                    raise ContractViolation(f"letter {ltr} outside rank {rank}")
            if reduce_word(w) != w:
                raise ContractViolation(f"vertex {w} is not a reduced word")
            if w and w[:-1] not in verts:
                raise ContractViolation(f"vertex {w} is missing its parent")
        if () not in verts:
            raise ContractViolation("tree must contain the root")
        if endpoint not in verts:
            raise ContractViolation("endpoint must be a vertex")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "endpoint", endpoint)

    @classmethod
    def identity(cls, rank: int) -> "MunnTreeElement":
        return cls(rank, [()], ())

    @classmethod
    def generator(cls, rank: int, letter: int) -> "MunnTreeElement":
        if letter == 0 or abs(letter) > rank:
            raise ContractViolation(f"letter {letter} outside rank {rank}")
        return cls(rank, [(), (letter,)], (letter,))

    @classmethod
    def from_word(cls, rank: int, word: Iterable[int]) -> "MunnTreeElement":
        el = cls.identity(rank)
        for ltr in word:
            el = el * cls.generator(rank, ltr)
        return el

    def is_idempotent(self) -> bool:
        return self.endpoint == ()

    def multiply(self, other: "MunnTreeElement") -> "MunnTreeElement":
        if self.rank != other.rank:
            raise ContractViolation("ranks differ")
        glued = set(self.vertices)
        base = self.endpoint
        for w in other.vertices:
            glued.add(reduce_word(base + w))
        return MunnTreeElement(self.rank, glued,
                               reduce_word(base + other.endpoint))

    __mul__ = multiply

    def inverse(self) -> "MunnTreeElement":
        base = invert_word(self.endpoint)
        return MunnTreeElement(self.rank,
                               (reduce_word(base + w) for w in self.vertices),
                               base)

    def sort_key(self):
        return (len(self.vertices), sorted(self.vertices), self.endpoint)

    def __repr__(self) -> str:
        verts = ",".join(format_word(w, self.rank) or "1" for w in sorted(self.vertices))
        return f"Munn(rank={self.rank}, tree=[{verts}], end={format_word(self.endpoint, self.rank) or '1'})"

    def __str__(self) -> str:
        word = format_word(self.endpoint, self.rank)
        return f"{word or '1'} on [{','.join(format_word(w, self.rank) or '1' for w in sorted(self.vertices))}]"


def criterion(s: MunnTreeElement) -> SymbolicCriterionReport:
    """Finite-cover verdict: free inverse monoids have no zero and no
    idempotent sits below a non-idempotent, so J_s is empty unless s is
    idempotent, in which case s itself covers."""
    j_set, witness = (("idempotents whose tree contains this tree", (s,)) if s.is_idempotent()
                      else ("empty (no idempotent below a non-idempotent)", ()))
    return SymbolicCriterionReport(FAMILY, str(s), j_set, HAUSDORFF_WITNESS, witness)


def evaluate(text: str, rank: int | None) -> tuple:
    """The element that the word `text` names, at the larger of its
    own rank and `rank` (default `DEFAULT_RANK`, at least 1), its
    `criterion` report, and no pool."""
    rank = DEFAULT_RANK if rank is None else rank
    if rank < 1:
        raise ParseError(f"--rank must be at least 1, got {rank}")
    word_rank, word = parse_word(text)
    element = MunnTreeElement.from_word(max(word_rank, rank), word)
    return element, criterion(element), ()


def element_pool(rank: int, max_vertices: int) -> tuple[MunnTreeElement, ...]:
    """All elements whose tree has at most `max_vertices` vertices.

    Not closed under multiplication (products grow trees); intended as a
    deterministic element pool for oracle testing only.
    """
    if max_vertices < 1:
        raise ContractViolation("need room for the root vertex")
    trees: set[frozenset[Word]] = set()
    frontier = [frozenset([()])]
    trees.add(frontier[0])
    while frontier:
        tree = frontier.pop()
        if len(tree) >= max_vertices:
            continue
        for v in tree:
            for ltr in _letters(rank):
                child = v + (ltr,)
                if reduce_word(child) != child or child in tree:
                    continue
                grown = tree | {child}
                if grown not in trees:
                    trees.add(grown)
                    frontier.append(grown)
    pool = [MunnTreeElement(rank, tree, endpoint)
            for tree in trees for endpoint in tree]
    pool.sort(key=MunnTreeElement.sort_key)
    return tuple(pool)


def _letters(rank: int) -> Iterator[int]:
    for i in range(1, rank + 1):
        yield i
        yield -i


def format_word(word: Word, rank: int) -> str:
    parts = []
    for ltr in word:
        name = _NAMES[abs(ltr) - 1] if rank <= len(_NAMES) else f"x{abs(ltr)}"
        parts.append(name if ltr > 0 else name + "^-1")
    return " ".join(parts)


def parse_word(text: str) -> tuple[int, Word]:
    """Parse "x y x^-1" style words; returns (rank, letters).

    Generator names: x, y, z or x1, x2, ...; an optional ^-1 suffix
    inverts.  Rank is the largest generator mentioned (at least 1).
    """
    letters = []
    for token in text.split():
        name, inverse = token, False
        if token.endswith("^-1"):
            name, inverse = token[:-3], True
        elif "^" in token:
            raise ParseError(f"unsupported power in {token!r}; only ^-1 is allowed")
        if name in _NAMES:
            idx = _NAMES.index(name) + 1
        elif name.startswith("x") and name[1:].isdecimal() and int(name[1:]) >= 1:
            idx = int(name[1:])
        else:
            raise ParseError(f"bad generator {token!r}; use x, y, z or x<k>")
        letters.append(-idx if inverse else idx)
    rank = max((abs(ltr) for ltr in letters), default=1)
    return rank, tuple(letters)
