"""Finite inverse semigroups, by multiplication table or by image keys.

A `FiniteInverseSemigroup` holds an m x m table of element indices or,
for a `close` result, the image keys of its elements, and derives the
inverse map, the idempotents and the absorbing zero (if any); the
natural partial order s <= t  iff  t s* s = s is built when read.
Construction never rejects an algebraically broken table;
`verify_inverse_semigroup` reports whether the table really is an
inverse semigroup, with a certificate on failure.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, compress, repeat
from operator import and_, eq, getitem, itemgetter, or_
from typing import Iterable, NamedTuple, Sequence

from .errors import BudgetExceeded, ContractViolation
from .partial_bijection import PartialBijection, format_pairs

DEFAULT_CLOSE_BUDGET = 20_000
DEFAULT_SUBSET_BUDGET = 200_000  # pairs of props; subsets or triples of the --verify oracles

UP = "leq"    # A^<= : everything above some member
DOWN = "geq"  # A^>= : everything below some member


class FiniteInverseSemigroup:
    """A finite inverse semigroup, by table or by image keys.

    Immutable after construction; all queries are pure, so instances can
    be shared freely between threads.

    One rule for both kinds: the constructor derives the idempotents,
    the inverse map and the zero (a closure's off its keys); the
    up-masks, ground cells, E-order, compatibility masks and a table's
    generators (`generators_if_associative`) are built when read (a race
    builds twice), from table rows or from ground cells.  This module
    alone reads rows and cells, picking by `_closure`; outside it only
    `cli._verification` tests `_closure`, as a closure passes the table
    checks by construction.

    `product` (`pair_products` for many) reads s t off the table, or on
    a `close` result, which keeps none, off the image keys: the key of s
    read through the key of t is the key of s t (see `close`).
    A closure lays out its `mul` table, and builds its `labels`, on first
    read, for library callers; no CLI call reads `mul`.

    The natural order is kept at two sizes: the *E-order*, the order on
    the idempotents E as masks over E, with J_s, the idempotents below
    s, for every s (see `_require_e_order`), which the criterion, the
    left-translation domains and `is_e_star_unitary` read; and the
    m-bit up-masks, bit t of the s-th set iff s <= t, which `leq`,
    `up_set`, joins, `props` and germ groupoids read.
    - *Domains and ground cells* on a closure.  S is an inverse
      subsemigroup of I_n with the products and the inverse of I_n, so
      its order is that of I_n, where t s*s is t restricted to the
      domain of s: s <= t iff the graph of s lies in that of t.
      - E-order: an idempotent e is the identity on dom e, so e <= s iff
        s fixes every point of dom e (s e = s restricted to dom e = e).
        With dom_E[x] the idempotents defined at x, J_s is E minus the
        OR of dom_E[x] over the points x that s does not fix.  On E,
        as f fixes exactly dom f, e <= f iff dom e lies in dom f.  J_s
        depends on the fixed points of s only, so it is computed once
        per fixed-point set.
      - Up-masks: `_cells[x, y]` is the mask of the elements whose graph
        holds the pair (x, y), and up(s) is the AND over the points x
        of cell[x, s(x)], every element where s is undefined at x.
        Column x of the keys (entry s is the image of x under s, see
        `_columns`) gives the cells at x and, through a table of them
        indexed by image, that factor of every up(s), by C-level passes.
        Compatibility reads the same cells, and the pairs of each key.
    - *Table rows* otherwise (table files, the atom-flip truncations,
      any table passed in): up(s) is read off the row of s s*, as s <= t
      iff s s* t = s, and compatibility off rows and columns.  For an
      idempotent e that row is the row of e, which the inverse pass of
      a table read already: `_checked_inverses` keeps up(e), so the
      E-order of a table with that pass is read off the kept masks,
      with no scan, and the m-bit up-masks scan only the other rows.  A
      table passed with `_inverse` keeps nothing, and builds its masks
      when read.
    """

    __slots__ = ("_mul", "order", "_labels", "inv", "idempotents", "zero", "_closure",
                 "_up_masks", "_e_up_masks", "_row_counts", "_cells", "_e_order",
                 "_by_j_set", "_generators")

    def __init__(self, mul: Sequence[Sequence[int]] | None, labels: Sequence | None = None,
                 *, _inverse: Sequence[int] | None = None, _closure: tuple | None = None):
        """`_inverse` is the inverse map, for a caller that knows it by
        construction (`close` from the keys, the atom-flip truncations
        from their closed form).  A caller that passes it also vouches
        for the table: every row has length m and every entry is one of
        0..m-1 (each such caller proves it in its docstring).  Neither
        is checked.  Without it one pass over the rows range-checks the
        table and finds the generalized inverses (`_checked_inverses`),
        and `inv` is None unless each element has exactly one.  `close`
        passes no table but `_closure`: (key index, keys, gather, tail, k),
        one key per element, the one the index holds, and no labels."""
        table = None if _closure else tuple(tuple(row) for row in mul)
        e_up_masks = row_counts = None
        if table is not None and _inverse is None:
            _inverse, e_up_masks, row_counts = _checked_inverses(table)
        m = len(_closure[1] if table is None else table)
        if labels is not None and len(labels) != m:
            raise ContractViolation(f"{len(labels)} labels for {m} elements")
        if table is None:
            idempotents, zero = _closure_idempotents_and_zero(*_closure)
        else:
            idempotents = frozenset(e for e in range(m) if table[e][e] == e)
            zero = _find_zero(table, idempotents)
        object.__setattr__(self, "_mul", table)
        object.__setattr__(self, "_closure", _closure)
        object.__setattr__(self, "order", m)
        object.__setattr__(self, "_labels", tuple(labels) if labels is not None else None)
        object.__setattr__(self, "idempotents", idempotents)
        object.__setattr__(self, "inv", tuple(_inverse) if _inverse is not None else None)
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "_e_up_masks", e_up_masks)
        object.__setattr__(self, "_row_counts", row_counts)
        for slot in ("_up_masks", "_cells", "_e_order", "_by_j_set",
                     "_generators"):  # built when read
            object.__setattr__(self, slot, None)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteInverseSemigroup is immutable")

    # -- basic arithmetic ------------------------------------------------

    @property
    def mul(self) -> tuple[tuple[int, ...], ...]:
        """The m x m table; a closure lays out its rows on first read."""
        if self._mul is None:
            index, keys, gather, tail, _ = self._closure
            object.__setattr__(self, "_mul", tuple(tuple(map(index.__getitem__, map(
                gather, keys, repeat(key + tail)))) for key in keys))
        return self._mul

    def product(self, s: int, t: int) -> int:
        """s t, unchecked (see the class docstring)."""
        if self._closure is None:
            return self._mul[s][t]
        index, keys, gather, tail, _ = self._closure
        return index[gather(keys[t], keys[s] + tail)]

    def pair_products(self, us: Sequence[int], ts: Iterable[int]) -> list[int]:
        """[u t for u, t in zip(us, ts)], unchecked; a closure pads each u's key once."""
        if self._closure is None:
            return list(map(getitem, map(self._mul.__getitem__, us), ts))
        index, keys, gather, tail, _ = self._closure
        padded = {u: keys[u] + tail for u in dict.fromkeys(us)}
        operands = map(padded.__getitem__, us)
        return list(map(index.__getitem__, map(gather, map(keys.__getitem__, ts), operands)))

    def inverse(self, s: int) -> int:
        self._check_index(s)
        if self.inv is None:
            raise ContractViolation("table is not an inverse semigroup; no inverse map")
        return self.inv[s]

    def is_idempotent(self, s: int) -> bool:
        return s in self.idempotents

    @property
    def is_group(self) -> bool:
        return self.inv is not None and len(self.idempotents) == 1

    @property
    def labels(self) -> tuple | None:
        """The labels, or None; a closure's are built from its keys."""
        if self._labels is None and self._closure is not None:
            object.__setattr__(self, "_labels", tuple(
                PartialBijection(key[-1], _key_pairs(key)) for key in self._closure[1]))
        return self._labels

    def label_str(self, s: int) -> str:
        if self._closure is not None:
            return format_pairs(_key_pairs(self._closure[1][s]))
        return str(self._labels[s] if self._labels is not None else s)

    def elements(self) -> range:
        return range(self.order)

    # -- natural partial order -------------------------------------------

    def leq(self, s: int, t: int) -> bool:
        """s <= t in the natural partial order: t s* s = s."""
        self._check_index(s)
        self._check_index(t)
        return bool(self._require_up_masks()[s] >> t & 1)

    def up_set(self, subset: Iterable[int], relation: str = UP) -> frozenset[int]:
        """A^rel = {b : a rel b for some a in A}, rel one of "leq"/"geq".

        "leq" collects everything above some member, "geq" everything
        below some member (the downward closure used by the finite-cover
        criterion).
        """
        members = set(subset)
        for a in members:
            self._check_index(a)
        if relation not in (UP, DOWN):
            raise ContractViolation(f"relation must be {UP!r} or {DOWN!r}, got {relation!r}")
        up = self._require_up_masks()
        if relation == DOWN:  # t lies below some a in A iff up(t) meets A
            below = _set_to_mask(members)
            return frozenset(t for t, mask in enumerate(up) if mask & below)
        out = 0
        for a in members:
            out |= up[a]
        return _mask_to_set(out)

    # -- derived sets ------------------------------------------------------

    def j_set(self, s: int) -> frozenset[int]:
        """Idempotents e with s e = e; equivalently the idempotents below s."""
        self._check_index(s)
        return frozenset(e for e in self.idempotents if self.product(s, e) == e)

    def right_ideal(self, s: int) -> frozenset[int]:
        """The set sS = {s x : x in S}, by products."""
        self._check_index(s)
        return frozenset(self.product(s, x) for x in self.elements())

    # -- plumbing ----------------------------------------------------------

    def _check_index(self, s: int) -> None:
        if not (0 <= s < self.order):
            raise ContractViolation(f"element index {s} out of range [0, {self.order})")

    def _require_up_masks(self) -> tuple[int, ...]:
        """The m-bit up-masks, built on first read off rows, or off the
        key columns and ground cells."""
        if self._up_masks is None:
            if self.inv is None:
                raise ContractViolation("table is not an inverse semigroup; order undefined")
            if self._closure is None:
                up = _up_masks(self._mul, self.inv, self._e_up_masks or {})
            else:
                columns = _columns(self._closure[1])
                up = _up_masks_of_columns(columns, self._ground_cells(columns), self.order)
            object.__setattr__(self, "_up_masks", up)
        return self._up_masks

    def _require_e_order(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """The E-order (E, below, j_sets), masks over E in which bit i
        stands for E[i], the i-th idempotent in index order: j_sets[s] is
        J_s, the idempotents below s (for an idempotent e, e <= s iff
        s e*e = s e = e), for every s, and below[i] is J_s of s = E[i].
        Built on first use: on a closure from the domains of its
        idempotents, on a table from the up-masks of E, those that the
        inverse pass kept when it ran (see the class docstring)."""
        if self._e_order is None:
            E = tuple(sorted(self.idempotents))
            if self._closure is None:  # bit i of J_s is bit s of up(E[i])
                up = self._e_up_masks or self._require_up_masks()
                j_sets = _transpose(map(up.__getitem__, E), self.order)
            else:
                j_sets = _j_sets_of_domains(self._closure[1], E)
            object.__setattr__(self, "_e_order", (E, tuple(j_sets[e] for e in E), j_sets))
        return self._e_order

    def _j_set_memo(self) -> dict:
        """The criterion's verdicts by J_s mask, empty on first read and
        tied to the E-order it was read with; no other reader builds it."""
        if self._by_j_set is None or self._by_j_set[0] is not self._e_order:
            object.__setattr__(self, "_by_j_set", (self._require_e_order(), {}))
        return self._by_j_set[1]

    def _ground_cells(self, columns=None) -> dict[tuple[int, int], int] | None:
        """A closure's ground cells, built on first read (off `columns`,
        the key columns, when the caller has them); None on a table."""
        if self._cells is None and self._closure is not None:
            columns = columns if columns is not None else _columns(self._closure[1])
            object.__setattr__(self, "_cells", _cells_of_columns(columns))
        return self._cells

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"<FiniteInverseSemigroup order={self.order} idempotents={len(self.idempotents)}>"


class VerificationResult(NamedTuple):
    """Outcome of `verify_inverse_semigroup`.

    On failure `reason` is "associativity" (certificate: violating
    triple) or "inverse-uniqueness" (certificate: (element, candidate
    inverses)).
    """

    ok: bool
    reason: str | None = None
    certificate: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_inverse_semigroup(S: FiniteInverseSemigroup) -> VerificationResult:
    """Check associativity and uniqueness of generalized inverses.

    Associativity is Light's test, through `generators_if_associative`;
    only a table that fails it pays the exhaustive triple scan, which
    names the first violating triple (a, b, c) in lexicographic order.

    An associative S is inverse iff each s has exactly one t with s t s = s
    and t s t = t: `_checked_inverses` decides that row by row when a table
    loads, and `close` and `atomflip.truncation` prove it when they pass
    `_inverse`.  So `S.inv` answers; only when it is None does every
    element get its row scan, which names the first element without
    exactly one inverse.  A closure lays out no table.
    """
    if generators_if_associative(S) is None:
        return VerificationResult(False, "associativity", first_non_associative_triple(S.mul))
    if S.inv is not None:
        return VerificationResult(True)
    return VerificationResult(False, "inverse-uniqueness", _inverse_fault(S.mul))


def generating_set(mul: Sequence[Sequence[int]],
                   counts: Sequence[int] | None = None) -> tuple[int, ...]:
    """A set of elements whose products reach every element; sorted.

    Greedy: take the elements in decreasing order of |sS| (distinct
    entries in the row: `counts[s]`, counted here unless the caller has
    them from the inverse pass), ties by index, and make each one a
    generator unless the generators so far already reach it.  Reached
    means built as ((g1 g2) g3) ... gk by the table, so the set closes
    by right multiplication alone and needs no associativity.  Elements
    with a large right ideal go first because their products tend to
    cover much of the table: the 209-element table of I_4 gets 5
    generators (33 in plain index order), the atom-flip truncation F_n
    gets n + 1 (n >= 2), the fewest it can have.
    """
    m = len(mul)
    gens: list[int] = []
    reached = [False] * m
    counts = counts or [len(set(row)) for row in mul]
    for g in sorted(range(m), key=counts.__getitem__, reverse=True):  # stable: ties by index
        if reached[g]:
            continue
        # Words with a letter g: g or r g for a reached r, then
        # right-multiplied by any generator.
        gens.append(g)
        frontier = [g, *set(map(itemgetter(g), compress(mul, reached)))]
        while frontier:
            s = frontier.pop()
            if reached[s]:
                continue
            reached[s] = True
            row = mul[s]
            frontier.extend(row[h] for h in gens if not reached[row[h]])
    return tuple(sorted(gens))


def is_associative(mul: Sequence[Sequence[int]], gens: Iterable[int],
                   zero: int | None = None, counts: Sequence[int] | None = None) -> bool:
    """Light's test: (x a) y = x (a y) for every a in `gens`, all x, y;
    `zero`, when given, is an absorbing element of the table, and
    `counts` the number of distinct values in each row.

    Correct when `gens` generates the table (see
    `generators_if_associative`), as the a with (x a) y = x (a y) for
    all x, y are closed under products: for such a, b and c = a b,
    (x c) y = ((x a) b) y = (x a)(b y) = x (a (b y)) = x ((a b) y)
    = x (c y), by the law at a or at b at each step.  Per pair (a, x)
    the check is one C-level row comparison: the row of x a against the
    row of x read through the row of a.

    Rows that agree on Z = aS ∪ {a} give the same check, because both
    sides read row x only there: x a at position a, and x (a y) at
    position a y, which lies in aS.  The zero z leaves Z: its column is
    constant (x z = z, as `_find_zero` checks), so rows that agree off z
    agree at z too.  So one row per key, the entries of row x at Z, is
    enough.  Keying costs about m |Z| lookups and saves the
    (m - keys) m of the skipped comparisons, with keys <= m; when every
    key is distinct (keys = |Z|, as for I_n and random closures) it
    pays only if m |Z| <= (m - |Z|) m, that is 2 |Z| <= m.  Only then
    are the rows keyed.  With about |Z| keys a generator costs
    O(min(m, 2 |Z|) m), and never more than 3 m^2 / 2 lookups.

    At a = z, Z is empty and the law holds outright:
    (x z) y = z = x (z y).  With one column left, that of a (aS within
    {a, z}, as for an atom of the atom-flip truncation F_n), the first
    row with each value v = x a in the column stands for its key, and
    the values a and z need none.  As a y is a or z, x (a y) is x a = v
    or x z = z: for v = a both sides are a y, and for v = z both are z.
    That is m lookups and, for an atom, no row comparison, so F_n costs
    O(m^2) instead of m^3.  Rows are compared as tuples, so other rows
    are converted once, here.

    Only keying reads Z itself; the branch needs its size.  The zero z
    lies in row a (a z = z), so |Z| is the count of row a, less one if
    z is given, plus one if a is not in row a: one C-level scan, which
    on an atom of F_n stops within the first three entries, instead of
    a set of the whole row.
    """
    if not all(isinstance(row, tuple) for row in mul):
        mul = tuple(map(tuple, mul))
    m = len(mul)
    if m == 1:
        # itemgetter of one index returns a scalar; [[0]] is associative
        return True
    for a in gens:
        row_a = mul[a]
        count = len(set(row_a)) if counts is None else counts[a]
        size = count - (zero is not None) + (a not in row_a)  # |Z|
        if not size:  # a is the zero
            continue
        through_a = itemgetter(*row_a)
        rows = mul
        if size == 1:  # the column of a
            column = list(map(itemgetter(a), mul))
            values = set(column) - {a, zero}
            rows = map(mul.__getitem__, map(column.index, values))
        elif 2 * size <= m:
            zone = {a, *row_a}
            zone.discard(zero)
            rows = dict(zip(map(itemgetter(*zone), mul), mul)).values()
        for row in rows:
            if mul[row[a]] != through_a(row):
                return False
    return True


def generators_if_associative(S: FiniteInverseSemigroup) -> Sequence[int] | None:
    """Generators of S when S is known to be associative, else None.

    The one generating set of every law checked on generators: Light's
    test (`is_associative`), the homomorphism law of an action
    (`action._homomorphic_at`) and the translates of `props`
    (`criterion.is_complete_and_distributive`, step (iii), and
    `oracles.completeness_scan`).  Each proves that the elements at
    which its law holds are closed under products; as every element is
    a product of generators, the law then holds on S if it holds on
    them.  A closure's letters, elements 0..k-1 (see `close`), generate
    it and compose associatively as partial maps; a table's
    `generating_set` is returned when Light's test passes on it.  The
    one place that runs Light's test, once per table: the answer is kept
    on first read in a 1-tuple, so that a failed test (None) is kept too."""
    if S._closure is not None:
        return range(_letter_count(S))
    if S._generators is None:
        gens = generating_set(S.mul, S._row_counts)
        associative = is_associative(S.mul, gens, S.zero, S._row_counts)
        object.__setattr__(S, "_generators", (gens if associative else None,))
    return S._generators[0]


def first_non_associative_triple(mul: Sequence[Sequence[int]]) -> tuple[int, int, int] | None:
    """The first (a, b, c) with (a b) c != a (b c), by the O(m^3) scan."""
    m = len(mul)
    for a in range(m):
        row_a = mul[a]
        for b in range(m):
            ab_row, b_row = mul[row_a[b]], mul[b]
            for c in range(m):
                if ab_row[c] != row_a[b_row[c]]:
                    return (a, b, c)
    return None


def verify_by_scans(S: FiniteInverseSemigroup, budget: int | None = None) -> VerificationResult:
    """`verify_inverse_semigroup` of a table by the exhaustive scans,
    sharing none of its shortcuts: every triple for associativity, then
    every element's generalized inverses.  The verdict, reason and
    certificate equal the verifier's, which names the same first triple
    and the same first element.  The m^3 triples count against `budget`
    (default `DEFAULT_SUBSET_BUDGET`); above it, BudgetExceeded before
    any scan.
    """
    budget = DEFAULT_SUBSET_BUDGET if budget is None else budget
    if S.order ** 3 > budget:
        raise BudgetExceeded(f"verify by scans: {S.order}^3 = {S.order ** 3} triples "
                             f"exceed budget {budget}", budget)
    mul = S.mul
    triple = first_non_associative_triple(mul)
    if triple is not None:
        return VerificationResult(False, "associativity", triple)
    fault = _inverse_fault(mul)
    return VerificationResult(fault is None, fault and "inverse-uniqueness", fault)


def close(generators: Sequence[PartialBijection],
          budget: int | None = None) -> FiniteInverseSemigroup:
    """Close partial-bijection generators under composition and inverses.

    The *letters* (`closure_letters`) come first.  Then every element
    appears in shortlex order of its least word over the letters, so
    equal generator lists always yield identical element indexing;
    action files rely on it.  Raises `BudgetExceeded` if the closure
    would pass `budget` elements.

    Froidure-Pin on image keys: an element of I_n is keyed by its image
    tuple, n + 1 entries with entry x the image of x, and the sentinel
    n where x is undefined and at position n (as bytes when n < 256).
    The key of s a (a first, then s) is the key of s read through the
    key of a, one C-level gather: x goes to s(a(x)), and the sentinel
    to itself, so s a is undefined at x exactly where a is, or where s
    is at a(x); the key of s is padded as it is read (`_gather_and_tail`).
    Expand the elements in index order, right-multiplying each by every
    letter; nothing of the right Cayley graph is kept, as the index
    answers every question about it (see `is_closure_of`).
    The key of s* is key*[key[x]] = x, as in I_n: with n < 256 one
    `bytes.maketrans` per key, which sends every point to the sentinel
    and then each key[x] back to x (a later entry wins, and key[n] = n
    comes last).  Cost, for m elements and k letters: m k gathers of
    n + 1 entries, and no table, label or padded key: the result keeps
    the keys that its index holds, and multiplies by them.

    Why the indexing is that of the all-pairs search it replaced
    (`pairwise_close` in the test oracles): a prefix or a suffix of a
    least word is least, so both searches meet each element first
    through its least word, in shortlex order.
    """
    if not generators:
        raise ContractViolation("need at least one generator")
    n = generators[0].ground_size
    for g in generators:
        if g.ground_size != n:
            raise ContractViolation("generators live on different ground sets")
    if budget is None:
        budget = DEFAULT_CLOSE_BUDGET

    def exceeded(expanded: int, found: int) -> BudgetExceeded:
        return BudgetExceeded(f"close: exceeded element budget {budget} after expanding "
                              f"{expanded} of {found} elements", budget)

    keys = [_image_key(n, g.pairs) for g in closure_letters(generators)]
    if len(keys) > budget:
        raise exceeded(0, max(budget, 0))
    index = {key: s for s, key in enumerate(keys)}
    letters, (gather, tail) = keys[:], _gather_and_tail(n)
    for expanded, key in enumerate(keys):  # `keys` grows as the search meets new elements
        for product in map(gather, letters, repeat(key + tail)):
            if product not in index:
                if len(keys) >= budget:
                    raise exceeded(expanded, len(keys))
                index[product] = len(keys)
                keys.append(product)
    if n < 256:  # key*: each point goes to the sentinel, then each y = key[x] back to x
        points, mirror = bytes(range(n + 1)), bytes([n]) * (n + 1) + bytes(range(n + 1))
        inverse_keys = map(itemgetter(slice(n + 1)),
                           map(bytes.maketrans, map(points.__add__, keys), repeat(mirror)))
    else:  # (n, n) is written last
        inverse_keys = (_image_key(n, zip(key, range(n + 1))) for key in keys)
    return FiniteInverseSemigroup(None, _closure=(index, keys, gather, tail, len(letters)),
                                  _inverse=list(map(index.__getitem__, inverse_keys)))


def closure_letters(generators: Sequence[PartialBijection]) -> tuple[PartialBijection, ...]:
    """The letters of the closure of `generators`, its elements 0..k-1:
    the generators in the given order, then their inverses, first
    occurrences only."""
    return tuple(dict.fromkeys([*generators, *(g.invert() for g in generators)]))


def has_letters_of(S: FiniteInverseSemigroup, generators: Sequence[PartialBijection]) -> bool:
    """Whether S is a closure whose letters are those of `generators`."""
    return S._closure is not None and S.labels[:_letter_count(S)] == closure_letters(generators)


def _letter_count(S: FiniteInverseSemigroup) -> int:
    """k, for a closure whose letters are its elements 0..k-1 (see `close`)."""
    return S._closure[4]


def _image_key(n: int, pairs: Iterable[tuple[int, int]]) -> bytes | tuple[int, ...]:
    """The image key of the partial bijection on n points with graph
    `pairs`: entry x is the image of x, or the sentinel n where x is
    undefined; entry n is n.  Bytes when n < 256, else a tuple."""
    key = [n] * (n + 1)
    for x, y in pairs:
        key[x] = y
    return bytes(key) if n < 256 else tuple(key)


def _gather_and_tail(n: int) -> tuple:
    """gather(key of a, key of s + tail) is the key of s a: `bytes.translate`
    reads 256 entries, so a bytes key is padded by n (see `close`)."""
    return (bytes.translate, bytes([n]) * (255 - n)) if n < 256 else (_gather_tuples, ())


def _gather_tuples(key: tuple[int, ...], operand: tuple[int, ...]) -> tuple[int, ...]:
    return itemgetter(*key)(operand)  # bytes.translate for tuples


def _key_pairs(key: bytes | tuple[int, ...]) -> list[tuple[int, int]]:
    """The graph of an image key, which ends in its sentinel n."""
    n = key[-1]
    return [(x, y) for x, y in enumerate(key[:n]) if y != n]


def is_closure_of(S: FiniteInverseSemigroup) -> bool:
    """Check a closure against its labels by direct composition, from
    its own record alone: the labels L on n points, read off the keys,
    the key index, the gather and tail of `S.product`, the letter count
    k and `inv`.  No table.

    True when, with key(f) the image key of f (see `close`) and the k
    letters first, 1 <= k <= m, (gather, tail) is `_gather_and_tail(n)`
    and: (1) for every s, key(L[s]) is the record's key of s, which the
    index maps to s; (2) `inv` has m entries and
    L[inv[s]] = L[s]^-1; (3) the letters include each other's inverses;
    (4) for every s and letter a, t = index[key(L[s] L[a])] is an
    element with L[t] = L[s] L[a]; (5) the letters reach every element
    through these lookups, the right Cayley graph read off the index.
    Costs k m composes, for m elements.

    Why that is enough.  Let T be the subsemigroup of I_n that the
    letters generate.  By (4) and (5) each label is a product of letters,
    so it lies in T; the labels hold the letters and by (4) are closed
    under right composition by them, so they hold T ((4) compares the
    label of t, so no stale index entry stands in for a missing product).
    By (1) distinct elements have distinct keys, so s -> L[s] is a
    bijection onto T.  By (3) and (a b)^-1 = b^-1 a^-1, T is an inverse
    subsemigroup of I_n, and by (2) `inv` is its inverse map.
    `S.product(s, t)` gathers the key of s, padded, through that of t,
    by (1) key(L[s]) and key(L[t]): with the pair of `close` that gives
    key(L[s] L[t]), which by (1) the index maps to the element labelled
    L[s] L[t].  So S multiplies as its labels compose: it is isomorphic
    to T, an inverse semigroup, and composition of partial maps needs no
    associativity test (Lawson, Inverse Semigroups, 1998, Thm 1.1.3).
    """
    if S._closure is None:
        return False
    index, record_keys, gather, tail, k = S._closure
    labels, m, n = S.labels, S.order, record_keys[0][-1]
    keys, letters = [_image_key(n, f.pairs) for f in labels], labels[:k]
    if (not 1 <= k <= m or (gather, tail) != _gather_and_tail(n) or len(S.inv) != m
            or keys != record_keys or list(map(index.get, keys)) != list(range(m))
            or not all(t in range(m) and labels[t] == f.invert() for f, t in zip(labels, S.inv))
            or not {f.invert() for f in letters} <= set(letters)):
        return False
    reached = set(range(k))
    frontier = list(reached)
    while frontier:
        s = frontier.pop()
        for a in letters:
            product = labels[s].compose(a)
            t = index.get(_image_key(n, product.pairs))
            if t not in range(m) or labels[t] != product:
                return False
            if t not in reached:
                reached.add(t)
                frontier.append(t)
    return len(reached) == m


def inverse_candidates(mul: Sequence[Sequence[int]], s: int) -> tuple[int, ...]:
    """All t with s t s = s and t s t = t, ascending (see `_candidates`)."""
    return tuple(sorted(_candidates(mul, s, set(mul[s]), {})))


def _candidates(mul, s: int, values, kept: dict[int, int]) -> list[int]:
    """The t with s t s = s and t s t = t, unsorted, given the distinct
    `values` of row s.  (s t) s = mul[u][s] reads t only through u = s t;
    for each u that passes, only the t with s t = u get the test
    (t s) t = t.  Exact on any table whose entries index it.  u = s
    passes iff s s = s, and its t are then {t : s t = s}: that mask
    goes into `kept` (see `_checked_inverses`)."""
    row, found = mul[s], []
    for u in values:
        if mul[u][s] == s:
            mask = _mask_of(row, u)
            if u == s:
                kept[s] = mask
            found += [t for t in _bits(mask) if mul[mul[t][s]][t] == t]
    return found


def _inverse_fault(mul: Sequence[Sequence[int]]) -> tuple | None:
    """(s, candidates) for the first s without exactly one generalized inverse, else None."""
    cands = map(inverse_candidates, repeat(mul), range(len(mul)))
    return next(((s, c) for s, c in enumerate(cands) if len(c) != 1), None)


def _checked_inverses(table: tuple[tuple, ...]) -> tuple:
    """(inverse map, up(e) by idempotent e, distinct values per row) of
    a table in one pass over its rows; the first two are None unless
    each element has exactly one generalized inverse.  Each row's
    values go once into one reused set, for the range check, the count
    and the row's `_candidates`.  A row passes with length m, no value
    below 0 and an int sum (a float equal to an int in range hides
    behind it in the set, not in the sum); `_candidates` reads every
    value as a row index, so one past m - 1 raises there.  It also reads
    rows not yet checked, which may raise or wrap on a negative index,
    so on any failure `_check_cells` raises, naming the first bad row or
    entry.

    `_candidates` leaves {t : e t = e} in `kept` for each idempotent e:
    its up-mask when the map exists, as then inv[e] = e (e e e = e makes
    e a generalized inverse of itself, and it is the only one), so the
    row of e e* is that of e (see `_up_masks`).  That needs no
    associativity.  |E| masks of m bits: about 130 KB on F_1024."""
    m, inverse, values, kept, counts = len(table), [], set(), {}, []
    try:
        for s, row in enumerate(table):
            values.clear()
            values.update(row)
            if len(row) != m or min(values) < 0 or type(sum(row)) is not int:
                break
            found = _candidates(table, s, values, kept)
            inverse.append(found[0] if len(found) == 1 else None)
            counts.append(len(values))
        else:
            return (None, None, counts) if None in inverse else (inverse, kept, counts)
    except (TypeError, IndexError):  # an unhashable entry, or a bad one read early
        pass
    _check_cells(table)


def _check_cells(table: tuple[tuple, ...]) -> None:
    """Raise ContractViolation naming the first row whose length is not
    m or the first entry that is not an int in 0..m-1.  A bool is an int
    here, as in Python; `formats` rejects JSON true and false."""
    m = len(table)
    for i, row in enumerate(table):
        if len(row) != m:
            raise ContractViolation(f"row {i} has length {len(row)}, expected {m}")
        for v in row:
            if not isinstance(v, int):
                raise ContractViolation(f"table entry {v!r} is not an integer")
            if not 0 <= v < m:
                raise ContractViolation(f"table entry {v} out of range [0, {m})")


def _find_zero(table, idempotents) -> int | None:
    """The absorbing element of a table, if any.

    A zero is idempotent and absorbs every product it enters, so it is
    the product z of all idempotents (in any order); one check of z
    decides.
    """
    z = None
    for e in idempotents:
        z = e if z is None else table[z][e]
    if z is None or any(table[z][s] != z or table[s][z] != z for s in range(len(table))):
        return None
    return z


def _closure_idempotents_and_zero(index, keys, gather, tail,
                                  k: int) -> tuple[frozenset[int], int | None]:
    """A closure's idempotents and zero off its record (see `close`), with
    no index lookup per element: s is idempotent iff its padded key
    read through its key is its key (s s = s).  A zero is an idempotent
    that absorbs the others, so it is their product z: the identity on
    the points where all of them are defined, at each point x the larger
    of x and the sentinel n.  For idempotent z, s z = z iff z <= s (as
    z*z = z), which gives z s = z z* s = z; so z is the zero iff s z = z
    for every s, which the k letters decide: if a z = z and b z = z,
    then (a b) z = a (b z) = z.  `index.get` finds z, so a record whose
    products leave the index gets no zero, not a KeyError.
    """
    idempotents = frozenset(s for s, key in enumerate(keys) if gather(key, key + tail) == key)
    z_key = type(keys[0])(map(max, zip(*map(keys.__getitem__, idempotents))))
    z = index.get(z_key)
    absorbs = z is not None and all(gather(z_key, key + tail) == z_key for key in keys[:k])
    return idempotents, z if absorbs else None


def _up_masks(table, inv, kept: dict[int, int]) -> tuple[int, ...]:
    """Bit t of the s-th mask is set iff s <= t, that is s s* t = s: the
    positions of s in the row of s s*, by `_mask_of`, unless `kept`
    (up(e) by idempotent e, from the inverse pass) holds up(s)."""
    return tuple(kept[s] if s in kept else _mask_of(table[table[s][inv[s]]], s)
                 for s in range(len(table)))


def _mask_of(row, value) -> int:
    """The mask of the t with row[t] == value, by C-level `row.index` scans."""
    mask, t = 0, -1
    try:
        while True:
            t = row.index(value, t + 1)
            mask |= 1 << t
    except ValueError:  # no value past t
        return mask


def _columns(keys) -> list:
    """Column x of the image keys (see `close`) for each point x < n:
    entry s is key_s[x].  The keys are laid end to end once, as one
    tuple, and each column is a strided slice."""
    n, flat = keys[0][-1], tuple(chain.from_iterable(keys))
    return [flat[x::n + 1] for x in range(n)]


def _cells_of_columns(columns: Sequence) -> dict[tuple[int, int], int]:
    """cell[x, y], the mask of the elements whose graph holds (x, y), for
    each image y in column x, by `_mask_of`."""
    n = len(columns)
    return {(x, y): _mask_of(column, y)
            for x, column in enumerate(columns) for y in set(column) - {n}}


def _up_masks_of_columns(columns: Sequence, cells, m: int) -> tuple[int, ...]:
    """up(s) = the AND over the points x of cell[x, s(x)], every element
    where s is undefined at x (proof in `FiniteInverseSemigroup`).  The
    table of column x holds its cells by image, and all ones at the
    sentinel n; a point at which no element is defined gets none.  One
    lazy C-level lookup per table, zipped and ANDed per element, so no
    list of masks but the result is held and no C recursion grows with
    the points."""
    n, full = len(columns), (1 << m) - 1
    tables: dict[int, dict[int, int]] = {}
    for (x, y), cell in cells.items():
        tables.setdefault(x, {n: full})[y] = cell
    lookups = [map(table.__getitem__, columns[x]) for x, table in tables.items()]
    return tuple(map(reduce, repeat(and_), zip(repeat(full, m), *lookups)))


def _up_and_compatibility_masks(
        S: FiniteInverseSemigroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The up-masks, and the masks in which bit t of the s-th mask is set
    iff s and t are compatible: off a closure's ground cells and the
    pairs of each key, else off the table rows."""
    if S._closure is None:
        return S._require_up_masks(), _compatibility_from_rows(S)
    return S._require_up_masks(), _compatibility_from_cells(  # the up-masks build the cells
        map(_key_pairs, S._closure[1]), S._ground_cells(), S.order)


def _compatibility_from_cells(graphs, cells, m: int) -> tuple[int, ...]:
    """compat(s) = NOT (the OR of conflict(x, y) over the pairs (x, y)
    of s), where conflict(x, y) = (row(x) | col(y)) & ~cell[x, y], with
    row(x) the elements defined at x and col(y) those with y in their
    image.

    Proof.  S lies in I_n with its products and inverses, and its
    idempotents are the partial identities in S, so s ~ t in S iff
    s* t and s t* are partial identities.  s* t sends x to s^-1(t(x))
    wherever t(x) lies in the image of s, so it is a partial identity
    iff s and t have the same preimage at every point of both images;
    s t* likewise iff they have the same image at every point of both
    domains.  Together: s ~ t iff no pair (x, y) of s meets a pair
    (x, y') of t with y' != y or a pair (x', y) of t with x' != x, and
    t has such a pair iff t is defined at x or has y in its image but
    does not hold (x, y), that is, iff t is in conflict(x, y).
    """
    rows: dict[int, int] = {}
    cols: dict[int, int] = {}
    for (x, y), cell in cells.items():
        rows[x] = rows.get(x, 0) | cell
        cols[y] = cols.get(y, 0) | cell
    conflict = {(x, y): (rows[x] | cols[y]) & ~cell for (x, y), cell in cells.items()}
    full = (1 << m) - 1
    return tuple(full ^ reduce(or_, map(conflict.__getitem__, pairs), 0) for pairs in graphs)


def _compatibility_from_rows(S: FiniteInverseSemigroup) -> tuple[int, ...]:
    """Compatibility masks from the table: s ~ t iff s* t and s t* are
    idempotent.

    s* t is read off the row of s*, and s t* off the column of s*, since
    s t* is idempotent iff its inverse t s* is.  Each row becomes a
    string of idempotent flags by one C-level lookup; the columns are
    strided slices of the rows laid end to end.
    """
    m = S.order
    flags = bytes(b"01"[e in S.idempotents] for e in range(m))  # ASCII digits
    # A one-index itemgetter returns a scalar; the one-element table is [[0]].
    rows = [bytes(itemgetter(*row)(flags)) for row in S.mul] if m > 1 else [flags] * m
    table = b"".join(rows)
    return tuple(int(rows[x][::-1], 2) & int(table[x::m][::-1], 2) for x in S.inv)


def _j_sets_of_domains(keys, E: Sequence[int]) -> tuple[int, ...]:
    """J_s of every element s of a closure, as a mask over E: E minus
    the OR of dom_E[x] over the points x that s does not fix, one OR per
    fixed-point set (proof in `FiniteInverseSemigroup`).  The first n
    entries of the key of s (see `close`) are its images."""
    points = range(keys[0][-1])
    dom_e = [0] * len(points)  # dom_E[x]: the idempotents defined at x
    for i, e in enumerate(E):
        for x, _ in _key_pairs(keys[e]):
            dom_e[x] |= 1 << i
    full = (1 << len(E)) - 1
    by_fixed: dict[bytes, int] = {}
    j_sets = []
    for key in keys:
        fixed = bytes(map(eq, key, points))
        j = by_fixed.get(fixed)
        if j is None:
            moved = (dom_e[x] for x in points if not fixed[x])
            j = by_fixed[fixed] = full & ~reduce(or_, moved, 0)
        j_sets.append(j)
    return tuple(j_sets)


def _transpose(masks: Iterable[int], size: int) -> tuple[int, ...]:
    """Bit i of the t-th mask out is bit t of the i-th mask in, t < size."""
    out = [0] * size
    for i, mask in enumerate(masks):
        bit = 1 << i
        for t in _bits(mask):
            out[t] |= bit
    return tuple(out)


def _bits(mask: int):
    """The positions of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _set_to_mask(members: Iterable[int]) -> int:
    mask = 0
    for a in members:
        mask |= 1 << a
    return mask


def _mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(_bits(mask))
