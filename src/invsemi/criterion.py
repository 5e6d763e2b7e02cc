"""Compatibility, joins, pseudogroup checks, and the finite-cover criterion.

The central question: for an element s, does the set J_s of idempotents
fixed by left multiplication by s admit a finite subset F whose downward
closure is all of J_s?  On a finite semigroup the maximal elements of
J_s always work, so `hausdorff_criterion` certifies a witness; the
interesting refutations live in the `symbolic` families.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Iterable, NamedTuple, Sequence

from .errors import BudgetExceeded, ContractViolation, InvariantViolation
from .semigroup import (DEFAULT_SUBSET_BUDGET, DOWN, FiniteInverseSemigroup, _bits,
                        _set_to_mask, _up_and_compatibility_masks, generators_if_associative)

HAUSDORFF_WITNESS = "HAUSDORFF_WITNESS"
REFUTED = "REFUTED"


class CriterionVerdict(NamedTuple):
    """Finite-cover verdict for one element.

    When `verdict` is HAUSDORFF_WITNESS, the downward closure of
    `witness` inside the parent semigroup is exactly `j_set`, so the
    union of right ideals over `witness` equals the union over all of
    `j_set` (the ideal-cover restatement; see `hausdorff_criterion`).
    """

    subject: int
    j_set: frozenset[int]
    witness: tuple[int, ...] | None
    verdict: str


def compatible(S: FiniteInverseSemigroup, s: int, t: int) -> bool:
    """True when both s* t and s t* are idempotent."""
    S._check_index(s)
    S._check_index(t)
    inv = S.inverse
    return (S.product(inv(s), t) in S.idempotents
            and S.product(s, inv(t)) in S.idempotents)


def _pairwise_compatible(S: FiniteInverseSemigroup, members: Sequence[int]) -> bool:
    return all(compatible(S, a, b)
               for i, a in enumerate(members) for b in members[i + 1:])


def join(S: FiniteInverseSemigroup, subset: Iterable[int]) -> int | None:
    """Least upper bound of a nonempty pairwise-compatible set, if it exists.

    Raises `ContractViolation` when the set is empty or not pairwise
    compatible; returns None when the set is compatible but has no least
    upper bound in S.
    """
    members = sorted(set(subset))
    if not members:
        raise ContractViolation("join of the empty set is not defined")
    for a in members:
        S._check_index(a)
    if not _pairwise_compatible(S, members):
        raise ContractViolation(f"set {members} is not pairwise compatible")
    return _join_unchecked(S, members)


def _join_unchecked(S: FiniteInverseSemigroup, members: Sequence[int]) -> int | None:
    masks = S._require_up_masks()
    ub = masks[members[0]]
    for a in members[1:]:
        ub &= masks[a]
    return _least(ub, masks)


def _least(ub: int, up: Sequence[int]) -> int | None:
    """The least element of the set of common upper bounds `ub`, if any."""
    probe = ub
    while probe:
        u = (probe & -probe).bit_length() - 1
        if ub & ~up[u] == 0:
            return u
        probe &= probe - 1
    return None


class CompletenessResult(NamedTuple):
    """Outcome of the complete + infinitely-distributive check.

    `certificate` on failure is ("join", A) when a compatible set A (a
    pair, or a triple) has no least upper bound, or ("left"/"right", g,
    (a, b)) when g(a v b) != ga v gb, or (a v b)g != ag v bg.
    `subsets_checked` counts the compatible pairs examined.
    """

    ok: bool
    certificate: tuple | None = None
    subsets_checked: int = 0

    def __bool__(self) -> bool:
        return self.ok


def is_complete_and_distributive(S: FiniteInverseSemigroup,
                                 budget: int | None = None) -> CompletenessResult:
    """Does every compatible subset A of S have a join vA, with
    s(vA) = v(sA) and (vA)s = v(As) for every s?  S must be an inverse
    semigroup (as `verify_inverse_semigroup` decides).

    Decided on compatible pairs a < b, with a v b their join:
      (i)   every compatible pair has a join;
      (ii)  every c compatible with a and b is compatible with a v b;
      (iii) g(a v b) = ga v gb and (a v b)g = ag v bg for every g in
            `generators_if_associative`, by a row and a column of products.
    (i) and (ii) run over all pairs before (iii), so a missing join is
    found before any translate is taken.  Budget counts the pairs
    examined by (i) and (ii); exceeding it raises BudgetExceeded, since
    a partial check proves nothing.  (iii) runs over those same pairs
    only, with two translates per generator, so its cost is at most
    2 k times the budget for k generators.  It skips comparable pairs:
    if a <= b then a v b = b and ga <= gb, so g(a v b) = gb = ga v gb
    (and likewise on the right).  A chain, whose generating set is
    every element, therefore takes no translate at all.

    This decides as the scan over every nonempty pairwise-compatible
    subset, which lives on as `oracles.completeness_scan`:
    - Elements below a common bound w are compatible (x*y = x*x w*w y*y
      and x y* = w x*x y*y w* are idempotent; Lawson, Inverse
      Semigroups, 1998, §1.4).  So if {a, b, c} has a join, it lies
      above a v b and c, and a failure of (ii) is a triple with no join.
    - Conversely, by induction on |A|, every clique A has a join, and
      every c compatible with all of A is compatible with vA: for
      A = A' + {a}, both a and c are compatible with vA', so (i) gives
      w = (vA') v a, which is the join of A, and (ii) gives c ~ w.
    - Compatibility survives multiplication (s a ~ s b when a ~ b), so
      the g with g(a v b) = ga v gb for all pairs are closed under
      products: (gh)(a v b) = g(ha v hb) = gha v ghb.  (iii) over
      generators thus holds for every s (see
      `generators_if_associative`), and the same induction turns
      s((vA') v a) = s(vA') v sa into s(vA) = v(sA); likewise on the
      right.  A table that fails Light's test has no such generators:
      when (iii) has a pair to check, that raises ContractViolation.
    """
    if budget is None:
        budget = DEFAULT_SUBSET_BUDGET
    m = S.order
    up, comp = _up_and_compatibility_masks(S)
    joins: dict[tuple[int, int], int] = {}
    checked = 0
    for a in range(m):
        comp_a = comp[a]
        for b in _bits(comp_a >> (a + 1) << (a + 1)):
            checked += 1
            if checked > budget:
                total = sum((mask >> (s + 1)).bit_count() for s, mask in enumerate(comp))
                raise BudgetExceeded(f"completeness: exceeded pair budget {budget} "
                                     f"of {total} compatible pairs", budget)
            if up[a] >> b & 1:  # a <= b
                v = b
            elif up[b] >> a & 1:
                v = a
            else:
                v = _least(up[a] & up[b], up)
            if v is None:
                return CompletenessResult(False, ("join", (a, b)), checked)
            stray = comp_a & comp[b] & ~comp[v]
            if stray:
                c = (stray & -stray).bit_length() - 1
                return CompletenessResult(False, ("join", tuple(sorted((a, b, c)))), checked)
            joins[a, b] = v

    def pair_join(x: int, y: int) -> int | None:
        return x if x == y else joins.get((x, y) if x < y else (y, x))

    spans = [(a, b, v) for (a, b), v in joins.items() if v != a and v != b]
    gens = generators_if_associative(S) if spans else ()
    if gens is None:
        raise ContractViolation("completeness: S must be an inverse semigroup, "
                                "but its table fails Light's test of associativity")
    translates = [(g, [S.product(g, x) for x in range(m)], S.pair_products(range(m), [g] * m))
                  for g in gens]
    for a, b, v in spans:
        for g, row_g, column_g in translates:
            if row_g[v] != pair_join(row_g[a], row_g[b]):
                return CompletenessResult(False, ("left", g, (a, b)), checked)
            if column_g[v] != pair_join(column_g[a], column_g[b]):
                return CompletenessResult(False, ("right", g, (a, b)), checked)
    return CompletenessResult(True, None, checked)


class UnitaryCheck(NamedTuple):
    """Result of the E*-unitary scan (or its zero-free E-unitary variant)."""

    ok: bool
    variant: str  # "E*-unitary" or "E-unitary"
    witness: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_e_star_unitary(S: FiniteInverseSemigroup) -> UnitaryCheck:
    """With a zero: J_s != {0} forces s idempotent.  Without one, the
    check degrades to E-unitary (J_s nonempty forces s idempotent) and
    says so in `variant`; the witness is the first s that fails.  S
    must be inverse, so that J_s, the idempotents e with s e = e, is the
    set below s (e <= s iff s e*e = s e = e), a mask of the E-order.
    """
    E, _, j_sets = S._require_e_order()
    if S.zero is not None:
        trivial, variant = 1 << E.index(S.zero), "E*-unitary"
    else:
        trivial, variant = 0, "E-unitary"
    for s, j_set in enumerate(j_sets):
        if j_set & ~trivial and s not in S.idempotents:
            return UnitaryCheck(False, variant, witness=s)
    return UnitaryCheck(True, variant)


def hausdorff_criterion(S: FiniteInverseSemigroup, s: int) -> CriterionVerdict:
    """Certify the finite-cover criterion for s on a finite semigroup.

    Takes F = the maximal elements of (J_s, <=) and verifies that the
    downward closure of F recovers J_s exactly; a mismatch would be a
    bug and raises InvariantViolation.  That proves the ideal-cover form
    (union of f S over F = union of e S over J_s, checked independently
    by `ideal_cover_agrees_with_order_cover` under `criterion --verify`):
    - F lies in J_s, so the union over F lies in that over J_s;
    - every e in J_s lies below some f in F, which for idempotents
      means e = f e, so e S lies in f S.

    Everything is read off the E-order (`_require_e_order`), the order
    on the idempotents, whose masks have one bit per idempotent, never
    off the m-bit order.  For an idempotent e, e <= s iff s e*e = s e =
    e, so J_s is the set of idempotents below s, which the E-order holds
    for every s (on a closure by the domains of the idempotents; the
    proof is in `FiniteInverseSemigroup`).  An e in J_s is maximal iff
    it lies outside the OR of below(f) - {f} over the f in J_s, and the
    downward closure of F is the union of below(f) over F: every
    idempotent below an idempotent in J_s is in J_s, so the closure
    inside S and the closure inside E agree.

    All of it depends on J_s alone, so it runs once per J_s mask, and
    elements with equal J_s share one verdict's parts or its failure.
    """
    S._check_index(s)
    E, below, j_sets = S._require_e_order()
    jmask = j_sets[s]
    memo = S._j_set_memo()
    if jmask not in memo:
        bits = list(_bits(jmask))
        strictly_below = 0
        for i in bits:
            strictly_below |= below[i] ^ 1 << i
        tops = [i for i in bits if not strictly_below >> i & 1]
        closure = 0
        for i in tops:
            closure |= below[i]
        members, witness = [E[i] for i in bits], tuple([E[i] for i in tops])
        fault = (f"downward closure of maximal elements {witness} is "
                 f"{[E[i] for i in _bits(closure)]}, expected J_s = {members}"
                 if closure != jmask else None)
        memo[jmask] = frozenset(members), witness, fault
    members, witness, fault = memo[jmask]
    if fault is not None:
        raise InvariantViolation(fault)
    return CriterionVerdict(s, members, witness, HAUSDORFF_WITNESS)


def covers_by_ideals(S: FiniteInverseSemigroup, s: int, F: Iterable[int]) -> bool:
    """Does the union of f S over F equal the union of e S over J_s?"""
    jset = S.j_set(s)
    fs = set(F)
    if not fs <= jset:
        raise ContractViolation("witness candidates must lie inside J_s")
    union_f: set[int] = set()
    for f in fs:
        union_f |= S.right_ideal(f)
    union_j: set[int] = set()
    for e in jset:
        union_j |= S.right_ideal(e)
    return union_f == union_j


def covers_downward(S: FiniteInverseSemigroup, s: int, F: Iterable[int]) -> bool:
    """Does the downward closure of F recover J_s exactly?"""
    jset = S.j_set(s)
    fs = set(F)
    if not fs <= jset:
        raise ContractViolation("witness candidates must lie inside J_s")
    return S.up_set(fs, DOWN) == jset


def ideal_cover_agrees_with_order_cover(S: FiniteInverseSemigroup, s: int,
                                        budget: int | None = None) -> bool:
    """Test oracle: over every subset F of J_s, the ideal-cover equality
    and the downward-closure equality hold for exactly the same F.

    Exponential in |J_s|; guarded by a subset budget.  The right ideal
    and the down-set of each e in J_s are masks built once per call, and
    a depth-first walk ORs them into the unions over each subset.
    """
    if budget is None:
        budget = DEFAULT_SUBSET_BUDGET
    jset = sorted(S.j_set(s))
    if 2 ** len(jset) > budget:
        raise BudgetExceeded(
            f"subset search over 2^{len(jset)} exceeds budget {budget}", budget)
    ideals = [_set_to_mask(S.right_ideal(e)) for e in jset]
    downs = [_set_to_mask(S.up_set([e], DOWN)) for e in jset]
    union_j, jmask = reduce(or_, ideals, 0), _set_to_mask(jset)
    # a stack of (i, unions of f S and of down(f) over F), F decided on jset[:i]
    pending = [(0, 0, 0)]
    while pending:
        i, union_f, closure = pending.pop()
        if i < len(jset):
            pending += [(i + 1, union_f, closure),
                        (i + 1, union_f | ideals[i], closure | downs[i])]
        elif (union_f == union_j) != (closure == jmask):
            return False
    return True
