"""Compatibility, joins, pseudogroup checks, and the finite-cover criterion.

The central question: for an element s, does the set J_s of idempotents
fixed by left multiplication by s admit a finite subset F whose downward
closure is all of J_s?  On a finite semigroup the maximal elements of
J_s always work, so `hausdorff_criterion` certifies a witness; the
interesting refutations live in the `symbolic` families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BudgetExceeded, ContractViolation, InvariantViolation
from .semigroup import DOWN, FiniteInverseSemigroup, _bits, _set_to_mask

HAUSDORFF_WITNESS = "HAUSDORFF_WITNESS"
REFUTED = "REFUTED"
INCONCLUSIVE = "INCONCLUSIVE"

DEFAULT_SUBSET_BUDGET = 200_000


@dataclass(frozen=True)
class CriterionVerdict:
    """Finite-cover verdict for one element.

    When `verdict` is HAUSDORFF_WITNESS, the downward closure of
    `witness` inside the parent semigroup is exactly `j_set`, and the
    union of right ideals over `witness` equals the union over all of
    `j_set` (the ideal-cover restatement, cross-checked at build time).
    """

    subject: int
    j_set: frozenset[int]
    witness: tuple[int, ...] | None
    verdict: str
    ideal_cover_verified: bool = False


def compatible(S: FiniteInverseSemigroup, s: int, t: int) -> bool:
    """True when both s* t and s t* are idempotent."""
    S._check_index(s)
    S._check_index(t)
    inv = S.inverse
    return (S.mul[inv(s)][t] in S.idempotents
            and S.mul[s][inv(t)] in S.idempotents)


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
    probe = ub
    while probe:
        u = (probe & -probe).bit_length() - 1
        if ub & ~masks[u] == 0:
            return u
        probe &= probe - 1
    return None


@dataclass(frozen=True)
class CompletenessResult:
    """Outcome of the complete + infinitely-distributive check.

    `certificate` on failure is ("join", A) when a compatible set A has
    no least upper bound, or ("left"/"right", s, A) when a distributive
    identity fails for s over A.
    """

    ok: bool
    certificate: tuple | None = None
    subsets_checked: int = 0

    def __bool__(self) -> bool:
        return self.ok


def is_complete_and_distributive(S: FiniteInverseSemigroup,
                                 budget: int | None = None) -> CompletenessResult:
    """Exhaust all nonempty pairwise-compatible subsets (up to `budget`).

    For each such subset A: the join must exist, and for every s the
    translates s(vA) and (vA)s must equal the joins of sA and As.
    Budget counts enumerated subsets; exceeding it raises BudgetExceeded
    since a partial scan proves nothing.
    """
    if budget is None:
        budget = DEFAULT_SUBSET_BUDGET
    m = S.order
    mul = S.mul
    comp_masks = []
    for s in range(m):
        mask = 0
        for t in range(m):
            if compatible(S, s, t):
                mask |= 1 << t
        comp_masks.append(mask)

    checked = 0

    def extend(members: list[int], allowed: int):
        nonlocal checked
        probe = allowed
        while probe:
            c = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            members.append(c)
            checked += 1
            if checked > budget:
                raise BudgetExceeded(
                    f"completeness scan exceeded subset budget {budget}", budget)
            result = _check_clique(S, mul, comp_masks, members)
            if result is not None:
                return result
            higher = allowed & comp_masks[c] & ~((1 << (c + 1)) - 1)
            result = extend(members, higher)
            if result is not None:
                return result
            members.pop()
        return None

    cert = extend([], (1 << m) - 1)
    if cert is not None:
        return CompletenessResult(False, cert, checked)
    return CompletenessResult(True, None, checked)


def _mask_compatible(comp_masks, members) -> bool:
    return all(comp_masks[a] >> b & 1 for i, a in enumerate(members)
               for b in members[i + 1:])


def _check_clique(S, mul, comp_masks, members):
    v = _join_unchecked(S, members)
    if v is None:
        return ("join", tuple(members))
    for s in range(S.order):
        row = mul[s]
        left = sorted({row[a] for a in members})
        lj = (_join_unchecked(S, left)
              if _mask_compatible(comp_masks, left) else None)
        if lj != row[v]:
            return ("left", s, tuple(members))
        right = sorted({mul[a][s] for a in members})
        rj = (_join_unchecked(S, right)
              if _mask_compatible(comp_masks, right) else None)
        if rj != mul[v][s]:
            return ("right", s, tuple(members))
    return None


@dataclass(frozen=True)
class UnitaryCheck:
    """Result of the E*-unitary scan (or its zero-free E-unitary variant)."""

    ok: bool
    variant: str  # "E*-unitary" or "E-unitary"
    witness: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_e_star_unitary(S: FiniteInverseSemigroup) -> UnitaryCheck:
    """With a zero: J_s != {0} forces s idempotent.  Without one, the
    check degrades to E-unitary (J_s nonempty forces s idempotent) and
    says so in `variant`."""
    if S.zero is not None:
        trivial, variant = {S.zero}, "E*-unitary"
    else:
        trivial, variant = set(), "E-unitary"
    for s in range(S.order):
        if s in S.idempotents:
            continue
        if set(S.j_set(s)) - trivial:
            return UnitaryCheck(False, variant, witness=s)
    return UnitaryCheck(True, variant)


def hausdorff_criterion(S: FiniteInverseSemigroup, s: int) -> CriterionVerdict:
    """Certify the finite-cover criterion for s on a finite semigroup.

    Takes F = the maximal elements of (J_s, <=), verifies that the
    downward closure of F recovers J_s exactly, and cross-checks the
    ideal-cover form (union of f S over F equals union of e S over J_s).
    Both always succeed at finite scale; a mismatch would be a bug and
    raises InvariantViolation.

    Everything is read off the order bitmasks.  For an idempotent e,
    e <= s iff s e*e = s e = e, so J_s = down(s) & E.  An e in J_s is
    maximal iff up(e) & J_s = {e}, and the downward closure of F is the
    union of down(f) over F.
    """
    S._check_index(s)
    up, down = S._require_up_masks(), S._require_down_masks()
    members = [e for e in _bits(down[s]) if e in S.idempotents]
    jmask = _set_to_mask(members)
    witness = tuple(e for e in members if up[e] & jmask == 1 << e)
    closure = 0
    for f in witness:
        closure |= down[f]
    if closure != jmask:
        raise InvariantViolation(
            f"downward closure of maximal elements {witness} is {sorted(_bits(closure))}, "
            f"expected J_s = {members}")
    rows = S.mul
    cover_f = set().union(*(rows[f] for f in witness))
    cover_j = set().union(*(rows[e] for e in members))
    if cover_f != cover_j:
        raise InvariantViolation(
            f"ideal cover mismatch for s={s}: witness ideals {sorted(cover_f)} "
            f"vs J_s ideals {sorted(cover_j)}")
    return CriterionVerdict(subject=s, j_set=frozenset(members), witness=witness,
                            verdict=HAUSDORFF_WITNESS, ideal_cover_verified=True)


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

    Exponential in |J_s|; guarded by a subset budget.
    """
    if budget is None:
        budget = DEFAULT_SUBSET_BUDGET
    jset = sorted(S.j_set(s))
    if 2 ** len(jset) > budget:
        raise BudgetExceeded(
            f"subset search over 2^{len(jset)} exceeds budget {budget}", budget)
    for mask in range(2 ** len(jset)):
        F = [e for i, e in enumerate(jset) if mask >> i & 1]
        if covers_by_ideals(S, s, F) != covers_downward(S, s, F):
            return False
    return True
