"""Exhaustive recomputations that `--verify` compares the fast paths with.

Each oracle decides the same question as a package function by the
exhaustive scan that function replaced.
"""

from __future__ import annotations

from .criterion import (
    DEFAULT_SUBSET_BUDGET,
    CompletenessResult,
    _join_unchecked,
    compatible,
)
from .errors import BudgetExceeded
from .semigroup import FiniteInverseSemigroup, _set_to_mask


def completeness_scan(S: FiniteInverseSemigroup,
                      budget: int | None = None) -> CompletenessResult:
    """`is_complete_and_distributive` by enumerating every nonempty
    pairwise-compatible subset A (up to `budget` subsets): the join of A
    must exist, and for every s the translates s(vA) and (vA)s must be
    the joins of sA and As.  Certificates are ("join", A) or
    ("left"/"right", s, A) for the first failing A in depth-first order.
    """
    if budget is None:
        budget = DEFAULT_SUBSET_BUDGET
    m = S.order
    comp = [_set_to_mask(t for t in range(m) if compatible(S, s, t)) for s in range(m)]
    checked = 0
    members: list[int] = []
    sides: list[tuple[list[int], list[int]]] = []  # `_translates` of each member
    # pending[d]: the candidates still to try as member d, all above the
    # members so far and compatible with each; an explicit stack, since
    # a clique can be deeper than the recursion limit.
    pending = [(1 << m) - 1]
    while pending:
        probe = pending[-1]
        if not probe:
            pending.pop()
            if members:
                members.pop()
                sides.pop()
            continue
        c = (probe & -probe).bit_length() - 1
        pending[-1] = rest = probe & (probe - 1)
        members.append(c)
        sides.append(_translates(S, c))
        checked += 1
        if checked > budget:
            raise BudgetExceeded(
                f"completeness scan exceeded subset budget {budget}", budget)
        cert = _check_clique(S, comp, members, sides)
        if cert is not None:
            return CompletenessResult(False, cert, checked)
        pending.append(rest & comp[c])
    return CompletenessResult(True, None, checked)


def _translates(S, a):
    """([s a for every s], [a s for every s]) by product columns: the
    row of a is the column of a* read at s* and inverted, as a s = (s* a*)*."""
    inv = S.inv
    return S.products(S.elements(), a), list(map(inv.__getitem__, S.products(inv, inv[a])))


def _check_clique(S, comp, members, sides):
    v = _join_unchecked(S, members)
    if v is None:
        return ("join", tuple(members))
    column_v, row_v = sides[members.index(v)] if v in members else _translates(S, v)
    for s in range(S.order):
        left = sorted({column[s] for column, _ in sides})
        lj = _join_unchecked(S, left) if _mask_compatible(comp, left) else None
        if lj != column_v[s]:
            return ("left", s, tuple(members))
        right = sorted({row[s] for _, row in sides})
        rj = _join_unchecked(S, right) if _mask_compatible(comp, right) else None
        if rj != row_v[s]:
            return ("right", s, tuple(members))
    return None


def _mask_compatible(comp, members) -> bool:
    return all(comp[a] >> b & 1 for i, a in enumerate(members)
               for b in members[i + 1:])
