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
    m, mul = S.order, S.mul
    comp = [_set_to_mask(t for t in range(m) if compatible(S, s, t)) for s in range(m)]
    checked = 0
    members: list[int] = []
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
            continue
        c = (probe & -probe).bit_length() - 1
        pending[-1] = rest = probe & (probe - 1)
        members.append(c)
        checked += 1
        if checked > budget:
            raise BudgetExceeded(
                f"completeness scan exceeded subset budget {budget}", budget)
        cert = _check_clique(S, comp, members)
        if cert is not None:
            return CompletenessResult(False, cert, checked)
        pending.append(rest & comp[c])
    return CompletenessResult(True, None, checked)


def _check_clique(S, comp, members):
    mul = S.mul
    v = _join_unchecked(S, members)
    if v is None:
        return ("join", tuple(members))
    for s in range(S.order):
        row = mul[s]
        left = sorted({row[a] for a in members})
        lj = _join_unchecked(S, left) if _mask_compatible(comp, left) else None
        if lj != row[v]:
            return ("left", s, tuple(members))
        right = sorted({mul[a][s] for a in members})
        rj = _join_unchecked(S, right) if _mask_compatible(comp, right) else None
        if rj != mul[v][s]:
            return ("right", s, tuple(members))
    return None


def _mask_compatible(comp, members) -> bool:
    return all(comp[a] >> b & 1 for i, a in enumerate(members)
               for b in members[i + 1:])
