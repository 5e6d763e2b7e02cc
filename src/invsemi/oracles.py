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
from .errors import BudgetExceeded, ContractViolation
from .semigroup import FiniteInverseSemigroup, _set_to_mask, generators_if_associative


def completeness_scan(S: FiniteInverseSemigroup,
                      budget: int | None = None) -> CompletenessResult:
    """`is_complete_and_distributive` by enumerating every nonempty
    pairwise-compatible subset A (up to `budget` subsets): the join of A
    must exist, and for every g in `generators_if_associative(S)` the
    translates g(vA) and (vA)g must be the joins of gA and Ag (a set
    that is not compatible has no upper bound, so no join).  The g at
    which both hold for every A are closed under products, as hA is
    compatible when A is: (gh)(vA) = g(v(hA)) = v(ghA).  Certificates are
    ("join", A) or ("left"/"right", g, A) for the first failing A in
    depth-first order.
    """
    if budget is None:
        budget = DEFAULT_SUBSET_BUDGET
    m = S.order
    gens = generators_if_associative(S)
    if gens is None:
        raise ContractViolation("completeness scan: S must be an inverse semigroup, "
                                "but its table fails Light's test of associativity")
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
        cert = _check_clique(S, gens, members)
        if cert is not None:
            return CompletenessResult(False, cert, checked)
        pending.append(rest & comp[c])
    return CompletenessResult(True, None, checked)


def _check_clique(S, gens, members):
    v = _join_unchecked(S, members)
    if v is None:
        return ("join", tuple(members))
    for g in gens:
        if _join_unchecked(S, sorted({S.product(g, a) for a in members})) != S.product(g, v):
            return ("left", g, tuple(members))
        if _join_unchecked(S, sorted({S.product(a, g) for a in members})) != S.product(v, g):
            return ("right", g, tuple(members))
    return None
