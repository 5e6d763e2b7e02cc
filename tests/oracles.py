"""Independent oracles the test suite checks the package against.

Everything here recomputes results by a different route than the
implementation under test: set-semantics fixpoint closure, all-pairs
indexed closure, order scans
from the defining identities, brute-force least upper bounds, bounded
word-rewriting for free inverse monoids, and evaluation of words under
homomorphisms into small symmetric inverse monoids.
"""

from __future__ import annotations

from itertools import product

from invsemi import (
    BudgetExceeded,
    ContractViolation,
    FiniteInverseSemigroup,
    PartialBijection,
    all_partial_bijections,
)
from invsemi.semigroup import DEFAULT_CLOSE_BUDGET


def brute_close(generators):
    """Fixpoint closure with plain set semantics; no indexing, no tables."""
    current = set(generators) | {g.invert() for g in generators}
    while True:
        grown = current | {a.compose(b) for a in current for b in current}
        if grown == current:
            return current
        current = grown


def pairwise_close(generators, budget=None) -> FiniteInverseSemigroup:
    """Indexed closure by composing every pair of known elements.

    Breadth-first: generators in the given order, then their inverses,
    then products with a factor in the previous round, explored in
    (left index, right index) order; the table is filled by one more
    compose per cell.  About 2 m^2 composes: the reference for the
    element indexing of `invsemi.close`.
    """
    if not generators:
        raise ContractViolation("need at least one generator")
    ground = generators[0].ground_size
    for g in generators:
        if g.ground_size != ground:
            raise ContractViolation("generators live on different ground sets")
    if budget is None:
        budget = DEFAULT_CLOSE_BUDGET

    elements: list[PartialBijection] = []
    index: dict[PartialBijection, int] = {}

    def add(el: PartialBijection) -> None:
        if el not in index:
            if len(elements) >= budget:
                raise BudgetExceeded(
                    f"closure exceeded element budget {budget}", budget)
            index[el] = len(elements)
            elements.append(el)

    for g in generators:
        add(g)
    for g in generators:
        add(g.invert())

    frontier_start = 0
    while frontier_start < len(elements):
        known = len(elements)
        # products with at least one factor in the new frontier
        for i in range(known):
            for j in range(known):
                if i < frontier_start and j < frontier_start:
                    continue
                add(elements[i].compose(elements[j]))
        frontier_start = known

    mul = [[index[elements[i].compose(elements[j])] for j in range(len(elements))]
           for i in range(len(elements))]
    return FiniteInverseSemigroup(mul, labels=elements)


def leq_via_idempotent(S: FiniteInverseSemigroup, s: int, t: int) -> bool:
    """Alternative order characterization: s <= t iff s = t e for some idempotent e."""
    return any(S.mul[t][e] == s for e in S.idempotents)


def join_brute(S: FiniteInverseSemigroup, members) -> int | None:
    """Least upper bound by scanning every element, order read off the table."""
    members = list(members)

    def leq(a, b):
        return S.mul[b][S.mul[S.inv[a]][a]] == a

    ubs = [u for u in range(S.order) if all(leq(a, u) for a in members)]
    for u in ubs:
        if all(leq(u, v) for v in ubs):
            return u
    return None


def union_join(S: FiniteInverseSemigroup, members) -> int | None:
    """For closures of partial bijections: the join, if any, must be the
    set-theoretic union of the members' graphs."""
    merged: dict[int, int] = {}
    for a in members:
        pb = S.labels[a]
        for x, y in pb.pairs:
            if merged.get(x, y) != y:
                return None
            merged[x] = y
    if len(set(merged.values())) != len(merged):
        return None
    target = PartialBijection(S.labels[0].ground_size, merged)
    for i, el in enumerate(S.labels):
        if el == target:
            return i
    return None


# -- free inverse monoid oracles (rank 1) --------------------------------

def invert_word(word):
    return tuple(-ltr for ltr in reversed(word))


def rank1_words(max_len: int):
    out = [()]
    for k in range(1, max_len + 1):
        out.extend(product((1, -1), repeat=k))
    return out


def wagner_congruence_rank1(max_len: int):
    """Bounded congruence closure of the free-inverse-monoid relations.

    Applies w w' w -> w and the idempotent-commutation swap inside every
    context, over all rank-1 words of length <= max_len, then returns an
    equality predicate on those words.  Sound by construction; complete
    on short words given enough slack in max_len.
    """
    words = rank1_words(max_len)
    index = {w: i for i, w in enumerate(words)}
    parent = list(range(len(words)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for w in words:
        n = len(w)
        for i in range(n):
            for j in range(i + 1, n + 1):
                mid, pre, post = w[i:j], w[:i], w[j:]
                lm = len(mid)
                if lm % 3 == 0:
                    k = lm // 3
                    u = mid[:k]
                    if mid[k:2 * k] == invert_word(u) and mid[2 * k:] == u:
                        union(index[w], index[pre + u + post])
                if lm % 2 == 0:
                    for k in range(1, lm // 2):
                        u, rest = mid[:k], mid[k:]
                        if rest[:k] != invert_word(u):
                            continue
                        vv = rest[k:]
                        half = len(vv) // 2
                        if half > 0 and vv[half:] == invert_word(vv[:half]):
                            union(index[w], index[pre + vv + u + invert_word(u) + post])

    def equal(u, v):
        return find(index[u]) == find(index[v])

    return equal


def evaluate_word(word, image: PartialBijection) -> PartialBijection:
    """The word under the homomorphism sending the generator to `image`."""
    acc = PartialBijection.identity(image.ground_size)
    inverse = image.invert()
    for ltr in word:
        acc = acc.compose(image if ltr > 0 else inverse)
    return acc


def separated_by_interpretations(u, v, max_ground: int = 4) -> bool:
    """Try to distinguish two rank-1 words by a homomorphism into some
    symmetric inverse monoid on up to `max_ground` points."""
    for n in range(2, max_ground + 1):
        for image in all_partial_bijections(n):
            if evaluate_word(u, image) != evaluate_word(v, image):
                return True
    return False


def agree_under_all_interpretations(u, v, ground: int) -> bool:
    return all(evaluate_word(u, image) == evaluate_word(v, image)
               for image in all_partial_bijections(ground))
