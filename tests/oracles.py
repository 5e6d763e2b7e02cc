"""Independent oracles the test suite checks the package against.

Everything here recomputes results by a different route than the
implementation under test: set-semantics fixpoint closure, all-pairs
indexed closure, the cell-by-cell table fill and all-cells closure
check, a closure's idempotents, zero and inverses by products and
pairs, order scans from the defining identities, brute-force least
upper bounds, the exhaustive table scans (with the two-pass range check
and inverse scan of the table constructor), finite-cover criterion, the
criterion and left-translation domains off the m-bit order and the
E*-unitary check by products (which the order on the idempotents
replaced),
union-find germ classes, all-triples associativity, Light's test over
every row and all-pairs homomorphism checks, the action-file loader
that builds the (s, x) map of every pair, and the
multiply-every-pair atom-flip truncation that the package replaced by
structural computations, the clique scan for completeness, which
translates each clique by the generators that the pair check reads
(kept in `invsemi.oracles`, where `props --verify` uses it), bounded
word-rewriting for free inverse monoids, and evaluation of words under
homomorphisms into small symmetric inverse monoids.
"""

from __future__ import annotations

from itertools import product
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace

from invsemi import (
    BudgetExceeded,
    ContractViolation,
    FiniteAction,
    FiniteInverseSemigroup,
    ParseError,
    PartialBijection,
    all_partial_bijections,
)
from invsemi.formats import _check_version, _integer, _load_json, load_semigroup
from invsemi.oracles import completeness_scan  # noqa: F401  (re-exported)
from invsemi.semigroup import DEFAULT_CLOSE_BUDGET, _bits, _image_key, _set_to_mask
from invsemi.symbolic.atomflip import FLIP, SQUARE, ZERO, atom, multiply


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


def lookup_fill_table(generators) -> tuple[tuple[int, ...], ...]:
    """The table of `invsemi.close` by the cell-by-cell fill it replaced.

    The same Froidure-Pin search (letters first, then each element
    right-multiplied by every letter in index order), but every cell of
    every row is an integer lookup, s t = (s parent(t)) last(t): O(m^2)
    Python-level lookups, and no row is read through another.
    """
    letters = list(dict.fromkeys([*generators, *(g.invert() for g in generators)]))
    elements = letters[:]
    index = {el: i for i, el in enumerate(elements)}
    words: list[tuple[int, int] | None] = [None] * len(letters)
    right: list[list[int]] = []
    while len(right) < len(elements):
        s = len(right)
        row = []
        for k, a in enumerate(letters):
            el = elements[s].compose(a)
            if el not in index:
                index[el] = len(elements)
                elements.append(el)
                words.append((s, k))
            row.append(index[el])
        right.append(row)
    products = words[len(letters):]
    mul = []
    for row in right:
        row = row[:]
        for p, a in products:
            row.append(right[row[p]][a])
        mul.append(tuple(row))
    return tuple(mul)


def row_fill_table(right, found=None) -> tuple[tuple[int, ...], ...]:
    """The table of a closure by the row fill `invsemi.close` once ran,
    from its right Cayley graph `right` (the reference for the table
    that `FiniteInverseSemigroup.mul` lays out from products).

    Each element t past the k letters gets the word (parent p, last
    letter a) by which the search met it: the first (s, a) in index
    order with found[s][a] = t, in the graph `found` (default `right`).
    The k letter rows are filled by integer lookups,
    a t = (a parent(t)) last(t), and every other row t = p a is row p
    read through row a, one C-level gather.
    """
    k = len(right[0])
    first: dict[int, tuple[int, int]] = {}
    for s, row in enumerate(found or right):
        for a, t in enumerate(row):
            first.setdefault(t, (s, a))
    words = [first[t] for t in range(k, len(right))]
    mul = []
    for row in right[:k]:
        row = row[:]  # a times each letter, which are elements 0..k-1
        for p, b in words:
            row.append(right[row[p]][b])
        mul.append(tuple(row))
    # one-entry rows exist only when m = 1, and then nothing is gathered
    through = [itemgetter(*row) for row in mul]
    for p, a in words:
        mul.append(through[a](mul[p]))
    return tuple(mul)


def closure_cells_scan(S: FiniteInverseSemigroup, generators) -> bool:
    """`is_closure_of` by the all-cells check it replaced: distinct
    labels, the letters first, and labels[mul[i][j]] equal to
    labels[i].compose(labels[j]) for every cell, m^2 composes."""
    labels = S.labels
    letters = list(dict.fromkeys([*generators, *(g.invert() for g in generators)]))
    if (labels is None or list(labels[:len(letters)]) != letters
            or len(set(labels)) != S.order):
        return False
    return all(labels[p] == a.compose(b)
               for a, row in zip(labels, S.mul) for b, p in zip(labels, row))


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


# -- table derivation, criterion and germ scans -----------------------------

def inverse_sets_scan(mul):
    """Generalized inverses of every element: all t with s t s = s and t s t = t."""
    m = len(mul)
    return tuple(
        frozenset(t for t in range(m)
                  if mul[mul[s][t]][s] == s and mul[mul[t][s]][t] == t)
        for s in range(m))


def check_cells_two_pass(table) -> None:
    """The range check of the table constructor before its one pass:
    the union of every row and the sum of the table first, and only when
    they fail, the loop naming the first bad row or entry."""
    m = len(table)
    try:
        stray = set().union(*table)
        stray.difference_update(range(m))
        if (not stray and all(len(row) == m for row in table)
                and type(sum(map(sum, table))) is int):
            return
    except TypeError:  # an unhashable entry, or numbers that do not add
        pass
    for i, row in enumerate(table):
        if len(row) != m:
            raise ContractViolation(f"row {i} has length {len(row)}, expected {m}")
        for v in row:
            if not isinstance(v, int):
                raise ContractViolation(f"table entry {v!r} is not an integer")
            if not 0 <= v < m:
                raise ContractViolation(f"table entry {v} out of range [0, {m})")


def inverse_candidates_scan(mul, s) -> tuple[int, ...]:
    """All t with s t s = s and t s t = t, by one test per entry of the row of s."""
    return tuple(t for t, st in enumerate(mul[s])
                 if mul[st][s] == s and mul[mul[t][s]][t] == t)


def inverse_scan(mul):
    """(the inverse map, None) if every element has exactly one
    generalized inverse, else (None, (s, candidates)) for the first s."""
    inverse = []
    for s in range(len(mul)):
        cands = inverse_candidates_scan(mul, s)
        if len(cands) != 1:
            return None, (s, cands)
        inverse.append(cands[0])
    return inverse, None


def derive_two_pass(mul):
    """(inv, idempotents, zero) of a table by the constructor's old two
    passes, the range check (`check_cells_two_pass`) and then every
    element's generalized inverses; raises as that check does."""
    table = tuple(tuple(row) for row in mul)
    check_cells_two_pass(table)
    inverse, _ = inverse_scan(table)
    return (tuple(inverse) if inverse is not None else None,
            frozenset(e for e in range(len(table)) if table[e][e] == e), zero_scan(table))


def zero_scan(mul):
    """The first element absorbing every product, or None."""
    m = len(mul)
    for z in range(m):
        if all(mul[z][x] == z and mul[x][z] == z for x in range(m)):
            return z
    return None


def idempotents_by_squares(S: FiniteInverseSemigroup) -> frozenset[int]:
    """The idempotents by s s = s, one product per element: the closure
    constructor's derivation before it read them off the keys."""
    return frozenset(s for s in S.elements() if S.product(s, s) == s)


def zero_fold(S: FiniteInverseSemigroup) -> int | None:
    """The zero by the two-sided fold: z, the product of the idempotents
    (by s s = s), when z s = s z = z for every s; else None."""
    z = None
    for e in sorted(idempotents_by_squares(S)):
        z = e if z is None else S.product(z, e)
    if z is None or any(S.product(z, s) != z or S.product(s, z) != z for s in S.elements()):
        return None
    return z


def inverse_by_pairs(S: FiniteInverseSemigroup) -> tuple[int, ...]:
    """A closure's inverse map by `_image_key` over the reversed pairs of
    each key, key*[key[x]] = x, with (n, n) written last: the loop that
    `close` ran per element before `bytes.maketrans`."""
    index, keys = S._closure[:2]
    n = keys[0][-1]
    return tuple(index[_image_key(n, zip(key, range(n + 1)))] for key in keys)


def up_masks_scan(S: FiniteInverseSemigroup):
    """Bit t of mask s set iff t s* s = s, testing every t for every s."""
    table, m = S.mul, S.order
    out = []
    for s in range(m):
        ss = table[S.inv[s]][s]
        mask = 0
        for t in range(m):
            if table[t][ss] == s:
                mask |= 1 << t
        out.append(mask)
    return tuple(out)


def leq_scan(S: FiniteInverseSemigroup, s: int, t: int) -> bool:
    """s <= t iff t s* s = s, read off the table."""
    return S.mul[t][S.mul[S.inv[s]][s]] == s


def lower_set_scan(S: FiniteInverseSemigroup, s: int) -> frozenset[int]:
    return frozenset(t for t in range(S.order) if leq_scan(S, t, s))


def maximal_elements_scan(S: FiniteInverseSemigroup, subset) -> tuple[int, ...]:
    """Members not strictly below another member, by testing every pair."""
    members = sorted(set(subset))
    return tuple(a for a in members
                 if not any(b != a and leq_scan(S, a, b) for b in members))


def hausdorff_scan(S: FiniteInverseSemigroup, s: int):
    """(J_s, maximal elements of J_s, their downward closure), by scans:
    J_s as the idempotents e with s e = e, the order by `leq_scan`."""
    jset = frozenset(e for e in S.idempotents if S.mul[s][e] == e)
    witness = maximal_elements_scan(S, jset)
    down = frozenset().union(*(lower_set_scan(S, f) for f in witness))
    return jset, witness, down


def hausdorff_by_up_masks(S: FiniteInverseSemigroup, s: int):
    """(J_s, witness) of `hausdorff_criterion` off the m-bit order: J_s is
    the idempotents e with s in up(e), and e in J_s is maximal iff
    up(e) & J_s = {e}."""
    up = S._require_up_masks()
    members = [e for e in sorted(S.idempotents) if up[e] >> s & 1]
    jmask = _set_to_mask(members)
    return frozenset(members), tuple(e for e in members if up[e] & jmask == 1 << e)


def left_translation_domains_by_up_masks(S: FiniteInverseSemigroup):
    """D_e = eS of the left-translation action off the m-bit order: x
    lies in eS iff xx* <= e."""
    up, domains = S._require_up_masks(), {e: set() for e in S.idempotents}
    for x in S.elements():
        for e in _bits(up[S.product(x, S.inv[x])]):
            if e in domains:
                domains[e].add(x)
    return {e: frozenset(xs) for e, xs in domains.items()}


def unitary_scan(S: FiniteInverseSemigroup):
    """`is_e_star_unitary` by the product scan it replaced: J_s as the
    idempotents e with s e = e, by |E| products per element.  Returns
    (ok, variant, witness)."""
    trivial = {S.zero} if S.zero is not None else set()
    variant = "E*-unitary" if S.zero is not None else "E-unitary"
    for s in range(S.order):
        if s not in S.idempotents and set(S.j_set(s)) - trivial:
            return False, variant, s
    return True, variant, None


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            x, p[x] = p[x], p[p[x]]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx


def germ_groupoid_scan(action):
    """Germ classes by union-find, plus the structure maps and every
    composable pair; the same numbering as `invsemi.build_germs`.

    (s, x) is joined to (s e, x) for every idempotent e whose domain
    holds x; the idempotents at x are found by scanning all domains.
    """
    S = action.semigroup
    omega = action.germ_pairs()
    index = {pair: i for i, pair in enumerate(omega)}
    uf = _UnionFind(len(omega))
    for i, (s, x) in enumerate(omega):
        for e in sorted(S.idempotents):
            if x in action.domain_of[e]:
                uf.union(i, index[(S.mul[s][e], x)])
    groups: dict[int, list] = {}
    for i, pair in enumerate(omega):
        groups.setdefault(uf.find(i), []).append(pair)
    classes = sorted((tuple(sorted(g)) for g in groups.values()), key=lambda g: g[0])
    class_of = {pair: cid for cid, group in enumerate(classes) for pair in group}
    reps = [group[0] for group in classes]
    source, target, inverse = [], [], []
    for s, x in reps:
        y = action.act(s, x)
        source.append(class_of[(S.mul[S.inv[s]][s], x)])
        target.append(class_of[(S.mul[s][S.inv[s]], y)])
        inverse.append(class_of[(S.inv[s], y)])
    at_point: dict[int, list[int]] = {}
    for cid, (_, x) in enumerate(reps):
        at_point.setdefault(x, []).append(cid)
    products = {}
    for c2, (t, x) in enumerate(reps):
        for c1 in at_point.get(action.act(t, x), ()):
            products[(c1, c2)] = class_of[(S.mul[reps[c1][0]][t], x)]
    return SimpleNamespace(
        classes=tuple(classes), class_of=class_of,
        units=frozenset(cid for cid, group in enumerate(classes)
                        if any(s in S.idempotents for s, _ in group)),
        source=tuple(source), target=tuple(target), inverse=tuple(inverse),
        products=products)


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


# -- verification scans -----------------------------------------------------

def verify_scan(S: FiniteInverseSemigroup):
    """`verify_inverse_semigroup` by the exhaustive scans it replaced:
    every triple for associativity, then every pair for inverses.
    Returns (ok, reason, certificate)."""
    mul = S.mul
    m = S.order
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    return False, "associativity", (a, b, c)
    for s, cands in enumerate(inverse_sets_scan(mul)):
        if len(cands) != 1:
            return False, "inverse-uniqueness", (s, tuple(sorted(cands)))
    return True, None, None


def light_scan(mul, gens) -> bool:
    """Light's test cell by cell: (x a) y = x (a y) for every a in
    `gens` and every x and y, with no rows skipped."""
    m = len(mul)
    return all(mul[mul[x][a]][y] == mul[x][mul[a][y]]
               for a in gens for x in range(m) for y in range(m))


def left_translation_table_scan(S):
    """{(s, x): s x} on x in D_{s*s}, cell by cell from the table:
    x lies in s*s S iff s*s x = x."""
    mul = S.mul
    return {(s, x): mul[s][x] for s in S.elements() for x in S.elements()
            if mul[mul[S.inv[s]][s]][x] == x}


def natural_table_scan(S):
    """{(s, x): s(x)} for a closure of partial bijections acting on its
    ground set, from each label's (source, target) pairs."""
    return {(s, x): y for s, f in enumerate(S.labels) for x, y in f.pairs}


def validate_scan(action) -> None:
    """`FiniteAction.validate` with the homomorphism law checked on
    every pair (s, t) as dicts of the partial maps."""
    S = action.semigroup
    table = action.table
    defined = set(table)
    expected = {(s, x) for s in S.elements() for x in action.domain(s)}
    if defined != expected:
        stray = sorted(defined ^ expected)[:5]
        raise ContractViolation(f"action table domain mismatch near {stray}")
    for s in S.elements():
        dom, cod = action.domain(s), action.codomain(s)
        image = {table[(s, x)] for x in dom}
        if len(image) != len(dom) or not image <= cod:
            raise ContractViolation(
                f"element {s} does not act as a bijection D_s*s -> D_ss*")
        if image != cod:
            raise ContractViolation(
                f"element {s} does not act onto D_ss*")
    for e in S.idempotents:
        for x in action.domain_of[e]:
            if table[(e, x)] != x:
                raise ContractViolation(
                    f"idempotent {e} must act as the identity on its domain")
    for s in S.elements():
        for t in S.elements():
            st = S.mul[s][t]
            dom_s = action.domain(s)
            composite = {x: table[(s, table[(t, x)])]
                         for x in action.domain(t) if table[(t, x)] in dom_s}
            direct = {x: table[(st, x)] for x in action.domain(st)}
            if composite != direct:
                raise ContractViolation(
                    f"action is not a homomorphism at ({s}, {t})")


def load_action_by_pairs(path, check=validate_scan) -> tuple[tuple[int, ...], ...]:
    """The image rows of an action file by the (s, x) map of every pair,
    as `formats.load_action` read the file before it laid rows out from
    the lists: the map is built entry by entry, naming the first
    malformed or duplicate entry, the constructor compares its keys with
    the set of every pair, and `check` validates the action.  Each row
    has n + 1 entries, -1 outside D_{s*s} and last.  Raises the
    loader's ParseError."""
    path = Path(path)
    data, _ = _load_json(path)
    _check_version(data, path)
    try:
        sg_ref, space_size = data["semigroup"], data["space_size"]
        raw_domains, raw_action = data["domains"], data["action"]
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from None
    if not isinstance(sg_ref, str):
        raise ParseError(f"{path}: 'semigroup' must be a path string")
    if type(space_size) is not int:
        raise ParseError(f"{path}: 'space_size' must be an integer, got {space_size!r}")
    sg_path = Path(sg_ref)
    S = load_semigroup(sg_path if sg_path.is_absolute() else path.parent / sg_path)
    try:
        domains = {}
        for e, pts in raw_domains:
            if _integer(e, "idempotent") in domains:
                raise ParseError(f"{path}: duplicate domain entry for idempotent {e}")
            domains[e] = frozenset(_integer(x, "point") for x in pts)
        table = {}
        for s, pairs in raw_action:
            _integer(s, "element")
            for x, y in pairs:
                key = (s, _integer(x, "point"))
                if key in table:
                    raise ParseError(f"{path}: duplicate action entry for {key}")
                table[key] = _integer(y, "point")
    except ParseError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed domains/action: {exc}") from None
    try:
        check(FiniteAction(S, space_size, domains, table))
    except ContractViolation as exc:
        raise ParseError(f"{path}: invalid action: {exc}") from None
    rows = [[-1] * (space_size + 1) for _ in S.elements()]
    for (s, x), y in table.items():
        rows[s][x] = y
    return tuple(map(tuple, rows))


def generated_scan(mul, gens) -> frozenset[int]:
    """Everything the products of `gens` reach, by a set fixpoint over
    all products of reached elements."""
    reached = set(gens)
    while True:
        grown = reached | {mul[a][b] for a in reached for b in reached}
        if grown == reached:
            return frozenset(reached)
        reached = grown


def atomflip_truncation_scan(n_atoms: int) -> FiniteInverseSemigroup:
    """The atom-flip truncation by multiplying every pair of elements."""
    els = (ZERO, FLIP, SQUARE) + tuple(atom(i) for i in range(1, n_atoms + 1))
    index = {el: i for i, el in enumerate(els)}
    return FiniteInverseSemigroup([[index[multiply(a, b)] for b in els] for a in els],
                                  labels=els)
