"""Seeded input files and independent reference answers.

Everything here is computed with the benchmark's own arithmetic: a
partial bijection is a sorted tuple of (source, target) pairs, closures
are plain breadth-first fixpoints over sets, and the atom-flip and chain
tables are written from their defining rules.  Nothing is imported from
the package under test, so a reference can disagree with it.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from itertools import combinations, permutations
from pathlib import Path

Pb = tuple  # sorted tuple of (source, target) pairs


def compose(f: Pb, g: Pb) -> Pb:
    """f after g, the package's right-to-left convention."""
    fm = dict(f)
    return tuple(sorted((x, fm[y]) for x, y in g if y in fm))


def invert(f: Pb) -> Pb:
    return tuple(sorted((y, x) for x, y in f))


def label(f: Pb) -> str:
    """The label string the package prints for a partial bijection."""
    return "[" + ",".join(f"{x}->{y}" for x, y in f) + "]"


def count_partial_bijections(n: int) -> int:
    """Closed form: sum over k of C(n, k)^2 k!."""
    return sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))


def all_partial_bijections(n: int) -> list[Pb]:
    out = []
    for k in range(n + 1):
        for dom in combinations(range(n), k):
            for ran in permutations(range(n), k):
                out.append(tuple(zip(dom, ran)))
    return out


def brute_close(gens: list[Pb], limit: int | None = None) -> set[Pb] | None:
    """Every product of generators and their inverses, by set fixpoint.

    Returns None once the set would pass `limit` elements.
    """
    letters = set(gens) | {invert(g) for g in gens}
    found = set(letters)
    frontier = list(letters)
    while frontier:
        grown = []
        for s in frontier:
            for a in letters:
                p = compose(s, a)
                if p not in found:
                    found.add(p)
                    grown.append(p)
        if limit is not None and len(found) > limit:
            return None
        frontier = grown
    return found


def is_idempotent(f: Pb) -> bool:
    return all(x == y for x, y in f)


def reference(elements: set[Pb]) -> dict:
    """Closed-form facts about a closure of partial bijections.

    Per element s: J_s is the partial identities of the closure on
    subsets of fix(s), and the witness is its inclusion-maximal members.
    Under left translation the germ classes at a point x are the u with
    dom(u) = im(x) (the least idempotent at x is x x*), and exactly one
    of them fixes x, so isotropy and units both number |S|.
    """
    idem = [f for f in elements if is_idempotent(f)]
    idem_dom = [frozenset(x for x, _ in e) for e in idem]
    by_domain: dict[frozenset, int] = {}
    for u in elements:
        d = frozenset(x for x, _ in u)
        by_domain[d] = by_domain.get(d, 0) + 1
    criterion = {}
    for s in elements:
        fix = frozenset(x for x, y in s if x == y)
        below = [(e, d) for e, d in zip(idem, idem_dom) if d <= fix]
        witness = sorted(label(e) for e, d in below
                         if not any(d < d2 for _, d2 in below))
        criterion[label(s)] = (len(below), witness)
    germs = sum(by_domain.get(frozenset(y for _, y in x), 0) for x in elements)
    return {"order": len(elements), "idempotents": len(idem),
            "criterion": criterion, "germs": germs}


def symmetric_reference(n: int) -> dict:
    """`reference` for the full symmetric inverse monoid I_n, in closed form."""
    m = count_partial_bijections(n)
    germs = sum(math.comb(n, k) ** 2 * math.factorial(k) * math.perm(n, k)
                for k in range(n + 1))
    return {"order": m, "idempotents": 2 ** n, "germs": germs}


def germ_pairs(elements: set[Pb]) -> int:
    """Size of the left-translation pair space {(s, x) : im(x) within dom(s)}."""
    domains = Counter(frozenset(x for x, _ in s) for s in elements)
    images = Counter(frozenset(y for _, y in x) for x in elements)
    return sum(ni * nd for im, ni in images.items() for d, nd in domains.items() if im <= d)


def random_closure(rng: random.Random, ground: int, lo: int, hi: int,
                   pairs: tuple[int, int] | None = None) -> tuple[list[Pb], set[Pb]]:
    """Two random partial bijections whose closure has lo..hi elements
    (and, if given, a germ pair space within the `pairs` range)."""
    while True:
        gens = []
        for _ in range(2):
            k = rng.randint(ground - 2, ground)
            dom = sorted(rng.sample(range(ground), k))
            gens.append(tuple(zip(dom, rng.sample(range(ground), k))))
        closure = brute_close(gens, limit=hi)
        if (closure is not None and len(closure) >= lo
                and (pairs is None or pairs[0] <= germ_pairs(closure) <= pairs[1])):
            return gens, closure


# -- atom-flip truncations and chains, written from their rules ---------

def atomflip_labels(n: int) -> list[str]:
    return ["zero", "flip", "square"] + [f"atom:{i}" for i in range(1, n + 1)]


def atomflip_mul(a: int, b: int) -> int:
    """zero = 0, flip = 1, square = 2 (the identity), atom:i = i + 2."""
    if a == 0 or b == 0:
        return 0
    if a == 2:
        return b
    if b == 2:
        return a
    if a == 1 and b == 1:
        return 2
    if a == 1:
        return b
    if b == 1:
        return a
    return a if a == b else 0


def atomflip_table(n: int) -> list[list[int]]:
    m = n + 3
    return [[atomflip_mul(a, b) for b in range(m)] for a in range(m)]


def atomflip_reference(n: int) -> dict:
    """|J_s| and sorted witness labels per element, and the germ count.

    J_flip is zero plus the n atoms and its witness is exactly the atoms.
    Left translation has germ classes 1 (zero) + 2 (flip) + 2 (square)
    + 1 per atom.
    """
    atoms = [f"atom:{i}" for i in range(1, n + 1)]
    crit = {"zero": (1, ["zero"]), "flip": (n + 1, sorted(atoms)),
            "square": (n + 2, ["square"])}
    for a in atoms:
        crit[a] = (2, [a])
    return {"order": n + 3, "idempotents": n + 2, "criterion": crit,
            "germs": n + 5}


def chain_table(k: int) -> list[list[int]]:
    return [[max(i, j) for j in range(k)] for i in range(k)]


# -- files ---------------------------------------------------------------

def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, separators=(",", ":")))


def write_generators(path: Path, ground: int, gens: list[Pb]) -> None:
    _write(path, {"version": 1, "kind": "generators", "ground_size": ground,
                  "generators": [[list(p) for p in g] for g in gens]})


def write_table(path: Path, table: list[list[int]], labels: list[str]) -> None:
    _write(path, {"version": 1, "kind": "table", "mul_table": table,
                  "labels": labels})


def write_left_translation(action_path: Path, table_path: Path, n: int) -> None:
    """I_n as a table file plus its left-translation action file."""
    els = all_partial_bijections(n)
    index = {f: i for i, f in enumerate(els)}
    mul = [[index[compose(a, b)] for b in els] for a in els]
    write_table(table_path, mul, [label(f) for f in els])
    inv = [index[invert(f)] for f in els]
    idem = [i for i, f in enumerate(els) if is_idempotent(f)]
    ideal = {e: sorted(set(mul[e])) for e in idem}
    action = [[s, [[x, mul[s][x]] for x in ideal[mul[inv[s]][s]]]]
              for s in range(len(els))]
    _write(action_path, {"version": 1, "semigroup": table_path.name,
                         "space_size": len(els),
                         "domains": [[e, ideal[e]] for e in idem],
                         "action": action})


def symmetric_generators(n: int) -> list[Pb]:
    """A transposition, an n-cycle and a rank n-1 partial identity generate I_n."""
    swap = tuple(sorted([(0, 1), (1, 0)] + [(x, x) for x in range(2, n)]))
    cycle = tuple((x, (x + 1) % n) for x in range(n))
    return [swap, cycle, tuple((x, x) for x in range(1, n))]
