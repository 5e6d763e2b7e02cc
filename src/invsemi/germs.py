"""The groupoid of germs of a finite action.

A germ is a class of pairs (s, x), x in D_{s*s}, where (s, x) ~ (t, x)
whenever some idempotent e has x in D_e and s e = t e.  Composition is
[s, act(t, x)] [t, x] = [s t, x] and inversion [s, x]^-1 = [s*, act(s, x)].
On a finite discrete space the topology is discrete, which collapses the
effective/essentially-principal distinctions onto principality; the
operations compute each definition independently anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

from .action import FiniteAction, left_translation_action
from .errors import ContractViolation, InvariantViolation
from .semigroup import FiniteInverseSemigroup


@dataclass(frozen=True)
class Germ:
    """One germ class: its canonical representative and class id."""

    rep_element: int
    point: int
    class_id: int


class GermGroupoid:
    """Arrows, structure maps, and on-demand composition of a germ groupoid.

    Classes are indexed 0..n-1 in lexicographic order of their smallest
    (element, point) member, which makes reports reproducible.

    Each class is found in closed form.  Let e_x be the product of the
    idempotents whose domain holds x; it holds x itself (checked), so it
    is the least such idempotent.  Then (s, x) ~ (t, x) iff
    s e_x = t e_x: e_x is a witness, and a witness e has e_x = e_x e, so
    s e = t e gives s e_x = t e_x.  The pair (s, x) is therefore keyed by
    (s e_x, x), and scanning the pairs in (s, x) order meets each class
    first at its smallest member.
    """

    __slots__ = ("action", "classes", "class_of", "reps", "points",
                 "source", "target", "units", "inverse", "_composition")

    def __init__(self, action: FiniteAction):
        S = action.semigroup
        mul, idempotents = S.mul, S.idempotents
        least: dict[int, int] = {}
        class_by_key: dict[tuple[int, int], int] = {}
        groups: list[list[tuple[int, int]]] = []
        class_of: dict[tuple[int, int], int] = {}
        units = set()
        for pair in action.germ_pairs():
            s, x = pair
            e = least.get(x)
            if e is None:
                e = least[x] = _least_idempotent_at(action, x)
            key = (mul[s][e], x)
            cid = class_by_key.get(key)
            if cid is None:
                cid = class_by_key[key] = len(groups)
                groups.append([])
            groups[cid].append(pair)
            class_of[pair] = cid
            if s in idempotents:
                units.add(cid)

        reps = tuple(group[0] for group in groups)
        source, target, inverse = [], [], []
        for s, x in reps:
            ss = mul[S.inv[s]][s]
            source.append(class_of[(ss, x)])
            y = action.act(s, x)
            target.append(class_of[(mul[s][S.inv[s]], y)])
            inverse.append(class_of[(S.inv[s], y)])

        object.__setattr__(self, "action", action)
        object.__setattr__(self, "classes", tuple(map(tuple, groups)))
        object.__setattr__(self, "class_of", class_of)
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "points", tuple(x for _, x in reps))
        object.__setattr__(self, "source", tuple(source))
        object.__setattr__(self, "target", tuple(target))
        object.__setattr__(self, "units", frozenset(units))
        object.__setattr__(self, "inverse", tuple(inverse))
        object.__setattr__(self, "_composition", None)

    def __setattr__(self, name, value):
        raise AttributeError("GermGroupoid is immutable")

    def __len__(self) -> int:
        return len(self.classes)

    def germ(self, s: int, x: int) -> Germ:
        """The class of the pair (s, x); x must lie in D_{s*s}."""
        try:
            cid = self.class_of[(s, x)]
        except KeyError:
            raise ContractViolation(f"({s}, {x}) is not a germ pair") from None
        rep_s, rep_x = self.reps[cid]
        return Germ(rep_s, rep_x, cid)

    def compose(self, c1: int, c2: int) -> int:
        """[s, y] [t, x] = [s t, x] on representatives, when y = act(t, x)."""
        c12 = self._product(c1, c2)
        if c12 is None:
            raise ContractViolation(f"classes {c1} and {c2} are not composable")
        return c12

    def composable(self, c1: int, c2: int) -> bool:
        return self._product(c1, c2) is not None

    @property
    def composition(self) -> dict[tuple[int, int], int]:
        """Every composable pair and its product; built on first read.

        Its size is the sum over points y of (classes at y) x (classes
        landing at y), far more than the classes themselves, so nothing
        else reads it.
        """
        if self._composition is None:
            at_point: dict[int, list[int]] = {}
            for cid, x in enumerate(self.points):
                at_point.setdefault(x, []).append(cid)
            composition = {}
            for c2, (t, x) in enumerate(self.reps):
                for c1 in at_point.get(self.action.act(t, x), ()):
                    composition[(c1, c2)] = self._product(c1, c2)
            object.__setattr__(self, "_composition", composition)
        return self._composition

    def _product(self, c1: int, c2: int) -> int | None:
        n = len(self.classes)
        if not (0 <= c1 < n and 0 <= c2 < n):
            return None
        s, y = self.reps[c1]
        t, x = self.reps[c2]
        if self.action.act(t, x) != y:
            return None
        return self.class_of[(self.action.semigroup.mul[s][t], x)]

    def unit_of_point(self, x: int) -> int:
        """The unit class sitting over the point x."""
        for e in self.action.idempotents_at(x):
            return self.class_of[(e, x)]
        raise ContractViolation(f"point {x} lies in no idempotent domain")

    def isotropy(self) -> frozenset[int]:
        """Classes whose source and target units agree."""
        return frozenset(c for c in range(len(self.classes))
                         if self.source[c] == self.target[c])

    def is_principal(self) -> bool:
        return self.isotropy() == self.units

    def is_effective(self) -> bool:
        """Interior of the isotropy equals the units.

        The space is finite discrete, so the interior operator is the
        identity and this coincides with `is_principal`; computed from
        the definition regardless.
        """
        interior = self.isotropy()  # discrete topology: every set is open
        return interior == self.units

    def is_essentially_principal(self) -> bool:
        """Units with trivial isotropy group are dense; at discrete scale
        dense means all of them."""
        spoiled = {self.source[c] for c in self.isotropy() - self.units}
        return self.units - spoiled == self.units

    def slice(self, s: int, points) -> frozenset[int]:
        """The basic open set of classes {[s, x] : x in U}."""
        U = frozenset(points)
        if not U <= self.action.domain(s):
            raise ContractViolation("slice points must lie in the domain of s")
        return frozenset(self.class_of[(s, x)] for x in U)


def build_germs(action: FiniteAction) -> GermGroupoid:
    return GermGroupoid(action)


def _least_idempotent_at(action: FiniteAction, x: int) -> int:
    """e_x, the least idempotent whose domain holds x (see GermGroupoid)."""
    mul = action.semigroup.mul
    at = action.idempotents_at(x)
    e = at[0]
    for f in at[1:]:
        e = mul[e][f]
    if x not in action.domain_of[e]:
        raise ContractViolation(
            f"point {x} lies in the domains of {list(at)} but not of their "
            f"product {e}; the domains do not come from an action")
    return e


def germ_equiv_oracle(action: FiniteAction, s: int, t: int, x: int) -> bool:
    """Exhaustive witness search for (s, x) ~ (t, x); the independent
    check that `build_germs` classes are validated against."""
    if x not in action.domain(s) or x not in action.domain(t):
        raise ContractViolation(f"point {x} must lie in the domains of both {s} and {t}")
    S = action.semigroup
    return any(S.mul[s][e] == S.mul[t][e] for e in action.idempotents_at(x))


def fixed_sets(action: FiniteAction, s: int) -> tuple[frozenset[int], frozenset[int]]:
    """(F_s, TF_s): points fixed by s, and points trivially fixed by s
    (covered by the domain of some idempotent in J_s)."""
    S = action.semigroup
    S._check_index(s)
    f_s = frozenset(x for x in action.domain(s) if action.act(s, x) == x)
    tf_s: set[int] = set()
    for e in S.j_set(s):
        tf_s |= action.domain_of[e]
    return f_s, frozenset(tf_s)


def check_fixed_point_germ_laws(action: FiniteAction) -> tuple[bool, tuple | None]:
    """For every germ pair: fixed iff isotropy, trivially fixed iff unit,
    and TF_s inside F_s.  Returns (ok, violating (s, x) or None)."""
    G = build_germs(action)
    iso = G.isotropy()
    for s in action.semigroup.elements():
        f_s, tf_s = fixed_sets(action, s)
        if not tf_s <= f_s:
            return False, (s, min(tf_s - f_s))
        for x in action.domain(s):
            cid = G.class_of[(s, x)]
            if (x in f_s) != (cid in iso):
                return False, (s, x)
            if (x in tf_s) != (cid in G.units):
                return False, (s, x)
    return True, None


def check_fixed_points_are_ideal_union(S: FiniteInverseSemigroup) -> bool:
    """Under left translation, F_s must equal the union of e S, e in J_s."""
    action = left_translation_action(S)
    for s in S.elements():
        f_s, _ = fixed_sets(action, s)
        union: set[int] = set()
        for e in S.j_set(s):
            union |= S.right_ideal(e)
        if f_s != frozenset(union):
            return False
    return True


def check_trivially_fixed_closed(action: FiniteAction, s: int) -> bool:
    """Closedness of TF_s relative to the closure of the domain of s.

    Discrete hook: every subset of a finite discrete space is closed, so
    this returns True after asserting TF_s <= F_s <= D_{s*s}; a
    non-discrete topology would plug its real check in here.
    """
    f_s, tf_s = fixed_sets(action, s)
    if not tf_s <= f_s:
        raise InvariantViolation(f"TF_{s} escapes F_{s}")
    if not f_s <= action.domain(s):
        raise InvariantViolation(f"F_{s} escapes the domain of {s}")
    return True
