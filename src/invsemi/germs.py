"""The groupoid of germs of a finite action.

A germ is a class of pairs (s, x), x in D_{s*s}, where (s, x) ~ (t, x)
whenever some idempotent e has x in D_e and s e = t e.  Composition is
[s, act(t, x)] [t, x] = [s t, x] and inversion [s, x]^-1 = [s*, act(s, x)].
On a finite discrete space the topology is discrete, which collapses the
effective/essentially-principal distinctions onto principality; the
operations compute each definition independently anyway.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import chain, compress, count, repeat
from operator import add, eq, mul
from typing import TYPE_CHECKING, NamedTuple

from .errors import ContractViolation
from .semigroup import FiniteInverseSemigroup

if TYPE_CHECKING:
    from .action import FiniteAction


class Germ(NamedTuple):
    """One germ class: its canonical representative and class id."""

    rep_element: int
    point: int
    class_id: int


class GermGroupoid:
    """Arrows, structure maps and the product of a germ groupoid.

    Precondition: the action is validated and its semigroup is inverse
    (a closure, or a table that passes `verify_inverse_semigroup`), as
    the CLI checks before it builds germs.

    Each class is found in closed form.  Idempotents act as identities
    and the action is a homomorphism, so D_{ef} = D_e & D_f, and e <= f
    gives D_e <= D_f.  Let e_x be the product of the idempotents whose
    domain holds x; it holds x itself (checked), so it is the least
    such idempotent, and x lies in D_{s*s} iff e_x <= s*s.  Then:

    - (s, x) ~ (t, x) iff s e_x = t e_x: e_x is a witness, and a
      witness e has e_x = e_x e, so s e = t e gives s e_x = t e_x.
    - The classes at x are the L-class L_{e_x} = {u : u*u = e_x}: the
      class of (s, x) is (u, x) with u = s e_x, u*u = s*s e_x = e_x,
      and each u in L_{e_x} keys the class of (u, x), as u e_x = u.
    - Its members are the (s, x) with u <= s, so its smallest member is
      (min up(u), x).  Classes are numbered in order of that member, as
      a scan of the pairs in (s, x) order first meets them.
    - The source of (u, x) is (e_x, x), its target (uu*, u.x) and its
      inverse (u*, u.x), for e_{u.x} = uu*: an idempotent f whose domain
      holds u.x has x in D_{u*fu}, so e_x <= u*fu and uu* <= f.
    - [v, u.x][u, x] = [vu, x], with (vu)*(vu) = u* uu* u = e_x.

    A class (u, x) is coded by one int, (low(u) P + x) m + u, with
    low(u) = min up(u), P points and m elements; as x < P and u < m, the
    codes sort as (low(u), x, u), so a class id is its code's position
    after one sort.  Built: the codes, the units and the isotropy (the
    codes with u.x = x; under left translation the units, proved in
    `left_translation_action`, so no image is read).  Laid out on first
    read: the structure maps and the code -> id index of `class_of`.
    """

    def __init__(self, action: FiniteAction):
        S, P, least = action.semigroup, action.space_size, action.least_idempotents()
        m = S.order
        # high[u] = low(u) P m + u, so the code of (u, x) is high[u] + x m
        high = [((mask & -mask).bit_length() - 1) * P * m + u
                for u, mask in enumerate(S._require_up_masks())]
        us, xs = _germ_pairs(action, least)
        codes = list(map(add, map(high.__getitem__, us), map(mul, xs, repeat(m))))
        fixed = (None if action.is_left_translation  # the isotropy: u.x = x
                 else list(compress(codes, map(eq, xs, action.pair_images(us, xs)))))
        codes.sort()
        unit_at = dict(zip(least, map(bisect_left, repeat(codes),
                                      (high[e] + x * m for x, e in least.items()))))
        units = frozenset(unit_at.values())
        self.__dict__.update(action=action, units=units, _isotropy=units if fixed is None
                             else frozenset(map(bisect_left, repeat(codes), fixed)),
                             _codes=codes, _high=high, _least=least, _unit_at=unit_at)

    def __setattr__(self, name, value):
        raise AttributeError("GermGroupoid is immutable")

    def __len__(self) -> int:
        return len(self._codes)

    @cached_property
    def reps(self) -> tuple[tuple[int, int], ...]:
        """(min up(u), x) for each class (u, x): its least pair, off its code."""
        m, P = self.action.semigroup.order, self.action.space_size
        return tuple(divmod(code // m, P) for code in self._codes)

    @cached_property
    def _maps(self) -> tuple[tuple[int, ...], ...]:
        """(points, source, target, inverse): x and the ids of (e_x, x),
        (uu*, u.x) and (u*, u.x) for each class (u, x), off its code and
        the image u.x."""
        S, high, unit_at = self.action.semigroup, self._high, self._unit_at
        us = [code % S.order for code in self._codes]
        points = tuple(x for _, x in self.reps)
        ys = self.action.pair_images(us, points)
        return (points, tuple(map(unit_at.__getitem__, points)),
                tuple(map(unit_at.__getitem__, ys)),  # e_{u.x} = uu*
                tuple(self._index[high[S.inv[u]] + y * S.order] for u, y in zip(us, ys)))

    points = property(lambda self: self._maps[0])
    source = property(lambda self: self._maps[1])
    target = property(lambda self: self._maps[2])
    inverse = property(lambda self: self._maps[3])

    @cached_property
    def _index(self) -> dict[int, int]:
        return dict(zip(self._codes, range(len(self))))

    def class_of(self, s: int, x: int) -> int:
        """The class id of the pair (s, x); x must lie in D_{s*s}."""
        S = self.action.semigroup
        S._check_index(s)
        try:
            u = S.product(s, self._least[x])
            return self._index[self._high[u] + x * S.order]
        except KeyError:
            raise ContractViolation(f"({s}, {x}) is not a germ pair") from None

    def germ(self, s: int, x: int) -> Germ:
        """The class of the pair (s, x), with its representative."""
        cid = self.class_of(s, x)
        return Germ(*self.reps[cid], cid)

    def compose(self, c1: int, c2: int) -> int:
        """[s, y] [t, x] = [s t, x] on representatives, when y = act(t, x);
        ContractViolation when the classes are not composable."""
        n = len(self)
        if 0 <= c1 < n and 0 <= c2 < n:
            s, y = self.reps[c1]
            t, x = self.reps[c2]
            if self.action.pair_images((t,), (x,)) == [y]:
                return self.class_of(self.action.semigroup.product(s, t), x)
        raise ContractViolation(f"classes {c1} and {c2} are not composable")

    def isotropy(self) -> frozenset[int]:
        """Classes whose source and target units agree (found once, when built)."""
        return self._isotropy

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
        m, P = self.action.semigroup.order, self.action.space_size  # source: the unit at x
        spoiled = {self._unit_at[self._codes[c] // m % P] for c in self.isotropy() - self.units}
        return self.units - spoiled == self.units


def build_germs(action: FiniteAction) -> GermGroupoid:
    return GermGroupoid(action)


def germ_counts(action: FiniteAction) -> tuple[int, int, int]:
    """(germs, units, isotropy) of the germ groupoid, without building it.

    By `GermGroupoid`, the classes at a point x in some domain are the
    (u, x), u in L_{e_x}, with unit (e_x, x); (u, x) is isotropy iff its
    target (uu*, u.x) = (e_{u.x}, u.x) is its source, iff u.x = x.  Units
    are isotropy, so the groupoid is principal iff the counts agree; on a
    finite discrete space so are effective and essentially principal.
    One image per pair (`_germ_pairs`).
    """
    least = action.least_idempotents()
    us, xs = _germ_pairs(action, least)
    return len(xs), len(least), sum(map(eq, xs, action.pair_images(us, xs)))


def left_translation_counts(S: FiniteInverseSemigroup) -> tuple[int, int, int]:
    """`germ_counts` of `left_translation_action(S)`, in closed form and
    without the action: (sum over x of |L_{xx*}|, m, m).

    Every x lies in the domain of xx* = e_x, and isotropy is trivial
    (both proved in `left_translation_action`).  The x with xx* = e are
    R_e, which u -> u* maps onto L_e, so the sum is that of |L_e|^2 over
    the idempotents e: m products (`_l_classes`).  S must be inverse.
    """
    return sum(len(members) ** 2 for members in _l_classes(S).values()), S.order, S.order


def _l_classes(S: FiniteInverseSemigroup) -> dict[int, list[int]]:
    """The L-classes L_e = {u : u*u = e} of S, keyed by e, in index
    order, off one `pair_products` call."""
    l_classes: dict[int, list[int]] = {}
    for u, e in enumerate(S.pair_products(S.inv, S.elements())):
        l_classes.setdefault(e, []).append(u)
    return l_classes


def _germ_pairs(action: FiniteAction, least: dict[int, int]) -> tuple[list[int], list[int]]:
    """The pairs (u, x), u in L_{e_x}, as lists us and xs."""
    l_classes, us, xs = _l_classes(action.semigroup), [], []
    for x, e in least.items():
        us += l_classes[e]
        xs += repeat(x, len(l_classes[e]))
    return us, xs


def germ_equiv_oracle(action: FiniteAction, s: int, t: int, x: int) -> bool:
    """Exhaustive witness search for (s, x) ~ (t, x), by products; the
    check of `build_germs` classes runs it by product columns."""
    if x not in action.domain(s) or x not in action.domain(t):
        raise ContractViolation(f"point {x} must lie in the domains of both {s} and {t}")
    product = action.semigroup.product
    return any(product(s, e) == product(t, e) for e in action.idempotents_at(x))


def verify_germ_classes(action: FiniteAction, G: GermGroupoid) -> bool:
    """Check the classes of G by `germ_equiv_oracle`'s witness search, per point.

    At a point x, (s, x) ~ (t, x) iff s e = t e for some idempotent e
    at x.  This is an equivalence, because the idempotents at x are
    closed under products (D_{ef} = D_e & D_f in an action): s e = t e
    and t f = u f give s ef = t fe = u fe.  So two checks prove the
    classes exact.  (1) Each pair is ~ its class's representative, so a
    class never holds two pairs that are not ~.  (2) For each idempotent
    e at x, pairs with equal s e share a class, so ~ pairs never lie in
    two classes.  Last, every class must hold a pair.  Both checks read
    the column of s e for each idempotent e at x off one `pair_products`
    call per point: (2) compares two C-level set sizes per column, and
    (1) passes each column over only the pairs that no earlier column
    matched with their representative.  With k_x pairs at x, that is
    k_x |idempotents at x| products, and at most as many comparisons, per
    point, not C(k_x, 2) witness searches.
    """
    S, seen = action.semigroup, set()
    l_classes = _l_classes(S)
    for x in range(action.space_size):
        at = action.idempotents_at(x)
        members = [s for e in at for s in l_classes[e]]  # the pairs (s, x)
        classes = [G.class_of(s, x) for s in members]
        if min(classes, default=0) < 0 or max(classes, default=-1) >= len(G):
            return False
        # the position among the pairs at x of each pair's class representative
        reps = list(map(dict(zip(zip(members, repeat(x)), count())).get,
                        map(G.reps.__getitem__, classes)))
        if None in reps:
            return False
        k = len(members)
        products = S.pair_products(members * len(at),
                                   chain.from_iterable(map(repeat, at, repeat(k))))
        pending = range(k)  # (1): the pairs with no e so far where s e = r e, r their rep
        for column in zip(*[iter(products)] * k):  # s e for one e, s over the pairs
            if len(set(zip(column, classes))) != len(set(column)):  # (2)
                return False
            pending = [i for i in pending if column[i] != column[reps[i]]]
        if pending:
            return False
        seen.update(classes)
    return len(seen) == len(G)


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
            cid = G.class_of(s, x)
            if (x in f_s) != (cid in iso):
                return False, (s, x)
            if (x in tf_s) != (cid in G.units):
                return False, (s, x)
    return True, None


def check_fixed_points_are_ideal_union(S: FiniteInverseSemigroup) -> bool:
    """Under left translation, F_s must equal the union of e S, e in J_s."""
    from .action import left_translation_action
    action = left_translation_action(S)
    for s in S.elements():
        f_s, _ = fixed_sets(action, s)
        union: set[int] = set()
        for e in S.j_set(s):
            union |= S.right_ideal(e)
        if f_s != frozenset(union):
            return False
    return True

