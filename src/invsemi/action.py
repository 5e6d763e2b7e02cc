"""Actions of a finite inverse semigroup on a finite discrete set.

Each idempotent e owns a domain D_e; the element s acts as a bijection
from D_{s*s} onto D_{ss*}.  On a finite discrete space every domain is
clopen, so every `FiniteAction` is a clopen action by construction.
"""

from __future__ import annotations

from operator import getitem
from typing import Iterable, Mapping, Sequence

from .errors import ContractViolation
from .semigroup import FiniteInverseSemigroup, _bits, generators_if_associative


class FiniteAction:
    """An inverse semigroup acting by partial bijections on {0, ..., n-1}.

    `domain_of` maps each idempotent index to its domain.  The images
    come in as `table`, a map from (element, point) to the image point
    defined exactly on {(s, x) : x in D_{s*s}}; the constructor checks
    that once and lays the table out as one row of n + 1 images per
    element, -1 outside D_{s*s} and last, so that `validate` composes
    rows as they are stored.  The `table` attribute rebuilds the map
    when read.  Call `validate()` to confirm the data really is an
    action (homomorphism plus per-element bijectivity).
    """

    __slots__ = ("semigroup", "space_size", "domain_of", "_rows", "_idempotents_at")

    def __init__(self, semigroup: FiniteInverseSemigroup, space_size: int,
                 domain_of: Mapping[int, frozenset[int]],
                 table: Mapping[tuple[int, int], int] | None, *,
                 _translation: bool = False):
        """With `_translation` (from `left_translation_action`) S acts on
        itself, s.x = s x, by its own products; `table` is then not
        read."""
        if semigroup.inv is None:
            raise ContractViolation("actions need a genuine inverse semigroup")
        if space_size < 0:
            raise ContractViolation("space_size must be non-negative")
        if set(domain_of) != set(semigroup.idempotents):
            raise ContractViolation(
                "domain_of must assign a domain to every idempotent, exactly")
        doms = {}
        for e, pts in domain_of.items():
            pts = frozenset(pts)
            for x in pts:
                if not (0 <= x < space_size):
                    raise ContractViolation(f"domain point {x} outside space of size {space_size}")
            doms[e] = pts
        at: dict[int, list[int]] = {}
        for e in sorted(doms):
            for x in doms[e]:
                at.setdefault(x, []).append(e)
        object.__setattr__(self, "semigroup", semigroup)
        object.__setattr__(self, "space_size", space_size)
        object.__setattr__(self, "domain_of", doms)
        object.__setattr__(self, "_rows", None if _translation else self._lay(table))
        object.__setattr__(self, "_idempotents_at",
                           {x: tuple(es) for x, es in at.items()})

    def __setattr__(self, name, value):
        raise AttributeError("FiniteAction is immutable")

    def _lay(self, table: Mapping[tuple[int, int], int]) -> tuple[tuple[int, ...], ...]:
        """The pair table as rows of n + 1 images, once its keys are exactly
        the pairs: -1 where undefined and last, so `_compose` keeps -1."""
        S = self.semigroup
        defined = set(table)
        expected = {(s, x) for s in S.elements() for x in self.domain(s)}
        if defined != expected:
            stray = sorted(defined ^ expected)[:5]
            raise ContractViolation(f"action table domain mismatch near {stray}")
        rows = [[-1] * (self.space_size + 1) for _ in S.elements()]
        for (s, x), y in table.items():
            rows[s][x] = y
        return tuple(map(tuple, rows))

    def pair_images(self, us: Sequence[int], xs: Iterable[int]) -> list[int]:
        """[u.x for u, x in zip(us, xs)], unchecked: each x must lie in D_{u*u}."""
        if self._rows is None:
            return self.semigroup.pair_products(us, xs)
        return list(map(getitem, map(self._rows.__getitem__, us), xs))

    @property
    def table(self) -> dict[tuple[int, int], int]:
        """Every image as {(s, x): s.x}, in (s, x) order; built when read."""
        pairs = self.germ_pairs()
        return dict(zip(pairs, self.pair_images([s for s, _ in pairs], [x for _, x in pairs])))

    def domain(self, s: int) -> frozenset[int]:
        """D_{s*s}, where the action of s is defined."""
        S = self.semigroup
        S._check_index(s)
        return self.domain_of[S.product(S.inv[s], s)]

    def codomain(self, s: int) -> frozenset[int]:
        """D_{ss*}, where the action of s lands."""
        S = self.semigroup
        S._check_index(s)
        return self.domain_of[S.product(s, S.inv[s])]

    def act(self, s: int, x: int) -> int:
        if not (0 <= s < self.semigroup.order and x in self.domain(s)):
            raise ContractViolation(f"action of element {s} undefined at point {x}")
        return self.pair_images((s,), (x,))[0]

    def germ_pairs(self) -> list[tuple[int, int]]:
        """The pair space {(s, x) : x in D_{s*s}} in (s, x) order."""
        return [(s, x) for s in self.semigroup.elements()
                for x in sorted(self.domain(s))]

    def idempotents_at(self, x: int) -> tuple[int, ...]:
        """Idempotents whose domain contains x, sorted."""
        return self._idempotents_at.get(x, ())

    def validate(self) -> None:
        """Raise ContractViolation unless the data defines an action."""
        S = self.semigroup
        # left translation stores no rows: they are laid out from its products
        rows = self._lay(self.table) if self._rows is None else self._rows
        for s in S.elements():
            dom, cod, row = self.domain(s), self.codomain(s), rows[s]
            image = {row[x] for x in dom}
            if len(image) != len(dom) or not image <= cod:
                raise ContractViolation(
                    f"element {s} does not act as a bijection D_s*s -> D_ss*")
            if image != cod:
                raise ContractViolation(
                    f"element {s} does not act onto D_ss*")
        for e in S.idempotents:
            row = rows[e]
            for x in self.domain_of[e]:
                if row[x] != x:
                    raise ContractViolation(
                        f"idempotent {e} must act as the identity on its domain")
        # Generators suffice when S is associative (see `_homomorphic_at`);
        # otherwise, or on a fault, the scan over all pairs names the first.
        gens = generators_if_associative(S)
        if gens is not None and all(_homomorphic_at(rows, S, s) for s in gens):
            return
        for s in S.elements():
            for t in S.elements():
                if rows[S.product(s, t)] != _compose(rows[s], rows[t]):
                    raise ContractViolation(f"action is not a homomorphism at ({s}, {t})")


def _compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """The partial map f after g, as rows padded by `FiniteAction._lay`."""
    return tuple(map(f.__getitem__, g))


def _homomorphic_at(rows, S: FiniteInverseSemigroup, s: int) -> bool:
    """phi(s t) = phi(s) phi(t) for every t, by `S.product`, so a
    closure builds no table.

    If S is associative, checking this for s in a generating set is
    enough: the set H of such s is closed under products, since for
    a, b in H, phi((a b) t) = phi(a (b t)) = phi(a) phi(b t)
    = phi(a) phi(b) phi(t) = phi(a b) phi(t).
    """
    f = rows[s]
    return all(rows[S.product(s, t)] == _compose(f, g) for t, g in enumerate(rows))


def left_translation_action(S: FiniteInverseSemigroup) -> FiniteAction:
    """S acting on itself: s sends t to s t, defined on the ideal s*S.

    For finite S, beta S = S, so the germ groupoid of this action is the
    paper's S x| beta S, and it is always principal, effective and
    essentially principal: the finite case of "Hausdorff iff principal
    iff effective".  The domain of e is eS, and x lies in eS iff e x = x
    iff xx* <= e, so e_x = xx* (see `GermGroupoid`): the germs number
    the sum over x of |L_{xx*}|, 126,526 on I_5.  Isotropy is trivial:
    u x = x with u*u = xx* gives u = u xx* = (u x) x* = xx*, a unit.
    The images are the products of S: nothing is stored per pair.

    The domains come from the order, not from the rows: x lies in eS
    iff xx* <= e, so the elements are grouped by xx* once, and D_e
    gathers the groups of the idempotents below e.  That is m products
    and one mask of the E-order (the order on the idempotents, see
    `FiniteInverseSemigroup`) per idempotent, instead of hashing a row
    of m entries per idempotent.
    """
    if S.inv is None:
        raise ContractViolation("actions need a genuine inverse semigroup")
    by_range: dict[int, list[int]] = {}
    for x in S.elements():
        by_range.setdefault(S.product(x, S.inv[x]), []).append(x)
    E, below, _ = S._require_e_order()
    domains = {}
    for i, e in enumerate(E):
        members: list[int] = []
        for j in _bits(below[i]):
            members += by_range.get(E[j], ())
        domains[e] = frozenset(members)
    return FiniteAction(S, S.order, domains, None, _translation=True)
