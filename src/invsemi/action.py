"""Actions of a finite inverse semigroup on a finite discrete set.

Each idempotent e owns a domain D_e; the element s acts as a bijection
from D_{s*s} onto D_{ss*}.  On a finite discrete space every domain is
clopen, so every `FiniteAction` is a clopen action by construction.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from itertools import repeat
from operator import eq, getitem, itemgetter
from typing import Collection, Iterable, Mapping, Sequence

from .errors import ContractViolation
from .semigroup import FiniteInverseSemigroup, _bits, generators_if_associative


class FiniteAction:
    """An inverse semigroup acting by partial bijections on {0, ..., n-1}.

    `domain_of` maps each idempotent index to its domain.  The images
    come in as `table`: a map from (element, point) to the image point
    defined exactly on {(s, x) : x in D_{s*s}}, or the `action` lists of
    an action file, [[s, [[x, s.x], ...]], ...].  The constructor checks
    them once and lays them out as one row of n + 1 images per element,
    -1 outside D_{s*s} and last, so that `validate` composes rows as
    they are stored.  The `table` attribute rebuilds the map when read,
    and the point index of `idempotents_at` is laid out on first read.
    Call `validate()` to confirm the data really is an action
    (homomorphism plus per-element bijectivity).
    """

    __slots__ = ("semigroup", "space_size", "_domain_of", "_rows", "_idempotents_at")

    def __init__(self, semigroup: FiniteInverseSemigroup, space_size: int,
                 domain_of: Mapping[int, frozenset[int]] | None,
                 table: Mapping[tuple[int, int], int] | Sequence | None, *,
                 _translation: bool = False):
        """With `_translation` (from `left_translation_action`) S acts on
        itself, s.x = s x, by its own products; `domain_of` and `table`
        are then not read, and the domains are laid out on first read."""
        if semigroup.inv is None:
            raise ContractViolation("actions need a genuine inverse semigroup")
        if space_size < 0:
            raise ContractViolation("space_size must be non-negative")
        object.__setattr__(self, "semigroup", semigroup)
        object.__setattr__(self, "space_size", space_size)
        object.__setattr__(self, "_idempotents_at", None)
        object.__setattr__(self, "_rows", None)
        object.__setattr__(self, "_domain_of", None)
        if _translation:
            return
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
        object.__setattr__(self, "_domain_of", doms)
        object.__setattr__(self, "_rows", self._lay(table))

    def __setattr__(self, name, value):
        raise AttributeError("FiniteAction is immutable")

    @property
    def domain_of(self) -> dict[int, frozenset[int]]:
        """D_e of each idempotent e; a left translation lays them out on
        first read (see `left_translation_action`)."""
        if self._domain_of is None:
            object.__setattr__(self, "_domain_of", _translation_domains(self.semigroup))
        return self._domain_of

    def _domains(self) -> list[frozenset[int]]:
        """D_{s*s} of every element s, in index order."""
        S = self.semigroup
        return list(map(self.domain_of.__getitem__, S.pair_products(S.inv, S.elements())))

    def _lay(self, table) -> tuple[tuple[int, ...], ...]:
        """The images as rows of n + 1 entries, -1 where undefined and
        last, so `_homomorphic_at` keeps -1.

        A pair map must be defined exactly on the pairs.  The lists of an
        action file are checked row by row by C-level means, with no
        pair map and no set of every pair: each element is listed at most
        once, and those not listed have empty D_{s*s}; its [x, y] lists
        make a dict with one key per list, its keys are D_{s*s} and every
        key and value is of type int (so not a bool, nor a float equal to
        an int).  Then the pair map that `formats.load_action` builds of
        the lists is defined exactly on the pairs and gives these rows.
        Lists that fail raise ContractViolation without naming the fault;
        `load_action` then builds that pair map to name it."""
        n, domains = self.space_size, self._domains()
        if isinstance(table, Mapping):
            defined = set(table)
            expected = {(s, x) for s, dom in enumerate(domains) for x in dom}
            if defined != expected:
                stray = sorted(defined ^ expected)[:5]
                raise ContractViolation(f"action table domain mismatch near {stray}")
            return tuple(_row(n, dom, map(table.__getitem__, zip(repeat(s), dom)))
                         for s, dom in enumerate(domains))
        rows: list = [None] * len(domains)
        try:
            for s, pairs in table:
                images = dict(pairs)
                if (type(s) is not int or not 0 <= s < len(rows) or rows[s] is not None
                        or len(images) != len(pairs) or images.keys() != domains[s]
                        or not {*map(type, images), *map(type, images.values())} <= {int}):
                    break
                rows[s] = _row(n, images, images.values())
            else:
                if not any(row is None and dom for row, dom in zip(rows, domains)):
                    return tuple(_row(n, (), ()) if row is None else row for row in rows)
        except (TypeError, ValueError):  # an entry that is no pair, or unhashable
            pass
        raise ContractViolation(
            "action lists must give each element its images on D_s*s once, as integers")

    @property
    def is_left_translation(self) -> bool:
        """Whether S acts on itself by products (`left_translation_action`)."""
        return self._rows is None

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
        """Idempotents whose domain contains x, sorted; the index of every
        point is laid out on first read."""
        if self._idempotents_at is None:
            at: dict[int, list[int]] = {}
            for e, dom in sorted(self.domain_of.items()):
                for y in dom:
                    at.setdefault(y, []).append(e)
            object.__setattr__(self, "_idempotents_at", {y: tuple(es) for y, es in at.items()})
        return self._idempotents_at.get(x, ())

    def least_idempotents(self) -> dict[int, int]:
        """{x: e_x} over the points that lie in some domain, e_x the least
        idempotent whose domain holds x (see `germs.GermGroupoid`).  Under
        left translation e_x = xx* (see `left_translation_action`): m
        products.  Otherwise e_x is the product of the idempotents at x,
        and must hold x itself."""
        S = self.semigroup
        if self._rows is None:
            return dict(enumerate(_ranges(S)))
        least = {}
        for x in range(self.space_size):
            if at := self.idempotents_at(x):
                e = least[x] = reduce(S.product, at)
                if x not in self.domain_of[e]:
                    raise ContractViolation(
                        f"point {x} lies in the domains of {list(at)} but not of their "
                        f"product {e}; the domains do not come from an action")
        return least

    def validate(self) -> None:
        """Raise ContractViolation unless the data defines an action.

        Every row is read by C-level gathers (`_gather`).  A left
        translation stores no rows, so they are laid out here, from the
        products of S."""
        S, n = self.semigroup, self.space_size
        domains, rows = self._domains(), self._rows
        if rows is None:
            rows = tuple(_row(n, dom, S.pair_products([s] * len(dom), dom))
                         for s, dom in enumerate(domains))
        codomains = map(self.domain_of.__getitem__, _ranges(S))  # D_{ss*}
        for s, (dom, cod) in enumerate(zip(domains, codomains)):
            image = set(_gather(rows[s], dom))
            if len(image) != len(dom) or not image <= cod:
                raise ContractViolation(
                    f"element {s} does not act as a bijection D_s*s -> D_ss*")
            if image != cod:
                raise ContractViolation(
                    f"element {s} does not act onto D_ss*")
        for e in S.idempotents:
            dom = self.domain_of[e]
            if _gather(rows[e], dom) != tuple(dom):
                raise ContractViolation(
                    f"idempotent {e} must act as the identity on its domain")
        # Generators suffice when S is associative (see `_homomorphic_at`);
        # otherwise, or on a fault, the scan over all pairs names the first.
        gens = generators_if_associative(S)
        if gens is not None and all(all(_homomorphic_at(rows, S, s)) for s in gens):
            return
        for s in S.elements():
            law = _homomorphic_at(rows, S, s)
            if not all(law):
                raise ContractViolation(
                    f"action is not a homomorphism at ({s}, {law.index(False)})")


def _row(n: int, xs: Iterable[int], ys: Iterable[int]) -> tuple[int, ...]:
    """n + 1 images: ys at xs, -1 elsewhere and last, by one C-level scatter."""
    row = [-1] * (n + 1)
    deque(map(row.__setitem__, xs, ys), 0)
    return tuple(row)


def _gather(row: Sequence[int], idx: Collection[int]) -> tuple[int, ...]:
    """The entries of `row` at `idx`, in the order `idx` iterates, by one
    C-level gather: `itemgetter` of one index returns the entry itself,
    and of none raises."""
    return itemgetter(*idx)(row) if len(idx) > 1 else tuple(map(row.__getitem__, idx))


def _homomorphic_at(rows, S: FiniteInverseSemigroup, s: int) -> list[bool]:
    """Whether phi(s t) = phi(s) phi(t), for each t in index order: each
    row of phi(t) read through the row of s by `_gather`, against the
    row of s t by `S.pair_products`, so a closure builds no table.

    If S is associative, checking this for s in a generating set is
    enough (see `generators_if_associative`): the s at which it holds
    are closed under products, since for two of them a and b,
    phi((a b) t) = phi(a (b t)) = phi(a) phi(b t)
    = phi(a) phi(b) phi(t) = phi(a b) phi(t).
    """
    f = rows[s]
    products = S.pair_products([s] * S.order, S.elements())
    return list(map(eq, map(rows.__getitem__, products), map(_gather, repeat(f), rows)))


def _ranges(S: FiniteInverseSemigroup) -> list[int]:
    """xx* of every element x, by one `pair_products` call."""
    return S.pair_products(S.elements(), S.inv)


def left_translation_action(S: FiniteInverseSemigroup) -> FiniteAction:
    """S acting on itself: s sends t to s t, defined on the ideal s*S.

    For finite S, beta S = S, so the germ groupoid of this action is the
    paper's S x| beta S, and it is always principal, effective and
    essentially principal: the finite case of "Hausdorff iff principal
    iff effective".  The domain of e is eS, and x lies in eS iff e x = x
    iff xx* <= e, so e_x = xx* (see `GermGroupoid`): the germs number
    the sum over x of |L_{xx*}|, 126,526 on I_5.  Isotropy is trivial:
    u x = x with u*u = xx* gives u = u xx* = (u x) x* = xx*, a unit.
    The images are the products of S: nothing is stored per pair.  As
    this proves the domains right, nothing checks them, and they are
    laid out only when read (`_translation_domains`); the germ groupoid
    and its counts read none, and the groupoid no image.
    """
    return FiniteAction(S, S.order, None, None, _translation=True)


def _translation_domains(S: FiniteInverseSemigroup) -> dict[int, frozenset[int]]:
    """D_e = eS of each idempotent e, from the order, not from the rows:
    x lies in eS iff xx* <= e, so the elements are grouped by xx* once,
    and D_e gathers the groups of the idempotents below e.  That is m
    products and one mask of the E-order (the order on the idempotents,
    see `FiniteInverseSemigroup`) per idempotent, instead of hashing a
    row of m entries per idempotent."""
    by_range: dict[int, list[int]] = {}
    for x, e in enumerate(_ranges(S)):
        by_range.setdefault(e, []).append(x)
    E, below, _ = S._require_e_order()
    domains = {}
    for i, e in enumerate(E):
        members: list[int] = []
        for j in _bits(below[i]):
            members += by_range.get(E[j], ())
        domains[e] = frozenset(members)
    return domains
