"""Cross-cutting consistency sweeps: randomized closures and the natural
partial-bijection action, run through every invariant battery at once."""

import random

from invsemi import (
    FiniteAction,
    PartialBijection,
    all_partial_bijections,
    check_fixed_point_germ_laws,
    check_fixed_points_are_ideal_union,
    close,
    compatible,
    hausdorff_criterion,
    left_translation_action,
    verify_inverse_semigroup,
)
from conftest import check_germ_counts
from invsemi.germs import build_germs


def natural_action(S, ground_size):
    """The closure of partial bijections acting on its own ground set."""
    domains = {e: frozenset(S.labels[e].domain) for e in S.idempotents}
    table = {}
    for s in S.elements():
        pb = S.labels[s]
        ss = S.mul[S.inv[s]][s]
        for x in domains[ss]:
            table[(s, x)] = dict(pb.pairs)[x]
    action = FiniteAction(S, ground_size, domains, table)
    action.validate()
    return action


def test_natural_action_is_the_pair_groupoid():
    # germs of all partial bijections acting on n points: n^2 arrows, all
    # determined by (source point, target point)
    for n in (2, 3):
        S = close(list(all_partial_bijections(n)))
        G = build_germs(natural_action(S, n))
        assert len(G) == n * n
        assert len(G.units) == n
        assert G.is_principal()
        assert check_germ_counts(natural_action(S, n), G) == (n * n, n, n)
        ok, certificate = check_fixed_point_germ_laws(natural_action(S, n))
        assert ok, certificate


def test_composition_is_representative_independent():
    S = close(list(all_partial_bijections(2)))
    action = natural_action(S, 2)
    G = build_germs(action)
    pairs = action.germ_pairs()
    for t, x in pairs:
        c2, tx = G.germ(t, x).class_id, action.act(t, x)
        for s, y in pairs:
            if y == tx:
                c12 = G.compose(G.germ(s, y).class_id, c2)
                assert G.germ(S.mul[s][t], x).class_id == c12


def random_pb(n, rng):
    pts = list(range(n))
    k = rng.randint(0, n)
    return PartialBijection(n, dict(zip(rng.sample(pts, k), rng.sample(pts, k))))


def test_random_closure_sweep():
    rng = random.Random(20260808)
    for trial in range(25):
        n = rng.randint(1, 4)
        gens = [random_pb(n, rng) for _ in range(rng.randint(1, 3))]
        S = close(gens, budget=800)
        assert verify_inverse_semigroup(S).ok, trial
        for s in S.elements():
            for t in S.elements():
                assert S.leq(s, t) == any(S.mul[t][e] == s for e in S.idempotents)
            verdict = hausdorff_criterion(S, s)
            assert S.up_set(verdict.witness, "geq") == verdict.j_set
        action = left_translation_action(S)
        G = build_germs(action)
        assert G.is_principal() and G.is_effective() and G.is_essentially_principal()
        check_germ_counts(action, G)
        check_germ_counts(natural_action(S, n))
        ok, certificate = check_fixed_point_germ_laws(action)
        assert ok, (trial, certificate)
        assert check_fixed_points_are_ideal_union(S)


def test_multiplication_preserves_compatibility(i2):
    # the distributivity scan relies on translates of compatible sets
    # staying compatible; check it outright
    for s in i2.elements():
        for a in i2.elements():
            for b in i2.elements():
                if compatible(i2, a, b):
                    assert compatible(i2, i2.mul[s][a], i2.mul[s][b])
                    assert compatible(i2, i2.mul[a][s], i2.mul[b][s])
