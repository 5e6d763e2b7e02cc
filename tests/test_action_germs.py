from pathlib import Path

import pytest

from invsemi import (
    ContractViolation,
    FiniteAction,
    build_germs,
    check_fixed_point_germ_laws,
    check_fixed_points_are_ideal_union,
    fixed_sets,
    germ_equiv_oracle,
    left_translation_action,
)
from conftest import check_germ_counts, make_chain, product_or_none
from invsemi.formats import load_action
from invsemi.symbolic import atomflip


def chain2():
    return make_chain(2)


def test_left_translation_group(z2):
    action = left_translation_action(z2)
    action.validate()
    ident = z2.inv[0] if z2.idempotents == {z2.mul[0][z2.inv[0]]} else None
    e = next(iter(z2.idempotents))
    assert action.domain_of[e] == frozenset(z2.elements())
    g = next(s for s in z2.elements() if s != e)
    assert action.act(g, e) == g and action.act(g, g) == e


def test_left_translation_chain():
    S = chain2()
    action = left_translation_action(S)
    action.validate()
    assert action.domain_of[0] == frozenset({0, 1})
    assert action.domain_of[1] == frozenset({1})
    assert action.act(0, 1) == 1  # restriction of the identity


def test_left_translation_zero_domain(i2):
    action = left_translation_action(i2)
    action.validate()
    assert action.domain_of[i2.zero] == frozenset({i2.zero})


def test_act_rejects_pairs_outside_the_domain(i2):
    action = left_translation_action(i2)
    # the row of s has an entry at every x, but only x in D_{s*s} is read
    s, x = next((s, x) for s in i2.elements() for x in i2.elements()
                if x not in action.domain(s))
    with pytest.raises(ContractViolation, match="undefined at point"):
        action.act(s, x)
    for s in (-1, i2.order):
        with pytest.raises(ContractViolation, match="undefined at point"):
            action.act(s, 0)


def test_pair_table_must_match_the_domains_exactly(z2):
    e = next(iter(z2.idempotents))
    g = next(s for s in z2.elements() if s != e)
    domains = {e: frozenset({0})}
    for table, stray in (({(e, 0): 0, (g, 0): 0, (g, 1): 1}, [(g, 1)]),
                         ({(e, 0): 0}, [(g, 0)]),
                         ({(e, 0): 0, (g, 0): 0, (2, 0): 0}, [(2, 0)])):
        with pytest.raises(ContractViolation) as exc:
            FiniteAction(z2, 2, domains, table)
        assert str(exc.value) == f"action table domain mismatch near {stray}"


def test_all_fixture_actions_validate(all_fixtures):
    for name, S in all_fixtures.items():
        left_translation_action(S).validate()


def test_action_validation_catches_bad_data(z2):
    e = next(iter(z2.idempotents))
    g = next(s for s in z2.elements() if s != e)
    domains = {e: frozenset({0, 1})}
    # g collapsing both points is not a bijection of D_e
    squash = FiniteAction(z2, 2, domains,
                          {(e, 0): 0, (e, 1): 1, (g, 0): 0, (g, 1): 0})
    with pytest.raises(ContractViolation):
        squash.validate()
    # an idempotent must act as the identity on its domain
    crooked = FiniteAction(z2, 2, domains,
                           {(e, 0): 1, (e, 1): 0, (g, 0): 0, (g, 1): 1})
    with pytest.raises(ContractViolation):
        crooked.validate()
    # domains must respect the order: D_e1 inside D_e0 when e1 <= e0
    chain = make_chain(2)
    lopsided = FiniteAction(chain, 2,
                            {0: frozenset({0}), 1: frozenset({0, 1})},
                            {(0, 0): 0, (1, 0): 0, (1, 1): 1})
    with pytest.raises(ContractViolation):
        lopsided.validate()


def test_germ_count_group_squared(z2, z3):
    for G_group in (z2, z3):
        groupoid = build_germs(left_translation_action(G_group))
        assert len(groupoid) == G_group.order ** 2
        assert len(groupoid.units) == G_group.order


def test_z2_groupoid_shape(z2):
    G = build_germs(left_translation_action(z2))
    assert len(G) == 4
    assert len(G.units) == 2
    # one arrow each way between the two units, nothing else
    non_units = [c for c in range(len(G)) if c not in G.units]
    assert len(non_units) == 2
    a, b = non_units
    assert G.source[a] != G.target[a]
    assert {G.source[a], G.target[a]} == {G.source[b], G.target[b]} == G.units
    assert G.inverse[a] == b


def test_chain_groupoid_collapses_to_units():
    S = chain2()
    action = left_translation_action(S)
    G = build_germs(action)
    assert len(G) == 2
    assert G.units == frozenset(range(2))
    # the pairs (e0 acting on e1) and (e1 acting on e1) share a germ
    assert G.germ(0, 1) == G.germ(1, 1)


def test_germ_lookup(z2):
    G = build_germs(left_translation_action(z2))
    for s, x in left_translation_action(z2).germ_pairs():
        germ = G.germ(s, x)
        assert (germ.rep_element, germ.point) == G.reps[germ.class_id]
        assert germ.point == x
    with pytest.raises(ContractViolation):
        G.germ(0, 99)
    with pytest.raises(ContractViolation):
        G.germ(-1, 0)  # not read as the last element


def test_germ_equiv_oracle_examples(z2):
    S = chain2()
    action = left_translation_action(S)
    assert germ_equiv_oracle(action, 0, 1, 1)
    assert germ_equiv_oracle(action, 0, 0, 0)
    za = left_translation_action(z2)
    e = next(iter(z2.idempotents))
    g = next(s for s in z2.elements() if s != e)
    assert not germ_equiv_oracle(za, g, e, e)
    with pytest.raises(ContractViolation):
        germ_equiv_oracle(action, 1, 1, 0)  # 0 outside D_{e1}


def test_union_find_matches_oracle(all_fixtures):
    for name, S in all_fixtures.items():
        action = left_translation_action(S)
        G = build_germs(action)
        by_point = {}
        for s, x in action.germ_pairs():
            by_point.setdefault(x, []).append(s)
        for x, elements in by_point.items():
            for i, s in enumerate(elements):
                for t in elements[i + 1:]:
                    same = G.germ(s, x) == G.germ(t, x)
                    assert same == germ_equiv_oracle(action, s, t, x), (name, s, t, x)


def test_groupoid_axioms(all_fixtures):
    for name, S in all_fixtures.items():
        G = build_germs(left_translation_action(S))
        n = len(G)
        for c in range(n):
            assert G.source[c] in G.units and G.target[c] in G.units
            inv = G.inverse[c]
            assert G.inverse[inv] == c
            assert G.compose(c, inv) == G.target[c]
            assert G.compose(inv, c) == G.source[c]
        for c1 in range(n):
            for c2 in range(n):
                c12 = product_or_none(G, c1, c2)
                assert (c12 is not None) == (G.source[c1] == G.target[c2]), name
                if c12 is None:
                    continue
                assert G.source[c12] == G.source[c2]
                assert G.target[c12] == G.target[c1]
                for c3 in range(n):
                    if G.source[c2] == G.target[c3]:
                        assert G.compose(c12, c3) == G.compose(c1, G.compose(c2, c3))


def test_germ_structure_identities(all_fixtures):
    # [s, act(t, x)][t, x] = [s t, x] and [s, x]^-1 = [s*, act(s, x)]
    for name, S in all_fixtures.items():
        action = left_translation_action(S)
        G = build_germs(action)
        for t, x in action.germ_pairs():
            y = action.act(t, x)
            c_tx = G.germ(t, x).class_id
            assert G.inverse[c_tx] == G.germ(S.inv[t], y).class_id
            for s in S.elements():
                if y in action.domain(s):
                    left = G.germ(s, y).class_id
                    assert G.compose(left, c_tx) == G.germ(S.mul[s][t], x).class_id, name


def test_unit_identification(all_fixtures):
    for name, S in all_fixtures.items():
        action = left_translation_action(S)
        G = build_germs(action)
        assert G.units == {G.germ(s, x).class_id for s, x in action.germ_pairs()
                           if s in S.idempotents}
        covered = {x for x in range(action.space_size)
                   if action.idempotents_at(x)}
        assert {G.points[u] for u in G.units} == covered
        assert len(covered) == len(G.units)  # units <-> points, injectively


def test_principal_filter_collapse(all_fixtures):
    # a fixed pair (s, x) always lands in a unit class under left translation
    for name, S in all_fixtures.items():
        action = left_translation_action(S)
        G = build_germs(action)
        for s, x in action.germ_pairs():
            if action.act(s, x) == x:
                assert G.germ(s, x).class_id in G.units, (name, s, x)


def test_fixed_sets_examples(z2):
    S = atomflip.truncation(2)
    action = left_translation_action(S)
    flip = next(i for i, el in enumerate(S.labels) if el == atomflip.FLIP)
    f_s, tf_s = fixed_sets(action, flip)
    fixed = {i for i, el in enumerate(S.labels) if el.kind in ("zero", "atom")}
    assert f_s == tf_s == frozenset(fixed)

    za = left_translation_action(z2)
    e = next(iter(z2.idempotents))
    g = next(s for s in z2.elements() if s != e)
    assert fixed_sets(za, g) == (frozenset(), frozenset())


def test_fixed_sets_idempotent_lower_bound(all_fixtures):
    for name, S in all_fixtures.items():
        action = left_translation_action(S)
        for e in S.idempotents:
            f_s, tf_s = fixed_sets(action, e)
            assert action.domain_of[e] <= f_s
            assert action.domain_of[e] <= tf_s


def test_fixed_equals_trivially_fixed(all_fixtures):
    for name, S in all_fixtures.items():
        action = left_translation_action(S)
        for s in S.elements():
            f_s, tf_s = fixed_sets(action, s)
            assert f_s == tf_s, (name, s)


def test_fixed_point_germ_laws(all_fixtures):
    for name, S in all_fixtures.items():
        ok, certificate = check_fixed_point_germ_laws(left_translation_action(S))
        assert ok, (name, certificate)


def test_fixed_points_are_ideal_union(all_fixtures):
    for name, S in all_fixtures.items():
        assert check_fixed_points_are_ideal_union(S), name


def test_principal_effective_essential(all_fixtures):
    for name, S in all_fixtures.items():
        action = left_translation_action(S)
        G = build_germs(action)
        assert G.is_principal(), name
        assert G.is_effective(), name
        assert G.is_essentially_principal(), name
        assert check_germ_counts(action, G) == (len(G), S.order, S.order), name


def test_isotropy_equals_units_for_self_actions(all_fixtures):
    for name, S in all_fixtures.items():
        G = build_germs(left_translation_action(S))
        assert G.isotropy() == G.units, name


def test_non_principal_point_action(z2):
    # Z/2 crushing a single point: the flip germ is isotropy but not a unit
    e = next(iter(z2.idempotents))
    g = next(s for s in z2.elements() if s != e)
    action = FiniteAction(z2, 1, {e: frozenset({0})}, {(e, 0): 0, (g, 0): 0})
    action.validate()
    G = build_germs(action)
    assert len(G) == 2 and len(G.units) == 1
    assert not G.is_principal()
    assert not G.is_effective()
    assert not G.is_essentially_principal()
    assert G.isotropy() == frozenset(range(2))
    assert check_germ_counts(action, G) == (2, 1, 2)
    # the same action as a file
    path = Path(__file__).parent / "data" / "z2_point_action.json"
    assert check_germ_counts(load_action(path)) == (2, 1, 2)


def test_clopen_cover_transport(all_fixtures):
    # a finite-cover witness F computed on the table covers the trivially
    # fixed points of any clopen (here: any finite) action domain-wise
    from invsemi import hausdorff_criterion

    for name, S in all_fixtures.items():
        action = left_translation_action(S)
        for s in S.elements():
            F = hausdorff_criterion(S, s).witness
            _, tf_s = fixed_sets(action, s)
            union_f = set()
            for f in F:
                union_f |= action.domain_of[f]
            assert tf_s == frozenset(union_f), (name, s)


def test_empty_domain_elements_contribute_no_germs():
    # D_e1 empty is a valid action; e1 then owns no germ pairs at all
    chain = make_chain(2)
    action = FiniteAction(chain, 1,
                          {0: frozenset({0}), 1: frozenset()},
                          {(0, 0): 0})
    action.validate()
    assert action.germ_pairs() == [(0, 0)]
    G = build_germs(action)
    assert len(G) == 1 and G.units == frozenset({0})
    assert check_germ_counts(action, G) == (1, 1, 1)


def test_empty_action_empty_groupoid(z2):
    e = next(iter(z2.idempotents))
    g = next(s for s in z2.elements() if s != e)
    action = FiniteAction(z2, 0, {e: frozenset()}, {})
    action.validate()
    G = build_germs(action)
    assert len(G) == 0
    assert G.is_principal() and G.is_effective() and G.is_essentially_principal()
    assert check_germ_counts(action, G) == (0, 0, 0)
