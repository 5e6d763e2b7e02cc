import pytest

from invsemi import (
    DOWN,
    UP,
    BudgetExceeded,
    ContractViolation,
    FiniteInverseSemigroup,
    PartialBijection,
    all_partial_bijections,
    close,
    count_partial_bijections,
    verify_inverse_semigroup,
)
from conftest import element_index, make_chain
from oracles import brute_close, leq_via_idempotent


def test_close_symmetric_inverse_monoids(i2, i3):
    assert i2.order == count_partial_bijections(2) == 7
    assert i3.order == count_partial_bijections(3) == 34


def test_close_matches_brute_force_oracle():
    gens = [PartialBijection(2, {0: 1, 1: 0}), PartialBijection(2, {0: 0})]
    S = close(gens)
    assert set(S.labels) == brute_close(gens)


def test_close_trivial_generator():
    S = close([PartialBijection(1, {0: 0})])
    assert S.order == 1
    assert S.idempotents == frozenset({0})


def test_close_deterministic():
    gens = [PartialBijection(3, {0: 1, 1: 2, 2: 0}), PartialBijection(3, {0: 0})]
    a = close(gens)
    b = close(gens)
    assert a.mul == b.mul
    assert a.labels == b.labels


def test_close_budget():
    gens = list(all_partial_bijections(3))
    with pytest.raises(BudgetExceeded) as exc:
        close(gens, budget=10)
    assert exc.value.budget == 10
    assert "10" in str(exc.value)


def test_close_empty_generators():
    with pytest.raises(ContractViolation):
        close([])


def test_verify_accepts_fixtures(all_fixtures):
    for name, S in all_fixtures.items():
        result = verify_inverse_semigroup(S)
        assert result.ok, f"{name}: {result}"


def test_verify_rejects_left_zero(left_zero_table):
    result = verify_inverse_semigroup(left_zero_table)
    assert not result.ok
    assert result.reason == "inverse-uniqueness"
    s, candidates = result.certificate
    assert candidates == (0, 1)
    assert left_zero_table.inv is None


def test_verify_rejects_broken_associativity():
    # a 3-element table that is not associative
    S = FiniteInverseSemigroup([[0, 1, 2], [1, 2, 2], [2, 2, 1]])
    result = verify_inverse_semigroup(S)
    if not result.ok and result.reason == "associativity":
        a, b, c = result.certificate
        ab = S.mul[a][b]
        bc = S.mul[b][c]
        assert S.mul[ab][c] != S.mul[a][bc]
    else:
        assert not result.ok


def test_one_element_semigroup():
    S = FiniteInverseSemigroup([[0]])
    assert verify_inverse_semigroup(S).ok
    assert S.zero == 0
    assert S.is_group


def test_natural_leq_examples(i2):
    id0 = element_index(i2, PartialBijection(2, {0: 0}))
    id01 = element_index(i2, PartialBijection.identity(2))
    move = element_index(i2, PartialBijection(2, {0: 1}))
    assert i2.leq(id0, id01)
    assert not i2.leq(id01, id0)
    assert not i2.leq(move, id01)
    for s in i2.elements():
        assert i2.leq(s, s)


def test_leq_matches_idempotent_characterization(all_fixtures):
    for name, S in all_fixtures.items():
        for s in S.elements():
            for t in S.elements():
                assert S.leq(s, t) == leq_via_idempotent(S, s, t), (name, s, t)


def test_leq_transitive_antisymmetric(i2):
    for a in i2.elements():
        for b in i2.elements():
            if i2.leq(a, b) and i2.leq(b, a):
                assert a == b
            for c in i2.elements():
                if i2.leq(a, b) and i2.leq(b, c):
                    assert i2.leq(a, c)


def test_up_set_examples(i2):
    assert i2.up_set([], UP) == frozenset()
    assert i2.up_set([], DOWN) == frozenset()
    id01 = element_index(i2, PartialBijection.identity(2))
    # everything below the full identity is exactly the idempotents
    assert i2.up_set([id01], DOWN) == i2.idempotents
    everything = frozenset(i2.elements())
    assert i2.up_set(everything, UP) == everything
    assert i2.up_set(everything, DOWN) == everything


def test_up_set_closure_operator(i2):
    a = {element_index(i2, PartialBijection(2, {0: 0}))}
    once = i2.up_set(a, UP)
    assert a <= once
    assert i2.up_set(once, UP) == once
    down = i2.up_set(a, DOWN)
    assert i2.up_set(down, DOWN) == down


def test_up_set_bad_relation(i2):
    with pytest.raises(ContractViolation):
        i2.up_set([0], "sideways")


def test_zero_detection(i2, z2):
    empty = element_index(i2, PartialBijection(2, {}))
    assert i2.zero == empty
    assert z2.zero is None
    for x in i2.elements():
        assert i2.mul[i2.zero][x] == i2.zero == i2.mul[x][i2.zero]


def test_group_detection(z2, z3, i2):
    assert z2.is_group and z2.order == 2
    assert z3.is_group and z3.order == 3
    assert not i2.is_group


def test_idempotents_commute(all_fixtures):
    for name, S in all_fixtures.items():
        for e in S.idempotents:
            for f in S.idempotents:
                assert S.mul[e][f] == S.mul[f][e], name


def test_elements_below_idempotent_are_idempotent(all_fixtures):
    for name, S in all_fixtures.items():
        for e in S.idempotents:
            for s in S.up_set({e}, DOWN):
                assert s in S.idempotents, (name, s, e)


def test_inverse_uniqueness_on_fixtures(all_fixtures):
    for name, S in all_fixtures.items():
        for s in S.elements():
            candidates = [t for t in S.elements()
                          if S.mul[S.mul[s][t]][s] == s and S.mul[S.mul[t][s]][t] == t]
            assert candidates == [S.inv[s]], name


def test_idempotents_form_a_semilattice(all_fixtures):
    # closed under products, and on idempotents e <= f iff e f = e
    for name, S in all_fixtures.items():
        for e in S.idempotents:
            for f in S.idempotents:
                assert S.mul[e][f] in S.idempotents, name
                assert S.leq(e, f) == (S.mul[e][f] == e), name


def test_chain_semilattice_structure():
    chain = make_chain(4)
    assert verify_inverse_semigroup(chain).ok
    assert chain.idempotents == frozenset(range(4))
    # order is the reverse of the index order: e0 on top
    for i in range(4):
        for j in range(4):
            assert chain.leq(i, j) == (i >= j)


def test_mul_table_shape_checks():
    with pytest.raises(ContractViolation):
        FiniteInverseSemigroup([[0, 1], [0]])
    with pytest.raises(ContractViolation):
        FiniteInverseSemigroup([[0, 2], [1, 0]])
    with pytest.raises(ContractViolation):
        FiniteInverseSemigroup([[0]], labels=["a", "b"])
