import pytest

from invsemi import (
    DOWN,
    HAUSDORFF_WITNESS,
    REFUTED,
    ContractViolation,
    hausdorff_criterion,
    verify_inverse_semigroup,
)
from invsemi.symbolic import atomflip
from invsemi.symbolic.atomflip import FLIP, SQUARE, ZERO, atom
from oracles import lower_set_scan, maximal_elements_scan


def test_multiplication_table_rules():
    assert FLIP * FLIP == SQUARE
    assert FLIP * SQUARE == SQUARE * FLIP == FLIP
    assert SQUARE * SQUARE == SQUARE
    assert FLIP * atom(3) == atom(3) * FLIP == atom(3)
    assert SQUARE * atom(3) == atom(3) * SQUARE == atom(3)
    assert atom(1) * atom(1) == atom(1)
    assert atom(1) * atom(2) == ZERO
    for el in (ZERO, FLIP, SQUARE, atom(5)):
        assert el * ZERO == ZERO * el == ZERO
        assert el.inverse() == el


def test_truncation_sizes_and_validity():
    for n in range(7):
        S = atomflip.truncation(n)
        assert S.order == n + 3
        assert verify_inverse_semigroup(S).ok
        assert S.zero == 0
        assert S.labels[0] == ZERO


def test_truncation_zero_atoms_is_group_with_zero():
    S = atomflip.truncation(0)
    assert S.order == 3
    # removing the zero leaves the two-element group {square, flip}
    flip, square = 1, 2
    assert S.mul[flip][flip] == square
    assert S.mul[square][flip] == flip
    assert S.idempotents == frozenset({0, 2})


def test_atoms_form_antichain():
    S = atomflip.truncation(4)
    atoms = [i for i, el in enumerate(S.labels) if el.kind == "atom"]
    for a in atoms:
        for b in atoms:
            assert S.leq(a, b) == (a == b)
    # zero sits below every atom; square sits above
    square = next(i for i, el in enumerate(S.labels) if el == SQUARE)
    for a in atoms:
        assert S.leq(S.zero, a)
        assert S.leq(a, square)


def test_criterion_infinite_flip_refuted():
    report = atomflip.criterion(FLIP)
    assert report.verdict == REFUTED
    assert report.witness is None
    chain = report.antichain
    assert chain is not None
    members = [chain.member(i) for i in range(1, 9)]
    assert len(set(members)) == 8
    for i, a in enumerate(members):
        assert a.is_idempotent()
        assert FLIP * a == a          # members lie in J_flip
        for b in members[i + 1:]:
            assert a * b == ZERO      # pairwise orthogonal


def test_antichain_members_maximal_in_truncations():
    for n in (2, 5):
        S = atomflip.truncation(n)
        flip = next(i for i, el in enumerate(S.labels) if el == FLIP)
        jset = S.j_set(flip)
        atoms = {i for i, el in enumerate(S.labels) if el.kind == "atom"}
        assert jset == atoms | {S.zero}
        assert set(maximal_elements_scan(S, jset)) == atoms
        # the only idempotents below an atom are the atom and zero
        for a in atoms:
            assert S.up_set({a}, DOWN) == lower_set_scan(S, a) == frozenset({a, S.zero})


def test_criterion_truncation_witness_is_the_atoms():
    for n in (1, 3, 6):
        report = atomflip.criterion(FLIP, truncation_atoms=n)
        assert report.verdict == HAUSDORFF_WITNESS
        assert set(report.witness) == {atom(i) for i in range(1, n + 1)}
    report = atomflip.criterion(FLIP, truncation_atoms=0)
    assert report.witness == (ZERO,)


def test_criterion_matches_table_criterion():
    for n in (0, 2, 4):
        S = atomflip.truncation(n)
        for i, el in enumerate(S.labels):
            table = hausdorff_criterion(S, i)
            family = atomflip.criterion(el, truncation_atoms=n)
            assert family.verdict == table.verdict
            assert set(family.witness) == {S.labels[f] for f in table.witness}


def test_criterion_idempotents():
    assert atomflip.criterion(SQUARE).witness == (SQUARE,)
    assert atomflip.criterion(ZERO).witness == (ZERO,)
    assert atomflip.criterion(atom(7)).witness == (atom(7),)


def test_cross_family_table_agreement():
    S = atomflip.truncation(3)
    index = {el: i for i, el in enumerate(S.labels)}
    for a in S.labels:
        for b in S.labels:
            assert S.mul[index[a]][index[b]] == index[a * b]
        assert S.inv[index[a]] == index[a.inverse()]
        assert (index[a] in S.idempotents) == a.is_idempotent()


def test_element_outside_truncation_rejected():
    with pytest.raises(ContractViolation):
        atomflip.criterion(atom(9), truncation_atoms=3)


def test_parse():
    assert atomflip.parse("flip") == FLIP
    assert atomflip.parse(" SQUARE ") == SQUARE
    assert atomflip.parse("atom:12") == atom(12)
    with pytest.raises(Exception):
        atomflip.parse("atom:x")
    with pytest.raises(Exception):
        atomflip.parse("blorp")
