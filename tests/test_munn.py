import pytest
from hypothesis import given, strategies as st

from invsemi import ContractViolation, HAUSDORFF_WITNESS
from invsemi.symbolic import munn
from oracles import (
    agree_under_all_interpretations,
    invert_word,
    rank1_words,
    separated_by_interpretations,
    wagner_congruence_rank1,
)

letters2 = st.sampled_from([1, -1, 2, -2])
words2 = st.lists(letters2, max_size=6).map(tuple)


def el(word, rank=1):
    return munn.MunnTreeElement.from_word(rank, word)


def test_generator_squared():
    x = munn.MunnTreeElement.generator(1, 1)
    xx = x * x
    assert xx.vertices == frozenset({(), (1,), (1, 1)})
    assert xx.endpoint == (1, 1)


def test_generator_times_inverse():
    x = munn.MunnTreeElement.generator(1, 1)
    prod = x * x.inverse()
    assert prod.vertices == frozenset({(), (1,)})
    assert prod.endpoint == ()
    assert prod.is_idempotent()


def test_idempotent_squares_to_itself():
    e = el((1, -1, 2, -2), rank=2)
    assert e.is_idempotent()
    assert e * e == e


def test_generalized_inverse_laws_on_pool():
    for a in munn.element_pool(1, 3):
        ainv = a.inverse()
        assert a * ainv * a == a
        assert ainv * a * ainv == ainv
        assert ainv.inverse() == a


def test_associativity_on_pool():
    pool = munn.element_pool(1, 4)
    for a in pool:
        for b in pool:
            ab = a * b
            for c in pool:
                assert (ab) * c == a * (b * c)


def test_associativity_rank2_small_pool():
    pool = munn.element_pool(2, 2)
    assert len(pool) == 9
    for a in pool:
        for b in pool:
            ab = a * b
            for c in pool:
                assert (ab) * c == a * (b * c)


def test_e_unitarity_rank1_pool():
    pool = munn.element_pool(1, 4)
    idems = [e for e in pool if e.is_idempotent()]
    for s in pool:
        if s.is_idempotent():
            continue
        for e in idems:
            assert s * e != e, (s, e)


def test_e_unitarity_rank2_pool():
    pool = munn.element_pool(2, 4)
    idems = [e for e in pool if e.is_idempotent()]
    for s in pool:
        if s.is_idempotent():
            continue
        for e in idems:
            assert s * e != e


def test_leq_is_tree_reverse_containment():
    # s <= t iff the trees nest (s's contains t's) with equal endpoint
    pool = munn.element_pool(1, 4)
    for s in pool:
        for t in pool:
            expected = (s.endpoint == t.endpoint and s.vertices >= t.vertices)
            assert (t * (s.inverse() * s) == s) == expected, (s, t)


def test_criterion_non_idempotent():
    report = munn.criterion(el((1,)))
    assert report.verdict == HAUSDORFF_WITNESS
    assert report.witness == ()
    # oracle: no idempotent with at most 3 vertices is fixed by x
    x = el((1,))
    for e in munn.element_pool(1, 3):
        if e.is_idempotent():
            assert x * e != e


def test_criterion_idempotent():
    e = el((1, -1))
    report = munn.criterion(e)
    assert report.witness == (e,)
    f = el((1, -1, 2, -2), rank=2)
    assert munn.criterion(f).witness == (f,)


def test_criterion_witness_covers_bounded_j_set():
    # inside a bounded pool, J_s is exactly the witness's down-set
    pool = munn.element_pool(1, 4)
    for s in pool:
        report = munn.criterion(s)
        j_in_pool = [e for e in pool if e.is_idempotent() and s * e == e]
        for e in j_in_pool:
            assert any(f * (e.inverse() * e) == e for f in report.witness)


def test_multiplication_agrees_with_word_concatenation():
    words = rank1_words(3)
    for u in words:
        for v in words:
            assert el(u) * el(v) == el(u + v)


@given(words2, words2)
def test_word_concatenation_rank2(u, v):
    assert el(u, 2) * el(v, 2) == el(u + v, 2)


@given(words2)
def test_inverse_reverses_words(u):
    assert el(u, 2).inverse() == el(invert_word(u), 2)


@given(words2)
def test_word_idempotent_products(u):
    e = el(u, 2) * el(u, 2).inverse()
    assert e.is_idempotent()
    assert e * e == e
    assert e * el(u, 2) == el(u, 2)


def test_equality_matches_wagner_rewriting_oracle():
    equal_oracle = wagner_congruence_rank1(9)
    words = rank1_words(3)
    for i, u in enumerate(words):
        for v in words[i + 1:]:
            assert (el(u) == el(v)) == equal_oracle(u, v), (u, v)


def test_equality_matches_interpretation_oracle():
    words = rank1_words(3)
    for i, u in enumerate(words):
        for v in words[i + 1:]:
            if el(u) == el(v):
                assert agree_under_all_interpretations(u, v, 2), (u, v)
                assert agree_under_all_interpretations(u, v, 3), (u, v)
            else:
                assert separated_by_interpretations(u, v), (u, v)


def test_pool_sizes():
    assert len(munn.element_pool(1, 1)) == 1  # identity only
    assert len(munn.element_pool(1, 4)) == 30
    assert len(munn.element_pool(2, 3)) == 63


def test_pool_deterministic():
    assert munn.element_pool(2, 3) == munn.element_pool(2, 3)


def test_tree_invariants_enforced():
    with pytest.raises(ContractViolation):
        munn.MunnTreeElement(1, [(1,)], (1,))  # missing root
    with pytest.raises(ContractViolation):
        munn.MunnTreeElement(1, [(), (1, 1)], ())  # missing parent
    with pytest.raises(ContractViolation):
        munn.MunnTreeElement(1, [(), (1, -1)], ())  # unreduced vertex
    with pytest.raises(ContractViolation):
        munn.MunnTreeElement(1, [()], (1,))  # endpoint outside tree
    with pytest.raises(ContractViolation):
        munn.MunnTreeElement(1, [(), (2,)], ())  # letter outside rank


def test_word_parsing_round_trip():
    rank, word = munn.parse_word("x y x^-1")
    assert (rank, word) == (2, (1, 2, -1))
    assert munn.parse_word("x1 x2^-1") == (2, (1, -2))
    assert munn.parse_word("") == (1, ())
    with pytest.raises(Exception):
        munn.parse_word("q")
    with pytest.raises(Exception):
        munn.parse_word("x^2")
