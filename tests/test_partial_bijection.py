import pytest
from hypothesis import given, strategies as st

from invsemi import ContractViolation, PartialBijection, all_partial_bijections, count_partial_bijections


def pb(mapping, n=2):
    return PartialBijection(n, mapping)


def test_identity_composition():
    ident = PartialBijection.identity(2)
    assert ident.compose(ident) == ident


def test_compose_hand_example():
    # f(g(1)) = f(0) = 1; nothing else is defined
    f = pb({0: 1})
    g = pb({1: 0})
    assert f.compose(g) == pb({1: 1})
    # oracle: enumerate every point
    fmap, gmap = dict(f.pairs), dict(g.pairs)
    for x in range(2):
        defined = x in gmap and gmap[x] in fmap
        assert (x in dict(f.compose(g).pairs)) == defined


def test_compose_empty_domain_condition():
    # g lands outside dom(f), so the domain condition empties the result
    f = pb({0: 1})
    g = pb({1: 1})
    assert f.compose(g) == pb({})


def test_compose_ground_mismatch():
    with pytest.raises(ContractViolation):
        pb({0: 1}, n=2).compose(pb({0: 1}, n=3))


def test_invert_examples():
    assert pb({}).invert() == pb({})
    assert PartialBijection(3, {0: 1, 1: 2}).invert() == PartialBijection(3, {1: 0, 2: 1})


def test_invert_gives_partial_identity():
    f = PartialBijection(3, {0: 2, 1: 0})
    assert f.compose(f.invert()) == PartialBijection.identity(3, f.image)
    assert f.invert().compose(f) == PartialBijection.identity(3, f.domain)


def test_rejects_non_injective():
    with pytest.raises(ContractViolation):
        PartialBijection(3, {0: 1, 2: 1})


def test_rejects_duplicate_sources_in_pair_list():
    with pytest.raises(ContractViolation):
        PartialBijection(3, [(0, 1), (0, 2)])


def test_rejects_out_of_range():
    with pytest.raises(ContractViolation):
        PartialBijection(2, {0: 2})


def test_counting():
    for n in range(5):
        assert len(set(all_partial_bijections(n))) == count_partial_bijections(n)
    assert count_partial_bijections(2) == 7
    assert count_partial_bijections(3) == 34


@st.composite
def partial_bijections(draw, n=None, max_ground=5):
    if n is None:
        n = draw(st.integers(min_value=1, max_value=max_ground))
    points = list(range(n))
    dom = draw(st.lists(st.sampled_from(points), unique=True, max_size=n))
    ran = draw(st.permutations(points))
    return PartialBijection(n, {x: ran[i] for i, x in enumerate(dom)})


@given(partial_bijections())
def test_involution(f):
    assert f.invert().invert() == f


@given(st.integers(min_value=1, max_value=4), st.data())
def test_composition_associative(n, data):
    f = data.draw(partial_bijections(n=n))
    g = data.draw(partial_bijections(n=n))
    h = data.draw(partial_bijections(n=n))
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


@given(st.integers(min_value=1, max_value=4), st.data())
def test_antihomomorphism_of_inverse(n, data):
    f = data.draw(partial_bijections(n=n))
    g = data.draw(partial_bijections(n=n))
    assert f.compose(g).invert() == g.invert().compose(f.invert())


@given(partial_bijections())
def test_generalized_inverse_laws(f):
    finv = f.invert()
    assert f.compose(finv).compose(f) == f
    assert finv.compose(f).compose(finv) == finv


@given(partial_bijections())
def test_idempotent_iff_partial_identity(f):
    assert f.is_idempotent() == (f.compose(f) == f)
