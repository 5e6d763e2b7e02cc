import pytest

from invsemi import (
    ContractViolation,
    FiniteInverseSemigroup,
    HAUSDORFF_WITNESS,
    hausdorff_criterion,
    is_e_star_unitary,
    verify_inverse_semigroup,
)
from invsemi.symbolic import graphs
from invsemi.symbolic.graphs import DirectedGraph, Path, PathPairElement


@pytest.fixture(scope="module")
def g():
    return graphs.fixture_graph()


@pytest.fixture(scope="module")
def pool(g):
    return graphs.element_pool(g, 3)


def test_fixture_graph_shape(g):
    assert g.vertex_count == 2
    assert len(g.edges) == 3


def test_idempotent_product(g):
    p = Path(g, 0, (1,))
    pp = PathPairElement(g, p, p)
    assert pp.is_idempotent()
    assert pp * pp == pp


def test_extension_product(g):
    # (a a*)(ab (ab)*) = ab (ab)* with a = e2 (0->1), b = e3 (1->0)
    a = Path(g, 0, (1,))
    ab = Path(g, 0, (1, 2))
    aa = PathPairElement(g, a, a)
    abab = PathPairElement(g, ab, ab)
    assert aa * abab == abab
    assert abab * aa == abab  # reverse extension rule


def test_disjoint_branches_give_zero(g):
    loop = Path(g, 0, (0,))
    hop = Path(g, 0, (1,))
    s = PathPairElement(g, loop, loop)
    t = PathPairElement(g, hop, hop)
    assert (s * t).is_zero
    assert (t * s).is_zero


def test_zero_absorbs(g, pool):
    z = PathPairElement.zero(g)
    assert z in graphs.element_pool(g, 2)
    for s in pool[:40]:
        assert (s * z).is_zero
        assert (z * s).is_zero


def test_vertex_idempotents_exist(g):
    v0 = PathPairElement.vertex(g, 0)
    assert v0.is_idempotent()
    e = Path(g, 0, (1,))
    ee = PathPairElement(g, e, e)
    # trivial path at 0 dominates everything starting at 0
    assert v0 * ee == ee


def test_generalized_inverse_laws(pool):
    for a in pool:
        ainv = a.inverse()
        assert a * ainv * a == a
        assert ainv * a * ainv == ainv


def test_associativity_on_pool(g):
    small = graphs.element_pool(g, 2)
    for a in small:
        for b in small:
            ab = a * b
            for c in small:
                assert ab * c == a * (b * c)


def test_idempotents_are_pp_or_zero(pool):
    for s in pool:
        if s.is_idempotent():
            assert s.is_zero or s.p == s.q
        assert s.is_idempotent() == (s * s == s)


def test_e_star_unitarity_scan(pool):
    idems = [e for e in pool if e.is_idempotent() and not e.is_zero]
    for s in pool:
        if s.is_idempotent():
            continue
        for e in idems:
            assert s * e != e, (str(s), str(e))


def test_criterion_idempotent(g):
    p = Path(g, 0, (1,))
    s = PathPairElement(g, p, p)
    report = graphs.criterion(s)
    assert report.verdict == HAUSDORFF_WITNESS
    assert report.witness == (s,)


def test_criterion_proper_pair(g):
    p = Path(g, 0, (1, 2))
    q = Path(g, 0, (0,))
    s = PathPairElement(g, p, q)
    report = graphs.criterion(s)
    assert report.witness == (PathPairElement.zero(g),)


def test_criterion_zero(g):
    report = graphs.criterion(PathPairElement.zero(g))
    assert report.witness == (PathPairElement.zero(g),)


def test_criterion_witness_sizes(pool):
    for s in pool:
        report = graphs.criterion(s)
        assert report.verdict == HAUSDORFF_WITNESS
        assert len(report.witness) <= 1


def acyclic_closure():
    """A single-edge graph has a finite, closed path-pair semigroup."""
    g = DirectedGraph(2, ((0, 1),))
    elements = list(graphs.element_pool(g, 1))
    index = {el: i for i, el in enumerate(elements)}
    mul = [[index[a * b] for b in elements] for a in elements]
    return FiniteInverseSemigroup(mul, labels=elements), elements


def test_acyclic_graph_closes_to_inverse_semigroup():
    S, elements = acyclic_closure()
    assert S.order == 6
    assert verify_inverse_semigroup(S).ok
    assert S.zero == elements.index(PathPairElement.zero(elements[0].graph))


def test_acyclic_closure_cross_family_agreement():
    # the table operations and the symbolic calculus must agree everywhere
    S, elements = acyclic_closure()
    index = {el: i for i, el in enumerate(elements)}
    for a in elements:
        for b in elements:
            assert S.mul[index[a]][index[b]] == index[a * b]
    for a in elements:
        assert S.inv[index[a]] == index[a.inverse()]
        assert (index[a] in S.idempotents) == a.is_idempotent()
        for b in elements:
            assert S.leq(index[a], index[b]) == (b * (a.inverse() * a) == a)
    assert is_e_star_unitary(S).ok
    for a in elements:
        table_verdict = hausdorff_criterion(S, index[a])
        family_report = graphs.criterion(a)
        assert {elements[f] for f in table_verdict.witness} == set(family_report.witness)


def test_path_validation(g):
    with pytest.raises(ContractViolation):
        Path(g, 1, (0,))  # edge 0 starts at vertex 0
    with pytest.raises(ContractViolation):
        Path(g, 0, (5,))
    with pytest.raises(ContractViolation):
        PathPairElement(g, Path(g, 0, (0,)), Path(g, 0, (1,)))  # ends differ


def test_parse_round_trip(g):
    s = graphs.parse(g, "p=e2.e3,q=e1")
    assert str(s) == "p=e2.e3,q=e1"
    assert graphs.parse(g, "zero").is_zero
    v = graphs.parse(g, "v1")
    assert v == PathPairElement.vertex(g, 1)
    single = graphs.parse(g, "e1")
    assert single.p == single.q == Path(g, 0, (0,))
    with pytest.raises(Exception):
        graphs.parse(g, "p=e9,q=e1")
    with pytest.raises(Exception):
        graphs.parse(g, "p=e1")
    with pytest.raises(Exception):
        graphs.parse(g, "p=e2,q=e1")  # terminal vertices differ
