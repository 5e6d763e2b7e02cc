"""The contract of the package's records and symbolic elements.

Results are immutable, the pass/fail results are truthy exactly when
they pass, the symbolic elements validate their fields with fixed
messages, and equal values hash equal.  None of this depends on how a
record is declared.
"""

import pytest

from invsemi import (AntichainWitness, CompletenessResult, ContractViolation, CriterionVerdict,
                     Germ, SymbolicCriterionReport, UnitaryCheck, VerificationResult)
from invsemi.symbolic.atomflip import AtomFlipElement, atom
from invsemi.symbolic.graphs import DirectedGraph, Path, PathPairElement
from invsemi.symbolic.munn import MunnTreeElement

GRAPH = DirectedGraph(2, ((0, 0), (0, 1), (1, 0)))


def _values():
    """One value of each record and element type, with a field to assign."""
    return [
        (VerificationResult(True), "ok"),
        (CriterionVerdict(0, frozenset({0}), (0,), "HAUSDORFF_WITNESS"), "witness"),
        (CompletenessResult(True), "certificate"),
        (UnitaryCheck(True, "E*-unitary"), "witness"),
        (Germ(0, 0, 0), "class_id"),
        (AntichainWitness("atoms", atom), "description"),
        (SymbolicCriterionReport("munn", "1", "empty", "HAUSDORFF_WITNESS", ()), "verdict"),
        (atom(1), "index"),
        (GRAPH, "edges"),
        (Path(GRAPH, 0, (1,)), "start"),
        (PathPairElement.vertex(GRAPH, 0), "p"),
        (MunnTreeElement.identity(2), "endpoint"),
    ]


@pytest.mark.parametrize("value, field", _values(),
                         ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_a_field_cannot_be_assigned(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    assert getattr(value, field) == before


@pytest.mark.parametrize("cls", [VerificationResult, CompletenessResult, UnitaryCheck])
def test_truth_follows_ok(cls):
    extra = ("E-unitary",) if cls is UnitaryCheck else ()
    assert bool(cls(True, *extra)) is True
    assert bool(cls(False, *extra)) is False


def test_an_antichain_witness_is_compared_by_its_description():
    a = AntichainWitness("atoms", atom)
    b = AntichainWitness("atoms", lambda i: atom(i + 1))
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != AntichainWitness("other atoms", atom)
    fields = ("atomflip", "flip", "zero and atoms", "REFUTED", None)
    assert SymbolicCriterionReport(*fields, a) == SymbolicCriterionReport(*fields, b)


@pytest.mark.parametrize("make, message", [
    (lambda: AtomFlipElement("bogus"), "unknown atom-flip kind 'bogus'"),
    (lambda: AtomFlipElement("atom"), "exactly the atoms carry an index"),
    (lambda: AtomFlipElement("flip", 1), "exactly the atoms carry an index"),
    (lambda: AtomFlipElement("atom", 0), "atom indices start at 1"),
    (lambda: DirectedGraph(0, ()), "graph needs at least one vertex"),
    (lambda: DirectedGraph(2, [(0, 2)]), "edge (0, 2) outside vertex range"),
    (lambda: Path(GRAPH, 2, ()), "start vertex 2 outside graph"),
    (lambda: Path(GRAPH, 0, (3,)), "edge index 3 outside graph"),
    (lambda: Path(GRAPH, 0, (2,)), "edge 2 does not continue the path at 0"),
    (lambda: PathPairElement(GRAPH, Path(GRAPH, 0, ()), None),
     "either both paths or neither (zero)"),
    (lambda: PathPairElement(GRAPH, Path(DirectedGraph(1, ()), 0, ()), Path(GRAPH, 0, ())),
     "paths must live on the element's graph"),
    (lambda: PathPairElement(GRAPH, Path(GRAPH, 0, ()), Path(GRAPH, 0, (1,))),
     "paths must share their terminal vertex (0 vs 1)"),
    (lambda: MunnTreeElement(0, [()], ()), "rank must be at least 1"),
    (lambda: MunnTreeElement(2, [(), (3,)], ()), "letter 3 outside rank 2"),
    (lambda: MunnTreeElement(2, [(), (1,), (1, -1)], ()), "vertex (1, -1) is not a reduced word"),
    (lambda: MunnTreeElement(2, [(), (1, 2)], ()), "vertex (1, 2) is missing its parent"),
    (lambda: MunnTreeElement(2, [], ()), "tree must contain the root"),
    (lambda: MunnTreeElement(2, [()], (1,)), "endpoint must be a vertex"),
])
def test_a_symbolic_constructor_names_its_violation(make, message):
    with pytest.raises(ContractViolation) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("a, b", [
    (AtomFlipElement("atom", 3), atom(3)),
    (DirectedGraph(2, [[0, 0], [0, 1], [1, 0]]), GRAPH),
    (Path(GRAPH, 0, [0, 1]), Path(GRAPH, 0, (0,)).concat((1,))),
    (PathPairElement(GRAPH, Path(GRAPH, 1, ()), Path(GRAPH, 0, (1,))),
     PathPairElement(GRAPH, Path(GRAPH, 0, (1,)), Path(GRAPH, 1, ())).inverse()),
    (PathPairElement.zero(GRAPH), PathPairElement(DirectedGraph(2, GRAPH.edges), None, None)),
    (MunnTreeElement(2, [(1,), ()], [1]), MunnTreeElement.from_word(2, [1])),
    (CriterionVerdict(1, frozenset({0, 2}), (2,), "HAUSDORFF_WITNESS"),
     CriterionVerdict(1, frozenset({2, 0}), (2,), "HAUSDORFF_WITNESS")),
], ids=lambda v: type(v).__name__)
def test_equal_values_hash_equal(a, b):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_unequal_elements_differ():
    assert atom(1) != atom(2)
    assert MunnTreeElement.from_word(2, [1]) != MunnTreeElement.from_word(2, [2])
    assert Path(GRAPH, 0, ()) != Path(GRAPH, 1, ())
    assert PathPairElement.zero(GRAPH) != PathPairElement.vertex(GRAPH, 0)
