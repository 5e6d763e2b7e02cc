"""Graph inverse semigroups: path pairs p q* over a finite directed graph.

A nonzero element is a pair of directed paths with a common terminal
vertex (vertices count as trivial paths, so every vertex contributes an
idempotent v v*).  Products follow the prefix rules

    (p q*)(r t*) = (p r') t*   when r = q . r'
    (p q*)(r t*) = p (t q')*   when q = r . q'

and are zero otherwise.  The family has a zero and is E*-unitary, so the
finite-cover criterion always certifies a witness of size at most one.
"""

from __future__ import annotations

from ..criterion import HAUSDORFF_WITNESS
from ..errors import ContractViolation, ParseError
from . import Frozen, SymbolicCriterionReport

FAMILY = "graph"


class DirectedGraph(Frozen):
    __slots__ = ("vertex_count", "edges")

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, vertex_count: int, edges):
        edges = tuple((s, t) for s, t in edges)
        if vertex_count < 1:
            raise ContractViolation("graph needs at least one vertex")
        for s, t in edges:
            if not (0 <= s < vertex_count and 0 <= t < vertex_count):
                raise ContractViolation(f"edge ({s}, {t}) outside vertex range")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)

    def edge_source(self, i: int) -> int:
        return self.edges[i][0]

    def edge_target(self, i: int) -> int:
        return self.edges[i][1]


class Path(Frozen):
    """A directed path: a start vertex and a chain of edge indices."""

    __slots__ = ("graph", "start", "edge_seq")

    graph: DirectedGraph
    start: int
    edge_seq: tuple[int, ...]

    def __init__(self, graph: DirectedGraph, start: int, edge_seq):
        edge_seq = tuple(edge_seq)
        if not (0 <= start < graph.vertex_count):
            raise ContractViolation(f"start vertex {start} outside graph")
        at = start
        for i in edge_seq:
            if not (0 <= i < len(graph.edges)):
                raise ContractViolation(f"edge index {i} outside graph")
            if graph.edge_source(i) != at:
                raise ContractViolation(f"edge {i} does not continue the path at {at}")
            at = graph.edge_target(i)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "edge_seq", edge_seq)

    @property
    def end(self) -> int:
        if self.edge_seq:
            return self.graph.edge_target(self.edge_seq[-1])
        return self.start

    def __len__(self) -> int:
        return len(self.edge_seq)

    def extends(self, other: "Path") -> bool:
        """True when self = other . rest."""
        return (self.start == other.start
                and self.edge_seq[:len(other.edge_seq)] == other.edge_seq)

    def concat(self, edge_seq: tuple[int, ...]) -> "Path":
        return Path(self.graph, self.start, self.edge_seq + edge_seq)

    def __str__(self) -> str:
        if not self.edge_seq:
            return f"v{self.start}"
        return ".".join(f"e{i + 1}" for i in self.edge_seq)


class PathPairElement(Frozen):
    """p q* with range(p) = range(q), or the distinguished zero (p = q = None)."""

    __slots__ = ("graph", "p", "q")

    graph: DirectedGraph
    p: Path | None
    q: Path | None

    def __init__(self, graph: DirectedGraph, p: Path | None, q: Path | None):
        if (p is None) != (q is None):
            raise ContractViolation("either both paths or neither (zero)")
        if p is not None:
            if p.graph != graph or q.graph != graph:
                raise ContractViolation("paths must live on the element's graph")
            if p.end != q.end:
                raise ContractViolation(
                    f"paths must share their terminal vertex ({p.end} vs {q.end})")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def zero(cls, graph: DirectedGraph) -> "PathPairElement":
        return cls(graph, None, None)

    @classmethod
    def vertex(cls, graph: DirectedGraph, v: int) -> "PathPairElement":
        trivial = Path(graph, v, ())
        return cls(graph, trivial, trivial)

    @property
    def is_zero(self) -> bool:
        return self.p is None

    def is_idempotent(self) -> bool:
        return self.is_zero or self.p == self.q

    def __mul__(self, other: "PathPairElement") -> "PathPairElement":
        return multiply(self, other)

    def inverse(self) -> "PathPairElement":
        if self.is_zero:
            return self
        return PathPairElement(self.graph, self.q, self.p)

    def __str__(self) -> str:
        if self.is_zero:
            return "zero"
        return f"p={self.p},q={self.q}"


def multiply(a: PathPairElement, b: PathPairElement) -> PathPairElement:
    if a.graph != b.graph:
        raise ContractViolation("elements live on different graphs")
    if a.is_zero or b.is_zero:
        return PathPairElement.zero(a.graph)
    q, r = a.q, b.p
    if r.extends(q):
        rest = r.edge_seq[len(q.edge_seq):]
        return PathPairElement(a.graph, a.p.concat(rest), b.q)
    if q.extends(r):
        rest = q.edge_seq[len(r.edge_seq):]
        return PathPairElement(a.graph, a.p, b.q.concat(rest))
    return PathPairElement.zero(a.graph)


def criterion(s: PathPairElement) -> SymbolicCriterionReport:
    """Finite-cover verdict: an idempotent covers itself; a nonzero
    non-idempotent fixes no idempotent but zero, so zero covers."""
    if s.is_idempotent():
        j_set = "zero only" if s.is_zero else "zero and the idempotents r r* with r extending p"
        witness = (s,)
    else:
        j_set, witness = "zero only (the family is E*-unitary)", (PathPairElement.zero(s.graph),)
    return SymbolicCriterionReport(FAMILY, str(s), j_set, HAUSDORFF_WITNESS, witness)


def paths_up_to(graph: DirectedGraph, max_len: int) -> list[Path]:
    """Every path of length at most `max_len`, in a deterministic order."""
    out = [Path(graph, v, ()) for v in range(graph.vertex_count)]
    frontier = list(out)
    for _ in range(max_len):
        grown = []
        for path in frontier:
            for i in range(len(graph.edges)):
                if graph.edge_source(i) == path.end:
                    grown.append(path.concat((i,)))
        out.extend(grown)
        frontier = grown
    return out


def element_pool(graph: DirectedGraph, max_len: int) -> tuple[PathPairElement, ...]:
    """Zero plus all p q* with both path lengths at most `max_len`.

    Not closed under multiplication on graphs with cycles; a
    deterministic element pool for oracle testing.
    """
    paths = paths_up_to(graph, max_len)
    pool = [PathPairElement.zero(graph)]
    for p in paths:
        for q in paths:
            if p.end == q.end:
                pool.append(PathPairElement(graph, p, q))
    return tuple(pool)


def fixture_graph() -> DirectedGraph:
    """Two vertices, three edges (a loop and a 2-cycle); the default
    graph for bounded-pool scans."""
    return DirectedGraph(2, ((0, 0), (0, 1), (1, 0)))


def evaluate(text: str, graph_file: str | None) -> tuple:
    """The element that `text` names on the graph of `graph_file` (the
    fixture graph without one), its `criterion` report, and no pool."""
    from ..formats import load_graph
    element = parse(load_graph(graph_file) if graph_file else fixture_graph(), text)
    return element, criterion(element), ()


def parse_path(graph: DirectedGraph, text: str) -> Path:
    text = text.strip()
    seq = []
    if text.startswith("v") and text[1:].isdecimal():
        start = int(text[1:])
    else:
        for token in text.split("."):
            token = token.strip()
            if not (token.startswith("e") and token[1:].isdecimal() and int(token[1:]) >= 1):
                raise ParseError(f"bad path component {token!r}; use e<k> (1-based) or v<j>")
            seq.append(int(token[1:]) - 1)
        try:
            start = graph.edge_source(seq[0])
        except IndexError:
            raise ParseError(f"edge index in {text!r} outside the graph") from None
    try:
        return Path(graph, start, tuple(seq))
    except ContractViolation as exc:
        raise ParseError(f"bad path {text!r}: {exc}") from None


def parse(graph: DirectedGraph, text: str) -> PathPairElement:
    """Parse "p=e1.e2,q=e3" (or "zero", or a single vertex/path for p p*)."""
    text = text.strip()
    if text.lower() == "zero":
        return PathPairElement.zero(graph)
    if "=" not in text:
        path = parse_path(graph, text)
        return PathPairElement(graph, path, path)
    parts = dict()
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ParseError(f"bad element chunk {chunk!r}; expected p=... or q=...")
        key, _, val = chunk.partition("=")
        parts[key.strip()] = val.strip()
    if set(parts) != {"p", "q"}:
        raise ParseError(f"element needs exactly p= and q=, got {sorted(parts)}")
    p = parse_path(graph, parts["p"])
    q = parse_path(graph, parts["q"])
    try:
        return PathPairElement(graph, p, q)
    except ContractViolation as exc:
        raise ParseError(str(exc)) from None
