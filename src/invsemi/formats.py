"""Input file formats (JSON with a mandatory version field).

Semigroup files come in two kinds:

    {"version": 1, "kind": "generators",
     "ground_size": 2, "generators": [[[0, 1]], [[1, 0]]]}

    {"version": 1, "kind": "table",
     "mul_table": [[0, 1], [1, 0]], "labels": ["1", "g"]}

Action files reference a semigroup file (relative paths resolve against
the action file's directory):

    {"version": 1, "semigroup": "z2.json", "space_size": 2,
     "domains": [[0, [0, 1]]],
     "action": [[0, [[0, 0], [1, 1]]], [1, [[0, 1], [1, 0]]]]}

Graph files for the symbolic command:

    {"version": 1, "vertex_count": 2, "edges": [[0, 0], [0, 1], [1, 0]]}

Every loader raises ParseError on malformed or semantically invalid
input so the CLI can exit with the parse-error code.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ContractViolation, ParseError
from .partial_bijection import PartialBijection
from .semigroup import FiniteInverseSemigroup, close

if TYPE_CHECKING:  # imported on demand by `load_action` and `load_graph`
    from .action import FiniteAction
    from .symbolic.graphs import DirectedGraph

FORMAT_VERSION = 1


def _load_json(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    return data


def _check_version(data: dict, path: Path) -> None:
    if "version" not in data:
        raise ParseError(f"{path}: missing mandatory 'version' field")
    if data["version"] != FORMAT_VERSION:
        raise ParseError(
            f"{path}: unsupported version {data['version']!r}, expected {FORMAT_VERSION}")


def load_semigroup(path: str | Path, budget: int | None = None) -> FiniteInverseSemigroup:
    path = Path(path)
    data = _load_json(path)
    _check_version(data, path)
    kind = data.get("kind")
    if kind == "generators":
        return _semigroup_from_generators(data, path, budget)
    if kind == "table":
        return _semigroup_from_table(data, path)
    raise ParseError(f"{path}: 'kind' must be 'generators' or 'table', got {kind!r}")


def load_generators(path: str | Path) -> list[PartialBijection] | None:
    """The generator list of a `generators` file; None for any other kind."""
    path = Path(path)
    data = _load_json(path)
    _check_version(data, path)
    return _parse_generators(data, path) if data.get("kind") == "generators" else None


def _semigroup_from_generators(data: dict, path: Path,
                               budget: int | None) -> FiniteInverseSemigroup:
    gens = _parse_generators(data, path)
    try:
        return close(gens, budget=budget)
    except ContractViolation as exc:
        raise ParseError(f"{path}: {exc}") from None


def _parse_generators(data: dict, path: Path) -> list[PartialBijection]:
    try:
        ground = data["ground_size"]
        raw_gens = data["generators"]
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from None
    if not isinstance(ground, int) or not isinstance(raw_gens, list) or not raw_gens:
        raise ParseError(f"{path}: need integer ground_size and a non-empty generator list")
    gens = []
    for i, pairs in enumerate(raw_gens):
        try:
            gens.append(PartialBijection(ground, [(int(x), int(y)) for x, y in pairs]))
        except (ContractViolation, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: generator {i} invalid: {exc}") from None
    return gens


def _semigroup_from_table(data: dict, path: Path) -> FiniteInverseSemigroup:
    try:
        table = data["mul_table"]
    except KeyError:
        raise ParseError(f"{path}: missing field 'mul_table'") from None
    labels = data.get("labels")
    if not isinstance(table, list) or not table:
        raise ParseError(f"{path}: 'mul_table' must be a non-empty list of rows")
    if labels is not None and not isinstance(labels, list):
        raise ParseError(f"{path}: 'labels' must be a list")
    try:
        return FiniteInverseSemigroup(table, labels=labels)
    except (ContractViolation, TypeError) as exc:
        raise ParseError(f"{path}: bad table: {exc}") from None


def load_action(path: str | Path, budget: int | None = None) -> FiniteAction:
    from .action import FiniteAction
    path = Path(path)
    data = _load_json(path)
    _check_version(data, path)
    try:
        sg_ref = data["semigroup"]
        space_size = data["space_size"]
        raw_domains = data["domains"]
        raw_action = data["action"]
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from None
    if not isinstance(sg_ref, str):
        raise ParseError(f"{path}: 'semigroup' must be a path string")
    if type(space_size) is not int:
        raise ParseError(f"{path}: 'space_size' must be an integer, got {space_size!r}")
    sg_path = Path(sg_ref)
    if not sg_path.is_absolute():
        sg_path = path.parent / sg_path
    S = load_semigroup(sg_path, budget=budget)
    try:
        domains = {}
        for e, pts in raw_domains:
            if int(e) in domains:
                raise ParseError(f"{path}: duplicate domain entry for idempotent {e}")
            domains[int(e)] = frozenset(int(x) for x in pts)
        table = {}
        for s, pairs in raw_action:
            for x, y in pairs:
                key = (int(s), int(x))
                if key in table:
                    raise ParseError(f"{path}: duplicate action entry for {key}")
                table[key] = int(y)
    except ParseError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed domains/action: {exc}") from None
    try:
        action = FiniteAction(S, space_size, domains, table)
        action.validate()
    except ContractViolation as exc:
        raise ParseError(f"{path}: invalid action: {exc}") from None
    return action


def load_graph(path: str | Path) -> DirectedGraph:
    from .symbolic.graphs import DirectedGraph
    path = Path(path)
    data = _load_json(path)
    _check_version(data, path)
    try:
        return DirectedGraph(data["vertex_count"],
                             tuple((int(s), int(t)) for s, t in data["edges"]))
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from None
    except (ContractViolation, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad graph: {exc}") from None


def semigroup_to_dict(S: FiniteInverseSemigroup) -> dict:
    """Table-kind document for a semigroup (labels stringified)."""
    doc = {"version": FORMAT_VERSION, "kind": "table",
           "mul_table": [list(row) for row in S.mul]}
    if S.labels is not None:
        doc["labels"] = [str(l) for l in S.labels]
    return doc
