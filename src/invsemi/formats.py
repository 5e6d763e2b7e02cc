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
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ContractViolation, ParseError
from .partial_bijection import PartialBijection
from .semigroup import FiniteInverseSemigroup, close

if TYPE_CHECKING:  # imported on demand by `load_action` and `load_graph`
    from .action import FiniteAction
    from .symbolic.graphs import DirectedGraph

FORMAT_VERSION = 1


def _load_json(path: Path) -> tuple[dict, bool]:
    """The file's top-level object, and whether its text spells true or
    false anywhere: False proves that the object holds no bool.  The
    file is read as UTF-8 (RFC 8259, section 8.1), whatever the locale.
    Bytes that are not UTF-8, nesting too deep for the decoder and an
    integer too long to convert are parse errors too."""
    try:
        text = path.read_text(encoding="utf-8")
        data = json.loads(text)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError too
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    return data, "true" in text or "false" in text


def _integer(value, what: str) -> int:
    """`value` itself if it is a JSON integer.  `int()` would read 1.9 as
    1, "0" as 0 and true as 1, and bool is a subclass of int, so only
    `type(value) is int` passes.  Raises TypeError, which each loader
    reports as a ParseError naming its file."""
    if type(value) is not int:
        raise TypeError(f"{what} {value!r} is not an integer")
    return value


def _check_version(data: dict, path: Path) -> None:
    if "version" not in data:
        raise ParseError(f"{path}: missing mandatory 'version' field")
    if data["version"] != FORMAT_VERSION:
        raise ParseError(
            f"{path}: unsupported version {data['version']!r}, expected {FORMAT_VERSION}")


def load_semigroup(path: str | Path, budget: int | None = None) -> FiniteInverseSemigroup:
    path = Path(path)
    data, spells_bool = _load_json(path)
    _check_version(data, path)
    kind = data.get("kind")
    if kind == "generators":
        return _semigroup_from_generators(data, path, budget)
    if kind == "table":
        return _semigroup_from_table(data, path, spells_bool)
    raise ParseError(f"{path}: 'kind' must be 'generators' or 'table', got {kind!r}")


def load_generators(path: str | Path) -> list[PartialBijection] | None:
    """The generator list of a `generators` file; None for any other kind."""
    path = Path(path)
    data, _ = _load_json(path)
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
        ground = _integer(data["ground_size"], "ground_size")
        raw_gens = data["generators"]
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from None
    except TypeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(raw_gens, list) or not raw_gens:
        raise ParseError(f"{path}: need a non-empty generator list")
    gens = []
    for i, pairs in enumerate(raw_gens):
        try:
            gens.append(PartialBijection(
                ground, [(_integer(x, "point"), _integer(y, "point")) for x, y in pairs]))
        except (ContractViolation, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: generator {i} invalid: {exc}") from None
    return gens


def _semigroup_from_table(data: dict, path: Path,
                          spells_bool: bool) -> FiniteInverseSemigroup:
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
        S = FiniteInverseSemigroup(table, labels=labels)
        # The table's own check takes a bool for an int, as Python does,
        # but JSON true and false are not integers.  Only a file that
        # spells one of them somewhere can hold one, so the scan of the
        # parsed rows runs for those files alone, after the range and
        # length faults.
        if spells_bool:
            for v in chain.from_iterable(table):
                _integer(v, "table entry")
        return S
    except (ContractViolation, TypeError) as exc:
        raise ParseError(f"{path}: bad table: {exc}") from None


def load_action(path: str | Path, budget: int | None = None) -> FiniteAction:
    from .action import FiniteAction
    path = Path(path)
    data, _ = _load_json(path)
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
    S = load_semigroup(path.parent / sg_ref, budget=budget)
    try:
        domains = {}
        for e, pts in raw_domains:
            if _integer(e, "idempotent") in domains:
                raise ParseError(f"{path}: duplicate domain entry for idempotent {e}")
            domains[e] = frozenset(_integer(x, "point") for x in pts)
        try:
            action = FiniteAction(S, space_size, domains, raw_action)
        except ContractViolation:  # the pair map names the first fault
            table = {}
            for s, pairs in raw_action:
                _integer(s, "element")
                for x, y in pairs:
                    key = (s, _integer(x, "point"))
                    if key in table:
                        raise ParseError(f"{path}: duplicate action entry for {key}")
                    table[key] = _integer(y, "point")
            action = FiniteAction(S, space_size, domains, table)
        action.validate()
    except ParseError:
        raise
    except ContractViolation as exc:
        raise ParseError(f"{path}: invalid action: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed domains/action: {exc}") from None
    return action


def load_graph(path: str | Path) -> DirectedGraph:
    from .symbolic.graphs import DirectedGraph
    path = Path(path)
    data, _ = _load_json(path)
    _check_version(data, path)
    try:
        return DirectedGraph(_integer(data["vertex_count"], "vertex_count"),
                             tuple((_integer(s, "vertex"), _integer(t, "vertex"))
                                   for s, t in data["edges"]))
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from None
    except (ContractViolation, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad graph: {exc}") from None
