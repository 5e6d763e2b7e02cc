"""Every module-level import in the package is used.

No linter ships with the test dependencies, so this reads each module
with `ast`: a name that a module-level import binds (also under a
module-level `if` or `try`, such as `if TYPE_CHECKING:`) must occur as a
name somewhere else in the module.  Names listed as strings in
`invsemi._EXPORTS` count as used, since the package re-exports them.
"""

import ast
from pathlib import Path

import invsemi

PACKAGE = Path(invsemi.__file__).resolve().parent
EXPORTED = {name for names in invsemi._EXPORTS.values() for name in names}


def module_level_imports(tree: ast.Module):
    """(bound name, line) for each import at module level."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try, ast.ExceptHandler)):
            stack.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | EXPORTED
    return sorted((name, line) for name, line in module_level_imports(tree)
                  if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 15
    faults = {str(path.relative_to(PACKAGE)): unused_imports(path.read_text())
              for path in modules}
    assert {path: names for path, names in faults.items() if names} == {}


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "import xml.dom\n"
              "from typing import TYPE_CHECKING\n"
              "if TYPE_CHECKING:\n"
              "    from collections import OrderedDict, deque as dq\n"
              "    from .semigroup import close\n"  # re-exported: used
              "def f(x: xml.dom.Node) -> OrderedDict:\n"
              "    import json\n"  # not module level
              "    return sys.argv\n")
    assert unused_imports(source) == [("dq", 6), ("os", 2)]
