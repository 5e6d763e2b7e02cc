"""Every module-level import in the package is used, no module
imports `dataclasses`, and only `semigroup.py` reads the layout of a
closure's record or the slots of its order.

No linter ships with the test dependencies, so this reads each module
with `ast`: a name that a module-level import binds (also under a
module-level `if` or `try`, such as `if TYPE_CHECKING:`) must occur as a
name somewhere else in the module.  Names listed as strings in
`invsemi._EXPORTS` count as used, since the package re-exports them.

`dataclasses` imports `inspect`, `ast`, `dis` and `tokenize` (8-10 ms of
every CLI call by `-X importtime` on a 2-vCPU VM), so the records are
NamedTuples and plain classes; an import of it anywhere in a module,
even inside a function, is a fault.

`close` builds the record `_closure` and `FiniteInverseSemigroup` reads
it, so a subscript of `._closure`, or a tuple unpacked from it, in any
other module would tie that module to the order of the record's fields.

A closure keeps its image keys and no `PartialBijection` per element:
in `semigroup.py` only the lazy builder of `labels` and the check
`is_closure_of` call `PartialBijection(...)`, so `close` builds no
label per element.

`semigroup.py` is the one module that knows how a semigroup is
stored: a table, or a closure's image keys.  A semigroup of either kind
builds its up-masks, ground cells and E-order on first read, off table
rows or off ground cells; a table file keeps the up-masks of its
idempotents from its inverse pass.  So only `semigroup.py` reads the
slots `_cells`, `_up_masks` and `_e_up_masks` or calls `_ground_cells()`;
any other module asks through the `_require_*` readers and
`_up_and_compatibility_masks`.  A test of `S._cells is None` elsewhere
would be a second dispatch point.

A closure multiplies by its image keys, and reading its `mul` lays out
all m^2 products, so `.mul` is read only by the table code of
`semigroup.py`.  Every other reader goes through `product` for one pair
or `pair_products` for many; no module defines or calls a `products`
of one column.  Outside `semigroup.py`, only `cli._verification` tests
`_closure` (a closure passes its checks by construction), and nothing
reads `_letter_count`: `close --verify` compares the letters with the
file's generators through `semigroup.has_letters_of`.

An action stores its images as one row per element, laid out from a
pair map or from the lists of an action file, and a left translation
stores none: so only `action.py` reads `FiniteAction._rows`, and every
other module reads images through `pair_images`, `act` or `table`.

Light's test decides associativity for every law that is checked on
generators, so it runs once per table: only `generators_if_associative`,
which keeps its answer, calls `generating_set` or `is_associative`.
Every law checked on generators reads that one set: Light's test
(`verify_inverse_semigroup`), the homomorphism law
(`FiniteAction.validate`), the translates of `props`
(`is_complete_and_distributive`) and the clique scan of `props --verify`
(`completeness_scan`) are the package's only callers of
`generators_if_associative`, so no law finds generators of its own.

`germs.verify_germ_classes` is the one check of the germ relation, so
it reads the groupoid G only through `class_of`, `reps` and `len`, and
no underscore-prefixed attribute of G: the check stays independent of
the class codes and the index that built G.

`cli.py` decides only what the command line owns: argument parsing,
the verification policy, report layout and exit codes.  The symbolic
families are dispatched by the table `symbolic.FAMILIES`, so `cli.py`
imports no family module and compares nothing with a family name.  It
reads no underscore-prefixed name of another module either (only
`S._closure` in `_verification`): a private name read there would be a
decision taken away from the module that owns it.

Importing a module does no work: every CLI call imports the package, so
a table built at import (such as 256 translate tables of 256 bytes
built byte by byte, 5.6 ms by `timeit` on a 2-vCPU VM) is paid by
every call.  No module-level statement,
class body, decorator or default value contains a loop or a
comprehension, save `_HOME` in `invsemi/__init__.py`, which inverts the
export map; a lookup table is built on demand, by the function that
reads it.
"""

import ast
from pathlib import Path

import invsemi
from invsemi.symbolic import FAMILIES

PACKAGE = Path(invsemi.__file__).resolve().parent
EXPORTED = {name for names in invsemi._EXPORTS.values() for name in names}
BANNED = {"dataclasses"}


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


def banned_imports(source: str) -> list[tuple[str, int]]:
    """(module, line) for each import of a `BANNED` module, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(name, node.lineno) for name in names if name.partition(".")[0] in BANNED]
    return sorted(found)


def test_no_module_imports_dataclasses():
    faults = {str(path.relative_to(PACKAGE)): banned_imports(path.read_text())
              for path in sorted(PACKAGE.rglob("*.py"))}
    assert {path: names for path, names in faults.items() if names} == {}


def test_the_scan_finds_a_dataclasses_import():
    source = ("from dataclasses import dataclass\n"
              "import json, dataclasses as dc\n"
              "from .dataclasses import nothing\n"  # relative: not the stdlib module
              "def f():\n"
              "    from dataclasses import field\n"
              "    return field\n")
    assert banned_imports(source) == [("dataclasses", 1), ("dataclasses", 2),
                                      ("dataclasses", 5)]


def closure_layout_reads(source: str) -> list[int]:
    """Lines that read a closure record by position: a subscript of an
    attribute `_closure`, or a tuple unpacked from one."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript):
            value = node.value
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple):
            value = node.value
        else:
            continue
        if isinstance(value, ast.Attribute) and value.attr == "_closure":
            lines.append(node.lineno)
    return lines


def test_only_semigroup_reads_the_closure_record():
    faults = {str(path.relative_to(PACKAGE)): closure_layout_reads(path.read_text())
              for path in sorted(PACKAGE.rglob("*.py")) if path.name != "semigroup.py"}
    assert {path: lines for path, lines in faults.items() if lines} == {}
    assert closure_layout_reads((PACKAGE / "semigroup.py").read_text())


def test_the_scan_finds_a_closure_layout_read():
    source = ("k = S._closure[3]\n"
              "index, keys, gather, tail, k = S._closure\n"
              "if S._closure is not None:\n"  # no layout
              "    record = S._closure\n"
              "    first = S._closures[0]\n")
    assert sorted(closure_layout_reads(source)) == [1, 2]


ORDER_SLOTS = {"_cells", "_up_masks", "_e_up_masks", "_ground_cells"}


def order_slot_reads(source: str) -> list[tuple[str, int]]:
    """(slot, line) of each attribute read or write of an `ORDER_SLOTS` name."""
    return sorted((node.attr, node.lineno) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in ORDER_SLOTS)


def test_only_semigroup_reads_the_order_slots():
    faults = {str(path.relative_to(PACKAGE)): order_slot_reads(path.read_text())
              for path in sorted(PACKAGE.rglob("*.py")) if path.name != "semigroup.py"}
    assert {path: reads for path, reads in faults.items() if reads} == {}
    assert order_slot_reads((PACKAGE / "semigroup.py").read_text())


def test_the_scan_finds_an_order_slot_read():
    source = ("def _up_and_compatibility_masks(S):\n"  # keyed on the cells: a second dispatch
              "    if S._cells is None:\n"
              "        return _compatibility_from_rows(S)\n"
              "    return _compatibility_from_cells(S.labels, S._cells, S.order)\n"
              "up, e_order = S._up_masks, S._require_e_order()\n"
              "cells = S._ground_cells()\n"
              "kept = S._e_up_masks or S._require_up_masks()\n")
    assert order_slot_reads(source) == [("_cells", 2), ("_cells", 4), ("_e_up_masks", 7),
                                        ("_ground_cells", 6), ("_up_masks", 5)]


TABLE_READERS = {
    "semigroup.py": {"verify_inverse_semigroup", "generators_if_associative",
                     "verify_by_scans", "_compatibility_from_rows"},
}


def scoped_reads(source: str, name: str, bare: bool = False) -> list[tuple[str, int]]:
    """(enclosing function by qualified name, line) of each attribute
    `name`, and with `bare` of each bare name `name` too."""
    return scoped_nodes(source, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == name
        or bare and isinstance(node, ast.Name) and node.id == name))


def scoped_nodes(source: str, match) -> list[tuple[str, int]]:
    """(enclosing function by qualified name, line) of each node that
    `match` accepts."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if match(child):
                found.append((scope, child.lineno))
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def mul_reads(source: str) -> list[tuple[str, int]]:
    return scoped_reads(source, "mul")


def test_only_table_file_code_reads_mul():
    faults = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        name = str(path.relative_to(PACKAGE))
        allowed = TABLE_READERS.get(name, set())
        faults[name] = [read for read in mul_reads(path.read_text()) if read[0] not in allowed]
    assert {name: reads for name, reads in faults.items() if reads} == {}
    assert mul_reads((PACKAGE / "semigroup.py").read_text())


def test_the_scan_finds_a_mul_read():
    source = ("def germ_equiv_oracle(action, s, t, x):\n"
              "    mul = action.semigroup.mul\n"
              "    return any(mul[s][e] == mul[t][e] for e in action.idempotents_at(x))\n"
              "class FiniteAction:\n"
              "    def validate(self):\n"
              "        def inner():\n"
              "            return self.semigroup.mul\n"
              "        return S._mul, mul, S.product(1, 2)\n"  # not an attribute `mul`
              "table = S.mul\n")
    assert mul_reads(source) == [("germ_equiv_oracle", 2), ("FiniteAction.validate.inner", 7),
                                 ("", 9)]


def action_rows_reads(source: str) -> list[tuple[str, int]]:
    return scoped_reads(source, "_rows")


def test_only_action_reads_the_rows_of_an_action():
    faults = {str(path.relative_to(PACKAGE)): action_rows_reads(path.read_text())
              for path in sorted(PACKAGE.rglob("*.py")) if path.name != "action.py"}
    assert {path: reads for path, reads in faults.items() if reads} == {}
    assert action_rows_reads((PACKAGE / "action.py").read_text())


def test_the_scan_finds_a_rows_read():
    source = ("def germ_counts(action):\n"
              "    if action._rows is None:\n"
              "        return action.table\n"
              "    _rows, rows = action._rows, action.rows\n"  # a bare name is no read
              "class GermGroupoid:\n"
              "    def reps(self):\n"
              "        return self.action._rows[0]\n")
    assert action_rows_reads(source) == [("germ_counts", 2), ("germ_counts", 4),
                                         ("GermGroupoid.reps", 7)]


# name -> (module, function): the one reader of the name outside
# `semigroup.py`, or None where no other module reads it
REPRESENTATION_READERS = {"_closure": ("cli.py", "_verification"),
                          "_letter_count": None}


def test_only_the_verification_policy_tests_the_representation():
    faults = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = str(path.relative_to(PACKAGE))
        if module == "semigroup.py":
            continue
        source = path.read_text()
        faults[module] = [(name, *read) for name, owner in REPRESENTATION_READERS.items()
                          for read in scoped_reads(source, name, bare=True)
                          if (module, read[0]) != owner]
    assert {module: reads for module, reads in faults.items() if reads} == {}
    cli = (PACKAGE / "cli.py").read_text()
    assert scoped_reads(cli, "_closure", bare=True)
    assert scoped_reads((PACKAGE / "semigroup.py").read_text(), "_letter_count", bare=True)


def test_the_scan_finds_a_representation_read():
    source = ("from .semigroup import _letter_count\n"  # an import alias is not a read
              "def validate(self):\n"
              "    if S._closure is not None:\n"
              "        gens = range(_letter_count(S))\n"
              "    return semigroup._letter_count(S), S._closures\n")
    assert scoped_reads(source, "_closure", bare=True) == [("validate", 3)]
    assert scoped_reads(source, "_letter_count", bare=True) == [("validate", 4), ("validate", 5)]
    assert scoped_reads(source, "_letter_count") == [("validate", 5)]


FAMILY_MODULES = {module for module, *_ in FAMILIES.values()}


def _strings(node) -> list[str]:
    """The string constants that `node` is, or that a tuple, list or set
    literal `node` holds."""
    if isinstance(node, ast.Constant):
        return [node.value] if isinstance(node.value, str) else []
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [value for element in node.elts for value in _strings(element)]
    return []


def family_dispatch(source: str) -> list[tuple[str, int]]:
    """(family or family module, line) of each import of a family module
    and each comparison with a family name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("invsemi." if node.level else "") + (node.module or "")
            modules = [base, *(f"{base}.{alias.name}" for alias in node.names)]
        elif isinstance(node, ast.Compare):
            found += [(name, node.lineno) for operand in (node.left, *node.comparators)
                      for name in _strings(operand) if name in FAMILIES]
            continue
        else:
            continue
        found += [(module.rpartition(".")[2], node.lineno) for module in modules
                  if module.rpartition(".")[0] == "invsemi.symbolic"
                  and module.rpartition(".")[2] in FAMILY_MODULES]
    return sorted(found)


def test_cli_dispatches_the_families_by_their_table():
    assert family_dispatch((PACKAGE / "cli.py").read_text()) == []


def test_the_scan_finds_a_family_dispatch():
    source = ("from . import formats, symbolic\n"
              "from .symbolic import munn, Frozen\n"
              "import invsemi.symbolic.graphs as g\n"
              "from invsemi.symbolic.atomflip import parse\n"
              "def run(family, owner):\n"
              "    if family == \"atomflip\":\n"
              "        from .symbolic import atomflip\n"
              "    elif family in (\"munn\", \"graph\") or family != owner:\n"
              "        return \"graph\"\n"  # no comparison
              "    return family == \"graphs\"\n")  # a module, not a family name
    assert family_dispatch(source) == [("atomflip", 4), ("atomflip", 6), ("atomflip", 7),
                                       ("graph", 8), ("graphs", 3), ("munn", 2), ("munn", 8)]


# (name, function): the one private name that `cli.py` reads
CLI_PRIVATE_READS = {("_closure", "_verification")}


def private_reads(source: str) -> list[tuple[str, str, int]]:
    """(name, enclosing function, line) of each attribute whose name
    starts with one underscore, and of each such name imported from a
    package module."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Attribute):
                names = [child.attr]
            elif isinstance(child, ast.ImportFrom) and (
                    child.level or (child.module or "").partition(".")[0] == "invsemi"):
                names = [alias.name for alias in child.names]
            else:
                names = []
            found.extend((name, scope, child.lineno) for name in names
                         if name.startswith("_") and not name.startswith("__"))
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found)


def test_cli_reads_no_private_name_of_another_module():
    reads = private_reads((PACKAGE / "cli.py").read_text())
    assert [read for read in reads if read[:2] not in CLI_PRIVATE_READS] == []
    assert {read[:2] for read in reads} == CLI_PRIVATE_READS


def test_the_scan_finds_a_private_read():
    source = ("from .semigroup import (close, _letter_count)\n"
              "from json import _default_decoder\n"  # not a package module
              "def germs(action, S):\n"
              "    l_classes = germs_mod._l_classes(S)\n"
              "    if S._closure is not None and S.__class__:\n"  # a dunder is no private name
              "        return _budget(S.order)\n")  # a name of this module
    assert private_reads(source) == [("_closure", "germs", 5), ("_l_classes", "germs", 4),
                                     ("_letter_count", "", 1)]


# the functions of `semigroup.py` that may call `PartialBijection(...)`
LABEL_BUILDERS = {"FiniteInverseSemigroup.labels", "is_closure_of"}


def label_constructions(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each call of `PartialBijection`,
    by its bare name or as a module attribute."""
    return scoped_nodes(source, lambda node: isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "PartialBijection"
        or isinstance(node.func, ast.Attribute) and node.func.attr == "PartialBijection"))


def test_only_the_label_builder_constructs_labels():
    found = label_constructions((PACKAGE / "semigroup.py").read_text())
    assert found and {scope for scope, _ in found} <= LABEL_BUILDERS


def test_the_scan_finds_a_label_construction():
    source = ("def close(generators, n):\n"
              "    labels = [PartialBijection(n, pairs) for pairs in graphs]\n"
              "    return PartialBijection.identity(n), Sequence[PartialBijection]\n"  # no call
              "class FiniteInverseSemigroup:\n"
              "    @property\n"
              "    def labels(self):\n"
              "        return partial_bijection.PartialBijection(n, ())\n")
    assert label_constructions(source) == [("close", 2), ("FiniteInverseSemigroup.labels", 7)]


# the one function of the package that may run Light's test, and the
# laws checked on generators, which read the one set it keeps
ASSOCIATIVITY_GATE = "generators_if_associative"
LIGHT_NAMES = {"generating_set", "is_associative"}
GENERATOR_READERS = {"verify_inverse_semigroup", "FiniteAction.validate",
                     "is_complete_and_distributive", "completeness_scan"}


def calls_of(source: str, names: set[str]) -> list[tuple[str, int]]:
    """(enclosing function, line) of each call of a name in `names`, by
    its bare name or as an attribute."""
    return scoped_nodes(source, lambda node: isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id in names
        or isinstance(node.func, ast.Attribute) and node.func.attr in names))


def test_only_the_associativity_gate_runs_lights_test():
    faults = {str(path.relative_to(PACKAGE)): [call for call in calls_of(path.read_text(),
                                                                         LIGHT_NAMES)
                                               if call[0] != ASSOCIATIVITY_GATE]
              for path in sorted(PACKAGE.rglob("*.py"))}
    assert {path: calls for path, calls in faults.items() if calls} == {}
    assert {scope for scope, _ in calls_of((PACKAGE / "semigroup.py").read_text(),
                                           LIGHT_NAMES)} == {ASSOCIATIVITY_GATE}


def test_every_law_on_generators_reads_the_one_set():
    readers = {scope for path in sorted(PACKAGE.rglob("*.py"))
               for scope, _ in calls_of(path.read_text(), {ASSOCIATIVITY_GATE})}
    assert readers == GENERATOR_READERS


def test_the_scan_finds_a_light_call():
    source = ("def verify_inverse_semigroup(S):\n"
              "    gens = generating_set(S.mul)\n"
              "    return is_associative, generators_if_associative\n"  # no call
              "class FiniteAction:\n"
              "    def validate(self):\n"
              "        return semigroup.is_associative(S.mul, gens)\n"
              "def generators_if_associative(S):\n"
              "    return is_associative(S.mul, generating_set(S.mul))\n"
              "def completeness_scan(S):\n"
              "    gens = semigroup.generators_if_associative(S)\n")
    assert sorted(calls_of(source, LIGHT_NAMES)) == [
        ("FiniteAction.validate", 6), ("generators_if_associative", 8),
        ("generators_if_associative", 8), ("verify_inverse_semigroup", 2)]
    assert calls_of(source, {ASSOCIATIVITY_GATE}) == [("completeness_scan", 10)]


def products_uses(source: str) -> list[int]:
    """Lines of each definition or call of `products`, by its bare name
    or as an attribute."""
    defs = [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "products"]
    return sorted(defs + [line for _, line in calls_of(source, {"products"})])


def test_no_module_defines_or_calls_products():
    faults = {str(path.relative_to(PACKAGE)): products_uses(path.read_text())
              for path in sorted(PACKAGE.rglob("*.py"))}
    assert {path: lines for path, lines in faults.items() if lines} == {}


def test_the_scan_finds_a_products_use():
    source = ("class FiniteInverseSemigroup:\n"
              "    def products(self, members, t):\n"
              "        return self.pair_products(members, [t] * len(members))\n"
              "columns = [S.products(members, e) for e in at]\n"
              "products = S.pair_products(us, ts)\n"  # a name, not a call
              "total = products(us)\n")
    assert products_uses(source) == [2, 4, 6]


def private_reads_of(source: str, function: str, parameter: str) -> list[tuple[str, int]]:
    """(attribute, line) of each underscore-prefixed attribute that the
    function `function` reads off its parameter `parameter`."""
    body = next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef) and node.name == function)
    return sorted((node.attr, node.lineno) for node in ast.walk(body)
                  if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and isinstance(node.value, ast.Name) and node.value.id == parameter)


def test_the_germ_class_check_reads_no_private_attribute_of_the_groupoid():
    source = (PACKAGE / "germs.py").read_text()
    assert private_reads_of(source, "verify_germ_classes", "G") == []


def test_the_scan_finds_a_private_read_of_the_groupoid():
    source = ("def verify_germ_classes(action, G):\n"
              "    index, reps = G._index, G.reps.__getitem__\n"  # an attribute of G.reps
              "    return len(G) == len(action._least) and G.__len__() and G._codes\n")
    assert private_reads_of(source, "verify_germ_classes", "G") == [
        ("__len__", 3), ("_codes", 3), ("_index", 2)]


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def import_time_loops(source: str) -> list[int]:
    """The line of each loop or comprehension that runs when the module
    is imported: function and lambda bodies run when called, their
    decorators and default values at import, as does a class body."""
    found = []

    def visit(node):
        if isinstance(node, LOOPS):
            found.append(node.lineno)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            arguments = node.args
            for part in (*getattr(node, "decorator_list", ()), *arguments.defaults,
                         *filter(None, arguments.kw_defaults)):
                visit(part)
        else:
            for child in ast.iter_child_nodes(node):
                visit(child)

    visit(ast.parse(source))
    return sorted(found)


def test_no_module_loops_at_import():
    faults = {str(path.relative_to(PACKAGE)): import_time_loops(path.read_text())
              for path in sorted(PACKAGE.rglob("*.py"))}
    home = next(node.lineno for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
                if isinstance(node, ast.Assign) and node.targets[0].id == "_HOME")
    assert {path: lines for path, lines in faults.items() if lines} == {"__init__.py": [home]}


def test_the_scan_finds_a_loop_at_import():
    source = ("TABLES = [bytes([y]) * 256 for y in range(256)]\n"
              "DIGITS = b'0' * 256\n"  # a constant: no loop
              "def kernel(columns, table=tuple(range(3))):\n"  # not a loop: a call
              "    return [c for c in columns]\n"  # runs when called
              "@register(*(name for name in NAMES))\n"
              "def f(x=[y for y in X], *, z=lambda: [w for w in W]):\n"
              "    pass\n"
              "class Kernel:\n"
              "    MASKS = {x: 1 << x for x in range(8)}\n"
              "    def read(self):\n"
              "        for x in self.MASKS:\n"
              "            pass\n"
              "for name in NAMES:\n"
              "    pass\n"
              "while False:\n"
              "    pass\n")
    assert import_time_loops(source) == [1, 5, 6, 9, 13, 15]
