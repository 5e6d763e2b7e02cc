"""Each CLI call imports only the modules its subcommand runs, and the
package's public names load on first use (PEP 562 module `__getattr__`).
No call loads `dataclasses` (which pulls in `inspect` and `ast`), and
only a structured report, which prints the input's digest, loads
`hashlib`.

The module sets are read in a fresh interpreter, since this test
process has imported the whole package already.  Nothing here is timed.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import invsemi

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

SCRIPT = """
import json, sys
started = set(sys.modules)  # the interpreter's own, and what site hooks import
from invsemi.cli import main

try:
    main(json.loads(sys.argv[1]))
except SystemExit:
    pass
added = set(sys.modules) - started
print(json.dumps([sorted(m for m in sys.modules if m.startswith("invsemi")),
                  sorted({m.partition(".")[0] for m in added}
                         - set(sys.stdlib_module_names) - {"invsemi"}),
                  sorted(m for m in added
                         if m.partition(".")[0] in sys.stdlib_module_names)]))
"""

# what `close` needs: the package, the front door, parsing, reports, tables
CLI_MODULES = {f"invsemi{m}" for m in ("", ".cli", ".errors", ".formats", ".partial_bijection",
                                       ".report", ".semigroup", ".symbolic")}

# standard-library modules that cost milliseconds and no report needs
HEAVY = {"dataclasses", "inspect", "hashlib", "_hashlib"}


def fresh(script: str, *args: str):
    """The JSON that `script` prints last, run in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(args)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(*args: str) -> tuple[set[str], set[str]]:
    """The package modules that a CLI call loads, and the standard
    library's modules that it adds after start-up.  It must load no
    module from outside the package and the standard library."""
    package, foreign, stdlib = fresh(SCRIPT, *args)
    assert foreign == []
    return set(package), set(stdlib)


def test_cli_import_loads_only_what_close_needs():
    """Nor does the help, which states the default --rank of munn."""
    for args in (["--help"], ["criterion", "--help"]):
        package, stdlib = loaded_after(*args)
        assert package == CLI_MODULES
        assert not HEAVY & stdlib


@pytest.mark.parametrize("args", [[], ["--verify"], ["--format", "structured"]])
def test_close_loads_no_criterion_germ_or_family_code(args):
    package, stdlib = loaded_after("close", str(DATA / "i2_gens.json"), *args)
    assert package == CLI_MODULES
    assert HEAVY & stdlib == ({"hashlib", "_hashlib"} if "structured" in args else set())


@pytest.mark.parametrize("args, uses", [
    (["criterion", str(DATA / "i2_gens.json")], {"criterion"}),
    (["props", str(DATA / "i2_gens.json")], {"criterion"}),
    (["props", str(DATA / "i2_gens.json"), "--verify"], {"criterion", "oracles"}),
    (["germs", str(DATA / "i2_gens.json"), "--self"], {"germs"}),
    (["germs", str(DATA / "i2_gens.json"), "--self", "--verify"], {"germs", "action"}),
    (["germs", str(DATA / "z2_point_action.json")], {"germs", "action"}),
    (["symbolic", "atomflip", "flip"], {"criterion", "symbolic.atomflip"}),
    (["symbolic", "munn", "x y x^-1"], {"criterion", "symbolic.munn"}),
    (["criterion", "--family", "graph", "--element", "e1"],
     {"criterion", "symbolic.graphs"}),
])
def test_a_subcommand_loads_what_it_runs(args, uses):
    package, stdlib = loaded_after(*args)
    assert package == CLI_MODULES | {f"invsemi.{m}" for m in uses}
    assert not HEAVY & stdlib


@pytest.mark.parametrize("args", [
    ["close", str(DATA / "i2_gens.json")],
    ["criterion", str(DATA / "i2_gens.json")],
    ["germs", str(DATA / "z2_point_action.json")],
])
def test_only_the_structured_digest_loads_hashlib(args):
    human_package, human = loaded_after(*args)
    package, structured = loaded_after(*args, "--format", "structured")
    script = ("import json, sys; started = set(sys.modules); import hashlib; "
              "print(json.dumps(sorted(set(sys.modules) - started)))")
    assert package == human_package
    assert "hashlib" in structured - human
    assert structured - human <= set(fresh(script))  # hashlib and what it imports


def test_main_takes_the_benchmark_workers_call(capsys):
    from invsemi.cli import main
    with pytest.raises(SystemExit) as stop:
        main(["close", str(DATA / "z2.json")], prog_name="invsemi")
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("close ")


# -- the public names -----------------------------------------------------

def test_every_public_name_resolves_to_its_defining_module():
    assert len(invsemi.__all__) == len(set(invsemi.__all__)) == 38
    for name in invsemi.__all__:
        value = getattr(invsemi, name)
        home = importlib.import_module(f"invsemi.{invsemi._HOME[name]}")
        assert value is getattr(home, name), name


def test_dir_lists_the_public_names():
    assert set(invsemi.__all__) <= set(dir(invsemi))


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from invsemi import *", namespace)
    assert set(invsemi.__all__) <= set(namespace)


def test_a_public_name_loads_its_module_on_first_use():
    script = """
import json, sys
import invsemi
loaded = [sorted(m for m in sys.modules if m.startswith("invsemi"))]
invsemi.close, invsemi.oracles.completeness_scan
loaded.append(sorted(m for m in sys.modules if m.startswith("invsemi")))
print(json.dumps(loaded))
"""
    bare, used = fresh(script)
    assert bare == ["invsemi"]
    assert used == ["invsemi", "invsemi.criterion", "invsemi.errors", "invsemi.oracles",
                    "invsemi.partial_bijection", "invsemi.semigroup"]


@pytest.mark.parametrize("cls, name", [
    ("FiniteInverseSemigroup", "idempotent_set"),
    ("FiniteInverseSemigroup", "lower_set"),
    ("FiniteInverseSemigroup", "maximal_elements"),
    ("GermGroupoid", "composition"),
    ("GermGroupoid", "composable"),
    ("GermGroupoid", "slice"),
    ("GermGroupoid", "unit_of_point"),
    ("PartialBijection", "apply"),
    ("PartialBijection", "defined_at"),
    ("MunnTreeElement", "natural_leq"),
    ("PathPairElement", "natural_leq"),
])
def test_deleted_methods_are_gone(cls, name):
    homes = {"MunnTreeElement": "invsemi.symbolic.munn",
             "PathPairElement": "invsemi.symbolic.graphs"}
    home = importlib.import_module(homes[cls]) if cls in homes else invsemi
    assert not hasattr(getattr(home, cls), name)


def test_deleted_names_are_gone():
    with pytest.raises(AttributeError, match="IdempotentSet"):
        invsemi.IdempotentSet  # noqa: B018
    assert "IdempotentSet" not in invsemi.__all__
    assert not hasattr(invsemi.semigroup, "IdempotentSet")


def test_an_unknown_name_fails():
    with pytest.raises(AttributeError, match="nope"):
        invsemi.nope  # noqa: B018
    assert not hasattr(invsemi, "nope")
