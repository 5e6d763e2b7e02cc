"""Seeded fuzz of the four file loaders and of the semigroup
subcommands through the CLI.

Malformed table, generator, action and graph documents, and symbolic
expressions made of grammar tokens and junk, go through
`invoke_cli`.  Whatever the document, the run ends in one of the
documented exit codes (0, 2 parse, 3 budget, 4 invariant) through
`sys.exit`, never through an uncaught exception, and a table the CLI
accepts reports its fields as integers.  The documents mix well-formed
parts with arbitrary JSON values, so most runs reach the checks past
the top-level shape.  Ground sets stay at 8 points or fewer: `close`
allocates n + 1 entries per element, so a huge ground set would test
memory, not parsing.  `criterion`, `props` and `germs --self` get
small documents (ground sets of 4 points or fewer) and a small budget,
with and without --verify and --format structured: their oracles are
exponential, and `props --verify` on F_64 already runs minutes.
"""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from invsemi import PartialBijection, close
from conftest import invoke_cli, semigroup_to_dict

DATA = Path(__file__).parent / "data"

FUZZ = settings(max_examples=25, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 9),
                    st.sampled_from([0.0, 0.5, 1.0, 1.9]), st.sampled_from(["", "0", "a"]))
values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=8)


def mostly(good, bad=values):
    """A well-formed part nine times in ten, else an arbitrary JSON value."""
    return st.integers(0, 9).flatmap(lambda k: bad if k == 0 else good)


points = mostly(st.integers(0, 8), scalars)
pairs = st.lists(mostly(st.tuples(points, points).map(list)), max_size=3)


@st.composite
def tables(draw):
    m = draw(st.integers(1, 4))
    row = st.lists(mostly(st.integers(0, m - 1), scalars), min_size=m, max_size=m)
    doc = {"kind": "table", "mul_table": draw(mostly(st.lists(row, min_size=m, max_size=m)))}
    if draw(st.booleans()):
        doc["labels"] = draw(mostly(st.lists(values, min_size=m, max_size=m)))
    return doc


generators = st.fixed_dictionaries({
    "kind": st.just("generators"),
    "ground_size": mostly(st.integers(0, 8), scalars),
    "generators": mostly(st.lists(pairs, min_size=1, max_size=3)),
})

actions = st.fixed_dictionaries({
    "semigroup": mostly(st.just(str(DATA / "z2.json"))),
    "space_size": mostly(st.integers(0, 3), scalars),
    "domains": mostly(st.lists(mostly(st.tuples(mostly(st.integers(0, 2), scalars),
                                                st.lists(points, max_size=3)).map(list)),
                               max_size=3)),
    "action": mostly(st.lists(mostly(st.tuples(mostly(st.integers(0, 2), scalars),
                                               pairs).map(list)),
                              max_size=3)),
})


@st.composite
def injections(draw, n):
    """The pairs of a partial bijection on n points."""
    images = draw(st.permutations(range(n)))
    kept = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return [[x, y] for x, (y, keep) in enumerate(zip(images, kept)) if keep]


@st.composite
def small_documents(draw):
    """A generator file on 0-4 points, that file closed into a table
    file, or a malformed table."""
    n = draw(st.integers(0, 4))
    gens = draw(st.lists(injections(n), min_size=1, max_size=3))
    kind = draw(st.sampled_from(["generators", "closed", "malformed"]))
    if kind == "malformed":
        return draw(tables())
    if kind == "closed" and n < 4:
        return semigroup_to_dict(close([PartialBijection(n, g) for g in gens]))
    return {"kind": "generators", "ground_size": n, "generators": draw(mostly(st.just(gens)))}


graphs = st.fixed_dictionaries({
    "vertex_count": mostly(st.integers(0, 4), scalars),
    "edges": mostly(st.lists(mostly(st.tuples(points, points).map(list)), max_size=4)),
})


def invoke(args, context=None):
    result = invoke_cli(args)
    assert result.exit_code in {0, 2, 3, 4}, (context, args, result.output)
    if result.exit_code:
        assert isinstance(result.exception, SystemExit), (context, args, result.exception)
    else:
        assert result.exception is None, (context, args, result.exception)
    assert "Traceback" not in result.stderr, (context, args, result.stderr)
    return result


def run(tmp_path, doc, args):
    f = tmp_path / "fuzz.json"
    f.write_text(json.dumps({"version": 1, **doc}))
    return invoke([arg.replace("FILE", str(f)) for arg in args], doc)


def check_semigroup_report(result):
    if result.exit_code == 0:
        semigroup = json.loads(result.stdout)["semigroup"]
        assert type(semigroup["order"]) is type(semigroup["idempotent_count"]) is int
        assert semigroup["zero"] is None or type(semigroup["zero"]) is int


@FUZZ
@given(doc=tables())
def test_table_files(tmp_path, doc):
    check_semigroup_report(run(tmp_path, doc, ["close", "FILE", "--format", "structured"]))


@FUZZ
@given(doc=generators)
def test_generator_files(tmp_path, doc):
    check_semigroup_report(run(tmp_path, doc, ["close", "FILE", "--format", "structured",
                                               "--budget", "200"]))


@FUZZ
@given(doc=actions)
def test_action_files(tmp_path, doc):
    run(tmp_path, doc, ["germs", "FILE"])


@FUZZ
@given(doc=graphs)
def test_graph_files(tmp_path, doc):
    run(tmp_path, doc, ["symbolic", "graph", "e1", "--graph", "FILE"])


@pytest.mark.parametrize("command", [["criterion"], ["props"], ["germs", "--self"]])
@pytest.mark.parametrize("verify", [[], ["--verify"]])
@FUZZ
@given(doc=small_documents(), structured=st.booleans())
def test_semigroup_subcommands(tmp_path, command, verify, doc, structured):
    args = [command[0], "FILE", *command[1:], "--budget", "64", *verify]
    args += ["--format", "structured"] * structured
    result = run(tmp_path, doc, args)
    if structured:
        check_semigroup_report(result)


# Well-formed expressions of the three grammars (atom-flip elements, Munn
# words, path pairs on the fixture graph or `graph_loop.json`), into which
# up to two parts are put at random places: tokens of any grammar, numbers
# to follow `atom:`, `x`, `e` and `v`, and junk, some of it characters
# that `str.isdigit` takes for digits.
GRAMMARS = {
    "atomflip": st.one_of(st.sampled_from(["flip", "square", "zero"]),
                          st.integers(0, 70).map("atom:{}".format)),
    "munn": st.lists(st.one_of(st.sampled_from(["x", "y", "z"]),
                               st.integers(0, 6).map("x{}".format))
                     .flatmap(lambda name: st.sampled_from([name, name + "^-1"])),
                     max_size=6).map(" ".join),
    "graph": st.one_of(
        st.just("zero"),
        paths := st.one_of(st.sampled_from(["v0", "v0", "v1", "v2"]),
                           st.lists(st.sampled_from(["e1", "e1", "e2", "e3", "e0"]),
                                    min_size=1, max_size=3).map(".".join)),
        st.tuples(paths, paths).map("p={0[0]},q={0[1]}".format)),
}
expression_parts = st.one_of(
    st.sampled_from(["atom:", "flip", "square", "zero", "x", "y", "z", "^-1",
                     "p=", "q=", "e", "v", ".", ",", " "]),
    st.integers(0, 12).map(str),
    st.sampled_from(["-", ":", "=", "^", "*", "\t", "X", "é", "²", "٣", "½"]))


@st.composite
def symbolic_calls(draw):
    """Arguments of `symbolic` or `criterion --family`.  --truncation
    (at most 64 atoms: it builds an (n + 3)^2 table that --budget does
    not bound) comes mostly with atomflip, --graph mostly with graph and
    --rank mostly with munn; given to another family, each is a parse
    error.  So is --budget, which no symbolic call reads."""
    family = draw(st.sampled_from(list(GRAMMARS)))
    expr = draw(GRAMMARS[family])
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(expr)))
        expr = expr[:at] + draw(expression_parts) + expr[at:]
    options = ["--verify"] * draw(st.booleans())
    options += ["--format", "structured"] * draw(st.booleans())
    if draw(mostly(st.just(family == "atomflip"), st.booleans())) and draw(st.booleans()):
        options += ["--truncation", str(draw(st.integers(-1, 64)))]
    if draw(mostly(st.just(family == "graph"), st.booleans())) and draw(st.booleans()):
        options += ["--graph", str(DATA / "graph_loop.json")]
    if draw(mostly(st.just(family == "munn"), st.booleans())) and draw(st.booleans()):
        options += ["--rank", str(draw(st.integers(-1, 6)))]
    if draw(st.integers(0, 9)) == 0:
        options += ["--budget", str(draw(st.integers(0, 100)))]
    if draw(st.booleans()):
        return ["criterion", "--family", family, f"--element={expr}", *options]
    return ["symbolic", *options, "--", family, expr]  # expr may start with "-"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(args=symbolic_calls())
@example(args=["symbolic", "munn", "x²"])
@example(args=["symbolic", "graph", "e²"])
@example(args=["criterion", "--family", "graph", "--element", "v²"])
def test_symbolic_expressions(args):
    result = invoke(args)
    if result.exit_code == 0 and "structured" in args:
        assert json.loads(result.stdout)["symbolic"]["verdict"]
