import json
import sys
from pathlib import Path

import pytest

from invsemi import ParseError
from invsemi.formats import load_action, load_graph, load_semigroup
from invsemi.semigroup import DEFAULT_CLOSE_BUDGET, DEFAULT_SUBSET_BUDGET
from invsemi.symbolic import FAMILIES, munn
from invsemi.symbolic.atomflip import AtomFlipElement

from conftest import invoke_cli, semigroup_to_dict
from test_closure import symmetric_generators

DATA = Path(__file__).parent / "data"


def run(*args, expect=0, env=None):
    result = invoke_cli(args, env=env)
    assert result.exit_code == expect, result.output
    return result.output


# -- formats ---------------------------------------------------------------

def test_load_generators_file():
    S = load_semigroup(DATA / "i2_gens.json")
    assert S.order == 7


def test_load_table_file():
    S = load_semigroup(DATA / "z2_table.json")
    assert S.order == 2 and S.is_group
    assert S.labels == ("1", "g")


def test_load_action_file_resolves_semigroup():
    action = load_action(DATA / "z2_point_action.json")
    assert action.space_size == 1
    assert action.semigroup.order == 2


def test_load_graph_file():
    g = load_graph(DATA / "graph_loop.json")
    assert g.vertex_count == 1 and g.edges == ((0, 0),)


def test_version_field_mandatory(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "table", "mul_table": [[0]]}))
    with pytest.raises(ParseError):
        load_semigroup(bad)
    bad.write_text(json.dumps({"version": 99, "kind": "table", "mul_table": [[0]]}))
    with pytest.raises(ParseError):
        load_semigroup(bad)


def test_malformed_files(tmp_path):
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    with pytest.raises(ParseError):
        load_semigroup(junk)
    nolist = tmp_path / "nolist.json"
    nolist.write_text(json.dumps(
        {"version": 1, "kind": "generators", "ground_size": 2, "generators": []}))
    with pytest.raises(ParseError):
        load_semigroup(nolist)
    badgen = tmp_path / "badgen.json"
    badgen.write_text(json.dumps(
        {"version": 1, "kind": "generators", "ground_size": 2,
         "generators": [[[0, 1], [1, 1]]]}))
    with pytest.raises(ParseError):
        load_semigroup(badgen)
    dupes = tmp_path / "dupes.json"
    dupes.write_text(json.dumps(
        {"version": 1, "kind": "generators", "ground_size": 2,
         "generators": [[[0, 1], [0, 0]]]}))
    with pytest.raises(ParseError):
        load_semigroup(dupes)


def test_table_round_trip(tmp_path):
    S = load_semigroup(DATA / "i2_gens.json")
    doc = semigroup_to_dict(S)
    out = tmp_path / "i2_table.json"
    out.write_text(json.dumps(doc))
    again = load_semigroup(out)
    assert again.mul == S.mul


# -- CLI basics ------------------------------------------------------------

def test_cli_close():
    out = run("close", str(DATA / "i2_gens.json"))
    assert "order=7" in out
    assert "verifier: ok" in out


def test_cli_close_structured():
    out = run("close", str(DATA / "i2_gens.json"), "--format", "structured")
    doc = json.loads(out)
    assert doc["semigroup"]["order"] == 7
    assert doc["semigroup"]["verifier_ok"] is True
    assert len(doc["input_digest"]) == 64


def test_cli_close_verify():
    run("close", str(DATA / "i2_gens.json"), "--verify")


def test_cli_props():
    out = run("props", str(DATA / "i2_gens.json"), "--format", "structured")
    doc = json.loads(out)
    props = doc["properties"]
    assert props["unitary_variant"] == "E*-unitary"
    assert props["unitary_ok"] is True
    assert props["complete_and_distributive"] is True


def test_cli_props_invalid_table_reported():
    out = run("props", str(DATA / "left_zero.json"), "--format", "structured")
    doc = json.loads(out)
    assert doc["semigroup"]["verifier_ok"] is False
    assert doc["semigroup"]["verifier_reason"] == "inverse-uniqueness"


def test_cli_props_semilattice_shortcut():
    out = run("props", str(DATA / "chain2_table.json"), "--format", "structured")
    doc = json.loads(out)
    assert doc["properties"]["all_idempotent"] is True
    assert doc["properties"]["unitary_ok"] is True


def test_cli_germs_self():
    out = run("germs", str(DATA / "z2.json"), "--self", "--format", "structured")
    doc = json.loads(out)
    g = doc["groupoid"]
    assert g["germ_count"] == 4 and g["unit_count"] == 2
    assert g["principal"] and g["effective"] and g["essentially_principal"]


def test_cli_germs_self_verify():
    run("germs", str(DATA / "i2_gens.json"), "--self", "--verify")


def test_cli_germs_action_file():
    out = run("germs", str(DATA / "z2_point_action.json"),
              "--format", "structured")
    doc = json.loads(out)
    g = doc["groupoid"]
    assert g["germ_count"] == 2 and g["unit_count"] == 1
    assert not g["principal"] and not g["effective"]
    assert not g["essentially_principal"]


def test_cli_criterion_table():
    out = run("criterion", str(DATA / "i2_gens.json"),
              "--format", "structured", "--verify")
    doc = json.loads(out)
    assert doc["verified"] is True
    rows = doc["criterion"]
    assert len(rows) == 7
    for row in rows:
        assert row["verdict"] == "HAUSDORFF_WITNESS"
        assert len(row["witness"]) >= 1
        assert set(row["witness"]) <= set(row["j_set"])


def test_cli_criterion_symbolic_dispatch():
    out = run("criterion", "--family", "atomflip", "--element", "flip",
              "--format", "structured")
    doc = json.loads(out)
    assert doc["symbolic"]["verdict"] == "REFUTED"
    assert doc["symbolic"]["antichain"]["sample"][0] == "atom:1"


def test_cli_symbolic_atomflip_truncation():
    out = run("symbolic", "atomflip", "flip", "--truncation", "4",
              "--format", "structured", "--verify")
    doc = json.loads(out)
    assert doc["symbolic"]["verdict"] == "HAUSDORFF_WITNESS"
    assert doc["symbolic"]["witness"] == ["atom:1", "atom:2", "atom:3", "atom:4"]
    assert doc["verified"] is True


def test_cli_symbolic_munn():
    out = run("symbolic", "munn", "x x^-1", "--format", "structured")
    doc = json.loads(out)
    assert doc["symbolic"]["verdict"] == "HAUSDORFF_WITNESS"
    assert len(doc["symbolic"]["witness"]) == 1


def test_cli_symbolic_munn_non_idempotent():
    out = run("symbolic", "munn", "x y", "--format", "structured", "--verify")
    doc = json.loads(out)
    assert doc["symbolic"]["witness"] == []
    assert doc["verified"] is True


def test_cli_symbolic_graph():
    out = run("symbolic", "graph", "p=e1,q=e2.e3", "--format", "structured")
    doc = json.loads(out)
    assert doc["symbolic"]["verdict"] == "HAUSDORFF_WITNESS"
    assert doc["symbolic"]["witness"] == ["zero"]


def test_cli_symbolic_graph_custom_file():
    out = run("symbolic", "graph", "e1", "--graph", str(DATA / "graph_loop.json"),
              "--format", "structured")
    doc = json.loads(out)
    assert doc["symbolic"]["witness"] == ["p=e1,q=e1"]


def test_cli_symbolic_flip_refuted_verify():
    run("symbolic", "atomflip", "flip", "--verify")


def _atomflip_table_file(tmp_path, atoms):
    from invsemi.symbolic import atomflip

    doc = semigroup_to_dict(atomflip.truncation(atoms))
    path = tmp_path / f"f{atoms}.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_props_atomflip_not_unitary(tmp_path):
    out = run("props", str(_atomflip_table_file(tmp_path, 2)),
              "--format", "structured")
    doc = json.loads(out)
    assert doc["properties"]["unitary_variant"] == "E*-unitary"
    assert doc["properties"]["unitary_ok"] is False
    assert doc["properties"]["unitary_witness"] == 1  # the flip


def test_cli_criterion_atomflip_table(tmp_path):
    out = run("criterion", str(_atomflip_table_file(tmp_path, 3)),
              "--format", "structured", "--verify")
    doc = json.loads(out)
    flip_row = next(r for r in doc["criterion"] if r["label"] == "flip")
    assert len(flip_row["witness"]) == 3
    assert doc["verified"] is True


# -- exit codes ------------------------------------------------------------

def test_cli_parse_error_exit_2(tmp_path):
    junk = tmp_path / "junk.json"
    junk.write_text("{oops")
    run("close", str(junk), expect=2)


INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
UNREADABLE = [
    pytest.param(bytes([0xff, 0xfe, 0x00, 0x7b, 0x7d]), id="utf-16"),  # a UTF-16 BOM, then {}
    pytest.param(b"[" * 100_000 + b"]" * 100_000, id="deep"),
    pytest.param(b"[" + b"1" * (INT_DIGITS + 1) + b"]", id="long-int",
                 marks=pytest.mark.skipif(not INT_DIGITS, reason="no limit on int digits")),
]


@pytest.mark.parametrize("content", UNREADABLE)
@pytest.mark.parametrize("command", ["close", "germs", "symbolic"])
def test_cli_unreadable_json_exit_2(tmp_path, command, content):
    """Bytes that are not UTF-8, nesting too deep for the decoder and an
    integer too long to convert exit 2 and name the file, also as an
    action file's semigroup and as a graph file."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    action = tmp_path / "action.json"
    action.write_text(json.dumps({"version": 1, "semigroup": bad.name, "space_size": 1,
                                  "domains": [], "action": []}))
    args = {"close": ["close", str(bad)], "germs": ["germs", str(action)],
            "symbolic": ["symbolic", "graph", "e1", "--graph", str(bad)]}[command]
    result = invoke_cli(args)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.startswith(f"error: {bad} is not valid JSON: ")
    assert result.stderr.count("\n") == 1


def test_cli_missing_version_exit_2(tmp_path):
    f = tmp_path / "no_version.json"
    f.write_text(json.dumps({"kind": "table", "mul_table": [[0]]}))
    run("props", str(f), expect=2)


@pytest.mark.parametrize("table, message", [
    ([[0, "a"], [1, 0]], "table entry 'a' is not an integer"),
    ([[0, [1]], [1, 0]], "table entry [1] is not an integer"),
    ([[None, 1], [1, 0]], "table entry None is not an integer"),
    ([[0, 5], [1]], "table entry 5 out of range [0, 2)"),
    # the range fault in row 0 is named before the length fault in row 1
    ([[0, -1, 2], [0, 1], [2, 2, 2]], "table entry -1 out of range [0, 3)"),
    ([[0, 1], [1]], "row 1 has length 1, expected 2"),
])
@pytest.mark.parametrize("command", ["close", "criterion"])
def test_cli_bad_table_names_first_fault(tmp_path, table, message, command):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"version": 1, "kind": "table", "mul_table": table}))
    result = invoke_cli([command, str(f)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {f}: bad table: {message}\n"


Z2 = str(DATA / "z2.json")
I2 = str(DATA / "i2_gens.json")


@pytest.mark.parametrize("command, doc, message", [
    (["close"], {"kind": "table", "mul_table": [[0, True], [True, 1]]},
     "bad table: table entry True is not an integer"),
    (["close"], {"kind": "table", "mul_table": [[0, 0.5], [0.5, 1]]},
     "bad table: table entry 0.5 is not an integer"),
    (["close"], {"kind": "table", "mul_table": [[0, 1.0], [1, 0]]},
     "bad table: table entry 1.0 is not an integer"),
    (["close"], {"kind": "generators", "ground_size": 2, "generators": [[["0", 1.9]]]},
     "generator 0 invalid: point '0' is not an integer"),
    (["close"], {"kind": "generators", "ground_size": True, "generators": [[[0, 0]]]},
     "ground_size True is not an integer"),
    (["germs"], {"semigroup": Z2, "space_size": 1, "domains": [[1.0, [0]]],
                 "action": [[0, [[0, 0]]], [1, [[0, 0]]]]},
     "malformed domains/action: idempotent 1.0 is not an integer"),
    (["germs"], {"semigroup": Z2, "space_size": 1, "domains": [[1, [0]]],
                 "action": [[0, [[0, 0]]], [1, [[0, True]]]]},
     "malformed domains/action: point True is not an integer"),
    (["symbolic", "graph", "e1", "--graph"], {"vertex_count": True, "edges": [[0, 0]]},
     "bad graph: vertex_count True is not an integer"),
    (["symbolic", "graph", "e1", "--graph"], {"vertex_count": 1, "edges": [[0, 0.0]]},
     "bad graph: vertex 0.0 is not an integer"),
], ids=["table-bool", "table-float", "table-whole-float", "generator-point", "ground-size",
        "action-domain", "action-pair", "graph-vertex-count", "graph-edge"])
def test_cli_loaders_take_only_integer_indices(tmp_path, command, doc, message):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"version": 1, **doc}))
    result = invoke_cli([*command, str(f)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {f}: {message}\n"


def test_cli_table_labels_may_be_true_or_false(tmp_path):
    # the file spells true and false, so its entries are scanned, and pass
    f = tmp_path / "z2.json"
    f.write_text(json.dumps({"version": 1, "kind": "table", "mul_table": [[0, 1], [1, 0]],
                             "labels": [True, "false"]}))
    result = invoke_cli(["close", str(f)])
    assert result.exit_code == 0, result.output
    assert "order=2 " in result.stdout


def test_cli_budget_exit_3():
    run("close", str(DATA / "i2_gens.json"), "--budget", "3", expect=3)


def test_cli_closes_i6_under_the_default_budget(tmp_path):
    """I_6 closes to 13,327 elements, past 5,000 and inside the default
    element budget of 20,000."""
    f = tmp_path / "i6.json"
    f.write_text(json.dumps({"version": 1, "kind": "generators", "ground_size": 6,
                             "generators": [g.pairs for g in symmetric_generators(6)]}))
    result = invoke_cli(["close", str(f)])
    assert result.exit_code == 0, result.output
    assert "order=13327 " in result.stdout


def test_cli_budget_env_var():
    run("close", str(DATA / "i2_gens.json"), env={"INVSEMI_BUDGET": "3"},
        expect=3)


@pytest.mark.parametrize("name", ["z2_table", "chain2_table", "left_zero"])
def test_close_verify_of_a_table_file_recomputes_the_verifier(monkeypatch, name):
    """`close --verify` of a table file checks the verifier's (ok,
    reason, certificate) against the exhaustive scans: a verifier that
    names a wrong reason fails it."""
    from invsemi import cli
    path = str(DATA / f"{name}.json")
    run("close", path, "--verify")
    verify = cli.verify_inverse_semigroup
    monkeypatch.setattr(cli, "verify_inverse_semigroup",
                        lambda S: verify(S)._replace(reason="wrong"))
    result = invoke_cli(["close", path, "--verify"])
    assert result.exit_code == 4
    assert result.stderr == "verification failed: oracle disagreement\n"


def test_close_verify_parses_a_table_file_once(monkeypatch):
    """A table file is parsed once under `close --verify`; a generator
    file a second time, for the generators its letters are checked
    against."""
    from invsemi import formats
    parsed = []
    load_json = formats._load_json
    monkeypatch.setattr(formats, "_load_json", lambda path: parsed.append(path.name)
                        or load_json(path))
    for name in ("z2_table.json", "chain2_table.json", "i2_gens.json"):
        run("close", str(DATA / name), "--verify")
    assert parsed == ["z2_table.json", "chain2_table.json", "i2_gens.json", "i2_gens.json"]


def test_close_verify_of_a_table_file_counts_its_triples(tmp_path):
    """The scans of a 60-element table cost 60^3 = 216,000 triples,
    above the default budget of 200,000."""
    f = tmp_path / "chain60.json"
    f.write_text(json.dumps({"version": 1, "kind": "table",
                             "mul_table": [[max(i, j) for j in range(60)] for i in range(60)]}))
    result = invoke_cli(["close", str(f), "--verify"])
    assert (result.exit_code, result.stdout) == (3, "")
    assert result.stderr == ("inconclusive: verify by scans: 60^3 = 216000 triples "
                             "exceed budget 200000\n")
    assert "verifier: ok" in run("close", str(f), "--verify", "--budget", "216000")


@pytest.mark.parametrize("table, via_action", [
    ([[0, 0, 0], [0, 0, 2], [0, 1, 0]], False),  # s* s = 1 is not idempotent for s = 1
    ([[0, 0, 0], [0, 1, 0], [0, 2, 2]], False),  # (2 1) 2 != 2 (1 2)
    ([[0, 0, 0], [0, 1, 0], [0, 2, 2]], True),
])
def test_cli_germs_refuses_non_inverse_semigroup(tmp_path, table, via_action):
    f = tmp_path / "table.json"
    f.write_text(json.dumps({"version": 1, "kind": "table", "mul_table": table}))
    args = ["germs", str(f), "--self"]
    if via_action:
        a = tmp_path / "action.json"
        a.write_text(json.dumps({"version": 1, "semigroup": f.name, "space_size": 0,
                                 "domains": [[e, []] for e in range(3)], "action": []}))
        args = ["germs", str(a)]
    result = invoke_cli(args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "not an inverse semigroup" in result.stderr


def test_cli_symbolic_verify_is_independent(monkeypatch):
    """A truncation verdict whose witness misses an atom fails --verify,
    which checks the cover by multiplying elements."""
    from invsemi import criterion as crit_mod
    from invsemi.symbolic import atomflip

    honest = crit_mod.hausdorff_criterion

    def short(S, s):
        verdict = honest(S, s)
        return verdict._replace(witness=verdict.witness[:-1])

    for module in (crit_mod, atomflip):
        monkeypatch.setattr(module, "hausdorff_criterion", short)
    run("symbolic", "atomflip", "flip", "--truncation", "4", "--verify", expect=4)


@pytest.mark.parametrize("cut", [
    lambda witness: (),             # emptied
    lambda witness: witness[:-1],   # one maximal member dropped
])
def test_cli_criterion_verify_checks_that_the_witness_covers(monkeypatch, tmp_path, cut):
    """A witness inside J_s that does not cover it fails --verify, by the
    ideal-cover form: on I_2 each witness is one element, and on the
    table of F_4 the witness of the flip is its four atoms."""
    from invsemi import criterion as crit_mod

    honest = crit_mod.hausdorff_criterion

    def cut_witness(S, s):
        verdict = honest(S, s)
        return verdict._replace(witness=cut(verdict.witness))

    for path in (DATA / "i2_gens.json", _atomflip_table_file(tmp_path, 4)):
        run("criterion", str(path), "--verify")
        with monkeypatch.context() as m:
            m.setattr(crit_mod, "hausdorff_criterion", cut_witness)
            result = invoke_cli(["criterion", str(path), "--verify"])
        assert result.exit_code == 4
        assert result.stdout == ""
        assert result.stderr == "verification failed: oracle disagreement\n"


def test_cli_criterion_verify_runs_each_oracle_once_per_j_set(monkeypatch, tmp_path):
    """`criterion --verify` recomputes every element's J_s by products,
    runs the ideal-cover oracle once per distinct J_s and the witness
    cover once per distinct (J_s, witness), and prints the report of an
    unwatched run; a witness cut on one element still fails, though an
    earlier element has its J_s; under a budget the first element whose
    2^|J_s| subsets pass it still stops the run, with the same message."""
    from invsemi import criterion as crit_mod

    i3 = tmp_path / "i3.json"
    i3.write_text(json.dumps({"version": 1, "kind": "generators", "ground_size": 3,
                              "generators": [g.pairs for g in symmetric_generators(3)]}))
    agrees, covers = crit_mod.ideal_cover_agrees_with_order_cover, crit_mod.covers_by_ideals
    for path in (DATA / "i2_gens.json", i3, _atomflip_table_file(tmp_path, 4)):
        S, calls = load_semigroup(path), []
        verdicts = [crit_mod.hausdorff_criterion(S, s) for s in S.elements()]
        expected = run("criterion", str(path), "--verify")
        with monkeypatch.context() as m:
            m.setattr(crit_mod, "ideal_cover_agrees_with_order_cover", lambda S, s, budget:
                      calls.append(("agrees", S.j_set(s))) or agrees(S, s, budget))
            m.setattr(crit_mod, "covers_by_ideals", lambda S, s, F:
                      calls.append(("covers", S.j_set(s), F)) or covers(S, s, F))
            assert run("criterion", str(path), "--verify") == expected
        assert len(calls) == len(set(calls)) == len({v.j_set for v in verdicts}) + len(
            {(v.j_set, v.witness) for v in verdicts})
    # a witness cut on one element only, whose J_s an earlier element shares
    S = load_semigroup(i3)
    j_sets = [S.j_set(s) for s in S.elements()]
    last = max(s for s in S.elements() if j_sets.index(j_sets[s]) < s and j_sets[s])
    honest = crit_mod.hausdorff_criterion
    with monkeypatch.context() as m:
        m.setattr(crit_mod, "hausdorff_criterion", lambda S, s: honest(S, s)._replace(
            witness=() if s == last else honest(S, s).witness))
        result = invoke_cli(["criterion", str(i3), "--verify"])
    assert (result.exit_code, result.stdout) == (4, "")
    first = next(s for s in S.elements() if 2 ** len(S.j_set(s)) > 100)
    result = invoke_cli(["criterion", str(i3), "--verify", "--budget", "100"])
    assert (result.exit_code, result.stdout) == (3, "")
    assert result.stderr == (f"inconclusive: subset search over 2^{len(S.j_set(first))} "
                             "exceeds budget 100\n")


@pytest.mark.parametrize("family, element", [
    ("munn", "x x^-1"), ("munn", "x y y^-1 x^-1"),
    ("graph", "e1"), ("graph", "p=e1,q=e2.e3"), ("graph", "p=e1,q=e1"),
    ("atomflip", "atom:3"), ("atomflip", "square"),
])
def test_cli_symbolic_verify_rejects_an_emptied_witness(monkeypatch, family, element):
    """With no pool (munn, graph, atomflip without --truncation), --verify
    still checks the cover on s, s s, s s* and s* s: each element here
    has one of them in J_s, so an emptied witness fails."""
    from importlib import import_module

    module = import_module(f"invsemi.symbolic.{FAMILIES[family][0]}")
    honest = module.criterion
    run("symbolic", family, element, "--verify")
    monkeypatch.setattr(module, "criterion",
                        lambda *args, **kw: honest(*args, **kw)._replace(witness=()))
    result = invoke_cli(["symbolic", family, element, "--verify"])
    assert result.exit_code == 4
    assert result.stderr == "verification failed: oracle disagreement\n"


@pytest.mark.parametrize("member", [
    AtomFlipElement("atom", 1),  # repeated, so not pairwise orthogonal
    AtomFlipElement("flip"),     # not an idempotent
])
def test_cli_symbolic_verify_checks_antichain(monkeypatch, member):
    from invsemi.symbolic import atomflip

    monkeypatch.setattr(atomflip, "atom", lambda i: member)
    run("symbolic", "atomflip", "flip", "--verify", expect=4)


def test_cli_verify_failure_exit_4(monkeypatch):
    from invsemi import germs as germs_mod

    monkeypatch.setattr(germs_mod, "verify_germ_classes", lambda action, G: False)
    result = invoke_cli(["germs", str(DATA / "z2.json"), "--self", "--verify"])
    assert result.exit_code == 4


@pytest.mark.parametrize("delta", [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
def test_cli_germs_verify_checks_the_counts(monkeypatch, delta):
    """A report whose counts disagree with the built groupoid fails
    --verify, with the wrong counts put into the function that each call
    reports from: the closed form for --self, `germ_counts` for an
    action file."""
    from invsemi import germs as germs_mod

    for name, args in (("left_translation_counts", [str(DATA / "z2.json"), "--self"]),
                       ("germ_counts", [str(DATA / "z2_point_action.json")])):
        honest = getattr(germs_mod, name)
        with monkeypatch.context() as m:
            m.setattr(germs_mod, name, lambda arg, honest=honest: tuple(
                c + d for c, d in zip(honest(arg), delta)))
            shown = run("germs", *args)
            run("germs", *args, "--verify", expect=4)
        assert shown != run("germs", *args)


def test_cli_germs_self_verify_counts_the_isotropy_off_the_images(monkeypatch):
    """The groupoid takes a left translation's isotropy, its units, from
    the proof in `left_translation_action`; `germs --self --verify`
    still counts it off one image per germ pair, so images that fix
    every pair fail it."""
    from invsemi.action import FiniteAction

    args = ["germs", str(DATA / "i2_gens.json"), "--self", "--verify"]
    run(*args)
    monkeypatch.setattr(FiniteAction, "pair_images", lambda self, us, xs: list(xs))
    result = invoke_cli(args)
    assert (result.exit_code, result.stdout) == (4, "")
    assert result.stderr == "verification failed: oracle disagreement\n"


I3_GENS = {"version": 1, "kind": "generators", "ground_size": 3,
           "generators": [[[0, 1], [1, 0], [2, 2]], [[0, 1], [1, 2], [2, 0]],
                          [[1, 1], [2, 2]]]}


def _merged(honest):
    def class_of(self, s, x):
        c = honest(self, s, x)
        return 0 if c == 1 else c
    return class_of


def _split(honest):
    # under left translation every pair at the zero is in one class
    def class_of(self, s, x):
        c = honest(self, s, x)
        if x == self.action.semigroup.zero and (s, x) != self.reps[c]:
            return len(self)
        return c
    return class_of


def _swapped(honest):
    def class_of(self, s, x):
        c = honest(self, s, x)
        return {0: 1, 1: 0}.get(c, c)
    return class_of


@pytest.mark.parametrize("fault", [_merged, _split, _swapped])
def test_cli_germs_verify_catches_wrong_classes(monkeypatch, tmp_path, fault):
    from invsemi.germs import GermGroupoid

    f = tmp_path / "i3.json"
    f.write_text(json.dumps(I3_GENS))
    run("germs", str(f), "--self", "--verify")
    monkeypatch.setattr(GermGroupoid, "class_of", fault(GermGroupoid.class_of))
    result = invoke_cli(["germs", str(f), "--self", "--verify"])
    assert result.exit_code == 4
    assert result.stderr == "verification failed: oracle disagreement\n"


@pytest.mark.parametrize("moved", [True, False])
def test_germs_verify_catches_a_copied_representative(moved):
    """A class's representative is copied as a class of its own.  If a
    pair of the class moves there, every pair is still ~ its class's
    representative, and only the check that pairs with equal s e share a
    class sees the fault; if none moves, the new class holds no pair."""
    from invsemi import build_germs, left_translation_action
    from invsemi.germs import verify_germ_classes

    action = left_translation_action(load_semigroup(DATA / "i2_gens.json"))
    G = build_germs(action)
    assert verify_germ_classes(action, G)
    s, x = next((s, x) for s, x in action.germ_pairs() if G.reps[G.class_of(s, x)] != (s, x))

    class Copied:
        reps = (*G.reps, G.reps[G.class_of(s, x)])

        def __len__(self):
            return len(self.reps)

        def class_of(self, t, y):
            return len(G) if moved and (t, y) == (s, x) else G.class_of(t, y)

    assert not verify_germ_classes(action, Copied())


def test_germs_verify_catches_two_classes_merged_at_one_point():
    """Class d is folded into class c at the same point, and the later
    classes are renumbered, so every class still holds a pair and pairs
    with equal s e still share a class: only the check that each pair is
    ~ its class's representative sees the fault."""
    from invsemi import build_germs, left_translation_action
    from invsemi.germs import verify_germ_classes

    action = left_translation_action(load_semigroup(DATA / "i2_gens.json"))
    G = build_germs(action)
    c, d = next((c, d) for c in range(len(G)) for d in range(c + 1, len(G))
                if G.reps[c][1] == G.reps[d][1])

    class Merged:
        reps = G.reps[:d] + G.reps[d + 1:]

        def __len__(self):
            return len(self.reps)

        def class_of(self, t, y):
            k = G.class_of(t, y)
            return c if k == d else k - (k > d)

    assert not verify_germ_classes(action, Merged())


@pytest.mark.parametrize("name, space_size, action, stray", [
    ("stray", 2, [[0, [[0, 0], [1, 1]]], [1, [[0, 0]]]], "(0, 1)"),
    ("missing", 1, [[0, [[0, 0]]]], "(1, 0)"),
    ("out_of_range", 1, [[0, [[0, 0]]], [1, [[0, 0]]], [5, [[0, 0]]]], "(5, 0)"),
])
def test_cli_action_pairs_must_match_the_domains(tmp_path, name, space_size, action, stray):
    f = tmp_path / f"{name}.json"
    f.write_text(json.dumps({"version": 1, "semigroup": str(DATA / "z2.json"),
                             "space_size": space_size, "domains": [[1, [0]]],
                             "action": action}))
    result = invoke_cli(["germs", str(f)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == \
        f"error: {f}: invalid action: action table domain mismatch near [{stray}]\n"


@pytest.mark.parametrize("domains, action, message", [
    ([[1, [0]]], [[0, [[0, 0]]], [1, [[0, 0]]], [1, [[0, 0]]]],
     "duplicate action entry for (1, 0)"),
    ([[1, [0]], [1, [0]]], [[0, [[0, 0]]], [1, [[0, 0]]]],
     "duplicate domain entry for idempotent 1"),
])
def test_cli_action_duplicates_name_the_file_once(tmp_path, domains, action, message):
    f = tmp_path / "bad_dup.json"
    f.write_text(json.dumps({"version": 1, "semigroup": str(DATA / "z2.json"),
                             "space_size": 1, "domains": domains, "action": action}))
    result = invoke_cli(["germs", str(f)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {f}: {message}\n"


@pytest.mark.parametrize("args, env, message", [
    (["close", Z2, "--bogus"], None, "error: "),
    (["close", Z2, "--verif"], None, "error: "),  # no abbreviations
    (["close", str(DATA / "missing.json")], None, "error: "),
    (["close", str(DATA)], None, "error: "),
    (["close", Z2, "--budget", "x"], None, "error: "),
    (["close", Z2], {"INVSEMI_BUDGET": "x"}, "error: "),
    (["symbolic", "--", "munn", "--"], None, "error: "),  # the element is the string "--"
    (["close", I2, "--budget", "-5"], None, "error: --budget must be at least 0, got -5\n"),
    (["props", Z2, "--budget", "-1"], None, "error: --budget must be at least 0, got -1\n"),
    (["close", I2], {"INVSEMI_BUDGET": "-5"},
     "error: INVSEMI_BUDGET must be at least 0, got -5\n"),
    (["symbolic", "munn", "x", "--rank", "0"], None, "error: --rank must be at least 1, got 0\n"),
    (["symbolic", "munn", "x", "--rank", "-3"], None,
     "error: --rank must be at least 1, got -3\n"),
    (["criterion", "--family", "munn", "--element", "x", "--rank", "0"], None,
     "error: --rank must be at least 1, got 0\n"),
], ids=["unknown-option", "abbreviation", "missing-file", "directory", "bad-budget",
        "bad-budget-env", "dashes-element", "negative-budget", "negative-props-budget",
        "negative-budget-env", "rank-0", "negative-rank", "family-rank-0"])
def test_cli_bad_arguments_exit_2(args, env, message):
    """A bad argument exits 2; an integer out of range names its option."""
    result = invoke_cli(args, env=env)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert message in result.stderr and "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["close", "props", "germs", "criterion", "symbolic"])
def test_cli_subcommand_help_exits_0(command):
    result = invoke_cli([command, "--help"])
    assert result.exit_code == 0
    assert result.stdout.startswith("usage: ") and result.stderr == ""
    words = " ".join(result.stdout.split())  # the --budget help states each default budget
    assert f"default: {DEFAULT_CLOSE_BUDGET:,} elements, {DEFAULT_SUBSET_BUDGET:,} pairs" in words
    if command in ("criterion", "symbolic"):  # and --rank the family's default rank
        assert f"infer it. [default: {munn.DEFAULT_RANK}]" in words


def test_cli_criterion_usage_errors():
    run("criterion", expect=2)  # neither input nor family
    run("criterion", "--family", "munn", expect=2)  # missing --element


@pytest.mark.parametrize("args, option", [
    (["criterion", Z2, "--truncation", "3"], "--truncation applies only to atomflip"),
    (["criterion", Z2, "--element", "flip", "--rank", "7"], "--element applies only to --family"),
    (["criterion", Z2, "--rank", "7"], "--rank applies only to munn"),
    (["criterion", Z2, "--graph", str(DATA / "graph_loop.json")], "--graph applies only to graph"),
    (["symbolic", "atomflip", "flip", "--rank", "9"], "--rank applies only to munn"),
    (["symbolic", "graph", "e1", "--rank", "5"], "--rank applies only to munn"),
    (["symbolic", "munn", "x", "--budget", "1"], "--budget applies only to a semigroup file"),
    (["criterion", "--family", "munn", "--element", "x", "--budget", "5"],
     "--budget applies only to a semigroup file"),
])
def test_cli_refuses_an_option_the_call_ignores(args, option):
    result = invoke_cli(args)
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", f"error: {option}\n")


# per family: an element, and a value of the family's option that changes
# its report (graph_three.json, written by `family_options`, has vertex 2)
OWN_OPTION = {"atomflip": ("flip", "4"), "munn": ("x", "4"), "graph": ("v2", "graph_three.json")}


@pytest.fixture
def family_options(monkeypatch, tmp_path):
    """A call of one family's element on `symbolic` or `criterion --family`."""
    (tmp_path / "graph_three.json").write_text(
        json.dumps({"version": 1, "vertex_count": 3, "edges": [[0, 1]]}))
    monkeypatch.chdir(tmp_path)

    def call(command, family, *options):
        element = OWN_OPTION[family][0]
        return invoke_cli([command, family, element, *options] if command == "symbolic"
                          else [command, "--family", family, "--element", element, *options])
    return call


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("command", ["symbolic", "criterion"])
def test_cli_a_family_reads_its_option(family_options, command, family):
    """Each family takes the option that `symbolic.FAMILIES` gives it,
    and its report changes by it."""
    given = family_options(command, family, f"--{FAMILIES[family][1]}", OWN_OPTION[family][1])
    assert given.exit_code == 0, given.output
    assert given.output != family_options(command, family).output


@pytest.mark.parametrize("family, owner", [(family, owner) for family in FAMILIES
                                           for owner in FAMILIES if owner != family])
@pytest.mark.parametrize("command", ["symbolic", "criterion"])
def test_cli_a_family_refuses_another_familys_option(family_options, command, family, owner):
    option = f"--{FAMILIES[owner][1]}"
    result = family_options(command, family, option, OWN_OPTION[owner][1])
    assert (result.exit_code, result.stdout, result.stderr) == (
        2, "", f"error: {option} applies only to {owner}\n")


def test_cli_budget_variable_applies_only_where_a_budget_is_read():
    env = {"INVSEMI_BUDGET": "x"}
    assert invoke_cli(["symbolic", "munn", "x"], env=env).exit_code == 0
    assert invoke_cli(["criterion", "--family", "munn", "--element", "x"], env=env).exit_code == 0
    result = invoke_cli(["criterion", Z2], env=env)
    assert (result.exit_code, result.stderr) == (2, "error: INVSEMI_BUDGET: invalid int value: 'x'\n")


def test_cli_bad_symbolic_element_exit_2():
    run("symbolic", "atomflip", "blorp", expect=2)
    run("symbolic", "munn", "q q", expect=2)
    run("symbolic", "graph", "p=e9,q=e1", expect=2)
    run("symbolic", "graph", "v9", expect=2)


# -- determinism -----------------------------------------------------------

# golden file prefix -> subcommand and flags
GOLDEN_ARGS = {"close": ["close"], "close_verify": ["close", "--verify"],
               "props": ["props"], "props_verify": ["props", "--verify"],
               "criterion": ["criterion"], "germs_self": ["germs", "--self"],
               "germs": ["germs"]}
SEMIGROUP_FILES = ("i2_gens", "z2_table", "chain2_table")
# a closure that fails step (iii) of the completeness check: ["left", 2, [0, 1]]
TRANSLATE_FAIL = ("translate_fail_gens",)
GOLDEN = [(command, name, fmt)
          for command in GOLDEN_ARGS
          for name in (("z2_point_action",) if command == "germs" else
                       SEMIGROUP_FILES + TRANSLATE_FAIL if command.startswith("props") else
                       SEMIGROUP_FILES)
          for fmt in ("human", "structured")]


@pytest.mark.parametrize("command, name, fmt", GOLDEN)
def test_reports_match_golden(monkeypatch, command, name, fmt):
    """Reports are pinned byte for byte in data/golden, run from data/."""
    monkeypatch.chdir(DATA)
    subcommand, *flags = GOLDEN_ARGS[command]
    out = run(subcommand, f"{name}.json", "--format", fmt, *flags)
    assert out == (DATA / "golden" / f"{command}_{name}_{fmt}.out").read_text()


def test_reports_byte_identical_across_runs():
    invocations = [
        ("close", str(DATA / "i2_gens.json")),
        ("close", str(DATA / "i2_gens.json"), "--format", "structured"),
        ("props", str(DATA / "i2_gens.json"), "--format", "structured"),
        ("germs", str(DATA / "i2_gens.json"), "--self", "--format", "structured"),
        ("germs", str(DATA / "z2_point_action.json")),
        ("criterion", str(DATA / "i2_gens.json"), "--format", "structured"),
        ("symbolic", "atomflip", "flip"),
        ("symbolic", "munn", "x y x^-1", "--format", "structured"),
        ("symbolic", "graph", "p=e1,q=e2.e3"),
    ]
    for args in invocations:
        first = run(*args)
        second = run(*args)
        assert first == second, args


def test_timing_goes_to_stderr_only():
    result = invoke_cli(["close", str(DATA / "i2_gens.json"),
                                  "--timing", "--format", "structured"])
    assert result.exit_code == 0
    # stdout must stay machine-parseable; the timing line lives on stderr
    doc = json.loads(result.stdout)
    assert doc["semigroup"]["order"] == 7
    assert "elapsed_ms=" in result.stderr
