"""Table derivation, the finite-cover criterion and germ classes against
the exhaustive scans they replaced (kept in `oracles`).

Each check runs on I_1-I_4, on the atom-flip truncations F_0-F_8 and on
seeded random closures, for both the left-translation action and the
natural action of a closure on its ground set.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from invsemi import (
    ContractViolation,
    FiniteAction,
    FiniteInverseSemigroup,
    ParseError,
    all_partial_bijections,
    build_germs,
    close,
    hausdorff_criterion,
    left_translation_action,
)
from invsemi import cli, semigroup
from invsemi.formats import load_semigroup
from invsemi.symbolic import atomflip
from oracles import (
    germ_groupoid_scan,
    hausdorff_scan,
    inverse_sets_scan,
    lower_set_scan,
    maximal_elements_scan,
    up_masks_scan,
    zero_scan,
)
from test_closure import generator_lists, symmetric_generators

DATA = Path(__file__).parent / "data"

CLOSURES = {**{f"I_{n}": list(all_partial_bijections(n)) for n in range(1, 4)},
            "I_4": symmetric_generators(4)}
TRUNCATIONS = {f"F_{n}": n for n in range(9)}
FIXTURES = [*CLOSURES, *TRUNCATIONS]


def fixture(name):
    if name in TRUNCATIONS:
        return atomflip.truncation(TRUNCATIONS[name])
    return close(CLOSURES[name])


def natural_action(S):
    """A closure of partial bijections acting on its ground set."""
    n = S.labels[0].ground_size
    domains = {e: S.labels[e].domain for e in S.idempotents}
    table = {(s, x): S.labels[s].apply(x)
             for s in S.elements() for x in S.labels[s].domain}
    return FiniteAction(S, n, domains, table)


def check_derivation(S):
    """The derived fields agree with the scans, whether or not the
    constructor was handed the inverse map."""
    scanned = FiniteInverseSemigroup(S.mul, labels=S.labels)
    sets = inverse_sets_scan(S.mul)
    assert all(len(c) == 1 for c in sets)
    for T in (S, scanned):
        assert T.inv == tuple(next(iter(c)) for c in sets)
        assert T.zero == zero_scan(S.mul)
        assert T.idempotents == S.idempotents
        assert T._up_masks == up_masks_scan(S)
    assert scanned._require_down_masks() == S._require_down_masks()


def check_criterion(S, subsets=()):
    for s in S.elements():
        verdict = hausdorff_criterion(S, s)
        jset, witness, down = hausdorff_scan(S, s)
        assert verdict.j_set == jset == down
        assert verdict.witness == witness
        assert verdict.ideal_cover_verified
        assert S.lower_set(s) == lower_set_scan(S, s)
        assert S.maximal_elements(jset) == witness
    for subset in subsets:
        assert S.maximal_elements(subset) == maximal_elements_scan(S, subset)


def check_germs(action):
    G, O = build_germs(action), germ_groupoid_scan(action)
    assert G.classes == O.classes
    assert G.class_of == O.class_of
    assert G.units == O.units
    assert (G.source, G.target, G.inverse) == (O.source, O.target, O.inverse)
    assert G.composition == O.composition
    n = len(G)
    for c1 in range(0, n, max(1, n // 40)):
        for c2 in range(n):
            assert G.composable(c1, c2) == ((c1, c2) in O.composition)
    for x in range(action.space_size):
        assert action.idempotents_at(x) == tuple(
            e for e in sorted(action.semigroup.idempotents) if x in action.domain_of[e])


@pytest.mark.parametrize("name", FIXTURES)
def test_derivation_matches_scans(name):
    check_derivation(fixture(name))


@pytest.mark.parametrize("name", FIXTURES)
def test_criterion_matches_scans(name):
    S = fixture(name)
    check_criterion(S, subsets=[S.elements(), S.idempotents, range(0, S.order, 2)])


@pytest.mark.parametrize("name", FIXTURES)
def test_germs_match_union_find(name):
    S = fixture(name)
    check_germs(left_translation_action(S))
    if S.labels and hasattr(S.labels[0], "ground_size"):
        check_germs(natural_action(S))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(generator_lists(), st.data())
def test_fast_paths_match_scans_on_random_closures(gens, data):
    S = close(gens)
    subsets = [data.draw(st.sets(st.sampled_from(range(S.order)))) for _ in range(3)]
    check_derivation(S)
    check_criterion(S, subsets)
    check_germs(left_translation_action(S))
    check_germs(natural_action(S))


def test_closure_never_scans_for_inverses(monkeypatch):
    def refuse(mul, s):
        raise AssertionError("exhaustive inverse scan during close")

    monkeypatch.setattr(semigroup, "inverse_candidates", refuse)
    assert close(symmetric_generators(4)).order == 209
    with pytest.raises(AssertionError):
        FiniteInverseSemigroup([[0]])


def test_zero_fold_on_tables_without_unique_inverses(left_zero_table):
    assert left_zero_table.inv is None
    assert left_zero_table.zero is None and zero_scan(left_zero_table.mul) is None
    chain = FiniteInverseSemigroup([[0, 1], [1, 1]])
    assert chain.zero == zero_scan(chain.mul) == 1


def test_germs_reject_domains_without_a_least_idempotent():
    # idempotents a, b with a b = z; the point 0 lies in D_a and D_b but not D_z
    S = FiniteInverseSemigroup([[0, 2, 2], [2, 1, 2], [2, 2, 2]])
    bad = FiniteAction(S, 1, {0: {0}, 1: {0}, 2: set()}, {(0, 0): 0, (1, 0): 0})
    with pytest.raises(ContractViolation):
        build_germs(bad)


def test_criterion_command_verifies_the_table_once(monkeypatch):
    calls = []
    verify = cli.verify_inverse_semigroup

    def counting(S):
        calls.append(S.order)
        return verify(S)

    monkeypatch.setattr(cli, "verify_inverse_semigroup", counting)
    result = CliRunner().invoke(cli.main, ["criterion", str(DATA / "z2_table.json")])
    assert result.exit_code == 0, result.output
    assert calls == [2]


def exit_code(*args):
    result = CliRunner().invoke(cli.main, list(args))
    assert result.exception is None or isinstance(result.exception, SystemExit)
    return result.exit_code, result.output


@pytest.mark.parametrize("field, value", [("space_size", "2"), ("semigroup", 5)])
def test_action_file_fields_of_the_wrong_type_are_parse_errors(tmp_path, field, value):
    action = json.loads((DATA / "z2_point_action.json").read_text())
    action["semigroup"] = str(DATA / action["semigroup"])
    action[field] = value
    path = tmp_path / "action.json"
    path.write_text(json.dumps(action))
    code, output = exit_code("germs", str(path))
    assert code == 2 and field in output


@pytest.mark.parametrize("args", [
    ["symbolic", "atomflip", "atom:9", "--truncation", "3"],
    ["symbolic", "atomflip", "flip", "--truncation", "-1"],
    ["criterion", "--family", "atomflip", "--element", "atom:9", "--truncation", "3"],
])
def test_symbolic_inputs_outside_the_truncation_are_parse_errors(args):
    code, output = exit_code(*args)
    assert code == 2, output
    assert output.startswith("error: ") and output.count("\n") == 1


@pytest.mark.parametrize("doc", [
    {"version": 1, "kind": "table", "mul_table": []},
    {"version": 1, "kind": "table", "mul_table": [[0, 1], [1, 0]], "labels": "ab"},
])
def test_degenerate_table_files_are_parse_errors(tmp_path, doc):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_semigroup(path)
    assert exit_code("close", str(path))[0] == 2
