"""Table derivation, the finite-cover criterion, germ classes, the
generator-local verify and action checks, the closed-form atom-flip
truncation and the completeness check by pairs against the exhaustive
scans they replaced (kept in `oracles`).

Each check runs on I_1-I_4, on the atom-flip truncations F_0-F_8 and on
seeded random closures, for both the left-translation action and the
natural action of a closure on its ground set; the verify and action
checks also run on random magma tables and on fixtures with one entry
corrupted.  The tables that `close` and `atomflip.truncation` hand the
constructor unchecked are swept on I_1-I_5, on seeded random closures
and on F_0-F_64, and the CLI's calls to the verifier are counted.  A
closure's products by image keys are swept against its table, and the
paths that must not build a closure's table run with the layout of
`S.mul` patched to raise.  The criterion, the left-translation domains
and germ counts read off the order on the idempotents are swept against
the m-bit order and the per-point count, and `criterion` and
`germs --self` run with a closure's m-bit order patched to raise.  The
E*-unitary check off the same order is swept against the product scan,
and `germs --self` runs with the left-translation action patched to
raise.  Table loads, truncations and the table commands that read no
order run with the up-mask builders patched to raise.  The up-masks and
row counts that a table's inverse pass keeps are swept against the row
scans on the table fixtures, chains, I_3, I_4, F_0-F_64 and random
tables, and Light's test, given the zero, against its oracle.
"""

import functools
import json
import random
import tracemalloc
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from invsemi import (
    DOWN,
    UP,
    BudgetExceeded,
    ContractViolation,
    FiniteAction,
    FiniteInverseSemigroup,
    ParseError,
    PartialBijection,
    all_partial_bijections,
    build_germs,
    close,
    compatible,
    covers_by_ideals,
    hausdorff_criterion,
    is_complete_and_distributive,
    is_e_star_unitary,
    left_translation_action,
    verify_inverse_semigroup,
)
from invsemi import action as action_mod
from invsemi import cli, germs, semigroup
from invsemi.criterion import CompletenessResult
from invsemi.formats import load_action, load_semigroup
from invsemi.germs import germ_counts, left_translation_counts
from invsemi.symbolic import atomflip
from oracles import (
    atomflip_truncation_scan,
    completeness_scan,
    derive_two_pass,
    generated_scan,
    germ_groupoid_scan,
    hausdorff_by_up_masks,
    hausdorff_scan,
    inverse_candidates_scan,
    inverse_sets_scan,
    join_brute,
    left_translation_domains_by_up_masks,
    left_translation_table_scan,
    light_scan,
    leq_scan,
    lower_set_scan,
    natural_table_scan,
    unitary_scan,
    up_masks_scan,
    validate_scan,
    verify_scan,
    zero_scan,
)
from conftest import (check_germ_counts, invoke_cli, make_chain, product_or_none,
                      semigroup_to_dict)
from test_consistency_sweep import random_pb
from test_closure import (SWAP, generator_lists, letters_of, partial_bijections,
                          symmetric_generators)

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
    table = {(s, x): y for s in S.elements() for x, y in S.labels[s].pairs}
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
        assert T._require_up_masks() == up_masks_scan(S)
        assert all(T.up_set({s}, DOWN) == lower_set_scan(S, s) for s in S.elements())


def check_ground_cells(S):
    """A closure orders itself by its ground cells; the row scans of a
    table-only copy give the same up-, down- and compatibility masks."""
    table = FiniteInverseSemigroup(S.mul, _inverse=S.inv)
    assert S._ground_cells() is not None and table._ground_cells() is None
    up = S._require_up_masks()
    assert up == semigroup._up_masks(S.mul, S.inv, {}) == table._require_up_masks()
    assert up == up_masks_scan(S)
    down = [semigroup._mask_to_set(mask) for mask in semigroup._transpose(up, S.order)]
    assert [S.up_set({s}, DOWN) for s in S.elements()] == \
        [table.up_set({s}, DOWN) for s in S.elements()] == down
    assert semigroup._up_and_compatibility_masks(S) == \
        semigroup._up_and_compatibility_masks(table)


def check_criterion(S, subsets=()):
    for s in S.elements():
        verdict = hausdorff_criterion(S, s)
        jset, witness, down = hausdorff_scan(S, s)
        assert verdict.j_set == jset == down
        assert verdict.witness == witness
        assert covers_by_ideals(S, s, verdict.witness)
        assert S.up_set({s}, DOWN) == lower_set_scan(S, s)
    for subset in subsets:
        assert S.up_set(subset, DOWN) == frozenset().union(
            *(lower_set_scan(S, a) for a in subset))
        assert S.up_set(subset, UP) == frozenset(
            t for t in S.elements() if any(leq_scan(S, a, t) for a in subset))


def check_germs(action):
    G, O = build_germs(action), germ_groupoid_scan(action)
    assert len(G) == len(O.classes)
    assert all(G.germ(s, x).class_id == cid for (s, x), cid in O.class_of.items())
    assert G.reps == tuple(group[0] for group in O.classes)
    assert G.units == O.units
    assert (G.source, G.target, G.inverse) == (O.source, O.target, O.inverse)
    assert G.isotropy() is G.isotropy()  # found once, when G is built
    assert G.isotropy() == frozenset(c for c in range(len(G)) if O.source[c] == O.target[c])
    assert all(G.compose(c1, c2) == c12 for (c1, c2), c12 in O.products.items())
    n = len(G)
    for c1 in range(0, n, max(1, n // 40)):
        for c2 in range(n):
            assert product_or_none(G, c1, c2) == O.products.get((c1, c2))
    for x in range(action.space_size):
        assert action.idempotents_at(x) == tuple(
            e for e in sorted(action.semigroup.idempotents) if x in action.domain_of[e])
    check_germ_counts(action, G)
    return G


@pytest.mark.parametrize("name", FIXTURES)
def test_derivation_matches_scans(name):
    check_derivation(fixture(name))


@pytest.mark.parametrize("n", range(1, 6))
def test_ground_cells_match_row_scans(n):
    check_ground_cells(close(CLOSURES[f"I_{n}"] if n < 4 else symmetric_generators(n)))


def test_ground_cell_compatibility_matches_the_pair_test():
    S = close(symmetric_generators(4))
    comp = semigroup._up_and_compatibility_masks(S)[1]
    assert all(comp[s] >> t & 1 == compatible(S, s, t)
               for s in S.elements() for t in S.elements())


def test_a_closure_reads_its_pairs_once_for_order_and_compatibility(monkeypatch):
    reads = []
    key_pairs = semigroup._key_pairs

    def counting(key):
        reads.append(key)
        return key_pairs(key)

    monkeypatch.setattr(semigroup, "_key_pairs", counting)
    S = close(symmetric_generators(4))
    assert is_complete_and_distributive(S).ok
    assert len(reads) == S.order


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
    check_ground_cells(S)
    check_criterion(S, subsets)
    left, natural = left_translation_action(S), natural_action(S)
    assert left.table == left_translation_table_scan(S)
    assert natural.table == natural_table_scan(S)
    G = check_germs(left)
    check_germs(natural)
    # left translation: the classes at x are L_{xx*}, and isotropy is trivial
    l_sizes = Counter(S.mul[S.inv[u]][u] for u in S.elements())
    assert len(G) == sum(l_sizes[S.mul[x][S.inv[x]]] for x in S.elements())
    assert G.isotropy() == G.units


def test_germs_store_nothing_per_pair(monkeypatch):
    def refuse(*args):
        raise AssertionError("germ pair scan, pair table or closure table while building germs")

    S = close(symmetric_generators(4))
    point_action = load_action(DATA / "z2_point_action.json")  # validation reads rows
    monkeypatch.setattr(FiniteAction, "germ_pairs", refuse)
    monkeypatch.setattr(FiniteAction, "table", property(refuse))
    with monkeypatch.context() as m:
        # left translation reads products of S, never its table
        refuse_closure_tables(m)
        for action in (left_translation_action(S), point_action):
            G = build_germs(action)
            assert len(G) > 0
            assert callable(G.class_of) and not hasattr(G, "classes")
    for verify in ([], ["--verify"]):
        result = invoke_cli(["germs", str(DATA / "i2_gens.json"), "--self", *verify])
        assert result.exit_code == 0, result.output


def test_germ_counts_and_flags_lay_out_no_map(monkeypatch):
    """The size, units, isotropy and the three flags are read off the
    sorted class codes: the structure maps and the code index of
    `class_of` are laid out on first read, and these reads make none."""
    def refuse(self):
        raise AssertionError("laid out a structure map or the code index")

    S = close(symmetric_generators(4))
    point_action = load_action(DATA / "z2_point_action.json")  # isotropy beyond the units
    for builder in ("reps", "_maps"):
        monkeypatch.setattr(germs.GermGroupoid, builder, property(refuse))
    monkeypatch.setattr(germs.GermGroupoid, "_index", property(refuse))
    for action in (left_translation_action(S), point_action):
        G = build_germs(action)
        counts = (len(G), len(G.units), len(G.isotropy()))
        assert counts == germ_counts(action)
        flags = (G.is_principal(), G.is_effective(), G.is_essentially_principal())
        assert flags == (counts[1] == counts[2],) * 3
        for read in (lambda: G.reps, lambda: G.target, lambda: G.class_of(0, 0)):
            with pytest.raises(AssertionError, match="laid out"):
                read()
    assert germ_counts(point_action) == (2, 1, 2)


def test_germ_maps_do_not_depend_on_the_order_of_reads():
    """A groupoid whose maps are read before any `class_of` answers as
    one whose `class_of` runs first, and both as the union-find scan."""
    S = close(symmetric_generators(4))
    for action in (left_translation_action(S), natural_action(S),
                   load_action(DATA / "z2_point_action.json")):
        O = germ_groupoid_scan(action)
        maps_first, index_first = build_germs(action), build_germs(action)
        maps = (maps_first.source, maps_first.target, maps_first.inverse)
        ids = {pair: index_first.class_of(*pair) for pair in O.class_of}
        assert ids == {pair: maps_first.class_of(*pair) for pair in O.class_of} == O.class_of
        assert maps == (index_first.source, index_first.target, index_first.inverse)
        assert maps == (O.source, O.target, O.inverse)
        assert maps_first.reps == index_first.reps == tuple(group[0] for group in O.classes)


def test_cli_out_of_memory_is_inconclusive(monkeypatch):
    def exhaust(action):
        raise MemoryError

    # the report reads the counts; --verify builds the groupoid too
    for name, verify in (("left_translation_counts", []), ("build_germs", ["--verify"])):
        with monkeypatch.context() as m:
            m.setattr(germs, name, exhaust)
            result = invoke_cli(["germs", str(DATA / "i2_gens.json"), "--self", *verify])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == "inconclusive: out of memory\n"


def test_closure_never_scans_for_inverses(monkeypatch):
    def refuse(table):
        raise AssertionError("table pass for inverses during close")

    monkeypatch.setattr(semigroup, "_checked_inverses", refuse)
    assert close(symmetric_generators(4)).order == 209
    with pytest.raises(AssertionError):
        FiniteInverseSemigroup([[0]])


def test_only_a_closure_orders_by_ground_cells(monkeypatch):
    """With the row scans refused, a closure still orders itself, and a
    table is still built, but its first read of the order or of
    compatibility scans its rows."""
    def refuse(*args):
        raise AssertionError("row scan of the order or of compatibility")

    monkeypatch.setattr(semigroup, "_up_masks", refuse)
    monkeypatch.setattr(semigroup, "_compatibility_from_rows", refuse)
    S = close(symmetric_generators(4))
    assert is_complete_and_distributive(S).ok
    for table in (load_semigroup(DATA / "z2_table.json"), atomflip.truncation(4),
                  FiniteInverseSemigroup(S.mul, labels=S.labels)):
        for read in (table._require_up_masks, lambda: semigroup._up_and_compatibility_masks(table),
                     lambda: is_complete_and_distributive(table)):
            with pytest.raises(AssertionError):
                read()


def refuse_up_masks(monkeypatch):
    """Make every build of the m-bit up-masks, off rows or off ground
    cells, raise."""
    def refuse(*args):
        raise AssertionError("built the m-bit up-masks")

    monkeypatch.setattr(semigroup, "_up_masks", refuse)
    monkeypatch.setattr(semigroup, "_up_masks_from_cells", refuse)


def table_action_files(tmp_path):
    """An I_3 table file, and action files over it: I_3 acting on its
    three points and on itself by left translation."""
    S = close(CLOSURES["I_3"])
    (tmp_path / "i3_table.json").write_text(json.dumps(semigroup_to_dict(S)))
    paths = []
    for name, action in (("natural", natural_action(S)), ("left", left_translation_action(S))):
        path = tmp_path / f"i3_{name}_action.json"
        path.write_text(json.dumps({
            "version": 1, "semigroup": "i3_table.json", "space_size": action.space_size,
            "domains": [[e, sorted(action.domain_of[e])] for e in sorted(S.idempotents)],
            "action": [[s, [[x, action.act(s, x)] for x in sorted(action.domain(s))]]
                       for s in S.elements()]}))
        paths.append(path)
    return paths


def test_a_table_builds_its_order_only_when_read(monkeypatch, tmp_path):
    """Loading every table file in tests/data, `atomflip.truncation(64)`,
    CLI `close` (also with --verify) and `germs --self` on those files,
    and `germs` on action files over a table read no up-masks: with
    their builds refused, the results and the output are those of an
    unguarded run."""
    tables = sorted(path for path in DATA.glob("*.json")
                    if json.loads(path.read_text()).get("kind") == "table")
    calls = [*([command, str(path), *flags] for path in tables
               for command, *flags in (["close"], ["close", "--verify"], ["germs", "--self"])),
             *(["germs", str(path)] for path in table_action_files(tmp_path))]

    def run_all():
        semigroups = [*map(load_semigroup, tables), atomflip.truncation(64)]
        return ([(S.order, S.labels, S.mul, S.idempotents, S.inv, S.zero) for S in semigroups],
                [(r.exit_code, r.stdout, r.stderr) for r in map(invoke_cli, calls)])

    expected = run_all()
    assert len(tables) >= 3
    # all succeed but `germs --self` on left_zero.json, which is not inverse
    assert [code for code, _, _ in expected[1]].count(0) == len(calls) - 1
    refuse_up_masks(monkeypatch)
    assert run_all() == expected


@pytest.mark.parametrize("command", ["criterion", "props"])
def test_a_table_builds_its_up_masks_once(monkeypatch, tmp_path, command):
    """`criterion` on a table file reads its E-order off the up(e) that
    the inverse pass kept, and builds no m-bit mask; `props` builds the
    m-bit masks once, reading the kept up(e) of every idempotent."""
    built = []
    up_masks = semigroup._up_masks

    def counting(table, inv, kept):
        built.append((len(table), sorted(kept)))
        return up_masks(table, inv, kept)

    table_action_files(tmp_path)
    monkeypatch.setattr(semigroup, "_up_masks", counting)
    for path in (DATA / "z2_table.json", DATA / "chain2_table.json",
                 tmp_path / "i3_table.json"):
        S = load_semigroup(path)
        built.clear()
        result = invoke_cli([command, str(path)])
        assert result.exit_code == 0, result.output
        assert built == ([] if command == "criterion" else
                         [(S.order, sorted(S.idempotents))])


def refuse_closure_order(monkeypatch):
    """Make a closure's m-bit order, its ground cells and up-masks, raise
    when built."""
    def refuse(*args):
        raise AssertionError("a closure built its m-bit order")

    monkeypatch.setattr(semigroup, "_cells_of", refuse)
    monkeypatch.setattr(semigroup, "_up_masks_from_cells", refuse)


def symmetric_file(tmp_path, n):
    """A generator file for I_n."""
    path = tmp_path / f"i{n}.json"
    path.write_text(json.dumps({"version": 1, "kind": "generators", "ground_size": n,
                                "generators": [g.pairs for g in symmetric_generators(n)]}))
    return path


@pytest.mark.parametrize("fmt", [[], ["--format", "structured"]])
@pytest.mark.parametrize("command", [["criterion"], ["germs", "--self"]])
def test_criterion_and_germs_of_a_closure_read_only_the_e_order(
        monkeypatch, tmp_path, command, fmt):
    """On I_3 and I_4, with the m-bit order refused, the output is that of
    a run where it may be built."""
    for n in (3, 4):
        args = [command[0], str(symmetric_file(tmp_path, n)), *command[1:], *fmt]
        expected = invoke_cli(args)
        with monkeypatch.context() as m:
            refuse_closure_order(m)
            result = invoke_cli(args)
        assert result.exit_code == expected.exit_code == 0, result.output
        assert (result.stdout, result.stderr) == (expected.stdout, expected.stderr)


def test_the_e_order_serves_the_criterion_and_left_translation(monkeypatch):
    T = close(symmetric_generators(4))  # may build its m-bit order
    verdicts = [hausdorff_by_up_masks(T, s) for s in T.elements()]
    domains = left_translation_domains_by_up_masks(T)
    refuse_closure_order(monkeypatch)
    S = close(symmetric_generators(4))
    assert [hausdorff_criterion(S, s)[1:3] for s in S.elements()] == verdicts
    action = left_translation_action(S)
    assert action.domain_of == domains
    assert germ_counts(action) == left_translation_counts(S) == (3809, 209, 209)
    with pytest.raises(AssertionError):
        S.leq(0, 1)


def test_the_e_order_matches_the_m_bit_order():
    """The criterion, the left-translation domains and the closed-form
    germ counts against the m-bit order and the per-point count: on
    seeded random closures on 0-5 points, a closure on 300 points, every
    semigroup file in tests/data, F_64 and chain_12."""
    files = sorted(path for path in DATA.glob("*.json")
                   if json.loads(path.read_text()).get("kind") in ("table", "generators"))
    semigroups = [*swept_closures(), *map(load_semigroup, files), atomflip.truncation(64),
                  chain(12)]
    assert sum(S.order >= 10 for S in semigroups) >= 15  # not only the trivial ones
    for S in semigroups:
        if S.inv is None:  # no order at all, on either path
            for read in (lambda: hausdorff_criterion(S, 0), S._require_up_masks):
                with pytest.raises(ContractViolation):
                    read()
            continue
        assert [hausdorff_criterion(S, s)[1:3] for s in S.elements()] == \
            [hausdorff_by_up_masks(S, s) for s in S.elements()]
        action = left_translation_action(S)
        assert action.domain_of == left_translation_domains_by_up_masks(S)
        assert left_translation_counts(S) == germ_counts(action)


def test_unitary_reads_the_e_order_as_the_product_scan_decides():
    """`is_e_star_unitary` by one mask per element against the scan by
    |E| products: verdict, variant and first witness, on seeded random
    closures, every inverse semigroup file in tests/data, F_64, chain_12
    and I_3, I_4 and Z_2, with both verdicts for both variants."""
    files = sorted(path for path in DATA.glob("*.json")
                   if json.loads(path.read_text()).get("kind") in ("table", "generators"))
    # no zero, and the transposition (0 1) fixes the points of the idempotent [2,3]
    no_zero = [PartialBijection.identity(4, {2, 3}), PartialBijection(4, {0: 0, 1: 1, 2: 3, 3: 2}),
               PartialBijection(4, {0: 1, 1: 0, 2: 2, 3: 3})]
    semigroups = [*swept_closures(), *map(load_semigroup, files), atomflip.truncation(64),
                  chain(12), *map(close, (CLOSURES["I_3"], CLOSURES["I_4"], [SWAP], no_zero))]
    seen = Counter()
    for S in semigroups:
        if S.inv is None or not verify_inverse_semigroup(S).ok:
            continue
        result = is_e_star_unitary(S)
        assert tuple(result) == unitary_scan(S)
        seen[result.variant, result.ok] += 1
    assert set(seen) == {("E*-unitary", True), ("E*-unitary", False),
                         ("E-unitary", True), ("E-unitary", False)}, seen
    # the transposition (0 1) of I_4 fixes two points; the flip of F_n
    # is above every atom
    assert is_e_star_unitary(close(symmetric_generators(4))) == (False, "E*-unitary", 0)
    assert is_e_star_unitary(atomflip.truncation(64)) == (False, "E*-unitary", 1)
    assert is_e_star_unitary(close(no_zero)) == (False, "E-unitary", 2)


@pytest.mark.parametrize("fmt", [[], ["--format", "structured"]])
def test_germs_self_builds_no_action(monkeypatch, tmp_path, fmt):
    """`germs --self` reports from the closed form: with
    `left_translation_action` patched to raise, its output on the I_3
    and I_4 generator files and on z2_table.json is that of an
    unpatched run, and under --verify it builds the action once."""
    def refuse(S):
        raise AssertionError("germs --self built the left-translation action")

    honest, built = action_mod.left_translation_action, []

    def counting(S):
        built.append(S.order)
        return honest(S)

    for path in (symmetric_file(tmp_path, 3), symmetric_file(tmp_path, 4),
                 DATA / "z2_table.json"):
        args = ["germs", str(path), "--self", *fmt]
        expected = invoke_cli(args)
        with monkeypatch.context() as m:
            m.setattr(action_mod, "left_translation_action", refuse)
            result = invoke_cli(args)
        assert result.exit_code == expected.exit_code == 0, result.output
        assert (result.stdout, result.stderr) == (expected.stdout, expected.stderr)
        with monkeypatch.context() as m:
            m.setattr(action_mod, "left_translation_action", counting)
            assert invoke_cli([*args, "--verify"]).exit_code == 0
    assert built == [34, 209, 2]


def refuse_closure_tables(monkeypatch):
    """Make the layout of a closure's table, on a read of `S.mul`, raise."""
    mul = FiniteInverseSemigroup.mul

    def guarded(S):
        if S._closure is not None:
            raise AssertionError("a closure laid out its multiplication table")
        return mul.fget(S)

    monkeypatch.setattr(FiniteInverseSemigroup, "mul", property(guarded))


def refuse_closure_labels(monkeypatch):
    """Make the build of a closure's labels, on a read of `S.labels`, raise."""
    labels = FiniteInverseSemigroup.labels

    def guarded(S):
        if S._closure is not None:
            raise AssertionError("a closure built its labels")
        return labels.fget(S)

    monkeypatch.setattr(FiniteInverseSemigroup, "labels", property(guarded))


@pytest.mark.parametrize("fmt", [[], ["--format", "structured"]])
@pytest.mark.parametrize("command", [["close"], ["criterion"], ["props", "--budget", "3000"],
                                     ["germs", "--self"]])
def test_a_default_closure_command_builds_no_labels(monkeypatch, tmp_path, command, fmt):
    """On I_4, whose 209 elements are more than `close` lists, a closure
    prints its elements off their keys and builds no label; `close`
    asks for the labels only below the listing cap."""
    refuse_closure_labels(monkeypatch)
    result = invoke_cli([command[0], str(symmetric_file(tmp_path, 4)), *command[1:], *fmt])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("fmt", [[], ["--format", "structured"]])
@pytest.mark.parametrize("command", [["close"], ["criterion"], ["germs", "--self"],
                                     ["close", "--verify"], ["props", "--budget", "3000"],
                                     ["criterion", "--verify"], ["germs", "--self", "--verify"],
                                     ["props", "--verify"]])
def test_a_closure_command_builds_no_table(monkeypatch, tmp_path, command, fmt):
    """On I_2, I_3 and I_4; `props --verify` enumerates every compatible
    subset, too many on I_4, so it runs on I_2 and I_3 only."""
    paths = [DATA / "i2_gens.json"]
    for n in (3, 4) if command != ["props", "--verify"] else (3,):
        paths.append(symmetric_file(tmp_path, n))
    refuse_closure_tables(monkeypatch)
    for path in paths:
        result = invoke_cli([command[0], str(path), *command[1:], *fmt])
        assert result.exit_code == 0, result.output


def test_a_translate_certificate_needs_no_table(monkeypatch):
    """Step (iii) of the completeness check fails on this closure, and
    its generating set and translates come from products."""
    refuse_closure_tables(monkeypatch)
    S = load_semigroup(DATA / "translate_fail_gens.json")
    assert is_complete_and_distributive(S) == (False, ("left", 2, (0, 1)), 10)


def test_an_action_file_on_a_generator_file_builds_no_table(monkeypatch):
    """The action file names the generator file z2.json: validating the
    action and checking its germ classes read products of the closure,
    never its table."""
    refuse_closure_tables(monkeypatch)
    for verify in ([], ["--verify"]):
        result = invoke_cli(["germs", str(DATA / "z2_point_action.json"), *verify])
        assert result.exit_code == 0, result.output


def test_a_closure_multiplies_by_keys(monkeypatch):
    refuse_closure_tables(monkeypatch)
    S = close(symmetric_generators(4))
    assert all(hausdorff_criterion(S, s).witness is not None for s in S.elements())
    action = left_translation_action(S)
    # |L_{xx*}| = C(4, r) r! for x of rank r, and C(4, r)^2 r! such x
    assert check_germ_counts(action) == (3809, 209, 209)
    with pytest.raises(AssertionError):
        S.mul


def test_closing_i5_keeps_no_table():
    """Nor a label per element, which would take I_6 to 15 MB, nor a
    padded copy of each key, which would take I_5 to 0.8 MB and I_6 to
    6.8 MB: the keys, which the index holds, peak near 0.2 and 1.8 MB."""
    for n, order, bound in ((5, 1546, 500_000), (6, 13327, 3_000_000)):
        tracemalloc.start()
        try:
            assert close(symmetric_generators(n)).order == order
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, n


def swept_closures():
    """Seeded random closures on ground sets 0-5, the one-element
    closures and a closure on 300 points, whose keys are tuples."""
    rng = random.Random(20261019)
    yield from (close([PartialBijection(0)]), close([PartialBijection(1)]),
                close([PartialBijection.identity(3)]),
                close([PartialBijection(300, {0: 1, 1: 0}), PartialBijection(300, {0: 0, 299: 299})]))
    swept = 0
    while swept < 40:
        n = rng.choice([0, 1, 2, 3, 4, 4, 5, 5, 5, 5])
        try:
            S = close([random_pb(n, rng) for _ in range(rng.randint(1, 4))], budget=250)
        except BudgetExceeded:
            continue
        swept += 1
        yield S


def test_the_table_path_is_the_oracle_of_the_key_path():
    for S in swept_closures():
        m, labels, elements = S.order, S.labels, S.elements()
        rows = [[S.product(s, t) for t in elements] for s in elements]
        columns = [S.products(elements, t) for t in elements]
        verdicts = [hausdorff_criterion(S, s) for s in elements]
        counts = left_translation_counts(S)
        assert S._mul is None  # all of the above read the keys
        assert [S.label_str(s) for s in elements] == list(map(str, labels))
        T = FiniteInverseSemigroup(S.mul, labels=labels)  # row scans, no keys
        assert T._cells is None
        index = {f: i for i, f in enumerate(labels)}
        assert rows == [list(row) for row in T.mul] == \
            [[index[f.compose(g)] for g in labels] for f in labels]
        assert columns == [[row[t] for row in T.mul] for t in elements]
        assert (S.idempotents, S.zero, S.inv, S._require_up_masks()) == \
            (T.idempotents, T.zero, T.inv, T._require_up_masks())
        assert verdicts == [hausdorff_criterion(T, s) for s in range(m)]
        assert counts == left_translation_counts(T) == germ_counts(left_translation_action(T))


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


def counted_verifier(monkeypatch) -> list[int]:
    """The orders of the tables that the CLI hands to the verifier."""
    calls = []
    verify = cli.verify_inverse_semigroup

    def counting(S):
        calls.append(S.order)
        return verify(S)

    monkeypatch.setattr(cli, "verify_inverse_semigroup", counting)
    return calls


def test_criterion_command_verifies_the_table_once(monkeypatch):
    calls = counted_verifier(monkeypatch)
    result = invoke_cli(["criterion", str(DATA / "z2_table.json")])
    assert result.exit_code == 0, result.output
    assert calls == [2]


SEMIGROUP_COMMANDS = [["close"], ["criterion"], ["props"], ["germs", "--self"]]


@pytest.mark.parametrize("command", SEMIGROUP_COMMANDS)
@pytest.mark.parametrize("verify", [[], ["--verify"]])
def test_a_closure_meets_the_verifier_only_under_verify(monkeypatch, command, verify):
    """A closure is an inverse semigroup by construction, and --verify
    checks it with `is_closure_of`: the table verifier never reads it."""
    calls = counted_verifier(monkeypatch)
    result = invoke_cli([command[0], str(DATA / "i2_gens.json"), *command[1:], *verify])
    assert result.exit_code == 0, result.output
    assert calls == []


@pytest.mark.parametrize("command", SEMIGROUP_COMMANDS)
@pytest.mark.parametrize("verify", [[], ["--verify"]])
def test_a_table_file_meets_the_verifier_once(monkeypatch, command, verify):
    calls = counted_verifier(monkeypatch)
    result = invoke_cli([command[0], str(DATA / "chain2_table.json"), *command[1:], *verify])
    assert result.exit_code == 0, result.output
    assert calls == [2]


# -- trusted tables ----------------------------------------------------------
#
# `close` and `atomflip.truncation` pass `_inverse`, so the constructor
# takes their tables unchecked: no range check, no inverse scan.  The
# sweep checks what they vouch for, on I_1-I_5, on seeded random
# closures and on the truncations F_0-F_64.

@functools.cache
def trusted_tables(family: str) -> tuple[FiniteInverseSemigroup, ...]:
    if family == "I_n":
        return tuple(close(CLOSURES.get(f"I_{n}") or symmetric_generators(n))
                     for n in range(1, 6))
    if family == "random":
        rng = random.Random(20261018)
        grounds = [rng.randint(1, 5) for _ in range(30)]
        return tuple(close([random_pb(n, rng) for _ in range(rng.randint(2, 4))])
                     for n in grounds)
    return tuple(atomflip.truncation(n) for n in range(65))


TRUSTED_FAMILIES = ["I_n", "random", "truncation"]


@pytest.mark.parametrize("family", TRUSTED_FAMILIES)
def test_trusted_tables_are_in_range_with_their_inverses(family):
    for S in trusted_tables(family):
        m, mul = S.order, S.mul
        assert len(mul) == m and all(len(row) == m for row in mul)
        assert set().union(*mul) <= set(range(m))
        assert [semigroup.inverse_candidates(mul, s) for s in range(m)] == \
            [(t,) for t in S.inv]


@pytest.mark.parametrize("family", TRUSTED_FAMILIES)
def test_left_translation_domains_are_the_right_ideals(family):
    """D_e from the order (x in eS iff xx* <= e) against the row sets."""
    for S in trusted_tables(family):
        assert left_translation_action(S).domain_of == {
            e: frozenset(S.right_ideal(e)) for e in S.idempotents}


def exit_code(*args):
    result = invoke_cli(list(args))
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
    # --truncation bounds only the atom-flip family
    ["symbolic", "munn", "x y", "--truncation", "-1", "--verify"],
    ["symbolic", "graph", "e1", "--truncation", "4"],
    ["criterion", "--family", "munn", "--element", "x y", "--truncation", "4"],
    ["criterion", "--family", "graph", "--element", "e1", "--truncation", "-1", "--verify"],
])
def test_symbolic_inputs_outside_the_truncation_are_parse_errors(args):
    code, output = exit_code(*args)
    assert code == 2, output
    assert output.startswith("error: ") and output.count("\n") == 1


@pytest.mark.parametrize("family, element", [("atomflip", "flip"), ("munn", "x")])
@pytest.mark.parametrize("command", ["symbolic", "criterion"])
def test_graph_outside_the_graph_family_is_a_parse_error(command, family, element):
    args = ([command, family, element] if command == "symbolic"
            else [command, "--family", family, "--element", element])
    code, output = exit_code(*args, "--graph", str(DATA / "graph_loop.json"))
    assert (code, output) == (2, "error: --graph applies only to graph\n")


def test_symbolic_truncation_verify_builds_one_table(monkeypatch):
    built = []
    truncation = atomflip.truncation
    monkeypatch.setattr(atomflip, "truncation", lambda n: built.append(n) or truncation(n))
    assert exit_code("symbolic", "atomflip", "flip", "--truncation", "4", "--verify")[0] == 0
    assert built == [4]


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


# -- generator-local verify and action checks --------------------------------

@st.composite
def magma_tables(draw):
    m = draw(st.integers(1, 5))
    return [draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
            for _ in range(m)]


@st.composite
def small_generator_lists(draw):
    """Generators on at most 3 points: closures small enough for the
    O(m^3) scan."""
    n = draw(st.integers(1, 3))
    return draw(st.lists(partial_bijections(n), min_size=1, max_size=4))


SMALL = {**{f"I_{n}": list(all_partial_bijections(n)) for n in range(1, 4)},
         "Z_3": symmetric_generators(3)[1:2]}
SMALL_FIXTURES = [*SMALL, "F_0", "F_1", "F_4", "F_8"]


def small_fixture(name):
    if name in SMALL:
        return close(SMALL[name])
    return atomflip.truncation(int(name[2:]))


def check_verify(mul):
    """Verify, and the exhaustive scans of `close --verify`, agree with
    the scan in verdict, reason and certificate; the generating set
    reaches every element."""
    S = FiniteInverseSemigroup(mul)
    result = verify_inverse_semigroup(S)
    expected = verify_scan(S)
    assert (result.ok, result.reason, result.certificate) == expected
    assert tuple(semigroup.verify_by_scans(S, budget=S.order ** 3)) == expected
    gens = semigroup.generating_set(S.mul)
    assert generated_scan(S.mul, gens) == frozenset(range(S.order))
    assert semigroup.is_associative(S.mul, gens) == (expected[1] != "associativity")


def corrupted(mul, i, j, value):
    rows = [list(row) for row in mul]
    rows[i][j] = value
    return rows


def test_verify_on_one_element_table():
    assert semigroup.generating_set([[0]]) == (0,)
    assert semigroup.is_associative([[0]], (0,))
    check_verify([[0]])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(magma_tables())
def test_verify_matches_scan_on_random_magmas(mul):
    check_verify(mul)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL_FIXTURES), st.data())
def test_verify_matches_scan_with_one_cell_corrupted(name, data):
    mul = small_fixture(name).mul
    m = len(mul)
    i, j, value = (data.draw(st.integers(0, m - 1)) for _ in range(3))
    check_verify(corrupted(mul, i, j, value))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_generator_lists())
def test_verify_matches_scan_on_random_closures(gens):
    check_verify(close(gens).mul)


TABLES = {"left_zero": [[0, 0], [1, 1]],
          "chain_5": [[max(i, j) for j in range(5)] for i in range(5)]}


# I_4 is left to the guard below: the scan over 209^3 triples is slow.
@pytest.mark.parametrize("name", [*(f for f in FIXTURES if f != "I_4"), *TABLES])
def test_verify_matches_scan_on_fixtures(name):
    check_verify(TABLES[name] if name in TABLES else fixture(name).mul)


# Planted faults: an entry m (the string "m" stands for it), -1, 1.0,
# True, "0" or [0], or a row one entry short or one entry long.
PLANTED = ["m", -1, 1.0, True, "0", [0], "short row", "long row"]


@st.composite
def swept_tables(draw):
    """Random m x m tables with m from 1 to 8, most of them not
    associative; three in eight a small closure, truncation or fixed
    table; then up to two planted faults."""
    kind = draw(st.integers(0, 7))
    if kind == 0:
        mul = close(draw(small_generator_lists())).mul
    elif kind == 1:
        mul = small_fixture(draw(st.sampled_from(SMALL_FIXTURES))).mul
    elif kind == 2:
        mul = TABLES[draw(st.sampled_from(sorted(TABLES)))]
    else:
        m = draw(st.integers(1, 8))
        mul = [draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m)) for _ in range(m)]
    rows = [list(row) for row in mul]
    for fault in draw(st.lists(st.sampled_from(PLANTED), max_size=2)):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if fault == "short row":
            del row[-1:]
        elif fault == "long row":
            row.append(0)
        elif row:
            row[draw(st.integers(0, len(row) - 1))] = len(rows) if fault == "m" else fault
    return rows


# Row 0 is good, and its candidates read row 1 before row 1 is checked:
# an entry m there, or a short row, raises IndexError; -1 wraps around.
@settings(max_examples=500, deadline=None, derandomize=True)
@given(swept_tables())
@example([[0, 0], [2, 1]])
@example([[0, 0], [1]])
@example([[0, 0], [-1, 1]])
def test_one_table_pass_matches_the_two_pass_oracles(rows):
    """The constructor raises as the old range check does, or derives
    what the old scans do; on a good table, `inverse_candidates` and the
    verifier agree with their scans."""
    try:
        expected = derive_two_pass(rows)
    except ContractViolation as exc:
        with pytest.raises(ContractViolation) as raised:
            FiniteInverseSemigroup(rows)
        assert str(raised.value) == str(exc)
        return
    S = FiniteInverseSemigroup(rows)
    assert (S.inv, S.idempotents, S.zero) == expected
    mul = S.mul
    assert [semigroup.inverse_candidates(mul, s) for s in S.elements()] == \
        [inverse_candidates_scan(mul, s) for s in S.elements()]
    result = verify_inverse_semigroup(S)
    assert (result.ok, result.reason, result.certificate) == verify_scan(S)


def test_verify_never_scans_triples_on_i4(monkeypatch):
    def refuse(mul):
        raise AssertionError("exhaustive associativity scan")

    S = close(symmetric_generators(4))
    table = FiniteInverseSemigroup(S.mul)
    monkeypatch.setattr(semigroup, "first_non_associative_triple", refuse)
    assert verify_inverse_semigroup(S).ok and verify_inverse_semigroup(table).ok
    assert generated_scan(S.mul, semigroup.generating_set(S.mul)) == set(S.elements())
    with pytest.raises(AssertionError):
        verify_inverse_semigroup(FiniteInverseSemigroup(corrupted(S.mul, 208, 208, 0)))


def check_kept_by_the_inverse_pass(S):
    """A table that ran the inverse pass keeps len(set(row)) of every
    row, and, when it has an inverse map, up(e) of every idempotent e as
    the scan of `_up_masks` finds it; its E-order, read off those masks,
    is that of a copy that scans its rows.  With no inverse map it keeps
    no mask, and its E-order raises ContractViolation."""
    mul = S.mul
    assert S._row_counts == [len(set(row)) for row in mul]
    assert semigroup.generating_set(mul, S._row_counts) == semigroup.generating_set(mul)
    if S.inv is None:
        assert S._e_up_masks is None
        with pytest.raises(ContractViolation):
            S._require_e_order()
        return
    scan = semigroup._up_masks(mul, S.inv, {})
    assert list(S._e_up_masks.items()) == [(e, scan[e]) for e in sorted(S.idempotents)]
    copy = FiniteInverseSemigroup(mul, _inverse=S.inv)
    assert (copy._e_up_masks, copy._row_counts) == (None, None)
    assert S._require_e_order() == copy._require_e_order()
    assert S._require_up_masks() == scan == copy._require_up_masks()


KEPT_TABLES = {
    **{path.stem: lambda path=path: load_semigroup(path) for path in sorted(DATA.glob("*.json"))
       if json.loads(path.read_text()).get("kind") == "table"},
    **{f"chain_{n}": functools.partial(make_chain, n) for n in range(1, 9)},
    "I_3": lambda: FiniteInverseSemigroup(close(CLOSURES["I_3"]).mul),
    "I_4": lambda: FiniteInverseSemigroup(close(symmetric_generators(4)).mul),
}


@pytest.mark.parametrize("name", sorted(KEPT_TABLES))
def test_the_inverse_pass_keeps_the_idempotent_up_masks(name):
    check_kept_by_the_inverse_pass(KEPT_TABLES[name]())


def test_the_inverse_pass_keeps_the_up_masks_of_the_truncations():
    for n in range(65):
        S = FiniteInverseSemigroup(atomflip.truncation(n).mul)
        check_kept_by_the_inverse_pass(S)
        assert S._require_up_masks() == up_masks_scan(S)


@st.composite
def corrupted_fixtures(draw):
    mul = small_fixture(draw(st.sampled_from(SMALL_FIXTURES))).mul
    m = len(mul)
    return corrupted(mul, *(draw(st.integers(0, m - 1)) for _ in range(3)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(magma_tables(), small_generator_lists().map(lambda gens: close(gens).mul),
                 corrupted_fixtures()))
def test_the_inverse_pass_keeps_the_up_masks_of_random_tables(mul):
    """Random magmas (most with no inverse map), random closures, and
    small fixtures with one cell changed (some with an inverse map and
    not associative)."""
    check_kept_by_the_inverse_pass(FiniteInverseSemigroup(mul))


def count_inverse_scans(monkeypatch):
    calls = []
    scan = semigroup.inverse_candidates

    def counting(mul, s):
        calls.append(s)
        return scan(mul, s)

    monkeypatch.setattr(semigroup, "inverse_candidates", counting)
    return calls


def test_building_a_table_calls_no_inverse_candidates(monkeypatch):
    """The constructor finds inverses in its one pass over the rows;
    only the verifier calls `inverse_candidates`."""
    tables = [close(symmetric_generators(4)).mul, atomflip.truncation(64).mul,
              load_semigroup(DATA / "left_zero.json").mul, [[0]], []]
    calls = count_inverse_scans(monkeypatch)
    built = [FiniteInverseSemigroup(table) for table in tables]
    assert calls == []
    assert [S.inv is None for S in built] == [False, False, True, False, False]


@pytest.mark.parametrize("n", [4, 5])
def test_verify_reads_the_inverse_map_of_an_inverse_table(monkeypatch, n):
    """The inverse map that the constructor built answers for inverses:
    on I_n as a closure and as a table, no element gets its row scan."""
    S = close(symmetric_generators(n))
    table = FiniteInverseSemigroup(S.mul)
    calls = count_inverse_scans(monkeypatch)
    assert verify_inverse_semigroup(S).ok and verify_inverse_semigroup(table).ok
    assert calls == []


def test_verify_builds_no_closure_table(monkeypatch):
    """A closure passes the verifier by its letters and its inverse map."""
    S = close(symmetric_generators(5))
    refuse_closure_tables(monkeypatch)
    assert verify_inverse_semigroup(S) == (True, None, None)


def test_germs_on_a_table_action_file_runs_lights_test_once(monkeypatch, tmp_path):
    """The action check and the verifier share the table's generators
    and one run of Light's test."""
    calls = []
    light = semigroup.is_associative

    def counting(mul, gens, zero, counts):
        calls.append(gens)
        return light(mul, gens, zero, counts)

    monkeypatch.setattr(semigroup, "is_associative", counting)
    _, left = table_action_files(tmp_path)
    assert invoke_cli(["germs", str(left)]).exit_code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("table, certificate", [
    (load_semigroup(DATA / "left_zero.json").mul, (0, (0, 1))),
    # left zero {a, b} with an identity adjoined: idempotents a b = a != b = b a
    ([[0, 1, 2], [1, 1, 1], [2, 2, 2]], (1, (1, 2))),
])
def test_verify_scans_every_element_when_idempotents_do_not_commute(
        monkeypatch, table, certificate):
    S = FiniteInverseSemigroup(table)
    calls = count_inverse_scans(monkeypatch)
    result = verify_inverse_semigroup(S)
    assert (result.ok, result.reason, result.certificate) == verify_scan(S)
    assert result.certificate == certificate
    # the table has no inverse map, so the elements are scanned up to the first fault
    assert calls == list(range(certificate[0] + 1))


def per_generator_light(mul, gens):
    """Light's test and its oracle, generator by generator, on the
    table with tuple rows, as `FiniteInverseSemigroup` stores it, and
    with list rows, with no zero and with the zero that the
    constructor finds, with and without the row counts, as
    `generators_if_associative` passes them."""
    rows = tuple(map(tuple, mul))
    zero = FiniteInverseSemigroup(rows).zero
    expected = [light_scan(rows, [a]) for a in gens]
    counts = [len(set(row)) for row in rows]
    for table in (rows, [list(row) for row in mul]):
        for z, c in product({None, zero}, (None, counts)):
            assert [semigroup.is_associative(table, [a], z, c) for a in gens] == expected
    return zero


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_light_matches_scan_on_random_magmas(data):
    # Entries below k < m leave the elements >= k outside every aS, so
    # the rows get keyed by Z = aS ∪ {a} with a outside aS.
    m = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, m))
    mul = [data.draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))
           for _ in range(m)]
    per_generator_light(mul, range(m))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(8, 40), st.data())
def test_light_matches_scan_on_corrupted_truncations(n, data):
    m = n + 3
    i, j, value = (data.draw(st.integers(0, m - 1)) for _ in range(3))
    mul = corrupted(atomflip.truncation(n).mul, i, j, value)
    per_generator_light(mul, semigroup.generating_set(mul))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_generator_lists(), st.data())
def test_light_matches_scan_on_corrupted_closures(gens, data):
    mul = close(gens).mul
    m = len(mul)
    i, j, value = (data.draw(st.integers(0, m - 1)) for _ in range(3))
    mul = corrupted(mul, i, j, value)
    per_generator_light(mul, semigroup.generating_set(mul))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_light_matches_scan_with_an_absorbing_element(data):
    # An absorbing z = m adjoined to a random magma on 0..m-1, whose
    # entries lie below k or are z: small k leaves aS within {a, z}, so
    # the zero's column goes and often only the column of a is left.
    m = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, m))
    entry = st.integers(0, k - 1) | st.just(m)
    mul = [[*data.draw(st.lists(entry, min_size=m, max_size=m)), m] for _ in range(m)]
    mul.append([m] * (m + 1))
    assert per_generator_light(mul, range(m + 1)) == m


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 40), st.data())
def test_light_keeps_a_broken_zero_column(n, data):
    """A cell of the zero's column changed: the table has no zero, and
    its column stays in every key."""
    m = n + 3
    i, value = data.draw(st.integers(1, m - 1)), data.draw(st.integers(1, m - 1))
    mul = corrupted(atomflip.truncation(n).mul, i, 0, value)
    assert per_generator_light(mul, semigroup.generating_set(mul)) is None
    S = FiniteInverseSemigroup(mul)
    assert tuple(verify_inverse_semigroup(S)) == verify_scan(S)


def row_comparisons(mul, a, zero=None):
    """Light's test at the one generator a, counting the full-row
    comparisons it makes."""
    count = []

    class Row(tuple):
        def __ne__(self, other):
            count.append(1)
            return tuple.__ne__(self, other)

    assert semigroup.is_associative([Row(row) for row in mul], [a], zero)
    return len(count)


def test_light_keys_atoms_and_scans_units():
    # F_n: an atom a has aS ∪ {a} = {zero, a} and two keys, so at most
    # 2 rows each; with the zero given, only the column of a is left,
    # and its values, zero and a, need no comparison.  FLIP permutes
    # the table, so every row is compared.
    mul = atomflip.truncation(256).mul
    gens = semigroup.generating_set(mul)
    assert len(gens) == 257
    for zero, per_atom in ((None, 2), (0, 0)):
        assert all(row_comparisons(mul, a, zero) <= (per_atom if a >= 3 else len(mul))
                   for a in gens)
    S = close(symmetric_generators(4))
    units = [g for g in semigroup.generating_set(S.mul) if len(set(S.mul[g])) == S.order]
    assert units and all(row_comparisons(S.mul, g) == S.order for g in units)


def test_verify_f1024_table_file():
    S = FiniteInverseSemigroup(atomflip.truncation(1024).mul)
    assert verify_inverse_semigroup(S).ok


@pytest.mark.parametrize("i, j, value", [(5, 0, 5), (66, 66, 0), (1, 40, 3), (40, 1, 0)])
def test_verify_corrupted_f64_matches_scan(i, j, value):
    S = FiniteInverseSemigroup(corrupted(atomflip.truncation(64).mul, i, j, value))
    result = verify_inverse_semigroup(S)
    assert not result.ok
    assert (result.ok, result.reason, result.certificate) == verify_scan(S)


def test_generating_set_sizes():
    # Reaching too little is safe but costly: the counts pin the greedy pass.
    assert all(len(semigroup.generating_set(atomflip.truncation(n).mul)) == n + 1
               for n in (2, 3, 8, 64))
    els = list(all_partial_bijections(4))
    index = {el: i for i, el in enumerate(els)}
    table = [[index[a.compose(b)] for b in els] for a in els]
    assert len(semigroup.generating_set(table)) == 5
    assert len(semigroup.generating_set(close(symmetric_generators(4)).mul)) == 3


def validate_message(action):
    try:
        action.validate()
    except ContractViolation as exc:
        return str(exc)
    return None


def scan_message(action):
    try:
        validate_scan(action)
    except ContractViolation as exc:
        return str(exc)
    return None


def with_table(action, table):
    return FiniteAction(action.semigroup, action.space_size, action.domain_of, table)


def actions_of(S):
    yield left_translation_action(S)
    if S.labels and hasattr(S.labels[0], "ground_size"):
        yield natural_action(S)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL_FIXTURES), st.booleans(), st.data())
def test_validate_matches_scan_with_one_entry_corrupted(name, natural, data):
    actions = list(actions_of(small_fixture(name)))
    action = actions[-1] if natural else actions[0]
    assert validate_message(action) is scan_message(action) is None
    keys = sorted(action.table)
    if not keys:
        return
    table = dict(action.table)
    s, x = data.draw(st.sampled_from(keys))
    if data.draw(st.booleans()):
        # any value: mostly caught by the bijection checks
        table[(s, x)] = data.draw(st.integers(0, action.space_size))
    else:
        # swap two images of s: still a bijection, so the idempotent or
        # homomorphism check has to catch it
        y = data.draw(st.sampled_from(sorted(action.domain(s))))
        table[(s, x)], table[(s, y)] = table[(s, y)], table[(s, x)]
    broken = with_table(action, table)
    assert validate_message(broken) == scan_message(broken)


@pytest.mark.parametrize("name", [*SMALL_FIXTURES, "I_4"])
def test_left_translation_reads_its_least_idempotents_off_the_ranges(monkeypatch, name):
    """e_x = xx* under left translation: the fold of the idempotents at
    each point gives the same map, and the translation takes no product
    for it."""
    S = close(symmetric_generators(4)) if name == "I_4" else small_fixture(name)
    for U in (S, FiniteInverseSemigroup(S.mul, labels=S.labels)):
        action = left_translation_action(U)
        fold = {x: functools.reduce(U.product, action.idempotents_at(x))
                for x in range(action.space_size) if action.idempotents_at(x)}
        with monkeypatch.context() as patch:
            patch.setattr(FiniteInverseSemigroup, "product", None)
            assert action.least_idempotents() == fold


@pytest.mark.parametrize("name", ["I_2", "I_3", "F_4"])
def test_validate_names_the_first_non_homomorphic_pair(name):
    S = small_fixture(name)
    action = left_translation_action(S)
    s = next(s for s in S.elements() if s not in S.idempotents and len(action.domain(s)) > 1)
    x, y = sorted(action.domain(s))[:2]
    table = dict(action.table)
    table[(s, x)], table[(s, y)] = table[(s, y)], table[(s, x)]
    broken = with_table(action, table)
    message = validate_message(broken)
    assert message == scan_message(broken)
    assert message.startswith("action is not a homomorphism at ")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_generator_lists())
def test_validate_accepts_actions_of_random_closures(gens):
    for action in actions_of(close(gens)):
        assert validate_message(action) is scan_message(action) is None


def test_validate_checks_every_pair_on_a_non_associative_table():
    # idempotents 0 and 1 with unique inverses, but (2 2) 1 != 2 (2 1)
    S = FiniteInverseSemigroup([[0, 2, 2], [2, 1, 2], [1, 0, 1]])
    assert S.inv is not None
    assert not semigroup.is_associative(S.mul, semigroup.generating_set(S.mul))
    action = FiniteAction(S, 1, {0: {0}, 1: set()}, {(0, 0): 0})
    # the law holds at every generator, so only the all-pairs loop sees the fault
    assert all(all(action_mod._homomorphic_at(action._rows, S, s))
               for s in semigroup.generating_set(S.mul))
    assert validate_message(action) == scan_message(action) \
        == "action is not a homomorphism at (2, 1)"


def test_validate_checks_only_generators_on_i4(monkeypatch):
    calls = []
    law = action_mod._homomorphic_at

    def counting(rows, S, s):
        calls.append(s)
        return law(rows, S, s)

    S = close(symmetric_generators(4))
    T = FiniteInverseSemigroup(S.mul, labels=S.labels)  # S as a table file gives it
    monkeypatch.setattr(action_mod, "_homomorphic_at", counting)
    # a closure is generated by its letters, elements 0..k-1; a table by `generating_set`
    for U, gens in ((S, range(len(letters_of(symmetric_generators(4))))),
                    (T, semigroup.generating_set(T.mul))):
        calls.clear()
        left_translation_action(U).validate()
        natural_action(U).validate()
        assert calls == [*gens] * 2


@pytest.mark.parametrize("n", [*range(65), 2048])
def test_truncation_matches_pairwise_products(n):
    S, O = atomflip.truncation(n), atomflip_truncation_scan(n)
    assert S.mul == O.mul and S.labels == O.labels and S.inv == O.inv
    assert (S.zero, S.idempotents, S._require_up_masks()) == \
        (O.zero, O.idempotents, O._require_up_masks())


def test_cli_reports_the_scan_certificates(tmp_path):
    table = corrupted(close(SMALL["I_2"]).mul, 3, 4, 0)
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"version": 1, "kind": "table", "mul_table": table}))
    ok, reason, certificate = verify_scan(FiniteInverseSemigroup(table))
    assert not ok and reason == "associativity"
    code, output = exit_code("close", str(path))
    assert code == 0
    assert f"verifier: FAILED (associativity) certificate={list(certificate)}" in output

    # Z_3 = {g, g^2, 1}, both g and g^2 acting as one transposition
    S = close([PartialBijection(3, {0: 1, 1: 2, 2: 0})])
    images = {s: {0: 0, 1: 1, 2: 2} if s in S.idempotents else {0: 1, 1: 0, 2: 2}
              for s in S.elements()}
    action = FiniteAction(S, 3, {e: range(3) for e in S.idempotents},
                          {(s, x): y for s, image in images.items() for x, y in image.items()})
    message = scan_message(action)
    assert message.startswith("action is not a homomorphism at ")
    (tmp_path / "z3.json").write_text(json.dumps(
        {"version": 1, "kind": "generators", "ground_size": 3,
         "generators": [[[0, 1], [1, 2], [2, 0]]]}))
    path = tmp_path / "action.json"
    path.write_text(json.dumps({
        "version": 1, "semigroup": "z3.json", "space_size": 3,
        "domains": [[e, [0, 1, 2]] for e in sorted(S.idempotents)],
        "action": [[s, sorted(image.items())] for s, image in images.items()]}))
    code, output = exit_code("germs", str(path))
    assert code == 2 and output.rstrip().endswith(f"invalid action: {message}")


def test_germs_of_a_table_without_unique_inverses_is_a_parse_error():
    code, output = exit_code("germs", str(DATA / "left_zero.json"), "--self")
    assert code == 2
    assert output.endswith("not an inverse semigroup "
                           "(inverse-uniqueness, certificate (0, (0, 1)))\n")


# -- completeness by pairs against the clique scan --------------------------

def chain(n):
    return FiniteInverseSemigroup([[max(i, j) for j in range(n)] for i in range(n)])


def check_completeness(S):
    """The pair check decides as the clique scan does, and a failing
    certificate is re-checked by brute-force joins."""
    result = is_complete_and_distributive(S)
    assert result.ok == completeness_scan(S).ok
    if result.ok:
        assert result.certificate is None
        return result
    kind, *rest = result.certificate
    if kind == "join":
        (members,) = rest
        assert len(members) in (2, 3) and list(members) == sorted(set(members))
        assert all(compatible(S, a, b) for a in members for b in members)
        assert join_brute(S, members) is None
    else:
        g, (a, b) = rest
        assert compatible(S, a, b)
        mul, v = S.mul, join_brute(S, (a, b))
        if kind == "left":
            assert mul[g][v] != join_brute(S, {mul[g][a], mul[g][b]})
        else:
            assert kind == "right"
            assert mul[v][g] != join_brute(S, {mul[a][g], mul[b][g]})
    return result


COMPLETENESS_FIXTURES = [*(f"I_{n}" for n in range(1, 4)), *(f"F_{n}" for n in range(7))]


@pytest.mark.parametrize("name", COMPLETENESS_FIXTURES)
def test_completeness_matches_scan_on_fixtures(name):
    result = check_completeness(fixture(name))
    assert result.ok == (name.startswith("I") or name in ("F_0", "F_1"))


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_completeness_matches_scan_on_chains(n):
    result = check_completeness(chain(n))
    assert result.ok and result.subsets_checked == n * (n - 1) // 2


@settings(max_examples=120, deadline=None, derandomize=True)
@given(generator_lists())
def test_completeness_matches_scan_on_random_closures(gens):
    """A closure translates by its letters and its table by the
    generators of Light's test; both decide alike, on the same pairs
    and the same subsets."""
    S = close(gens)
    assume(S.order <= 60)  # the clique scan is exponential in the clique size
    T = FiniteInverseSemigroup(S.mul)
    for decide in (check_completeness, completeness_scan):
        by_letters, by_table = decide(S), decide(T)
        assert (by_letters.ok, by_letters.subsets_checked) == \
            (by_table.ok, by_table.subsets_checked)


def test_the_clique_scan_reads_no_product_column(monkeypatch):
    """The scan translates each clique by the generators, one product at
    a time: on I_3 it passes all 1507 subsets, and on
    translate_fail_gens.json it names the translate that the pair check
    names."""
    S, fail = fixture("I_3"), load_semigroup(DATA / "translate_fail_gens.json")
    monkeypatch.setattr(FiniteInverseSemigroup, "products",
                        lambda *args: pytest.fail("read a product column"))
    assert completeness_scan(S) == CompletenessResult(True, None, 1507)
    assert completeness_scan(fail).certificate == ("left", 2, (0, 1))


def test_completeness_of_a_table_that_fails_lights_test_is_refused():
    """I_2 with [0->1,1->0][0->0] sent to the swap instead of [0->1]:
    every element keeps one generalized inverse, but the table is not
    associative, so there are no generators to translate by."""
    S = close([PartialBijection(2, {0: 1, 1: 0}), PartialBijection(2, {0: 0})])
    mul = [list(row) for row in S.mul]
    mul[0][1] = 0
    T = FiniteInverseSemigroup(mul)
    assert T.inv is not None and verify_inverse_semigroup(T).reason == "associativity"
    for decide in (is_complete_and_distributive, completeness_scan):
        with pytest.raises(ContractViolation, match="fails Light's test"):
            decide(T)


def test_completeness_pair_budget_boundary_on_i3():
    S = fixture("I_3")
    assert is_complete_and_distributive(S, budget=159).subsets_checked == 159
    with pytest.raises(BudgetExceeded):
        is_complete_and_distributive(S, budget=158)


def test_completeness_finds_the_missing_atom_join_in_f1024():
    # The clique scan recursed once per clique member (RecursionError
    # here) and never finished on F_64: every set of atoms joins to FLIP.
    result = is_complete_and_distributive(atomflip.truncation(1024))
    assert not result.ok and result.certificate == ("join", (3, 4))
    assert result.subsets_checked == 3 * 1025  # (0, *), (1, *), (2, *), then (3, 4)


def test_cli_props_on_f64(tmp_path):
    path = tmp_path / "f64.json"
    path.write_text(json.dumps(semigroup_to_dict(atomflip.truncation(64))))
    code, output = exit_code("props", str(path))
    assert code == 0
    assert "complete+distributive: no (subsets checked: 195)" in output


def test_cli_props_verify_runs_the_clique_scan(tmp_path, monkeypatch):
    path = tmp_path / "i3.json"
    path.write_text(json.dumps(semigroup_to_dict(fixture("I_3"))))
    assert exit_code("props", str(path), "--verify")[0] == 0
    # 159 pairs decide I_3, but the scan needs 1507 subsets
    code, output = exit_code("props", str(path), "--verify", "--budget", "1000")
    assert code == 3 and "completeness scan exceeded subset budget 1000" in output
    monkeypatch.setattr("invsemi.oracles.completeness_scan",
                        lambda S, budget: CompletenessResult(False))
    assert exit_code("props", str(path), "--verify")[0] == 4


def test_action_copies_a_table_passed_in():
    S = close(SMALL["I_2"])
    table = dict(natural_action(S).table)
    action = FiniteAction(S, 2, {e: S.labels[e].domain for e in S.idempotents}, table)
    table.clear()
    assert action.table and action.validate() is None


def test_completeness_takes_no_translate_on_a_long_chain(monkeypatch):
    # Every element of a chain is a generator, so (iii) over all pairs
    # would cost about 2 * 400 translates per pair; comparable pairs
    # need none, and a chain has only comparable pairs.
    from invsemi import criterion
    monkeypatch.setattr(criterion, "generators_if_associative",
                        lambda S: pytest.fail("translated"))
    pairs = 400 * 399 // 2
    result = is_complete_and_distributive(chain(400), budget=pairs)
    assert result.ok and result.subsets_checked == pairs
    with pytest.raises(BudgetExceeded):
        is_complete_and_distributive(chain(400), budget=pairs - 1)
