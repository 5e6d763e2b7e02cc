"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
bound (counts, witness sizes, time limits) is asserted, not just shown.
"""

import time
from pathlib import Path

from invsemi import (
    HAUSDORFF_WITNESS,
    REFUTED,
    all_partial_bijections,
    build_germs,
    check_fixed_point_germ_laws,
    check_fixed_points_are_ideal_union,
    close,
    count_partial_bijections,
    covers_by_ideals,
    covers_downward,
    fixed_sets,
    germ_equiv_oracle,
    hausdorff_criterion,
    ideal_cover_agrees_with_order_cover,
    join,
    left_translation_action,
    verify_inverse_semigroup,
)
from invsemi.symbolic import atomflip, graphs, munn
from invsemi.symbolic.atomflip import FLIP, ZERO, atom
from conftest import invoke_cli

DATA = Path(__file__).parent / "data"


def conclude(number: int, description: str, elapsed: float | None = None) -> None:
    suffix = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {number} PASS: {description}{suffix}")


def test_criterion_1_closure_correctness():
    started = time.perf_counter()
    for n, expected in ((2, 7), (3, 34)):
        S = close(list(all_partial_bijections(n)))
        assert S.order == expected == count_partial_bijections(n)
        assert verify_inverse_semigroup(S).ok
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    conclude(1, "closures of I_2 and I_3 have orders 7 and 34, verified", elapsed)


def test_criterion_2_verifier(all_fixtures, left_zero_table):
    worst = 0.0
    for name, S in all_fixtures.items():
        started = time.perf_counter()
        assert verify_inverse_semigroup(S).ok, name
        worst = max(worst, time.perf_counter() - started)
    started = time.perf_counter()
    rejection = verify_inverse_semigroup(left_zero_table)
    worst = max(worst, time.perf_counter() - started)
    assert not rejection.ok and rejection.reason == "inverse-uniqueness"
    assert worst < 1.0
    conclude(2, f"verifier accepts all {len(all_fixtures)} fixtures, "
                "rejects the left-zero table", worst)


def test_criterion_3_cover_condition_equivalence(all_fixtures):
    started = time.perf_counter()
    disagreements = 0
    for name, S in all_fixtures.items():
        for s in S.elements():
            if not ideal_cover_agrees_with_order_cover(S, s):
                disagreements += 1
            F = hausdorff_criterion(S, s).witness
            if not (covers_by_ideals(S, s, F) and covers_downward(S, s, F)):
                disagreements += 1
    assert disagreements == 0
    conclude(3, "ideal-cover and downward-cover conditions agree for every "
                "element of every fixture", time.perf_counter() - started)


def test_criterion_4_principal_shadow(all_fixtures):
    started = time.perf_counter()
    violations = 0
    for name, S in all_fixtures.items():
        action = left_translation_action(S)
        G = build_germs(action)
        if not (G.is_principal() and G.is_effective() and G.is_essentially_principal()):
            violations += 1
        ok, _ = check_fixed_point_germ_laws(action)
        if not ok:
            violations += 1
        for s in S.elements():
            f_s, tf_s = fixed_sets(action, s)
            if f_s != tf_s:
                violations += 1
    assert violations == 0
    conclude(4, "left-translation groupoids are principal/effective/essentially "
                "principal and the fixed-point laws hold", time.perf_counter() - started)


def test_criterion_5_fixed_points_are_ideal_unions(all_fixtures):
    started = time.perf_counter()
    for name, S in all_fixtures.items():
        assert check_fixed_points_are_ideal_union(S), name
    conclude(5, "F_s equals the union of e S over J_s in every fixture",
             time.perf_counter() - started)


def test_criterion_6_pseudogroup_branch(i2, i3):
    started = time.perf_counter()
    for S in (i2, i3):
        for s in S.elements():
            jset = S.j_set(s)
            top = join(S, jset)
            assert top is not None, s
            assert top in jset
            assert covers_downward(S, s, [top])
            assert covers_by_ideals(S, s, [top])
    conclude(6, "in I_2 and I_3 the join of J_s exists, lies in J_s, and is "
                "a singleton witness", time.perf_counter() - started)


def test_criterion_7_unitary_branch():
    started = time.perf_counter()
    # graph family: paths up to length 3 on the 2-vertex / 3-edge graph
    g = graphs.fixture_graph()
    pool = graphs.element_pool(g, 3)
    idems = [e for e in pool if e.is_idempotent() and not e.is_zero]
    for s in pool:
        if not s.is_idempotent():
            for e in idems:
                assert s * e != e, (str(s), str(e))
        report = graphs.criterion(s)
        assert report.verdict == HAUSDORFF_WITNESS and len(report.witness) <= 1
    # free inverse monoid: Munn trees with at most 4 vertices, ranks 1 and 2
    for rank in (1, 2):
        mpool = munn.element_pool(rank, 4)
        midems = [e for e in mpool if e.is_idempotent()]
        for s in mpool:
            if not s.is_idempotent():
                for e in midems:
                    assert s * e != e
            report = munn.criterion(s)
            assert report.verdict == HAUSDORFF_WITNESS and len(report.witness) <= 1
    conclude(7, f"no unitarity violation in {len(pool)} path pairs or the "
                "rank-1/2 Munn pools; all witnesses have size <= 1",
             time.perf_counter() - started)


def test_criterion_8_non_hausdorff_refutation():
    started = time.perf_counter()
    report = atomflip.criterion(FLIP)
    assert report.verdict == REFUTED
    members = [report.antichain.member(i) for i in range(1, 17)]
    assert len(set(members)) == 16
    for i, a in enumerate(members):
        assert a.is_idempotent()
        assert atomflip.multiply(FLIP, a) == a
        for b in members[i + 1:]:
            assert atomflip.multiply(a, b) == ZERO
    # truncations: the witness is exactly the n atoms
    assert atomflip.criterion(FLIP, truncation_atoms=0).witness == (ZERO,)
    for n in range(1, 65):
        tr = atomflip.criterion(FLIP, truncation_atoms=n)
        assert tr.verdict == HAUSDORFF_WITNESS
        assert len(tr.witness) == n
        assert set(tr.witness) == {atom(i) for i in range(1, n + 1)}
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    conclude(8, "FLIP refuted with a verified antichain; truncations 1..64 "
                "yield witnesses of exactly n atoms", elapsed)


def test_criterion_9_germ_oracle_equivalence(all_fixtures):
    started = time.perf_counter()
    pair_count = 0
    for name, S in all_fixtures.items():
        action = left_translation_action(S)
        G = build_germs(action)
        by_point: dict[int, list[int]] = {}
        for s, x in action.germ_pairs():
            by_point.setdefault(x, []).append(s)
        for x, elements in by_point.items():
            for i, s in enumerate(elements):
                for t in elements[i + 1:]:
                    pair_count += 1
                    same = G.germ(s, x) == G.germ(t, x)
                    assert same == germ_equiv_oracle(action, s, t, x), (name, s, t, x)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    conclude(9, f"closed-form germ classes match the witness-search oracle on "
                f"{pair_count} germ pairs", elapsed)


def test_criterion_10_deterministic_reports():
    started = time.perf_counter()
    invocations = [
        ["close", str(DATA / "i2_gens.json")],
        ["close", str(DATA / "i2_gens.json"), "--format", "structured"],
        ["props", str(DATA / "i2_gens.json"), "--format", "structured"],
        ["germs", str(DATA / "i2_gens.json"), "--self", "--format", "structured"],
        ["germs", str(DATA / "z2_point_action.json"), "--format", "structured"],
        ["criterion", str(DATA / "i2_gens.json"), "--format", "structured"],
        ["symbolic", "atomflip", "flip"],
        ["symbolic", "atomflip", "flip", "--truncation", "8", "--format", "structured"],
        ["symbolic", "munn", "x y x^-1", "--format", "structured"],
        ["symbolic", "graph", "p=e1,q=e2.e3", "--format", "structured"],
    ]
    for args in invocations:
        first = invoke_cli(args)
        second = invoke_cli(args)
        assert first.exit_code == second.exit_code == 0, (args, first.output)
        assert first.stdout_bytes == second.stdout_bytes, args
    conclude(10, f"{len(invocations)} CLI invocations are byte-identical "
                 "across repeat runs", time.perf_counter() - started)
