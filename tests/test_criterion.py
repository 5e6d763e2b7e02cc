import json
import random
from pathlib import Path

import pytest

from invsemi import (
    DOWN,
    HAUSDORFF_WITNESS,
    BudgetExceeded,
    ContractViolation,
    FiniteInverseSemigroup,
    InvariantViolation,
    PartialBijection,
    close,
    compatible,
    covers_by_ideals,
    covers_downward,
    hausdorff_criterion,
    ideal_cover_agrees_with_order_cover,
    is_complete_and_distributive,
    is_e_star_unitary,
    join,
)
from conftest import element_index, invoke_cli, make_chain, semigroup_to_dict
from invsemi import cli, semigroup
from invsemi.symbolic import atomflip
from oracles import hausdorff_by_up_masks, join_brute, maximal_elements_scan, union_join
from test_closure import symmetric_generators

DATA = Path(__file__).parent / "data"


def test_j_set_of_idempotent_is_its_down_set(all_fixtures):
    for name, S in all_fixtures.items():
        for e in S.idempotents:
            expected = frozenset(x for x in S.idempotents if S.leq(x, e))
            assert S.j_set(e) == expected, name


def test_j_set_atomflip_flip():
    S = atomflip.truncation(2)
    flip = next(i for i, el in enumerate(S.labels) if el == atomflip.FLIP)
    expected = {i for i, el in enumerate(S.labels)
                if el.kind in ("zero", "atom")}
    assert S.j_set(flip) == frozenset(expected)


def test_j_set_of_moving_element(i2):
    move = element_index(i2, PartialBijection(2, {0: 1}))
    empty = element_index(i2, PartialBijection(2, {}))
    assert i2.j_set(move) == frozenset({empty})


def test_compatible_idempotents_and_diagonal(i2):
    for e in i2.idempotents:
        for f in i2.idempotents:
            assert compatible(i2, e, f)
    for s in i2.elements():
        assert compatible(i2, s, s)


def test_compatible_matches_union_semantics(i2):
    # two partial bijections are compatible exactly when their union is one
    for s in i2.elements():
        for t in i2.elements():
            merged = dict(i2.labels[s].pairs)
            ok = True
            for x, y in i2.labels[t].pairs:
                if merged.get(x, y) != y:
                    ok = False
                merged[x] = y
            if ok and len(set(merged.values())) != len(merged):
                ok = False
            assert compatible(i2, s, t) == ok, (s, t)


def test_incompatible_example(i2):
    ident = element_index(i2, PartialBijection.identity(2))
    swap = element_index(i2, PartialBijection(2, {0: 1, 1: 0}))
    assert not compatible(i2, ident, swap)


def test_join_examples(i2):
    id0 = element_index(i2, PartialBijection(2, {0: 0}))
    id1 = element_index(i2, PartialBijection(2, {1: 1}))
    id01 = element_index(i2, PartialBijection.identity(2))
    assert join(i2, [id0, id1]) == id01
    for s in i2.elements():
        assert join(i2, [s]) == s


def test_join_absent_in_small_closure():
    S = close([PartialBijection(2, {0: 0}), PartialBijection(2, {1: 1})])
    assert S.order == 3
    id0 = element_index(S, PartialBijection(2, {0: 0}))
    id1 = element_index(S, PartialBijection(2, {1: 1}))
    assert join(S, [id0, id1]) is None


def test_join_contract_errors(i2):
    ident = element_index(i2, PartialBijection.identity(2))
    swap = element_index(i2, PartialBijection(2, {0: 1, 1: 0}))
    with pytest.raises(ContractViolation):
        join(i2, [])
    with pytest.raises(ContractViolation):
        join(i2, [ident, swap])


def test_join_matches_oracles(i2, i3):
    for S in (i2, i3):
        for s in S.elements():
            jset = sorted(S.j_set(s))
            got = join(S, jset)
            assert got == join_brute(S, jset)
            assert got == union_join(S, jset)


def test_complete_and_distributive_i2(i2):
    assert is_complete_and_distributive(i2).ok


def test_complete_and_distributive_i3(i3):
    assert is_complete_and_distributive(i3).ok


def test_not_complete_without_top():
    S = close([PartialBijection(2, {0: 0}), PartialBijection(2, {1: 1})])
    result = is_complete_and_distributive(S)
    assert not result.ok
    kind, members = result.certificate
    assert kind == "join" and len(members) == 2


def test_one_element_complete():
    S = close([PartialBijection(1, {0: 0})])
    assert is_complete_and_distributive(S).ok


def test_atomflip_not_complete():
    # the two atoms are compatible but flip/square are incomparable upper bounds
    result = is_complete_and_distributive(atomflip.truncation(2))
    assert not result.ok


def test_completeness_budget(i3):
    with pytest.raises(BudgetExceeded):
        is_complete_and_distributive(i3, budget=5)


def test_e_star_unitary_i2(i2):
    result = is_e_star_unitary(i2)
    assert result.ok and result.variant == "E*-unitary"


def test_e_star_unitary_fails_on_i3(i3):
    # an element fixing one point while moving others breaks unitarity
    result = is_e_star_unitary(i3)
    assert not result.ok
    witness = result.witness
    assert witness not in i3.idempotents
    assert set(i3.j_set(witness)) != {i3.zero}


def test_e_star_unitary_atomflip():
    result = is_e_star_unitary(atomflip.truncation(2))
    assert not result.ok
    S = atomflip.truncation(2)
    assert S.labels[result.witness] == atomflip.FLIP


def test_e_unitary_variant_without_zero(z2):
    result = is_e_star_unitary(z2)
    assert result.ok and result.variant == "E-unitary"


def test_semilattice_trivially_unitary():
    result = is_e_star_unitary(make_chain(3))
    assert result.ok


def test_hausdorff_criterion_idempotents(all_fixtures):
    for name, S in all_fixtures.items():
        for e in S.idempotents:
            verdict = hausdorff_criterion(S, e)
            assert verdict.verdict == HAUSDORFF_WITNESS
            assert verdict.witness == (e,), name


def test_hausdorff_criterion_moving_element(i2):
    move = element_index(i2, PartialBijection(2, {0: 1}))
    empty = element_index(i2, PartialBijection(2, {}))
    verdict = hausdorff_criterion(i2, move)
    assert verdict.j_set == frozenset({empty})
    assert verdict.witness == (empty,)


def test_hausdorff_criterion_atomflip_truncation():
    S = atomflip.truncation(3)
    flip = next(i for i, el in enumerate(S.labels) if el == atomflip.FLIP)
    verdict = hausdorff_criterion(S, flip)
    atoms = {i for i, el in enumerate(S.labels) if el.kind == "atom"}
    assert set(verdict.witness) == atoms
    assert covers_by_ideals(S, flip, verdict.witness)


def test_hausdorff_criterion_always_witnesses(all_fixtures):
    for name, S in all_fixtures.items():
        for s in S.elements():
            verdict = hausdorff_criterion(S, s)
            assert verdict.verdict == HAUSDORFF_WITNESS, name
            assert verdict.witness == maximal_elements_scan(S, S.j_set(s))
            assert S.up_set(verdict.witness, DOWN) == verdict.j_set


def with_a_hole_below_a_witness(S):
    """A copy of S whose E-order misses, below some witness member f of
    some J_s, an e < f in J_s that no other member covers but that lies
    below some g < f in J_s, so e is still not maximal; J_s keeps e.
    Returns (copy, s)."""
    E, below, _ = S._require_e_order()
    bit = {e: 1 << i for i, e in enumerate(E)}
    for s in S.elements():
        witness = hausdorff_criterion(S, s).witness
        for f in witness:
            others = 0
            for g in witness:
                if g != f:
                    others |= below[E.index(g)]
            e = next((e for e in S.j_set(s) if e != f and below[E.index(f)] & bit[e]
                      and not others & bit[e]
                      and any(g not in (e, f) and below[E.index(g)] & bit[e]
                              for g in S.j_set(s))), None)
            if e is not None:
                T = FiniteInverseSemigroup(S.mul, labels=S.labels)
                holed = list(below)
                holed[E.index(f)] &= ~bit[e]
                object.__setattr__(T, "_e_order", (E, tuple(holed), T._require_e_order()[2]))
                return T, s
    raise AssertionError("no witness with a non-maximal element below it")


def test_downward_closure_check_fires(i3, monkeypatch, tmp_path):
    T, s = with_a_hole_below_a_witness(i3)
    with pytest.raises(InvariantViolation):
        hausdorff_criterion(T, s)

    f = tmp_path / "i3.json"
    f.write_text(json.dumps(semigroup_to_dict(i3)))
    monkeypatch.setattr(cli.formats, "load_semigroup", lambda path, budget=None: T)
    result = invoke_cli(["criterion", str(f)])
    assert result.exit_code == 4
    assert result.stderr.startswith("invariant failure: downward closure")


def random_closures(count, seed):
    """Seeded closures of one to three random partial bijections on 2-5
    points, each of at most 400 elements."""
    rng = random.Random(seed)
    while count:
        n = rng.randint(2, 5)
        gens = [PartialBijection(n, dict(zip(rng.sample(range(n), rng.randint(0, n)),
                                             rng.sample(range(n), n))))
                for _ in range(rng.randint(1, 3))]
        try:
            yield close(gens, budget=400)
        except BudgetExceeded:
            continue
        count -= 1


def test_one_verdict_per_j_set(all_fixtures):
    """Over the fixtures, I_3-I_5, seeded random closures and F_64: each
    verdict is the m-bit order's, and elements with equal J_s share one
    frozenset and one witness tuple."""
    semigroups = [*all_fixtures.values(), *(close(symmetric_generators(n)) for n in (3, 4, 5)),
                  *random_closures(20, 20261019), atomflip.truncation(64)]
    for S in semigroups:
        j_sets = S._require_e_order()[2]
        verdicts = [hausdorff_criterion(S, s) for s in S.elements()]
        assert [v[1:3] for v in verdicts] == [hausdorff_by_up_masks(S, s) for s in S.elements()]
        first = {}
        for s, verdict in enumerate(verdicts):
            shared = first.setdefault(j_sets[s], verdict)
            assert verdict.j_set is shared.j_set and verdict.witness is shared.witness
        assert len(S._j_set_memo()) == len(first) == len({id(v.j_set) for v in verdicts})


def test_only_the_criterion_fills_the_j_set_memo():
    S = close(symmetric_generators(4))
    is_e_star_unitary(S)  # reads the E-order
    assert S._j_set_memo() == {}
    verdict = hausdorff_criterion(S, 0)
    assert S._j_set_memo() == {S._require_e_order()[2][0]: (*verdict[1:3], None)}


def test_a_failed_downward_closure_fails_its_whole_class():
    """Put an idempotent outside J_s below a maximal element f of J_s,
    for the largest class of I_3 with J_s short of E: the downward
    closure of the maximal elements passes J_s, and every element of
    the class fails the check, each time it is asked, not only the
    first.  The verdict memo built on the sound E-order goes with it."""
    T = close(symmetric_generators(3))
    E, below, j_sets = T._require_e_order()
    full = (1 << len(E)) - 1
    jmask = max((j for j in j_sets if j != full), key=j_sets.count)
    members = [t for t in T.elements() if j_sets[t] == jmask]
    f = E.index(hausdorff_criterion(T, members[0]).witness[0])
    stray = full & ~jmask & -(full & ~jmask)  # the first idempotent outside J_s
    corrupted = [*below[:f], below[f] | stray, *below[f + 1:]]
    object.__setattr__(T, "_e_order", (E, tuple(corrupted), j_sets))
    assert len(members) >= 2
    for t in [*reversed(members), *members]:
        with pytest.raises(InvariantViolation, match="^downward closure of maximal elements"):
            hausdorff_criterion(T, t)


def test_witness_covers_both_ways(all_fixtures):
    for name, S in all_fixtures.items():
        for s in S.elements():
            F = hausdorff_criterion(S, s).witness
            assert covers_downward(S, s, F), name
            assert covers_by_ideals(S, s, F), name


def test_cover_conditions_agree_on_fixtures(all_fixtures):
    for name, S in all_fixtures.items():
        for s in S.elements():
            assert ideal_cover_agrees_with_order_cover(S, s), (name, s)


def test_cover_conditions_agree_on_chain():
    S = make_chain(3)
    for s in S.elements():
        assert ideal_cover_agrees_with_order_cover(S, s)


def test_cover_oracle_sees_a_right_ideal_short_of_one_element(monkeypatch, i2):
    """With the zero missing from every right ideal but its own, the
    top of J_s still covers J_s downward, but its ideal no longer holds
    the union over J_s, which the zero's ideal adds the zero to.  The
    oracle, and so `criterion --verify`, must see that."""
    right_ideal = FiniteInverseSemigroup.right_ideal
    monkeypatch.setattr(FiniteInverseSemigroup, "right_ideal",
                        lambda S, e: right_ideal(S, e) - {S.zero} | {e})
    identity = next(s for s in i2.elements() if len(i2.j_set(s)) == 4)
    assert not ideal_cover_agrees_with_order_cover(i2, identity)
    result = invoke_cli(["criterion", str(DATA / "i2_gens.json"), "--verify"])
    assert result.exit_code == 4
    assert result.stderr == "verification failed: oracle disagreement\n"


def test_criterion_verify_sees_a_j_set_short_of_one_idempotent(monkeypatch):
    """Drop the identity from its own J_s on the closure's E-order path.
    The idempotents just below it cover the rest, so the criterion's own
    downward-closure check passes and the plain call exits 0 with a wrong
    J_s; the ideal-cover oracle reads J_s by products and agrees with
    itself, so only the check of the verdict against `S.j_set` fails."""
    j_sets_of_domains = semigroup._j_sets_of_domains

    def short_of_one(keys, E):
        j_sets = list(j_sets_of_domains(keys, E))
        identity = max(range(len(j_sets)), key=lambda s: j_sets[s].bit_count())
        j_sets[identity] &= ~(1 << E.index(identity))
        return tuple(j_sets)

    monkeypatch.setattr(semigroup, "_j_sets_of_domains", short_of_one)
    path = str(DATA / "i2_gens.json")
    assert invoke_cli(["criterion", path]).exit_code == 0
    result = invoke_cli(["criterion", path, "--verify"])
    assert result.exit_code == 4
    assert result.stderr == "verification failed: oracle disagreement\n"


def test_pseudogroup_join_witness(i2, i3):
    # in a complete, distributive monoid the join of J_s is itself a witness
    for S in (i2, i3):
        for s in S.elements():
            jset = S.j_set(s)
            top = join(S, jset)
            assert top is not None
            assert top in jset
            assert covers_downward(S, s, [top])
            assert covers_by_ideals(S, s, [top])
