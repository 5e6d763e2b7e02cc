"""`close` against the all-pairs oracle and the cell-by-cell fill: same
table, same indexing, less work; `is_closure_of` against the all-cells
check."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from invsemi import (
    BudgetExceeded,
    FiniteInverseSemigroup,
    PartialBijection,
    all_partial_bijections,
    close,
)
from invsemi import formats
from invsemi.cli import main
from invsemi.semigroup import is_closure_of
from oracles import closure_cells_scan, lookup_fill_table, pairwise_close

DATA = Path(__file__).parent / "data"


def symmetric_generators(n):
    """A transposition, an n-cycle and a rank n-1 partial identity generate I_n."""
    swap = {0: 1, 1: 0, **{x: x for x in range(2, n)}}
    cycle = {x: (x + 1) % n for x in range(n)}
    return [PartialBijection(n, swap), PartialBijection(n, cycle),
            PartialBijection.identity(n, range(1, n))]


def letters_of(gens):
    return list(dict.fromkeys([*gens, *(g.invert() for g in gens)]))


CASES = {
    **{f"I_{n}": list(all_partial_bijections(n)) for n in range(1, 5)},
    "I_4 from three generators": symmetric_generators(4),
    "Z_2": [PartialBijection(2, {0: 1, 1: 0})],
    "Z_3": [PartialBijection(3, {0: 1, 1: 2, 2: 0})],
    "i2_gens.json": formats.load_generators(DATA / "i2_gens.json"),
}


def assert_same_closure(gens):
    fast, slow = close(gens), pairwise_close(gens)
    assert fast.mul == slow.mul == lookup_fill_table(gens)
    assert fast.labels == slow.labels


@pytest.mark.parametrize("name", CASES)
def test_close_matches_pairwise_oracle(name):
    assert_same_closure(CASES[name])


SWAP = PartialBijection(2, {0: 1, 1: 0})
EDGES = {  # name: (generators, order m, number of letters k)
    "I_5": (symmetric_generators(5), 1546, 4),
    "m = 1, the empty map": ([PartialBijection(2, {})], 1, 1),
    "m = k": ([SWAP, PartialBijection.identity(2, range(2))], 2, 2),
    "one idempotent generator": ([PartialBijection.identity(3, {0, 2})], 1, 1),
}


@pytest.mark.parametrize("name", EDGES)
def test_close_matches_lookup_fill(name):
    gens, m, k = EDGES[name]
    S = close(gens)
    assert (S.order, len(letters_of(gens))) == (m, k)
    assert S.mul == lookup_fill_table(gens)


TINY = {  # name: (generators, mul, labels as pairs, inv, up-masks)
    "ground 0": ([PartialBijection(0)], ((0,),), [()], (0,), (1,)),
    "ground 1, the empty map": ([PartialBijection(1)], ((0,),), [()], (0,), (1,)),
    "ground 1, [0->0]": ([PartialBijection(1, {0: 0})], ((0,),), [((0, 0),)], (0,), (1,)),
    "[0->0] on 2 points": ([PartialBijection(2, {0: 0})], ((0,),), [((0, 0),)], (0,), (1,)),
    "[0->1] on 2 points": (
        [PartialBijection(2, {0: 1})],
        ((2, 3, 2, 2, 0), (4, 2, 2, 1, 2), (2, 2, 2, 2, 2), (0, 2, 2, 3, 2), (2, 1, 2, 2, 4)),
        [((0, 1),), ((1, 0),), (), ((1, 1),), ((0, 0),)],
        (1, 0, 2, 3, 4), (1, 2, 31, 8, 16)),
}


@pytest.mark.parametrize("name", TINY)
def test_close_on_tiny_ground_sets(name):
    gens, mul, pairs, inv, up = TINY[name]
    S = close(gens)
    n = gens[0].ground_size
    assert S.mul == mul
    assert S.labels == tuple(PartialBijection(n, p) for p in pairs)
    assert (S.inv, S._up_masks) == (inv, up)
    assert S.mul == pairwise_close(gens).mul


@pytest.mark.parametrize("command", [["close"], ["criterion"], ["props"], ["germs", "--self"]])
def test_cli_on_an_empty_ground_set(tmp_path, command):
    f = tmp_path / "g0.json"
    f.write_text(json.dumps({"version": 1, "kind": "generators", "ground_size": 0,
                             "generators": [[]]}))
    for verify in ([], ["--verify"]):
        result = CliRunner().invoke(main, [command[0], str(f), *command[1:], *verify])
        assert result.exit_code == 0, result.output


@st.composite
def partial_bijections(draw, n):
    domain = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    image = draw(st.permutations(range(n)))
    return PartialBijection(n, dict(zip(domain, image)))


@st.composite
def generator_lists(draw):
    n = draw(st.integers(1, 4))
    gens = draw(st.lists(partial_bijections(n), min_size=1, max_size=4))
    if draw(st.booleans()):  # repeat one generator
        gens.append(draw(st.sampled_from(gens)))
    if draw(st.booleans()):  # a self-inverse generator: an idempotent
        gens.append(PartialBijection.identity(n, draw(st.sets(st.integers(0, n - 1)))))
    return gens


@settings(max_examples=60, deadline=None, derandomize=True)
@given(generator_lists())
def test_close_matches_pairwise_oracle_random(gens):
    assert_same_closure(gens)


def test_close_budget_boundary():
    gens = symmetric_generators(3)
    m = close(gens).order
    assert close(gens, budget=m).order == m
    with pytest.raises(BudgetExceeded) as exc:
        close(gens, budget=m - 1)
    assert exc.value.budget == m - 1
    assert str(exc.value).startswith(f"close: exceeded element budget {m - 1} after expanding ")


def test_close_composes_at_most_m_times_letters(monkeypatch):
    gens = symmetric_generators(4)
    calls = 0
    compose = PartialBijection.compose

    def counting(self, other):
        nonlocal calls
        calls += 1
        return compose(self, other)

    monkeypatch.setattr(PartialBijection, "compose", counting)
    S = close(gens)
    assert S.order == 209
    assert calls <= S.order * len(letters_of(gens))


def test_is_closure_of_accepts_close_and_rejects_a_bad_cell():
    gens = symmetric_generators(3)
    S = close(gens)
    assert is_closure_of(S, gens)
    mul = [list(row) for row in S.mul]
    mul[5][7] = (mul[5][7] + 1) % S.order
    assert not is_closure_of(FiniteInverseSemigroup(mul, labels=S.labels), gens)
    assert not is_closure_of(S, gens[1:])  # letters no longer first


def assert_closure_checks_agree(gens, i, j, shift):
    S = close(gens)
    assert is_closure_of(S, gens) and closure_cells_scan(S, gens)
    mul = [list(row) for row in S.mul]
    mul[i][j] = (mul[i][j] + shift) % S.order
    bad = FiniteInverseSemigroup(mul, labels=S.labels)
    assert is_closure_of(bad, gens) == closure_cells_scan(bad, gens) == (shift % S.order == 0)


@pytest.mark.parametrize("n", range(1, 5))
def test_is_closure_of_matches_cells_scan(n):
    gens = CASES[f"I_{n}"]
    m = close(gens).order
    for i, j in {(0, 0), (m - 1, 0), (0, m - 1), (m - 1, m - 1), (m // 2, m // 3)}:
        assert_closure_checks_agree(gens, i, j, 1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(generator_lists(), st.data())
def test_is_closure_of_matches_cells_scan_random(gens, data):
    m = close(gens).order
    cell = st.integers(0, m - 1)
    assert_closure_checks_agree(gens, data.draw(cell), data.draw(cell), data.draw(cell))


def test_is_closure_of_rejects_elements_the_letters_do_not_reach():
    # every cell of this table is right, but {0: 0} is not generated by the swap
    S = close([SWAP, PartialBijection(2, {0: 0})])
    assert S.labels[0] == SWAP and closure_cells_scan(S, [SWAP])
    assert not is_closure_of(S, [SWAP])


def close_verify_with_one_cell_corrupted(monkeypatch, trusted: bool):
    """`close --verify` on I_2 with one cell moved; a `trusted` table
    keeps the closure's inverse map, so the CLI takes it for a closure."""
    load = formats.load_semigroup

    def corrupted(path, budget=None):
        S = load(path, budget=budget)
        mul = [list(row) for row in S.mul]
        mul[1][2] = (mul[1][2] + 1) % S.order
        return FiniteInverseSemigroup(mul, labels=S.labels,
                                      _inverse=S.inv if trusted else None)

    monkeypatch.setattr(formats, "load_semigroup", corrupted)
    return CliRunner().invoke(main, ["close", str(DATA / "i2_gens.json"), "--verify",
                                     "--format", "structured"])


def test_cli_close_verify_catches_corrupted_cell(monkeypatch):
    result = close_verify_with_one_cell_corrupted(monkeypatch, trusted=False)
    assert result.exit_code == 4, result.output
    assert json.loads(result.stdout)["verified"] is False


def test_cli_close_verify_catches_a_corrupted_cell_of_a_trusted_closure(monkeypatch):
    result = close_verify_with_one_cell_corrupted(monkeypatch, trusted=True)
    assert result.exit_code == 4, result.output
    assert json.loads(result.stdout)["verified"] is False
