"""`close` against the all-pairs oracle and the cell-by-cell fill: same
table, same indexing, less work; `is_closure_of` against the all-cells
check and against faults put into a closure's record; the idempotents,
zero and inverses read off the keys against products and pairs."""

import json
from itertools import repeat
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from invsemi import (
    BudgetExceeded,
    FiniteInverseSemigroup,
    PartialBijection,
    all_partial_bijections,
    close,
)
from invsemi import formats
from invsemi.semigroup import _image_key, is_closure_of
from conftest import invoke_cli
from oracles import (closure_cells_scan, idempotents_by_squares, inverse_by_pairs,
                     lookup_fill_table, pairwise_close, row_fill_table, zero_fold)

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
    assert (S.inv, S._require_up_masks()) == (inv, up)
    assert S.mul == pairwise_close(gens).mul


@pytest.mark.parametrize("command", [["close"], ["criterion"], ["props"], ["germs", "--self"]])
def test_cli_on_an_empty_ground_set(tmp_path, command):
    f = tmp_path / "g0.json"
    f.write_text(json.dumps({"version": 1, "kind": "generators", "ground_size": 0,
                             "generators": [[]]}))
    for verify in ([], ["--verify"]):
        result = invoke_cli([command[0], str(f), *command[1:], *verify])
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


@pytest.mark.parametrize("budget, expanded", [(1, 0), (3, 0), (5, 1)])
def test_cli_close_budget_says_how_far_it_got(budget, expanded):
    """The letters of i2_gens.json are two partial identities and the
    swap: a budget of 1 stops at the second letter, 3 at the first new
    product, while element 0 is expanded, and 5 while element 1 is."""
    result = invoke_cli(["close", str(DATA / "i2_gens.json"), "--budget", str(budget)])
    assert (result.exit_code, result.stdout) == (3, "")
    assert result.stderr == (f"inconclusive: close: exceeded element budget {budget} "
                             f"after expanding {expanded} of {budget} elements\n")


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


def with_record(S, mutation):
    """S rebuilt from its closure record (index, keys, gather, tail, k),
    which holds no labels, with one fault put in.  Element 0 takes the
    key of m - 1 in the key index ("key") or in the key list, where it
    is read as the left operand of its products ("operand"); the
    padding tail that the gather reads through takes a wrong sentinel
    ("gather"), which no product reads but `is_closure_of` refuses, as
    the pair is not that of `close`; elements 0 and m - 1 trade places
    in the inverses; the inverse map loses its last entry or gains one;
    the index sends the key of L[m-1] L[0], an entry of the right Cayley
    graph that `is_closure_of` reads off the index, to the next element;
    the last letter goes from k, so that letter is no longer a letter; k
    passes m, which would make every element a letter; the element
    [0->0] becomes [n-1->n-1], which lies outside S when S acts on
    points 0 and 1 only, by its key, and the index keeps the old key or
    loses it; or the last element becomes a second [0->1] and its key
    leaves the index, so that products of S (the zero, or the identity)
    have no index entry."""
    index, keys, gather, tail, k = S._closure
    index, keys = dict(index), list(keys)
    inv, last = list(S.inv), S.order - 1
    n = keys[0][-1]  # the sentinel that ends every key
    if mutation == "right entry":
        t = S.product(last, 0)
        index[keys[t]] = (t + 1) % S.order
    elif mutation == "key":
        index[keys[0]] = last
    elif mutation == "operand":
        keys[0] = keys[last]
    elif mutation == "gather":
        tail = bytes([n + 1]) * len(tail)
    elif mutation == "inv entry":
        inv[0] = inv[last]
    elif mutation == "inv one short":
        inv.pop()
    elif mutation == "inv one long":
        inv.append(0)
    elif mutation == "last letter dropped":
        k -= 1
    elif mutation == "letter count past m":
        k = S.order + 1
    elif mutation in ("label outside S", "label outside S, old key kept"):
        e = S.labels.index(PartialBijection.identity(n, {0}))
        if mutation == "label outside S":
            del index[keys[e]]
        keys[e] = _image_key(n, [(n - 1, n - 1)])
        index[keys[e]] = e
    elif mutation == "last relabelled [0->1], its key dropped":
        del index[keys[last]]
        keys[last] = keys[S.labels.index(PartialBijection(n, {0: 1}))]
    return FiniteInverseSemigroup(None, _inverse=inv, _closure=(index, keys, gather, tail, k))


MUTATIONS = ["right entry", "key", "operand", "gather", "inv entry",
             "inv one short", "inv one long", "last letter dropped", "letter count past m",
             "label outside S", "label outside S, old key kept",
             "last relabelled [0->1], its key dropped"]
# I_2 on points 0 and 1 of three, from the swap and [0->1]: the letters are
# those two and [1->0], which the others reach, so without its column
# [0->1] lacks its inverse letter; [2->2] lies outside it
SWAP_AND_MOVE = [PartialBijection(3, {0: 1, 1: 0}), PartialBijection(3, {0: 1})]


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_is_closure_of_rejects_a_mutated_record(mutation):
    S = close(SWAP_AND_MOVE)
    assert S.order == 7 and is_closure_of(S) and is_closure_of(with_record(S, None))
    assert not is_closure_of(with_record(S, mutation))


def test_a_record_whose_products_leave_the_index_still_builds():
    """In the I_2 closure of i2_gens.json the last element is the
    identity; as a second [0->1] without its key, the identity, a
    product of letters, has no index entry.  The constructor reads the
    idempotents and the zero off the keys and looks nothing up that can
    raise, so the record builds and `is_closure_of` rejects it."""
    S = formats.load_semigroup(DATA / "i2_gens.json")
    assert S.label_str(S.order - 1) == "[0->0,1->1]"
    T = with_record(S, "last relabelled [0->1], its key dropped")
    assert T.order == S.order and not is_closure_of(T)


def test_is_closure_of_accepts_close_and_rejects_a_bad_cell():
    """A closure passes, and fails with a bad cell of its right Cayley
    graph, as the index holds it; a table, even the closure's own, is
    not a closure."""
    S = close(symmetric_generators(3))
    assert is_closure_of(S)
    assert not is_closure_of(with_record(S, "right entry"))
    assert not is_closure_of(FiniteInverseSemigroup(S.mul, labels=S.labels, _inverse=S.inv))


def assert_closure_checks_agree(gens, s, a, shift):
    """Move the entry (s, a) of the right Cayley graph, as the index holds
    it, by `shift`: the index sends the key of L[s] L[a] to another
    element.  `is_closure_of` fails unless the shift is 0, and the table
    built from the moved graph fails the all-cells scan only then.  A
    letter's row of the graph is a row of that table, so there the two
    agree exactly; another row is read by the table only where a word
    runs through it, and a moved entry elsewhere leaves the table right."""
    S = close(gens)
    index, keys, *rest = S._closure
    m, k = S.order, rest[-1]
    found = [[S.product(t, b) for b in range(k)] for t in range(m)]
    right = [row[:] for row in found]
    right[s][a] = (right[s][a] + shift) % m
    moved = dict(index)
    moved[keys[found[s][a]]] = right[s][a]
    ok = is_closure_of(FiniteInverseSemigroup(
        None, _inverse=S.inv, _closure=(moved, keys, *rest)))
    scan = closure_cells_scan(
        FiniteInverseSemigroup(row_fill_table(right, found), labels=S.labels), gens)
    assert ok == (shift % m == 0)
    assert scan >= ok
    if s < k:
        assert scan == ok


@pytest.mark.parametrize("n", range(1, 5))
def test_is_closure_of_matches_cells_scan(n):
    gens = CASES[f"I_{n}"]  # every element a letter
    m = close(gens).order
    for s, a in {(0, 0), (m - 1, 0), (0, m - 1), (m - 1, m - 1), (m // 2, m // 3)}:
        assert_closure_checks_agree(gens, s, a, 1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(generator_lists(), st.data())
def test_is_closure_of_matches_cells_scan_random(gens, data):
    S = close(gens)
    assert_closure_checks_agree(gens, data.draw(st.integers(0, S.order - 1)),
                                data.draw(st.integers(0, len(letters_of(gens)) - 1)),
                                data.draw(st.integers(0, S.order - 1)))


def test_is_closure_of_rejects_elements_the_letters_do_not_reach():
    # every composition is right, but {0: 0} is not generated by the swap
    S = close([SWAP, PartialBijection(2, {0: 0})])
    assert S.labels[0] == SWAP and closure_cells_scan(S, [SWAP])
    assert not is_closure_of(with_record(S, "last letter dropped"))


@pytest.mark.parametrize("command", [["close"], ["criterion"], ["props"], ["germs", "--self"]])
@pytest.mark.parametrize("mutation", MUTATIONS)
def test_cli_verify_catches_a_mutated_closure(monkeypatch, tmp_path, command, mutation):
    f = tmp_path / "i2.json"
    f.write_text(json.dumps({"version": 1, "kind": "generators", "ground_size": 3,
                             "generators": [g.pairs for g in SWAP_AND_MOVE]}))
    load = formats.load_semigroup
    monkeypatch.setattr(formats, "load_semigroup",
                        lambda path, budget=None: with_record(load(path, budget), mutation))
    result = invoke_cli([command[0], str(f), *command[1:], "--verify"])
    assert result.exit_code == 4, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("invariant failure: ")


def test_germs_verify_checks_the_closure_of_an_action_file():
    """The semigroup of an action file is a closure with no generator
    list at hand; --verify checks it from its own record."""
    result = invoke_cli(["germs", str(DATA / "z2_point_action.json"), "--verify"])
    assert result.exit_code == 0, result.output


def assert_key_facts_match_the_oracles(S):
    """The idempotents, the zero and the inverses that a closure reads
    off its keys, against s s = s, the two-sided zero fold and the
    inverse keys by reversed pairs; its table, laid out by rows, against
    the composition of its labels, and each column of `products`
    against `product`.  A label composes as the tuple of its images,
    -1 where undefined and last, so that f after g is f read at g."""
    assert S.idempotents == idempotents_by_squares(S)
    assert S.zero == zero_fold(S)
    assert S.inv == inverse_by_pairs(S)
    n, m = S.labels[0].ground_size, S.elements()
    images = [(*map(dict(f.pairs).get, range(n), repeat(-1)), -1) for f in S.labels]
    where = {image: s for s, image in enumerate(images)}
    assert S.mul == tuple(tuple(where[tuple(map(f.__getitem__, g))] for g in images)
                          for f in images)
    assert all(S.products(m, t) == [S.product(s, t) for s in m] for t in m)


def cycle(n):
    return PartialBijection(n, {x: (x + 1) % n for x in range(n)})


KEY_FACTS = {  # name: (generators, whether the closure has a zero)
    "I_3": (CASES["I_3"], True),
    "Z_3, a group": ([cycle(3)], False),
    "the swap and [0->0,1->1] on 3 points": (
        [PartialBijection(3, {0: 1, 1: 0, 2: 2}), PartialBijection.identity(3, {0, 1})], False),
    # 254 points pads bytes keys by one byte, 255 by none; 256 has tuples
    **{f"{n} points, {name}": (gens, zero) for n in (254, 255, 256) for name, gens, zero in (
        ("the swap and a partial identity",
         [PartialBijection(n, {0: 1, 1: 0, **{x: x for x in range(2, n)}}),
          PartialBijection.identity(n, range(1, n))], True),
        ("an n-cycle", [cycle(n)], False))},
}


@pytest.mark.parametrize("name", KEY_FACTS)
def test_key_facts_match_the_oracles(name):
    gens, has_zero = KEY_FACTS[name]
    S = close(gens)
    assert (S.zero is not None) == has_zero
    assert_key_facts_match_the_oracles(S)


@st.composite
def small_generator_lists(draw):
    """One to three partial bijections on 1-6 points; half the time
    permutations only, whose closure is a group and so has no zero
    unless it is trivial."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        images = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
        return [PartialBijection(n, dict(enumerate(image))) for image in images]
    return draw(st.lists(partial_bijections(n), min_size=1, max_size=3))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_generator_lists())
def test_key_facts_match_the_oracles_random(gens):
    try:
        S = close(gens, budget=2000)
    except BudgetExceeded:
        return
    assert_key_facts_match_the_oracles(S)
