"""Action files are laid out as image rows straight from their lists.

`formats.load_action` hands the parsed `action` lists to `FiniteAction`,
which checks each row against D_{s*s} by C-level means and builds no
(s, x) map.  Only lists that fail that check go through the map of every
pair, to name the first fault.  Each file here, and each seeded fault of
it, must give the rows or the ParseError text of
`oracles.load_action_by_pairs`, the loader that builds that map for
every file.  The files are every action file in tests/data, the
left-translation files of I_3 and I_4 that the benchmark writes, I_3 on
its three points, and actions on 0 and 1 points, where a row or a
domain has one entry.
"""

import importlib.util
import json
import random
import tracemalloc
from pathlib import Path
from typing import Mapping

import pytest

from invsemi import FiniteAction, ParseError
from invsemi.formats import load_action
from oracles import load_action_by_pairs, validate_scan
from test_fast_paths import table_action_files

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
_spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)

SMALL = {  # name -> (semigroup file, space_size, domains, action)
    "z2_on_no_point": ("z2.json", 0, [[1, []]], []),
    "z2_on_no_point_listed": ("z2.json", 0, [[1, []]], [[0, []], [1, []]]),
    "chain2_on_one_point": ("chain2_table.json", 1, [[0, [0]], [1, []]], [[0, [[0, 0]]]]),
    "chain2_on_one_point_listed": ("chain2_table.json", 1, [[0, [0]], [1, []]],
                                   [[1, []], [0, [[0, 0]]]]),
}


@pytest.fixture(scope="module")
def action_files(tmp_path_factory):
    """name -> (path, check of the oracle) of every valid action file of
    the sweep; the I_4 file is validated by `FiniteAction.validate`, as
    the pair-by-pair scan of all m^2 laws takes seconds there."""
    work = tmp_path_factory.mktemp("actions")
    files = {path.stem: (path, validate_scan) for path in sorted(DATA.glob("*.json"))
             if "action" in json.loads(path.read_text())}
    for n in (3, 4):
        path = work / f"i{n}_action.json"
        inputs.write_left_translation(path, work / f"i{n}_table.json", n)
        files[path.stem] = (path, FiniteAction.validate if n == 4 else validate_scan)
    (work / "closure").mkdir()  # its own i3_table.json, in the closure's order
    for path in table_action_files(work / "closure"):
        files[path.stem] = (path, validate_scan)
    for name, (semigroup, space_size, domains, action) in SMALL.items():
        path = work / f"{name}.json"
        path.write_text(json.dumps({"version": 1, "semigroup": str(DATA / semigroup),
                                    "space_size": space_size, "domains": domains,
                                    "action": action}))
        files[name] = (path, validate_scan)
    return files


def outcome(load, path):
    """The rows of a load, or its ParseError text."""
    try:
        return load(path)
    except ParseError as exc:
        return str(exc)


def assert_same_load(path, check):
    """The loader and the oracle give the same rows or the same error."""
    got = outcome(lambda p: load_action(p)._rows, path)
    expected = outcome(lambda p: load_action_by_pairs(p, check), path)
    assert got == expected
    return got


def mutations(doc, action, rng):
    """(name, document) for each seeded fault of a valid action document."""
    S, n, entries = action.semigroup, action.space_size, doc["action"]

    def edit(change):
        copy = json.loads(json.dumps(doc))
        change(copy["action"])
        return copy

    filled = [i for i, (_, pairs) in enumerate(entries) if pairs]
    if not filled:
        yield "stray pair", edit(lambda a: a.append([0, [[n, 0]]]))
        return
    i = rng.choice(filled)
    s, pairs = entries[i]
    j = rng.randrange(len(pairs))
    x, y = pairs[j]
    outside = sorted(set(range(n + 1)) - action.domain(s))  # n lies outside the space
    yield "duplicate pair", edit(lambda a: a[i][1].append([x, y]))
    yield "duplicate element entry", edit(lambda a: a.append(a[i]))
    yield "stray point", edit(lambda a: a[i][1].append([rng.choice(outside), y]))
    yield "missing point", edit(lambda a: a[i][1].pop(j))
    yield "element out of range", edit(lambda a: a.append([S.order, [[x, y]]]))
    yield "negative element", edit(lambda a: a.append([-1, [[x, y]]]))
    # a bool or a float equal to an int hides behind it in a dict or a set
    hidden = [(k, q) for k, (_, ps) in enumerate(entries) for q, pair in enumerate(ps)
              if 1 in pair] or [(i, j)]
    k, q = rng.choice(hidden)
    for bad in (True, 1.0):
        yield f"{bad!r} as a point", edit(lambda a: a[k][1][q].__setitem__(0, bad))
        yield f"{bad!r} as an image", edit(lambda a: a[k][1][q].__setitem__(1, bad))
        yield f"{bad!r} as an element", edit(lambda a: a[k].__setitem__(0, bad))
    wide = [k for k, (_, ps) in enumerate(entries) if len(ps) > 1]
    moving = [k for k in wide if entries[k][0] not in S.idempotents]
    if wide:
        k = rng.choice(wide)
        yield "not a bijection", edit(lambda a: a[k][1][1].__setitem__(1, a[k][1][0][1]))
    if moving:
        k = rng.choice(moving)

        def swap(a):
            first, second = a[k][1][:2]
            first[1], second[1] = second[1], first[1]
        yield "broken homomorphism", edit(swap)


def test_valid_action_files_give_the_rows_of_the_pair_map(action_files):
    assert {"z2_point_action", "i3_action", "i4_action", "i3_natural_action",
            "z2_on_no_point", "chain2_on_one_point"} <= set(action_files)
    for path, check in action_files.values():
        rows = assert_same_load(path, check)
        assert isinstance(rows, tuple), rows


@pytest.mark.parametrize("seed", range(3))
def test_faulty_action_files_name_the_fault_of_the_pair_map(action_files, tmp_path, seed):
    rng = random.Random(seed)
    names = set()
    for stem, (path, check) in action_files.items():
        doc = json.loads(path.read_text())
        doc["semigroup"] = str(path.parent / doc["semigroup"])
        for name, bad in mutations(doc, load_action(path), rng):
            target = tmp_path / f"{stem}_{len(names)}.json"
            target.write_text(json.dumps(bad))
            message = assert_same_load(target, check)
            assert isinstance(message, str) and message.startswith(f"{target}: "), (stem, name)
            names.add(name)
    assert len(names - {"stray pair"}) == 14


def test_a_valid_action_file_builds_no_pair_map(action_files, monkeypatch, tmp_path):
    """The map of every pair is built only to name a fault: with it
    refused, every valid file still loads, and a faulty one does not."""
    lay = FiniteAction._lay

    def refuse_pair_maps(self, table):
        if isinstance(table, Mapping):
            raise AssertionError("pair map of an action file")
        return lay(self, table)

    monkeypatch.setattr(FiniteAction, "_lay", refuse_pair_maps)
    for path, _ in action_files.values():
        load_action(path)
    doc = json.loads((DATA / "z2_point_action.json").read_text())
    doc["semigroup"] = str(DATA / doc["semigroup"])
    doc["action"].pop()
    (tmp_path / "missing.json").write_text(json.dumps(doc))
    with pytest.raises(AssertionError):
        load_action(tmp_path / "missing.json")


def test_an_action_file_is_loaded_in_bounded_memory(action_files):
    """Loading the I_4 left-translation file (209 elements acting on
    themselves, 119 KB) peaks at about 2.2 MB of traced allocations; a
    map of every pair beside the rows took 5.7 MB."""
    path, _ = action_files["i4_action"]
    load_action(path)
    tracemalloc.start()
    try:
        load_action(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_500_000
