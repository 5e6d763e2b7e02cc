"""The three workloads: their seeded inputs, their op lists and their checks.

`prepare` writes a workload's input files and a plan (ops plus reference
answers) into a work directory.  CLI ops are argument lists for
`invsemi`; library ops name a step of `worker.py`.  Every op is checked
against a reference computed by `inputs.py`, never by the package.

An op's outcome is "ok" (exit 0 or a normal return, and the result
matches the reference), "inconclusive" (exit 3 or BudgetExceeded on an
op run at a fixed budget; the documented "budget exhausted" answer) or
"failed" (anything else).
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import inputs

WORKLOADS = ("cli-ladder", "i5-library", "atomflip-wide")

# Subset and element budget of the budget-bound `props` call.  I_4 needs
# 209 elements to close; its completeness scan needs far more than this
# many subsets today, so the call ends inconclusive in a bounded time.
PROPS_BUDGET = 300

# Passes every run makes, whatever --seconds says.  Each op's fastest
# time over two passes is far steadier on a shared machine than a single
# sample.  A run of --seconds 20 fits a third atomflip-wide pass and
# sometimes a fourth.
MIN_PASSES = {"cli-ladder": 2, "i5-library": 2, "atomflip-wide": 2}

# The trivial call timed for CLI start-up.
START_ARGS = ["close", "z2.json"]

OK, INCONCLUSIVE, FAILED = "ok", "inconclusive", "failed"


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs under `work`; return and save its plan."""
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    inputs.write_generators(work / "z2.json", 2, [((0, 1), (1, 0))])
    if workload == "cli-ladder":
        plan = {"cli": _cli_ladder(rng, work)}
    elif workload == "i5-library":
        plan = _i5_library(rng, work)
    elif workload == "atomflip-wide":
        plan = _atomflip_wide(work)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    plan["workload"] = workload
    text = json.dumps(plan)
    (work / "plan.json").write_text(text)
    return json.loads(text)


def _symmetric_ref(n: int) -> dict:
    ref = inputs.reference(set(inputs.all_partial_bijections(n)))
    closed = inputs.symmetric_reference(n)
    # the closed forms must agree with the set computation
    for key in closed:
        if ref[key] != closed[key]:
            raise AssertionError(f"I_{n} reference mismatch on {key}")
    return ref


def _random_closures(rng, work, ground, lo, hi, names, pairs=None) -> dict:
    refs = {}
    for name in names:
        gens, closure = inputs.random_closure(rng, ground, lo, hi, pairs)
        inputs.write_generators(work / f"{name}.json", ground, gens)
        refs[name] = inputs.reference(closure)
    return refs


def _cli_ladder(rng, work) -> list[dict]:
    refs = {}
    for n in (2, 3, 4):
        inputs.write_generators(work / f"i{n}.json", n, inputs.symmetric_generators(n))
        refs[f"i{n}"] = _symmetric_ref(n)
    # 110-120 elements keeps each closure's verify cost (cubic in the
    # order) within a third across seeds; these ops sit at the median op.
    refs.update(_random_closures(rng, work, 4, 110, 120, ("r4a", "r4b")))
    for n in (3, 4):
        inputs.write_left_translation(work / f"i{n}_action.json",
                                      work / f"i{n}_table.json", n)
    inputs.write_table(work / "chain12.json", inputs.chain_table(12),
                       [f"e{i}" for i in range(12)])
    for n in (64, 256):
        inputs.write_table(work / f"f{n}.json", inputs.atomflip_table(n),
                           inputs.atomflip_labels(n))
        refs[f"f{n}"] = inputs.atomflip_reference(n)

    def op(args, ref, budget_bound=False):
        return {"name": " ".join(args), "args": args, "ref": ref,
                "budget_bound": budget_bound}

    s, v = ["--format", "structured"], ["--verify"]
    order = ("order", "idempotents")
    ops = []
    for name, extra in (("i2", []), ("i3", s), ("i4", v), ("r4a", s), ("r4b", [])):
        ops.append(op(["close", f"{name}.json", *extra],
                      {k: refs[name][k] for k in order}))
    for name, extra in (("i2", []), ("i3", v), ("r4a", []), ("r4b", s)):
        ops.append(op(["criterion", f"{name}.json", *extra],
                      {"criterion": refs[name]["criterion"]}))
    for name, extra in (("i2", []), ("i3", v), ("i4", s), ("r4a", s), ("r4b", [])):
        ops.append(op(["germs", f"{name}.json", "--self", *extra],
                      {"space": refs[name]["order"], "germs": refs[name]["germs"]}))
    for n in (3, 4):
        ops.append(op(["germs", f"i{n}_action.json"],
                      {"space": refs[f"i{n}"]["order"], "germs": refs[f"i{n}"]["germs"]}))
    # I_n and chains are complete and infinitely distributive: joins of
    # compatible partial bijections are their unions, and chains are
    # totally ordered semilattices.
    ops.append(op(["props", "i3.json"], {"order": 34, "complete": True}))
    ops.append(op(["props", "chain12.json", *s], {"order": 12, "complete": True}))
    ops.append(op(["props", "i4.json", "--budget", str(PROPS_BUDGET)],
                  {"order": 209, "complete": True}, budget_bound=True))
    for n, extra in ((64, []), (256, s)):
        ops.append(op(["criterion", f"f{n}.json", *extra],
                      {"criterion": refs[f"f{n}"]["criterion"]}))
    ops.append(op(["symbolic", "atomflip", "flip", "--truncation", "64", *v],
                  {"verdict": "HAUSDORFF_WITNESS",
                   "witness": [f"atom:{i}" for i in range(1, 65)]}))
    ops.append(op(["symbolic", "munn", "x y x^-1"],
                  {"verdict": "HAUSDORFF_WITNESS", "witness": []}))
    ops.append(op(["symbolic", "graph", "p=e1,q=e2.e3", *s],
                  {"verdict": "HAUSDORFF_WITNESS", "witness": ["zero"]}))
    return ops


def _library_chain(name: str, file: str) -> list[dict]:
    return [{"step": "load", "name": f"load {name}", "file": file, "key": name},
            {"step": "criterion", "name": f"criterion {name}", "key": name},
            {"step": "germs", "name": f"germs {name}", "key": name}]


def _i5_library(rng, work) -> dict:
    inputs.write_generators(work / "i5.json", 5, inputs.symmetric_generators(5))
    refs = {"I_5": _symmetric_ref(5)}
    # 290-310 elements: a few hundred, and the closure cost (quadratic
    # in the order) stays within a seventh across seeds.  The germ pair
    # window does the same for germs, whose ops sit at the median op.
    refs.update(_random_closures(rng, work, 5, 290, 310, ("r5a", "r5b", "r5c"),
                                 pairs=(12000, 13200)))
    # Germs on I_5 (126,526 classes) take 25-33 s and 1.95 GB today: too
    # much for a run budget of under a minute, so I_5 gets close and the
    # criterion, and the random closures get the whole chain.
    ops = _library_chain("I_5", "i5.json")[:2]
    for name in ("r5a", "r5b", "r5c"):
        ops += _library_chain(name, f"{name}.json")
    return {"library": ops, "refs": refs}


def _atomflip_wide(work) -> dict:
    for n in (256, 1024):
        inputs.write_table(work / f"f{n}.json", inputs.atomflip_table(n),
                           inputs.atomflip_labels(n))
    ops = [{"step": "truncation", "name": "truncation F_2048", "n": 2048},
           *_library_chain("F_1024", "f1024.json"),
           {"step": "verify", "name": "verify F_256", "file": "f256.json"},
           {"step": "flip", "name": "flip criterion F_256", "n": 256}]
    return {"library": ops, "refs": {"F_1024": inputs.atomflip_reference(1024)}}


# -- checking CLI output ---------------------------------------------------

_SUMMARY = re.compile(r"^order=(\d+) idempotents=(\d+) zero=\S+ group=\S+$", re.M)
_ROW = re.compile(r"^  s=(\d+) \((.*)\): (\S+) witness=\[([\d, ]*)\] \|J_s\|=(\d+)$", re.M)
_GERMS = re.compile(r"^space=(\d+) germs=(\d+) units=(\d+) isotropy=(\d+)$", re.M)
_FLAGS = re.compile(r"^principal=(\w+) effective=(\w+) essentially_principal=(\w+)$", re.M)
_COMPLETE = re.compile(r"^complete\+distributive: (yes|no) ", re.M)
_VERDICT = re.compile(r"^verdict: (\S+)$", re.M)
_WITNESS = re.compile(r"^witness: \[(.*)\]$", re.M)


def _facts_structured(doc: dict) -> dict:
    facts: dict = {}
    sg = doc.get("semigroup")
    if sg:
        facts.update(order=sg["order"], idempotents=sg["idempotent_count"],
                     verifier_ok=sg["verifier_ok"])
    if "criterion" in doc:
        label = {r["element"]: r["label"] for r in doc["criterion"]}
        facts["rows"] = [(r["label"], len(r["j_set"]),
                          sorted(label[w] for w in r["witness"]), r["verdict"])
                         for r in doc["criterion"]]
    g = doc.get("groupoid")
    if g:
        facts.update(space=g["space_size"], germs=g["germ_count"], units=g["unit_count"],
                     isotropy=g["isotropy_count"],
                     flags=[g["principal"], g["effective"], g["essentially_principal"]])
    p = doc.get("properties")
    if p and "complete_and_distributive" in p:
        facts["complete"] = p["complete_and_distributive"]
    sym = doc.get("symbolic")
    if sym:
        facts.update(verdict=sym["verdict"], witness=sym["witness"])
    return facts


def _facts_text(text: str) -> dict:
    facts: dict = {}
    m = _SUMMARY.search(text)
    if m:
        facts.update(order=int(m[1]), idempotents=int(m[2]),
                     verifier_ok="\nverifier: ok\n" in text)
    rows = _ROW.findall(text)
    if rows:
        label = {int(i): lab for i, lab, *_ in rows}
        facts["rows"] = [(lab, int(size),
                          sorted(label[int(w)] for w in wit.split(",") if w.strip()),
                          verdict)
                         for _, lab, verdict, wit, size in rows]
    m = _GERMS.search(text)
    if m:
        facts.update(space=int(m[1]), germs=int(m[2]), units=int(m[3]), isotropy=int(m[4]))
    m = _FLAGS.search(text)
    if m:
        facts["flags"] = [m[1] == "yes", m[2] == "yes", m[3] == "yes"]
    m = _COMPLETE.search(text)
    if m:
        facts["complete"] = m[1] == "yes"
    m = _VERDICT.search(text)
    if m:
        facts["verdict"] = m[1]
        w = _WITNESS.search(text)
        facts["witness"] = ([x for x in w[1].split(", ") if x] if w else None)
    return facts


def cli_matches(ref: dict, stdout: str, structured: bool) -> bool:
    """Does one CLI report agree with its reference answer?"""
    try:
        facts = _facts_structured(json.loads(stdout)) if structured else _facts_text(stdout)
    except (ValueError, KeyError, TypeError):
        return False
    if "order" in facts and not facts["verifier_ok"]:
        return False
    for key in ("order", "idempotents", "complete", "verdict", "witness"):
        if key in ref and facts.get(key) != ref[key]:
            return False
    if "criterion" in ref and not criterion_matches(
            ref["criterion"], [r[:3] for r in facts.get("rows", [])],
            [r[3] for r in facts.get("rows", [])]):
        return False
    if "germs" in ref:
        m = ref["space"]
        if (facts.get("germs"), facts.get("space"), facts.get("units"),
                facts.get("isotropy"), facts.get("flags")) != (
                ref["germs"], m, m, m, [True, True, True]):
            return False
    return True


def criterion_matches(ref: dict, rows: list, verdicts: list) -> bool:
    """rows are (label, |J_s|, sorted witness labels), one per element."""
    if len(rows) != len(ref) or any(v != "HAUSDORFF_WITNESS" for v in verdicts):
        return False
    return all(ref.get(lab) == [size, wit] for lab, size, wit in rows)


def cli_outcome(op: dict, code: int, stdout: str) -> str:
    if code == 3 and op["budget_bound"]:
        return INCONCLUSIVE
    if code != 0:
        return FAILED
    structured = "structured" in op["args"]
    return OK if cli_matches(op["ref"], stdout, structured) else FAILED
