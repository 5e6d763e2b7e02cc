"""One in-process pass over a workload's plan, in a fresh interpreter.

    python3 worker.py WORK_DIR OUT_JSON [--trace | --sample | --plain]

Runs every op of WORK_DIR/plan.json once: library ops by calling the
package, CLI ops by calling `invsemi.cli.main` with the op's arguments
(catching SystemExit).  Each op is timed alone and checked against its
reference after its clock stops.  OUT_JSON gets per-op seconds and
outcomes, the reference probes around the ops (see speed.py), this
process's peak resident memory and, with --trace, the per-layer metrics
and the raw spans.  With --sample, ops of five seconds or more also get
probes while they run (speed.Sampler), and their time excludes those
probes.  `run.py` starts it with the package's `src` directory on
PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import sys
from pathlib import Path
from time import perf_counter

import inputs
import tracing
from speed import Sampler, Speed
from workloads import FAILED, INCONCLUSIVE, OK, cli_outcome, criterion_matches


def _load(op, work, held):
    from invsemi import formats
    held[op["key"]] = S = formats.load_semigroup(work / op["file"])
    return S


def _criterion(op, work, held):
    from invsemi import criterion
    S = held[op["key"]]
    return S, [criterion.hausdorff_criterion(S, s) for s in S.elements()]


def _germs(op, work, held):
    from invsemi import action, germs
    S = held.pop(op["key"])
    G = germs.build_germs(action.left_translation_action(S))
    return (S.order, len(G), len(G.units), len(G.isotropy()),
            [G.is_principal(), G.is_effective(), G.is_essentially_principal()])


def _truncation(op, work, held):
    from invsemi.symbolic import atomflip
    return atomflip.truncation(op["n"])


def _verify(op, work, held):
    from invsemi import formats, semigroup
    return semigroup.verify_inverse_semigroup(formats.load_semigroup(work / op["file"]))


def _flip(op, work, held):
    from invsemi.symbolic import atomflip
    return atomflip.criterion(atomflip.FLIP, truncation_atoms=op["n"])


STEPS = {"load": _load, "criterion": _criterion, "germs": _germs,
         "truncation": _truncation, "verify": _verify, "flip": _flip}


def _check(op, ref, value) -> bool:
    step = op["step"]
    if step == "load":
        return (value.order, len(value.idempotents)) == (ref["order"], ref["idempotents"])
    if step == "criterion":
        S, verdicts = value
        rows = [(S.label_str(v.subject), len(v.j_set),
                 sorted(S.label_str(w) for w in v.witness)) for v in verdicts]
        return criterion_matches(ref["criterion"], rows, [v.verdict for v in verdicts])
    if step == "germs":
        m = value[0]
        return value == (ref["order"], ref["germs"], m, m, [True, True, True])
    if step == "truncation":
        n, S = op["n"], value
        rows = random.Random(n).sample(range(n + 3), 16) + [0, 1, 2]
        return (S.order == n + 3 and len(S.idempotents) == n + 2 and S.zero == 0
                and all(list(S.mul[a]) == [inputs.atomflip_mul(a, b) for b in range(n + 3)]
                        for a in rows))
    if step == "verify":
        return value.ok
    if step == "flip":
        return (value.verdict == "HAUSDORFF_WITNESS"
                and list(value.witness_strings()) == [f"atom:{i}" for i in range(1, op["n"] + 1)])
    raise ValueError(f"unknown step {step!r}")


def _library_op(op, plan, work, held, call):
    from invsemi.errors import BudgetExceeded
    start = perf_counter()
    try:
        value = call(STEPS[op["step"]], op, work, held)
    except BudgetExceeded:
        return perf_counter() - start, INCONCLUSIVE, None
    except Exception as exc:  # a crash is a failed op, not a failed benchmark
        print(f"{op['name']}: {exc!r}", file=sys.stderr)
        return perf_counter() - start, FAILED, None
    seconds = perf_counter() - start
    ok = _check(op, plan["refs"].get(op.get("key")), value)
    return seconds, OK if ok else FAILED, None


def _cli_op(op, plan, work, held, call):
    from invsemi import cli
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            call(cli.main, op["args"], prog_name="invsemi")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error leaves the real CLI with exit 1
            code = 1
    seconds = perf_counter() - start
    stdout = out.getvalue()
    return seconds, cli_outcome(op, code, stdout), hashlib.sha256(stdout.encode()).hexdigest()


def main(argv: list[str]) -> None:
    work, out = Path(argv[0]), Path(argv[1])
    traced = "--trace" in argv[2:]
    sampler = Sampler() if "--sample" in argv[2:] else None
    plan = json.loads((work / "plan.json").read_text())
    import invsemi.cli  # noqa: F401  (import the whole package before any clock starts)
    tracer = tracing.Tracer()
    if traced:
        tracing.instrument(tracer)
        root = tracer.wrap(tracing.ROOT, lambda fn, *a, **k: fn(*a, **k))
    elif sampler:
        root = sampler.call
    else:
        root = lambda fn, *a, **k: fn(*a, **k)  # noqa: E731
    run_op = _cli_op if "cli" in plan else _library_op
    held: dict = {}
    ops, during = [], []
    speed = Speed()
    for op in plan.get("cli") or plan["library"]:
        seconds, outcome, digest = run_op(op, plan, work, held, root)
        speed.mark()
        if sampler:
            seconds -= sampler.spent
            during.append(sampler.probes)
        ops.append({"name": op["name"], "seconds": seconds, "outcome": outcome,
                    "digest": digest})
    record = {"ops": ops, "probes": speed.probes, "during": during,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if traced:
        record["layers"] = tracing.layer_metrics(tracer)
        record["spans"] = tracer.spans
    out.write_text(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
