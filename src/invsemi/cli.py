"""Command line front door.

Subcommands: close, props, germs, criterion, symbolic.  Reports render
as human text by default or canonical JSON with --format structured;
both are byte-deterministic for a fixed input and flag set.  Exit
codes: 0 success, 2 parse error, 3 budget or memory exhausted, 4
internal invariant or --verify failure.  `main` parses the arguments
with argparse, maps the package's errors to these codes in one place,
and always ends in SystemExit.

A subcommand imports the modules it runs inside its own body and calls
them through module attributes, so `close` loads no criterion, germ,
action or symbolic-family code.  The CLI decides only the argument
parsing, the verification policy, the report layout and the exit codes;
a symbolic family is reached through the table `symbolic.FAMILIES`.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import NoReturn

from . import formats, symbolic
from .errors import BudgetExceeded, ContractViolation, InvariantViolation, ParseError
from .report import RunReport
from .semigroup import (DEFAULT_CLOSE_BUDGET, DEFAULT_SUBSET_BUDGET, FiniteInverseSemigroup,
                        VerificationResult, has_letters_of, is_closure_of, verify_by_scans,
                        verify_inverse_semigroup)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4

MAX_LISTED_ELEMENTS = 100


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _input_file(path: str) -> str:
    """An existing file, not a directory; else argparse exits 2."""
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"file {path!r} does not exist")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
    return path


def _family_options(parser: argparse.ArgumentParser) -> None:
    """The options of `symbolic.FAMILIES`, one per family, by its name."""
    default = {option: value for _, option, value in symbolic.FAMILIES.values()}
    parser.add_argument("--truncation", type=int, default=None,
                        help="Atom-flip truncation bound (atom count).")
    parser.add_argument("--rank", type=int, default=None,
                        help="Munn rank (at least 1) when parsing cannot infer it. "
                             f"[default: {default['rank']}]")
    parser.add_argument("--graph", type=_input_file, default=None, metavar="GRAPH_FILE",
                        help="Graph file for the graph family.")


def _common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", dest="fmt", choices=["human", "structured"],
                        default="human", help="Report rendering. [default: human]")
    # None unless given, so that a call that ignores the budget can
    # refuse it; `_budget` falls back on INVSEMI_BUDGET
    parser.add_argument("--budget", type=int, default=None,
                        help="Resource budget, at least 0: closure elements, and compatible "
                             "pairs examined by props, whose translate checks cost at most "
                             "two per generator and pair (subsets for the --verify oracles, "
                             "m^3 triples for close --verify of a table file). Unset, each "
                             f"phase takes its own default: {DEFAULT_CLOSE_BUDGET:,} elements, "
                             f"{DEFAULT_SUBSET_BUDGET:,} pairs, subsets or triples.")
    parser.add_argument("--verify", action="store_true",
                        help="Re-run the independent oracles and require agreement.")
    parser.add_argument("--timing", action="store_true",
                        help="Print elapsed time to stderr (stdout stays deterministic).")


def _parser(prog_name: str | None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=prog_name, description=main.__doc__,
                                     allow_abbrev=False)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name: str, run) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=(run.__doc__ or "").partition("\n")[0],
                                  description=run.__doc__, allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub

    for name, run in (("close", close), ("props", props), ("germs", germs)):
        command(name, run).add_argument("input_file", metavar="INPUT_FILE", type=_input_file)
    commands.choices["germs"].add_argument(
        "--self", dest="self_action", action="store_true",
        help="INPUT is a semigroup file; act on itself by left translation.")
    sub = command("criterion", criterion)
    sub.add_argument("input_file", metavar="INPUT_FILE", type=_input_file, nargs="?")
    sub.add_argument("--family", choices=symbolic.FAMILIES, default=None,
                     help="Run the symbolic checker instead of a table input.")
    sub.add_argument("--element", dest="element_expr", default=None,
                     help="Element expression for --family.")
    _family_options(sub)
    sub = command("symbolic", symbolic_cmd)
    sub.add_argument("family", choices=symbolic.FAMILIES)
    sub.add_argument("element_expr")
    _family_options(sub)
    for sub in commands.choices.values():
        _common_options(sub)
    return parser


def main(args: list[str] | None = None, prog_name: str | None = None) -> NoReturn:
    """Finite inverse semigroups, germ groupoids, and cover criteria."""
    options = vars(_parser(prog_name).parse_args(args))
    run, fmt, timing = options.pop("run"), options.pop("fmt"), options.pop("timing")
    started = time.perf_counter()
    try:
        report = run(**options)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_PARSE)
    except BudgetExceeded as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        sys.exit(EXIT_BUDGET)
    except MemoryError:
        print("inconclusive: out of memory", file=sys.stderr)
        sys.exit(EXIT_BUDGET)
    except (InvariantViolation, ContractViolation) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        sys.exit(EXIT_INVARIANT)
    if timing:
        print(f"elapsed_ms={(time.perf_counter() - started) * 1000:.1f}", file=sys.stderr)
    sys.stdout.write(report.render_structured() if fmt == "structured"
                     else report.render_text())
    sys.stdout.flush()
    if report.verified is False:
        print("verification failed: oracle disagreement", file=sys.stderr)
        sys.exit(EXIT_INVARIANT)
    sys.exit(EXIT_OK)


def _semigroup_summary(S: FiniteInverseSemigroup, check: VerificationResult) -> dict:
    """Order, zero and the outcome of `_verification`."""
    return {
        "order": S.order,
        "idempotent_count": len(S.idempotents),
        "zero": S.zero,
        "is_group": bool(check) and S.is_group,
        "verifier_ok": check.ok,
        "verifier_reason": check.reason,
        "verifier_certificate": list(check.certificate) if check.certificate else None,
    }


def _verification(S: FiniteInverseSemigroup, input_file, verify: bool, *,
                  require: bool = False, report: RunReport | None = None,
                  budget: int | None = None) -> VerificationResult:
    """Whether S is an inverse semigroup: the one place that decides how
    each subcommand checks it.

    A closure (a `close` result) is an inverse subsemigroup of I_n by
    construction, so it passes unchecked.  Under --verify it must pass
    `is_closure_of`, which proves that from its labels; a failure is the
    program's fault, so it raises InvariantViolation (exit 4).  A table
    file proves nothing about itself, so it always gets
    `verify_inverse_semigroup`.  With `require`, a failed check is a
    ParseError naming the file.

    `close --verify` passes its `report`, whose `verified` is set by the
    oracle of each kind: a closure's letters against the generators of
    the file, parsed again; a table's check against `verify_by_scans`
    under `budget`, with no second parse.
    """
    if S._closure is not None:
        if verify and not is_closure_of(S):
            raise InvariantViolation(f"{input_file}: the closure disagrees with its labels")
        if verify and report:
            report.verified = has_letters_of(S, formats.load_generators(input_file))
        return VerificationResult(True)
    check = verify_inverse_semigroup(S)
    if require and not check.ok:
        raise ParseError(f"{input_file}: not an inverse semigroup "
                         f"({check.reason}, certificate {check.certificate})")
    if verify and report:
        report.verified = verify_by_scans(S, budget) == check
    return check


def _summary_lines(report: RunReport, stats: dict) -> None:
    zero = stats["zero"] if stats["zero"] is not None else "none"
    report.line(f"order={stats['order']} idempotents={stats['idempotent_count']} "
                f"zero={zero} group={'yes' if stats['is_group'] else 'no'}")
    if stats["verifier_ok"]:
        report.line("verifier: ok")
    else:
        report.line(f"verifier: FAILED ({stats['verifier_reason']}) "
                    f"certificate={stats['verifier_certificate']}")


def close(input_file, budget, verify):
    """Close a generator file (or load a table file) and verify it."""
    budget = _budget(budget)
    S = formats.load_semigroup(input_file, budget=budget)
    report = RunReport("close", input_file)
    check = _verification(S, input_file, verify, report=report, budget=budget)
    stats = _semigroup_summary(S, check)
    report.semigroup = stats
    report.line(f"close {input_file}")
    _summary_lines(report, stats)
    if S.order <= MAX_LISTED_ELEMENTS and S.labels is not None:  # a read builds a closure's labels
        report.semigroup["elements"] = [S.label_str(i) for i in S.elements()]
        report.line("elements:")
        for i in S.elements():
            report.line(f"  {i}: {S.label_str(i)}")
    return report


def props(input_file, budget, verify):
    """Batch property flags: unitary variants, completeness, distributivity."""
    from . import criterion as crit
    budget = _budget(budget)
    S = formats.load_semigroup(input_file, budget=budget)
    report = RunReport("props", input_file)
    stats = _semigroup_summary(S, _verification(S, input_file, verify))
    report.semigroup = stats
    report.line(f"props {input_file}")
    _summary_lines(report, stats)
    properties: dict = {"all_idempotent": len(S.idempotents) == S.order}
    if stats["verifier_ok"]:
        unitary = crit.is_e_star_unitary(S)
        completeness = crit.is_complete_and_distributive(S, budget=budget)
        properties.update({
            "unitary_variant": unitary.variant,
            "unitary_ok": unitary.ok,
            "unitary_witness": unitary.witness,
            "complete_and_distributive": completeness.ok,
            "completeness_certificate": completeness.certificate,
            "subsets_checked": completeness.subsets_checked,
        })
        report.line(f"all elements idempotent: {'yes' if properties['all_idempotent'] else 'no'}")
        witness = "" if unitary.ok else f" witness={S.label_str(unitary.witness)}"
        report.line(f"{unitary.variant}: {'yes' if unitary.ok else 'no'}{witness}")
        report.line(f"complete+distributive: {'yes' if completeness.ok else 'no'} "
                    f"(subsets checked: {completeness.subsets_checked})")
        if verify:
            from . import oracles
            report.verified = oracles.completeness_scan(S, budget).ok == completeness.ok
    else:
        report.line("algebraic properties skipped: not an inverse semigroup")
    report.properties = properties
    return report


def germs(input_file, self_action, budget, verify):
    """Germ groupoid counts of an action (action file, or --self)."""
    from . import action as action_mod, germs as germs_mod
    budget = _budget(budget)
    if self_action:
        S = formats.load_semigroup(input_file, budget=budget)
    else:
        action = formats.load_action(input_file, budget=budget)
        S = action.semigroup
    check = _verification(S, input_file, verify, require=True)
    if self_action:  # S acting on itself: no action is built to count
        counts, space_size = germs_mod.left_translation_counts(S), S.order
    else:
        counts, space_size = germs_mod.germ_counts(action), action.space_size
    principal = counts[2] == counts[1]  # and so effective, essentially principal
    report = RunReport("germs", input_file)
    report.semigroup = _semigroup_summary(S, check)
    report.groupoid = {
        "space_size": space_size,
        "germ_count": counts[0],
        "unit_count": counts[1],
        "isotropy_count": counts[2],
        "principal": principal,
        "effective": principal,
        "essentially_principal": principal,
    }
    report.line(f"germs {input_file}{' --self' if self_action else ''}")
    g = report.groupoid
    report.line(f"space={g['space_size']} germs={g['germ_count']} units={g['unit_count']} "
                f"isotropy={g['isotropy_count']}")
    report.line(f"principal={_yn(g['principal'])} effective={_yn(g['effective'])} "
                f"essentially_principal={_yn(g['essentially_principal'])}")
    if verify:
        if self_action:
            action = action_mod.left_translation_action(S)
        G = germs_mod.build_germs(action)
        report.verified = (
            counts == (len(G), len(G.units), len(G.isotropy()))
            and (principal,) * 3 == (G.is_principal(), G.is_effective(),
                                     G.is_essentially_principal())
            and germs_mod.verify_germ_classes(action, G))
    return report


def criterion(input_file, family, element_expr, budget, verify, **options):
    """Finite-cover verdicts: per element of a table, or one symbolic element."""
    if (input_file is None) == (family is None):
        raise ParseError("give exactly one of INPUT_FILE or --family")
    if family is not None:
        if element_expr is None:
            raise ParseError("--family needs --element")
        return _symbolic_report("criterion", family, element_expr, options, budget, verify)
    if element_expr is not None:
        raise ParseError("--element applies only to --family")
    symbolic.refuse_options(None, options)
    from . import criterion as crit
    budget = _budget(budget)
    S = formats.load_semigroup(input_file, budget=budget)
    check = _verification(S, input_file, verify, require=True)
    report = RunReport("criterion", input_file)
    report.semigroup = _semigroup_summary(S, check)
    report.line(f"criterion {input_file}")
    rows = []
    verified = True
    for s in S.elements():
        verdict, label = crit.hausdorff_criterion(S, s), S.label_str(s)
        rows.append({"element": s, "label": label, "j_set": sorted(verdict.j_set),
                     "witness": list(verdict.witness), "verdict": verdict.verdict})
        report.line(f"  s={s} ({label}): {verdict.verdict} "
                    f"witness={list(verdict.witness)} |J_s|={len(verdict.j_set)}")
        if verify:  # the ideal-cover oracle, then the verdict against J_s by products
            verified = (verified and crit.ideal_cover_agrees_with_order_cover(S, s, budget=budget)
                        and verdict.j_set == S.j_set(s)
                        and verdict.j_set.issuperset(verdict.witness))
    report.criterion = rows
    if verify:
        report.verified = verified
    return report


def symbolic_cmd(family, element_expr, budget, verify, **options):
    """Criterion verdict for one element of a countable family."""
    if element_expr == []:  # Python 3.11's argparse passes a literal "--" element as []
        element_expr = "--"
    return _symbolic_report("symbolic", family, element_expr, options, budget, verify)


def _budget(budget: int | None) -> int | None:
    """--budget if given, else INVSEMI_BUDGET if set, else None (each
    phase's own default); a negative value is a ParseError naming its
    source.  Read only by a call that uses a budget, so the variable
    never fails a symbolic call."""
    source, env = "--budget", os.environ.get("INVSEMI_BUDGET")
    if budget is None and env:
        source = "INVSEMI_BUDGET"
        try:
            budget = int(env)
        except ValueError:
            raise ParseError(f"INVSEMI_BUDGET: invalid int value: {env!r}") from None
    if budget is not None and budget < 0:
        raise ParseError(f"{source} must be at least 0, got {budget}")
    return budget


def _symbolic_report(command, family, element_expr, options, budget, verify) -> RunReport:
    symbolic.refuse_options(family, options)
    if budget is not None:
        raise ParseError("--budget applies only to a semigroup file")
    element, rep, pool = symbolic.evaluate(family, element_expr, options)

    report = RunReport(command)
    payload: dict = {"family": rep.family, "element": rep.element,
                     "j_set": rep.j_set_description, "verdict": rep.verdict,
                     "witness": list(rep.witness_strings()) if rep.witness is not None else None}
    report.line(f"{command} {family} '{element_expr}'")
    report.line(f"element: {rep.element}")
    report.line(f"J_s: {rep.j_set_description}")
    report.line(f"verdict: {rep.verdict}")
    if rep.witness is not None:
        report.line(f"witness: [{', '.join(rep.witness_strings())}]")
    if rep.antichain is not None:
        sample = [str(rep.antichain.member(i)) for i in range(1, 5)]
        payload["antichain"] = {"description": rep.antichain.description,
                                "sample": sample}
        report.line(f"antichain: {rep.antichain.description}")
        report.line(f"  sample: {', '.join(sample)}, ...")
    report.symbolic = payload
    if verify:
        report.verified = symbolic.verify(element, rep, pool)
    return report


if __name__ == "__main__":
    main()
