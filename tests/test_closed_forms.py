"""CLI answers on I_6, the symmetric inverse monoid on 6 points, checked
line by line against closed forms, with no closure to compare with.

On I_n (n points, m = |I_n|):
- m = sum over k of C(n, k)^2 k!, and |E| = 2^n (Ganyushkin &
  Mazorchuk, *Classical Finite Transformation Semigroups*, 2009, ch. 2);
  the zero is the empty map;
- `criterion`: J_s is the partial identities on the subsets of fix(s),
  so |J_s| = 2^|fix(s)|, the verdict is HAUSDORFF_WITNESS and the
  witness is the one element labelled by the identity on fix(s);
- `germs --self`: the sum over k of C(n, k)^2 k! P(n, k) germs, with
  units = isotropy = m, so the groupoid is principal.
"""

import json
import re
from math import comb, factorial, perm

import pytest

from invsemi import HAUSDORFF_WITNESS
from conftest import invoke_cli
from test_closure import symmetric_generators

ROW = re.compile(r"  s=(\d+) \(\[(.*)\]\): (\w+) witness=\[(.*)\] \|J_s\|=(\d+)")


def order(n):
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


def germ_count(n):
    return sum(comb(n, k) ** 2 * factorial(k) * perm(n, k) for k in range(n + 1))


def closed_form_faults(n, close_out, criterion_out, germs_out):
    """The lines of the three reports on I_n that disagree with the forms."""
    rows = [ROW.fullmatch(line) for line in criterion_out.splitlines()[1:]]
    if None in rows or len(rows) != order(n):
        return ["criterion: not one row per element"]
    by_label = {label: int(s) for s, label, *_ in (row.groups() for row in rows)}
    m = order(n)
    faults = [line for line, expected in (
        (close_out.splitlines()[1],
         f"order={m} idempotents={2 ** n} zero={by_label.get('')} group=no"),
        (germs_out.splitlines()[1], f"space={m} germs={germ_count(n)} units={m} isotropy={m}"),
        (germs_out.splitlines()[2], "principal=yes effective=yes essentially_principal=yes"),
    ) if line != expected]
    for row in rows:
        s, label, verdict, witness, size = row.groups()
        fixed = [x for x, y in (pair.split("->") for pair in label.split(",") if pair)
                 if x == y]
        identity = by_label.get(",".join(f"{x}->{x}" for x in fixed))
        if (verdict, witness, int(size)) != (HAUSDORFF_WITNESS, str(identity), 2 ** len(fixed)):
            faults.append(row.group(0))
    return faults


@pytest.fixture(scope="module")
def i6_reports(tmp_path_factory):
    f = tmp_path_factory.mktemp("i6") / "i6.json"
    f.write_text(json.dumps({"version": 1, "kind": "generators", "ground_size": 6,
                             "generators": [g.pairs for g in symmetric_generators(6)]}))
    reports = []
    for args in (["close"], ["criterion"], ["germs", "--self"]):
        result = invoke_cli([args[0], str(f), *args[1:]])
        assert result.exit_code == 0, result.output
        reports.append(result.stdout)
    return reports


def test_i6_reports_match_the_closed_forms(i6_reports):
    close_out, criterion_out, germs_out = i6_reports
    assert close_out.splitlines()[1] == "order=13327 idempotents=64 zero=10334 group=no"
    assert germs_out.splitlines()[1] == "space=13327 germs=5874517 units=13327 isotropy=13327"
    assert closed_form_faults(6, *i6_reports) == []


@pytest.mark.parametrize("old, new, report", [
    ("|J_s|=16\n", "|J_s|=8\n", 1),         # one |J_s|, on the first row
    ("witness=[34]", "witness=[35]", 1),     # one witness
    ("germs=5874517", "germs=5874516", 2),  # the germ count
])
def test_the_closed_form_check_finds_one_changed_answer(i6_reports, old, new, report):
    reports = list(i6_reports)
    assert reports[report].count(old) >= 1
    reports[report] = reports[report].replace(old, new, 1)
    assert len(closed_form_faults(6, *reports)) == 1
