import contextlib
import io
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from invsemi import (ContractViolation, FiniteInverseSemigroup, PartialBijection,
                     all_partial_bijections, build_germs, close)
from invsemi.cli import main
from invsemi.formats import FORMAT_VERSION
from invsemi.germs import germ_counts
from invsemi.symbolic import atomflip


def make_chain(length: int) -> FiniteInverseSemigroup:
    """Chain semilattice e_0 > e_1 > ... (meet = max of indices)."""
    return FiniteInverseSemigroup(
        [[max(i, j) for j in range(length)] for i in range(length)],
        labels=[f"e{i}" for i in range(length)])


def check_germ_counts(action, G=None):
    """`germ_counts` against the built groupoid: the three sizes, and
    principal = effective = essentially principal = (isotropy == units)."""
    G = build_germs(action) if G is None else G
    counts = germ_counts(action)
    assert counts == (len(G), len(G.units), len(G.isotropy()))
    assert (counts[2] == counts[1],) * 3 == (
        G.is_principal(), G.is_effective(), G.is_essentially_principal())
    return counts


def product_or_none(G, c1, c2):
    """G.compose(c1, c2), or None where it raises for a pair that is not
    composable."""
    try:
        return G.compose(c1, c2)
    except ContractViolation:
        return None


@pytest.fixture(scope="session")
def i1():
    return close(list(all_partial_bijections(1)))


@pytest.fixture(scope="session")
def i2():
    return close(list(all_partial_bijections(2)))


@pytest.fixture(scope="session")
def i3():
    return close(list(all_partial_bijections(3)))


@pytest.fixture(scope="session")
def z2():
    return close([PartialBijection(2, {0: 1, 1: 0})])


@pytest.fixture(scope="session")
def z3():
    return close([PartialBijection(3, {0: 1, 1: 2, 2: 0})])


@pytest.fixture(scope="session")
def all_fixtures(i1, i2, i3, z2, z3):
    """The named desk-scale fixture family used by the acceptance criteria."""
    out = {"I_1": i1, "I_2": i2, "I_3": i3, "Z_2": z2, "Z_3": z3}
    for k in (2, 3, 4):
        out[f"chain_{k}"] = make_chain(k)
    for n in range(7):
        out[f"F_{n}"] = atomflip.truncation(n)
    return out


@pytest.fixture(scope="session")
def left_zero_table():
    """x y = x for both elements; inverses exist but are not unique."""
    return FiniteInverseSemigroup([[0, 0], [1, 1]])


def semigroup_to_dict(S: FiniteInverseSemigroup) -> dict:
    """Table-kind document for a semigroup (labels stringified), for
    tests that write table files."""
    doc = {"version": FORMAT_VERSION, "kind": "table",
           "mul_table": [list(row) for row in S.mul]}
    if S.labels is not None:
        doc["labels"] = [str(l) for l in S.labels]
    return doc


def element_index(S: FiniteInverseSemigroup, pb: PartialBijection) -> int:
    """Index of a partial bijection inside a closure's label list."""
    for i, el in enumerate(S.labels):
        if el == pb:
            return i
    raise AssertionError(f"{pb} not found in semigroup labels")


@dataclass
class CliResult:
    """The exit code and the streams of one CLI call."""

    exit_code: int
    stdout: str
    stderr: str
    exception: SystemExit | None  # the SystemExit of a nonzero exit code

    @property
    def output(self) -> str:
        return self.stdout + self.stderr

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()


def invoke_cli(args, env=None) -> CliResult:
    """Run the CLI in this process on `args`, with `env` added to the
    environment, and capture its streams and exit code.  Any exception
    but SystemExit propagates: the CLI lets none escape."""
    out, err = io.StringIO(), io.StringIO()
    code, exception = 0, None
    with mock.patch.dict(os.environ, env or {}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:
            code = exc.code or 0
            exception = exc if code else None
    return CliResult(code, out.getvalue(), err.getvalue(), exception)
