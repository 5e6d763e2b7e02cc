"""The benchmark's tracer finds the package names it wraps.

`perfbench/tracing.instrument` rebinds package attributes by name, so it
runs in a child process.  A traced name that is deleted or moved shows
here as a zero layer time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from invsemi.formats import load_semigroup
from oracles import left_translation_table_scan

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer, instrument, layer_metrics
from invsemi.cli import main

tracer = Tracer()
instrument(tracer)
codes = []
for args in json.loads(sys.argv[2]):
    try:
        main(args)
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps({"codes": codes, "metrics": layer_metrics(tracer)}))
"""


def test_traced_layers_are_found():
    i2 = str(ROOT / "tests" / "data" / "i2_gens.json")
    commands = [
        ["symbolic", "atomflip", "flip", "--truncation", "4", "--verify"],
        ["germs", i2, "--self", "--verify"],  # the report alone builds no groupoid
        ["criterion", i2, "--verify"],
    ]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), json.dumps(commands)],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    metrics = result["metrics"]
    for name in ("symbolic.criterion.s", "germs.build.s", "criterion.oracle.s"):
        assert metrics[name] > 0, name
    # the pair count of I_2 acting on itself, sum over s of |D_{s*s}|
    assert metrics["germs.pairs"] == len(left_translation_table_scan(load_semigroup(i2))) == 27
