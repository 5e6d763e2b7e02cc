"""Benchmark for invsemi: timed passes over one workload, checked results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory and nothing is installed.  Set-up writes the seeded
inputs under perfbench/.work/ (five times; `setup_s` is the median).

With --trace 0 the run makes passes over the workload's op list while
another pass still fits in S seconds (at least MIN_PASSES of them) and
reports the end-to-end metrics.  Times are in reference seconds (see
speed.py); an op's time is its fastest over the run's passes, and
start-up is the fastest of calls made before and after the passes.  On a
shared machine, slow phases lasting seconds to minutes otherwise
dominate the spread between runs.  With --trace 1 it runs one untraced
and one traced in-process pass and reports the per-layer metrics.

Progress goes to stderr; the last line of stdout is one JSON object.
See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

import workloads  # noqa: E402  (lives next to this file)
from speed import Speed, reference_seconds  # noqa: E402
from workloads import FAILED, OK, START_ARGS  # noqa: E402

# The console script's body, so each op costs what typing `invsemi` costs.
CLI = ["-c", "import sys; from invsemi.cli import main; sys.exit(main())"]
SETUP_REPEATS = 5
START_REPEATS = 4  # before the passes, and again after them
IMPORT_REPEATS = 7
SETTLE_SECONDS = 1.5


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_cli(args: list[str], work: Path) -> tuple[float, int, str, float]:
    """One CLI invocation: (seconds, exit code, stdout, peak RSS in MB)."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *CLI, *args], cwd=work, env=_env(),
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return seconds, code, out_path.read_text(), usage.ru_maxrss / 1024


def cli_pass(plan: dict, work: Path, digests: dict) -> dict:
    """Every CLI op once, each a child process; structured stdout must be
    byte-identical to the first pass."""
    ops, rss, speed = [], 0.0, Speed()
    for op in plan["cli"]:
        seconds, code, stdout, child_rss = run_cli(op["args"], work)
        speed.mark()
        outcome = workloads.cli_outcome(op, code, stdout)
        if "structured" in op["args"] and outcome == OK:
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            if digests.setdefault(op["name"], digest) != digest:
                outcome = FAILED
        ops.append({"name": op["name"], "seconds": seconds, "outcome": outcome})
        rss = max(rss, child_rss)
    return {"ops": ops, "rss_mb": rss, "probes": speed.probes}


def worker_pass(work: Path, mode: str = "--sample") -> dict:
    """One in-process pass in a fresh worker process; mode is a worker flag."""
    out = work / ("traced.json" if mode == "--trace" else "pass.json")
    cmd = [sys.executable, str(HERE / "worker.py"), str(work), str(out), mode]
    subprocess.run(cmd, cwd=work, env=_env(), check=True)
    record = json.loads(out.read_text())
    record["rss_mb"] = record.pop("maxrss_kb") / 1024
    return record


def setup(workload: str, seed: int) -> tuple[dict, Path, list[float], int]:
    """Write the inputs and run one untimed warm-up op, SETUP_REPEATS times.

    Returns the plan, the work directory, the set-up times in reference
    seconds and the number of failed warm-up ops."""
    work = WORK / workload
    times, failed, speed = [], 0, Speed()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        plan = workloads.prepare(workload, seed, work)
        failed += _start_failed(run_cli(START_ARGS, work))
        times.append(perf_counter() - start)
        speed.mark()
    return plan, work, reference_seconds(times, speed.probes), failed


def start_probes(work: Path) -> list[tuple]:
    """START_REPEATS start-up calls: (reference seconds, exit code, stdout)."""
    speed, out = Speed(), []
    for _ in range(START_REPEATS):
        out.append(run_cli(START_ARGS, work))
        speed.mark()
    scaled = reference_seconds([r[0] for r in out], speed.probes)
    return [(t, r[1], r[2]) for t, r in zip(scaled, out)]


def _start_failed(result) -> bool:
    code, stdout = result[1], result[2]
    return code != 0 or not stdout.startswith("close z2.json\norder=2 ")


def cli_import_s(work: Path) -> float:
    """`import invsemi.cli` minus a bare interpreter start, median of pairs."""
    def once(code):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=work, env=_env(), check=True)
        return perf_counter() - start
    return statistics.median(once("import invsemi.cli") - once("pass")
                             for _ in range(IMPORT_REPEATS))


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    plan, work, setup_times, failed = setup(workload, seed)
    starts = start_probes(work)
    passes, digests = [], {}
    began = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(cli_pass(plan, work, digests) if "cli" in plan else worker_pass(work))
        elapsed, last = perf_counter() - began, perf_counter() - t0
        print(f"{workload}: pass {len(passes)} took {last:.2f} s", file=sys.stderr)
        if len(passes) >= workloads.MIN_PASSES[workload] and elapsed + last > seconds:
            break
    starts += start_probes(work)
    failed += sum(_start_failed(r) for r in starts)
    (work / "passes.json").write_text(json.dumps(
        {"passes": passes, "starts": [r[0] for r in starts], "setup": setup_times}))
    ops = [op for p in passes for op in p["ops"]]
    failed += _report_failed(ops)
    fastest: dict[str, float] = {}
    for p in passes:
        scaled = reference_seconds([op["seconds"] for op in p["ops"]], p["probes"],
                                   p.get("during"))
        for op, ref in zip(p["ops"], scaled):
            fastest[op["name"]] = min(ref, fastest.get(op["name"], ref))
    metrics = {
        "wall_s": (sum(fastest.values()), "s"),
        "op_s.p50": (statistics.median(fastest.values()), "s"),
        "slowest_op_s": (max(fastest.values()), "s"),
        "ok_share": (sum(op["outcome"] == OK for op in ops) / len(ops), "ratio"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        "cli_start_s": (min(r[0] for r in starts), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    return _result(len(ops) + SETUP_REPEATS + len(starts), failed, metrics)


def traced_run(workload: str, seed: int) -> dict:
    _, work, _, failed = setup(workload, seed)
    # neither pass samples, so both time long ops the same way
    plain = worker_pass(work, "--plain")
    traced = worker_pass(work, "--trace")
    for a, b in zip(plain["ops"], traced["ops"]):
        if a["digest"] != b["digest"]:  # tracing must not change any output
            b["outcome"] = FAILED
    ops = plain["ops"] + traced["ops"]
    failed += _report_failed(ops)
    (work / "spans.json").write_text(json.dumps(traced.pop("spans")))
    wall = {name: sum(reference_seconds([op["seconds"] for op in r["ops"]], r["probes"]))
            for name, r in (("plain", plain), ("traced", traced))}
    units = {"formats.bytes": "bytes", "germs.classes_per_pair": "ratio",
             "semigroup.close.yield": "ratio", "criterion.completeness.decided": "ratio"}
    metrics = {name: (value, "s" if name.endswith("_s") or name.endswith(".s")
                      else units.get(name, "count"))
               for name, value in traced["layers"].items()}
    metrics["cli.import_s"] = (cli_import_s(work), "s")
    metrics["trace.overhead"] = (wall["traced"] / wall["plain"], "ratio")
    return _result(len(ops) + SETUP_REPEATS, failed, metrics)


def _report_failed(ops: list[dict]) -> int:
    failed = [op["name"] for op in ops if op["outcome"] == FAILED]
    for name in failed:
        print(f"FAILED: {name}", file=sys.stderr)
    return len(failed)


def settle() -> None:
    """Pin this process, and so every child, to one CPU and keep that CPU
    busy for SETTLE_SECONDS before anything is timed.

    On a shared virtual machine an idle CPU runs the first second or so of
    work markedly slower; one warm CPU for the whole run removes that
    start-up slowness and migrations between a warm and a cold CPU.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    end = perf_counter() + SETTLE_SECONDS
    while perf_counter() < end:
        pass


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "invsemi" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    settle()
    if args.trace:
        result = traced_run(args.workload, args.seed)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
