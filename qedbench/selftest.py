"""Quick self-test of the benchmark itself.

    python3 qedbench/selftest.py

Checks that BENCHMARK.json names exactly the workloads and metrics the code
produces, runs every workload at a tiny size untraced and traced, checks
that each run is correct and prints every named metric with its unit, that
both runs of a seed give one output digest, and that the benchmark fails
without printing a result when the library sources are absent.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import gen
import run
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
TIMEOUT_S = 300


def check_spec(spec: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if list(whys) != list(run.WORKLOADS) or whys != gen.WHY:
        problems.append("workloads or their reasons differ from gen.WHY")
    for section, expected in (("end_to_end", run.E2E),
                              ("per_layer", spans.PER_LAYER)):
        got = [(m["name"], m["unit"]) for m in spec[section]]
        if got != list(expected):
            problems.append(f"{section} differs from the metrics the code prints")
    names = [m["name"] for s in ("workloads", "end_to_end", "per_layer")
             for m in spec[s]]
    problems += [f"bad name {n!r}" for n in names if not NAME.match(n)]
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    units = [m["unit"] for s in ("end_to_end", "per_layer") for m in spec[s]]
    problems += [f"bad unit {u!r}" for u in units if not UNIT.match(u)]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if not all(0 < b <= 0.25 for b in bounds.values()):
        problems.append("an end-to-end bound is outside (0, 0.25]")
    if bounds.get("setup_s") != max(bounds.values(), default=None):
        problems.append("setup_s does not have the largest bound")
    return problems


def run_once(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "qedbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_output(proc: subprocess.CompletedProcess, expected) -> tuple[list[str], str]:
    """Problems with one run's output, and its output digest."""
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"], ""
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"incorrect run: {info['problems'][:3]}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append("nothing attempted")
    metrics = result["metrics"]
    if list(metrics) != [name for name, _ in expected]:
        problems.append("metric names differ from the spec")
    for name, unit in expected:
        m = metrics.get(name, {})
        value = m.get("value")
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems, info["digest"]


def check_refuses_without_sources() -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "qedbench").mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy2(path, bare / "qedbench")
    try:
        proc = run_once(bare, run.WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["ran without the library sources"]
    return []


def main() -> int:
    problems = check_spec(json.loads((ROOT / "BENCHMARK.json").read_text()))
    for workload in run.WORKLOADS:
        digests = set()
        for trace, expected in ((0, run.E2E), (1, spans.PER_LAYER)):
            found, digest = check_output(run_once(ROOT, workload, trace), expected)
            problems += [f"{workload} trace={trace}: {p}" for p in found]
            digests.add(digest)
        if len(digests) != 1:
            problems.append(f"{workload}: traced and untraced digests differ")
        print(f"selftest: {workload} done", flush=True)
    problems += check_refuses_without_sources()
    for p in problems:
        print(f"selftest: FAIL {p}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
