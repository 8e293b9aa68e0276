#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

Runs every workload of BENCHMARK.json on tiny inputs in both modes and checks
that the last output line is a correct result carrying every named metric
with its unit, then checks that the benchmark refuses to run, printing no
result, in a directory that holds only BENCHMARK.json and the benchmark.

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int, done) -> list[str]:
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit code {done.returncode}: {done.stderr.strip()[-300:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: not correct: {done.stdout.strip()[-500:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted is {result.get('attempted')!r}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        problems.append(f"{where}: metrics/units differ: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, "
                        f"units {[n for n in want if n in got and got[n] != want[n]]}")
    for name, m in result.get("metrics", {}).items():
        if isinstance(m.get("value"), bool) or not isinstance(m.get("value"), (int, float)):
            problems.append(f"{where}: {name} value {m.get('value')!r} is not a number")
    return problems


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and perfbench/: the benchmark must fail without a result."""
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench(bare, "chain-audit", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return ["bare directory: the benchmark ran or printed a result"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_result(spec, workload, trace, run_bench(ROOT, workload, trace))
    problems += check_bare_directory()
    for line in problems:
        print("FAIL", line)
    print("selftest:", "FAILED" if problems else "all workloads emit every metric with its unit")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
