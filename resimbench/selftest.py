#!/usr/bin/env python3
"""Self-test of the benchmark: one short pass of every workload.

    python3 resimbench/selftest.py [--seed N]

Runs ``run.py`` for each workload in ``BENCHMARK.json``, once with
``--trace 0`` and once with ``--trace 1``, for one second of timed
work each.  Every run must print a result whose metric names and units
are exactly the ones ``BENCHMARK.json`` declares for that mode, and
whose correctness oracle passed (``correct`` true, nothing failed).
Exits non-zero on the first run that does not.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(workload: str, seed: int, trace: int,
              declared: dict[str, str]) -> list[str]:
    """Problems with one short run (empty when it passed)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace)]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=300)
    if completed.returncode != 0:
        return [f"exit code {completed.returncode}: "
                f"{completed.stderr[-2000:]}"]
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"last line is not a JSON result: {lines[-1:]}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        failures = [line for line in completed.stderr.splitlines()
                    if "FAILED" in line]
        problems.append(f"oracle failed {result.get('failed')} "
                        f"time(s): {failures[:5]}")
    printed = {name: metric.get("unit")
               for name, metric in result.get("metrics", {}).items()}
    if printed != declared:
        problems.append(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(declared) - set(printed))}, extra "
            f"{sorted(set(printed) - set(declared))}, units "
            f"{sorted(name for name in declared.keys() & printed.keys() if declared[name] != printed[name])}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
        1: {m["name"]: m["unit"] for m in benchmark["per_layer"]},
    }
    failed = False
    for workload in benchmark["workloads"]:
        for trace in (0, 1):
            problems = check_run(workload["name"], args.seed, trace,
                                 declared[trace])
            status = "ok" if not problems else "FAIL"
            print(f"{workload['name']:<16} --trace {trace}: {status}")
            for problem in problems:
                print(f"    {problem}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
