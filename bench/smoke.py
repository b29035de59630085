"""Smoke check of the benchmark: python3 bench/smoke.py

Runs every workload at tiny size, untraced and traced, and fails if a metric
named in BENCHMARK.json is missing from the result, has no unit or another
unit, or is not a number; also if a per-layer metric has no entry in the
layer -> end-to-end map of metrics.py.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

from metrics import MOVES
from run import ROOT, WORKLOADS


def problems_in(result, expected, label):
    problems = [f"{label}: {key} missing" for key in ("correct", "attempted", "failed")
                if key not in result]
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        got = metrics.get(name)
        if not isinstance(got, dict) or not got.get("unit"):
            problems.append(f"{label}: {name} missing or without unit")
        elif got["unit"] != unit:
            problems.append(f"{label}: {name} has unit {got['unit']}, expected {unit}")
        elif not (isinstance(got.get("value"), (int, float)) and math.isfinite(got["value"])):
            problems.append(f"{label}: {name} value {got.get('value')!r} is not a finite number")
    problems += [f"{label}: unexpected metric {name}" for name in set(metrics) - set(expected)]
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    known = set(e2e) | {"op_p90_ms", "failed_frac"}
    problems = [f"map: {name} has no entry in metrics.MOVES" for name in layers if name not in MOVES]
    problems += [f"map: {name} names unknown metric {m}" for name, moves in MOVES.items()
                 for ms in moves.values() for m in ms if m not in known]
    for workload in WORKLOADS:
        for trace, expected in ((0, e2e), (1, layers)):
            label = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exited {proc.returncode}: {proc.stderr[-300:]}")
                continue
            problems += problems_in(json.loads(lines[-1]), expected, label)
            print(f"{label}: ran", flush=True)
    for line in problems:
        print("FAIL", line)
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
