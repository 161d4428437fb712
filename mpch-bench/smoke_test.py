#!/usr/bin/env python3
"""Smoke test for mpch-bench: every workload once, traced and untraced, at
--tiny sizes.

Checks that each run exits 0, that its outputs were verified (correct, no
failed run), and that the metric names it prints are exactly the
end-to-end (--trace 0) or per-layer (--trace 1) names in BENCHMARK.json,
each with the unit declared there.

    python3 mpch-bench/smoke_test.py

Builds through run.py, so the first call compiles the library.
"""
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def main():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", "3", "--seconds", "0.5",
                                     "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True, timeout=900)
            label = f"{workload} --trace {trace}"
            before = len(failures)
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{label}: outputs not verified: {result}")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected[trace]:
                missing = sorted(set(expected[trace]) - set(printed))
                unnamed = sorted(set(printed) - set(expected[trace]))
                units = sorted(n for n in printed
                               if n in expected[trace] and printed[n] != expected[trace][n])
                failures.append(f"{label}: missing {missing}, unnamed {unnamed}, unit differs {units}")
            if len(failures) == before:
                print(f"ok   {label}: {result['attempted']} runs verified")
    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
