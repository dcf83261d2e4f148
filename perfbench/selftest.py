#!/usr/bin/env python3
"""Self-test for the benchmark: run every workload of BENCHMARK.json at a
tiny size, untraced and traced, and check the result line against the
metric catalogue.

Run from the root of a source tree:

    python3 perfbench/selftest.py

Checks, for each workload and each --trace value:
  - the run exits 0 and its last stdout line is the JSON result, with
    exactly the keys correct, attempted, failed and metrics;
  - correct is true, attempted >= 1 and failed == 0;
  - every metric the catalogue names for that mode appears exactly once,
    in the JSON and in the printed "metric" lines, with the catalogue's
    unit and a finite value, and no other metric appears.
It also checks that a tree holding only BENCHMARK.json and perfbench/
makes the benchmark exit non-zero without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def dup_checking(pairs):
    keys = [k for k, _ in pairs]
    dups = {k for k in keys if keys.count(k) > 1}
    if dups:
        raise ValueError(f"duplicate keys {sorted(dups)}")
    return dict(pairs)


def check_run(bench, workload, trace, seed):
    catalogue = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in catalogue}
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", "1", "--trace", str(trace),
                              "--tiny"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    errors = []
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0:
        errors.append(f"exit code {p.returncode}: {p.stderr[-500:]}")
    if not lines:
        return errors + ["no output"]
    try:
        result = json.loads(lines[-1], object_pairs_hook=dup_checking)
    except ValueError as e:
        return errors + [f"last line is not a JSON result: {e}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append(f"attempted {result.get('attempted')!r}")
    if result.get("failed") != 0:
        errors.append(f"failed {result.get('failed')!r}")
    metrics = result.get("metrics", {})
    for name in set(metrics) - set(units):
        errors.append(f"metric {name} is not in the catalogue")
    printed = [l.split()[1] for l in lines if l.startswith("metric ")]
    for name, unit in units.items():
        m = metrics.get(name)
        if m is None:
            errors.append(f"metric {name} missing")
            continue
        if m.get("unit") != unit:
            errors.append(f"metric {name} unit {m.get('unit')!r}, want {unit!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"metric {name} value {v!r} is not finite")
        if printed.count(name) != 1:
            errors.append(f"metric {name} printed {printed.count(name)} times")
    return errors


def check_bare(bench):
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = bench["command"] + ["--workload", bench["workloads"][0]["name"],
                              "--seed", "1", "--seconds", "1", "--trace", "0"]
    p = subprocess.run(cmd, cwd=bare, capture_output=True, text=True,
                       timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    errors = []
    if p.returncode == 0:
        errors.append("exit code 0 in a tree without the simulator")
    if '"correct"' in p.stdout:
        errors.append("printed a result in a tree without the simulator")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for i, w in enumerate(bench["workloads"]):
        for trace in (0, 1):
            errors = check_run(bench, w["name"], trace, seed=1 + i + trace)
            status = "ok" if not errors else "FAIL"
            print(f"{w['name']:16s} trace={trace} {status}", flush=True)
            for e in errors:
                print(f"    {e}")
            failures += bool(errors)
    errors = check_bare(bench)
    print(f"{'bare tree':16s}         {'ok' if not errors else 'FAIL'}")
    for e in errors:
        print(f"    {e}")
    failures += bool(errors)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
