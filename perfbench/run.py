#!/usr/bin/env python3
"""Build the simulator from source and run one benchmark workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

The OCaml benchmark (perfbench/main.ml) is built with dune into
.bench_build/.  An end-to-end run (--trace 0) runs it in three processes
one after another, each for a third of S, and reports each metric's
median over the three, so that one slow stretch of a shared host does
not set the result.  Every process must reproduce the same result,
simulated time and (at one domain) allocation.  A traced run (--trace 1)
is one process; it writes its spans to .bench_build/spans/.

The last line of standard output is one JSON object.  The exit code is
0 only when every correctness check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
PROCESSES = 3


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    # The dune cache would write outside the tree; the build stays in it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(BUILD_DIR, exist_ok=True)
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ROOT, "--build-dir",
             os.path.join(BUILD_DIR, "dune"), "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "dune", "default", "perfbench", "main.exe")


def run_process(cmd, env, deadline, prefix):
    """Run one benchmark process; relay its output but the result line.
    Returns (exit code, result or None, output lines)."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("run timed out", code=3)
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            pass
    for line in lines:
        print(prefix + line)
    return done.returncode, result, lines


def combine(results, repeats):
    """Median of each metric over the processes' results."""
    first = results[0]
    problems = []
    if len(set(repeats)) != 1:
        problems.append("processes of one seed disagree: "
                        + " / ".join(sorted(set(repeats))))
    metrics = {}
    for name, m in first["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": m["unit"]}
        print(f"metric {name:34s} {metrics[name]['value']:16.6f} {m['unit']}"
              f"  (median of {len(values)}; min {min(values):.6f},"
              f" max {max(values):.6f})")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    return {"correct": all(r["correct"] for r in results) and not problems,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the self-test")
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_TIMEOUT_S

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found under {ROOT}: not a source tree")

    exe = build()
    deadline = max(deadline, time.monotonic() + RUN_TIMEOUT_S - 10)
    events = os.path.join(BUILD_DIR, "events")
    spans = os.path.join(BUILD_DIR, "spans")
    os.makedirs(events, exist_ok=True)
    os.makedirs(spans, exist_ok=True)
    processes = 1 if args.trace else PROCESSES
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / processes),
           "--trace", str(args.trace),
           "--nproc", str(os.cpu_count() or 0), "--commit", git_commit(),
           "--spans", os.path.join(
               spans, f"{args.workload}-seed{args.seed}.json")]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=events)
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)

    results, repeats, code = [], [], 0
    for k in range(processes):
        prefix = f"[process {k + 1}] " if processes > 1 else ""
        rc, result, lines = run_process(cmd, env, deadline, prefix)
        code = code or rc
        if result is None:
            fail(f"a benchmark process exited {rc} without a result", code=rc or 5)
        results.append(result)
        repeats += [l[len("repeat "):] for l in lines if l.startswith("repeat ")]
    final = results[0] if processes == 1 else combine(results, repeats)
    print(json.dumps(final))
    sys.exit(code if code else (0 if final["correct"] else 1))


if __name__ == "__main__":
    main()
