#!/usr/bin/env python3
"""Closed-loop proving benchmark for the PEC prover.

    python3 perfbench/run.py --workload figure11 --seed 1 --seconds 35 --trace 0

Builds prove_loop (prove_loop.cpp, linked against the repository's libraries
from ../src) into .bench_build/, runs one workload for --seconds in a
single process and prints, as the last line of stdout, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer
metrics (the traced run also writes its spans to
.bench_build/spans-<workload>.json).

Checks: every verdict against its known answer (in prove_loop), and every
exact work count against the rule's first pass (in prove_loop) and against
the first run of the same build and workload, whatever its seed or trace
setting (here; references live in .bench_build/exact/). Any failure makes
"correct" false and is named on stderr.

The seed shuffles the rule order within each pass; the default is 1.
selftest.py tests the checks themselves; README.md describes the
workloads, the metrics and how timings are calibrated.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
PROVE_LOOP = os.path.join(BUILD, "prove_loop")
WORKLOADS = ("figure11", "rejections", "parallel")
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 850
# Slack past --seconds for the pass in flight at the deadline: one
# `rejections` pass takes 11-14 s on a 4-vCPU VM.
RUN_SLACK_S = 120


def fail(message):
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "pec", "Pec.h")):
        fail(f"no PEC sources in {os.path.join(ROOT, 'src')}; run from a "
             "checkout of the repository")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append([cmake, "-S", HERE, "-B", BUILD, *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append([cmake, "--build", BUILD, "--target", "prove_loop",
                  "-j", jobs])
    for step in steps:
        # Build logs go to stderr: stdout carries only the result.
        result = subprocess.run(step, stdout=sys.stderr,
                                timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def binary_digest():
    h = hashlib.sha256()
    with open(PROVE_LOOP, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_exact_counts(workload, exact, record):
    """Compares the run's per-rule exact counts with the first run of the
    same prove_loop build on this workload. Returns the mismatches found."""
    ref_dir = os.path.join(OUT, "exact")
    ref_path = os.path.join(ref_dir, f"{workload}-{binary_digest()}.json")
    if not os.path.exists(ref_path):
        if record:
            os.makedirs(ref_dir, exist_ok=True)
            tmp = ref_path + ".tmp"
            with open(tmp, "w") as f:
                json.dump(exact, f, indent=1, sort_keys=True)
            os.replace(tmp, ref_path)
        return []
    with open(ref_path) as f:
        ref = json.load(f)
    errors = []
    for rule in sorted(set(ref) | set(exact)):
        if rule not in ref or rule not in exact:
            errors.append(f"exact-count mismatch: rule {rule} is only in "
                          f"{'this run' if rule in exact else 'the reference'}")
            continue
        for metric in sorted(set(ref[rule]) | set(exact[rule])):
            now, then = exact[rule].get(metric), ref[rule].get(metric)
            if now != then:
                errors.append(f"exact-count mismatch: {metric} of rule {rule} "
                              f"is {now} in this run but {then} in the "
                              f"reference run ({ref_path})")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hooks (selftest.py): plant a wrong verdict, or falsify one
    # exact count in the second pass. Runs with either never record a
    # reference for the cross-run count check.
    parser.add_argument("--plant-wrong-verdict", action="store_true")
    parser.add_argument("--falsify-count", action="store_true")
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    wanted = declared_metrics(args.trace)
    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [PROVE_LOOP, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reject-file", os.path.join(HERE, "rejections.rules")]
    if args.trace:
        cmd += ["--spans", os.path.join(OUT, f"spans-{args.workload}.json")]
    if args.plant_wrong_verdict:
        cmd.append("--plant-wrong-verdict")
    if args.falsify_count:
        cmd.append("--falsify-count")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail(f"prove_loop did not finish within {args.seconds + RUN_SLACK_S} s")
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"prove_loop exited with code {proc.returncode} and "
             f"{len(lines)} lines of output")
    doc = json.loads(lines[-1])

    hooked = args.plant_wrong_verdict or args.falsify_count
    errors = doc["errors"] + check_exact_counts(args.workload, doc["exact"],
                                                record=not hooked)
    for e in errors[len(doc["errors"]):]:
        print(f"perfbench: {e}", file=sys.stderr)
    metrics = {}
    for m in wanted:
        if m["name"] not in doc["metrics"]:
            fail(f"prove_loop did not measure {m['name']}")
        got = doc["metrics"][m["name"]]
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} measured in {got['unit']}, declared {m['unit']}")
        metrics[m["name"]] = got
    print(json.dumps({"correct": not errors, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
