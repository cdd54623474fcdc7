#!/usr/bin/env python3
"""Tests of the benchmark's own checks.

    python3 perfbench/selftest.py

Runs perfbench/run.py briefly and checks that:
  * untraced and traced runs print every end_to_end / per_layer metric of
    BENCHMARK.json, with its declared unit, and pass their checks;
  * a planted wrong verdict (a negative rule in the positive set) fails
    the run and is named on stderr, on figure11 and parallel;
  * a count falsified within a run, and one falsified in the stored
    reference of an earlier run, trip the exact-count check, which names
    the metric and the rule;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py
    exits nonzero without printing a result.
Exits nonzero if any check fails. Do not run it while a benchmark run is
in progress: it edits the exact-count reference for one case.
"""

import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
import run as bench  # noqa: E402

HERE = bench.HERE
ROOT = bench.ROOT
SECONDS = "1"

failures = []


def run(*args, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=900)
    lines = proc.stdout.decode().strip().splitlines()
    return proc.returncode, lines, proc.stderr.decode()


def result(*args):
    code, lines, err = run(*args)
    if code != 0 or not lines:
        raise SystemExit(f"run.py {' '.join(args)} failed ({code}):\n{err}")
    return json.loads(lines[-1]), err


def expect(ok, what):
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        for workload in bench.WORKLOADS:
            doc, _ = result("--workload", workload, "--seconds", SECONDS,
                            "--trace", trace, "--seed", "7")
            declared = {m["name"]: m["unit"] for m in spec[section]}
            printed = {k: v["unit"] for k, v in doc["metrics"].items()}
            expect(printed == declared,
                   f"{workload} --trace {trace} prints every {section} "
                   "metric with its unit")
            expect(doc["correct"] and doc["failed"] == 0
                   and doc["attempted"] >= 12,
                   f"{workload} --trace {trace} passes its checks")

    for workload in ("figure11", "parallel"):
        doc, err = result("--workload", workload, "--seconds", SECONDS,
                          "--plant-wrong-verdict")
        expect(not doc["correct"] and doc["failed"] >= 1
               and "wrong verdict: rule planted_bad_cse expected proved" in err,
               f"{workload}: a planted wrong verdict fails the run")

    doc, err = result("--workload", "figure11", "--seconds", SECONDS,
                      "--falsify-count")
    expect(not doc["correct"] and doc["failed"] == 0
           and "exact-count mismatch: solver.dpllt.decisions of rule" in err,
           "a count falsified within a run trips the exact-count check")

    # The figure11 runs above recorded the reference; falsify it.
    ref = os.path.join(bench.OUT, "exact",
                       f"figure11-{bench.binary_digest()}.json")
    expect(os.path.isfile(ref), "a figure11 exact-count reference exists")
    if os.path.isfile(ref):
        saved = ref + ".saved"
        shutil.copyfile(ref, saved)
        try:
            with open(ref) as f:
                counts = json.load(f)
            counts["loop_invariant_code_hoisting"]["atp_queries"] += 1
            with open(ref, "w") as f:
                json.dump(counts, f)
            doc, err = result("--workload", "figure11", "--seconds", SECONDS)
        finally:
            os.replace(saved, ref)
        expect(not doc["correct"] and "exact-count mismatch: atp_queries of "
               "rule loop_invariant_code_hoisting" in err,
               "a count falsified in the reference trips the check across runs")

    bare = os.path.join(bench.OUT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    shutil.copyfile(os.path.join(ROOT, "BENCHMARK.json"),
                    os.path.join(bare, "BENCHMARK.json"))
    code, lines, _ = run("--workload", "figure11", "--seconds", SECONDS,
                         script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare)
    expect(code != 0 and not lines,
           "without the repository, run.py fails without a result")

    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        sys.exit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
