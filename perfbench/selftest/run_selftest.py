#!/usr/bin/env python3
"""Self-test of the perfbench checks: every check can fail.

    python3 perfbench/selftest/run_selftest.py

Run from the repository root. Runs each workload at the self-test size
(--tiny) and expects it to pass; then, for every check, runs the workload
again with that check fed a deliberately wrong answer (--mutate <check>: an
altered count, payload byte, digest or band) and expects the run to report
correct=false with that check among the failed ones. Finally a tiny traced
run of each workload must report every per-layer metric BENCHMARK.json
names. Exits 0 when all of that holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(os.path.dirname(HERE), "run.py")
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")

MUTATIONS = {
    "batch_corpus": ["batch.truth", "batch.headlines", "batch.repeat"],
    "cold_analytics": [
        "cold.all_miss", "cold.metrics", "cold.tags", "cold.categories", "cold.modality",
        "cold.fractions", "cold.maker_sum", "cold.mcf_monotone", "cold.mcf_band",
        "cold.warm_identical",
    ],
    "live_serve": ["live.accepted", "live.ingest_counts", "live.metrics_running"],
}


def run(workload, trace="0", mutate=None):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", trace, "--tiny"]
    if mutate:
        command += ["--mutate", mutate]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=600)
    failed = []
    for line in proc.stderr.splitlines():
        if "failed checks:" in line:
            failed = line.split("failed checks:", 1)[1].split()
    result = None
    if proc.returncode == 0 and proc.stdout.strip():
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, result, failed


def main():
    with open(BENCHMARK) as f:
        layer_names = {m["name"] for m in json.load(f)["per_layer"]}
    problems = []
    for workload, mutations in MUTATIONS.items():
        code, result, failed = run(workload)
        if code != 0 or result is None or not result["correct"] or failed != ["none"]:
            problems.append(f"{workload}: clean run not correct (exit {code}, failed {failed})")
        else:
            print(f"ok   {workload}: clean run correct, attempted {result['attempted']}")
        for mutation in mutations:
            code, result, failed = run(workload, mutate=mutation)
            if code != 0 or result is None:
                problems.append(f"{workload} --mutate {mutation}: exit {code}")
            elif result["correct"] or mutation not in failed:
                problems.append(f"{workload} --mutate {mutation}: not caught (failed {failed})")
            else:
                print(f"ok   {workload}: wrong answer for {mutation} caught")
        code, result, failed = run(workload, trace="1")
        missing = layer_names - set(result["metrics"]) if result else layer_names
        if code != 0 or result is None or not result["correct"] or missing:
            problems.append(f"{workload} traced: exit {code}, missing {sorted(missing)}")
        else:
            print(f"ok   {workload}: traced run reports all {len(layer_names)} per-layer metrics")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
