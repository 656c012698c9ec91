#!/usr/bin/env python3
"""Closed-loop end-to-end benchmark of the LRGP stack.

Builds perfbench/ (the repo's libraries plus one benchmark binary) with
CMake, runs one workload and prints a readable report followed, as the
last line, by the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

    python3 perfbench/run.py --workload paper_churn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

`all` runs the three workloads in turn, each with its report and result
line.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes a Chrome trace next to the build).  The build
goes to $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.  The
exit code is non-zero when the build, the run or the correctness gate
fails; no result line is printed unless the run finished.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Seconds one round takes on a 4-vCPU x86-64 VM; --seconds buys
# ceil(seconds / this) rounds, so the round count depends only on
# --seconds, never on the seed or on how fast the host happens to be.
NOMINAL_ROUND_S = {
    "paper_churn": 0.055,
    "federated_local": 0.0045,
    "fanout_loop": 0.058,
}
BINARY_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "lrgp_perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            raise SystemExit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out, "lrgp_perfbench")


def rounds_for(workload, seconds):
    return max(1, math.ceil(seconds / NOMINAL_ROUND_S[workload]))


def run_binary(binary, workload, seed, rounds, trace, trace_out=None):
    """Runs one measurement; returns the binary's JSON document."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--rounds", str(rounds), "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: run exceeded %d s" % BINARY_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit("perfbench: lrgp_perfbench failed with exit code %d" % proc.returncode)
    return json.loads(lines[-1])


def load_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["per_layer"]


def report(doc, trace, end_to_end, per_layer):
    """Prints the readable report: metrics with unit and direction, the
    round-composition record, the fingerprint and the gate."""
    mode = "traced" if trace else "untraced"
    print("perfbench %s seed=%d rounds=%d (%s)"
          % (doc["workload"], doc["seed"], doc["rounds"], mode))
    values = doc["per_layer"] if trace else doc["end_to_end"]
    for m in per_layer if trace else end_to_end:
        print("  %-34s %16.6g %-6s %s is better"
              % (m["name"], values[m["name"]], m["unit"], m["better"]))
    if not trace:
        extra = {"delivered_msgs_per_s": ("1/s", "higher"),
                 "achieved_vs_planned": ("ratio", "higher")}
        for name, (unit, better) in extra.items():
            if name in values:
                print("  %-34s %16.6g %-6s %s is better" % (name, values[name], unit, better))
        failed_share = doc["failed"] / doc["attempted"] if doc["attempted"] else 0.0
        print("  %-34s %16.6g %-6s lower is better (%d of %d)"
              % ("failed_share", failed_share, "ratio", doc["failed"], doc["attempted"]))
    comp = doc["composition"]
    print("round composition: %s" % json.dumps(comp["kinds"], sort_keys=True))
    for key in ("iterations_per_round", "woken_shards_per_round",
                "enactments_per_round", "utility_samples_per_round"):
        c = comp[key]
        print("  %-28s min %g  p50 %g  max %g" % (key, c["min"], c["p50"], c["max"]))
    for key in ("p50_wall", "p95_cpu"):
        c = comp[key]
        print("  %-28s rank %d in '%s', %d ranks from another kind, single kind: %s"
              % (key, c["rank"], c["kind"], c["gap"], "yes" if c["single_kind"] else "no"))
    print("  wall ms p50 by quarter: %s" % ", ".join("%.3f" % x for x in comp["wall_ms_p50_by_quarter"]))
    fp = doc["fingerprint"]
    print("fingerprint: final utility bits %s, %d ops, %d flows, %d nodes, %d classes"
          % (fp["final_utility_bits"], fp["ops"], fp["flows"], fp["nodes"], fp["classes"]))
    print("correctness gate: %s" % ("pass" if doc["correct"] else
                                    "FAIL: " + "; ".join(doc["gate_failures"])))


def measure(binary, workload, seed, seconds, trace):
    """Runs one workload, prints its report and result line; returns the
    exit code."""
    end_to_end, per_layer = load_catalogue()
    trace_out = None
    if trace:
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir, "%s_seed%d.json" % (workload, seed))
    doc = run_binary(binary, workload, seed, rounds_for(workload, seconds), trace, trace_out)

    report(doc, trace, end_to_end, per_layer)
    values = doc["per_layer"] if trace else doc["end_to_end"]
    metrics = {}
    for m in per_layer if trace else end_to_end:
        value = values.get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise SystemExit("perfbench: metric %s missing or not finite" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {"correct": bool(doc["correct"]), "attempted": int(doc["attempted"]),
              "failed": int(doc["failed"]), "metrics": metrics}
    print(json.dumps(result))
    return 0 if doc["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(NOMINAL_ROUND_S) + ["all"],
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    workloads = sorted(NOMINAL_ROUND_S) if args.workload == "all" else [args.workload]
    return max(measure(binary, w, args.seed, args.seconds, args.trace) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
