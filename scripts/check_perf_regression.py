#!/usr/bin/env python3
"""CI perf-regression guard for the LRGP engine benchmarks.

Compares freshly generated bench JSON files against their committed
baselines and fails on a >25% regression in any tracked column.  Each
file carries a "bench" tag that selects its metric set:

  bench_compiled (BENCH_lrgp.json)   ns/iteration columns, engine
                                     speedups, bitwise-identity flag
  bench_shards   (BENCH_shards.json) sharded-engine steady-state control
                                     loop speedups, optimality gap,
                                     K=1 bitwise parity, shard-count
                                     wall-clock monotonicity
  bench_fastpath (BENCH_fastpath.json)
                                     batched fastpath vs the event oracle:
                                     byte-identical stats across worker
                                     counts, fidelity utility gap <= 2%,
                                     same-machine speedup floors (>= 5x at
                                     1 worker, >= 20x at 8) plus 25%
                                     no-regression bands on both

Absolute wall times are machine-dependent: a committed baseline measured
on one box says little about a shared CI runner.  Setting
LRGP_PERF_ALLOW_UNKNOWN_HW=1 downgrades *absolute* regressions to
warnings.  Every bench stamps a `machine` block (hostname, compiler)
that says where its absolute numbers come from.  Relative speedups are
ratios of two measurements taken in the same process on the same
machine, so they stay enforced either way — as do the hard floors (incremental converged-tail node phase >= 3x,
end-to-end >= 1.5x; sharded steady-state 8-shard speedup >= 3x with
optimality gap <= 1%; fastpath >= 5x the sim's msgs/sec at 1 worker and
>= 20x at 8) and the bitwise-identity flags.

usage: check_perf_regression.py <committed_baseline.json> <fresh.json> [more pairs...]
exit status: 0 ok, 1 regression/violation, 2 usage or unreadable input
"""

import json
import os
import sys

REGRESSION_LIMIT = 0.25  # fail when fresh is >25% worse than the baseline

# Absolute ns/iteration columns (bench_compiled): lower is better.
# Dotted paths index into nested objects.
ABSOLUTE_NS_METRICS = [
    "serial_ns_per_iter",
    "compiled_1t_ns_per_iter",
    "incremental.contended_1t_ns_per_iter",
    "incremental.steady_full_ns_per_iter",
    "incremental.steady_inc_ns_per_iter",
    "incremental.steady_inc_node_ns_per_iter",
]

# Same-machine ratios: higher is better, hardware-independent enough to
# enforce even on unknown runners.
RELATIVE_SPEEDUP_METRICS = [
    "speedup_1t",
    "incremental.node_phase_tail_speedup",
    "incremental.e2e_tail_speedup",
]

# Hard floors from the incremental-engine acceptance targets; these hold
# on any machine because they compare two runs of the same binary.
SPEEDUP_FLOORS = {
    "incremental.node_phase_tail_speedup": 3.0,
    "incremental.e2e_tail_speedup": 1.5,
}

# Sharded control plane (bench_shards): steady-state re-convergence
# speedups are same-machine ratios, so they carry both a hard floor (the
# acceptance target) and the 25% no-regression band vs the baseline.
SHARD_RELATIVE_METRICS = ["speedup_4", "speedup_8"]
SHARD_SPEEDUP_FLOORS = {"speedup_8": 3.0}
SHARD_MAX_GAP = 0.01  # worst tolerated optimality gap vs the monolithic solver

def lookup(doc, dotted):
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


class Guard:
    """Accumulates ok/warn/fail lines for one baseline-vs-fresh pair."""

    def __init__(self, allow_unknown_hw):
        self.allow_unknown_hw = allow_unknown_hw
        self.failures = []
        self.warnings = []

    def check(self, kind, metric, ok, message):
        if ok:
            print(f"  ok    {metric}: {message}")
        elif kind == "absolute" and self.allow_unknown_hw:
            self.warnings.append(f"{metric}: {message}")
            print(f"  WARN  {metric}: {message} (absolute check relaxed: unknown hardware)")
        else:
            self.failures.append(f"{metric}: {message}")
            print(f"  FAIL  {metric}: {message}")

    def fail(self, metric, message):
        self.failures.append(f"{metric}: {message}")
        print(f"  FAIL  {metric}: {message}")

    def skip(self, metric, where):
        self.warnings.append(f"{metric}: missing in {where} — skipped")
        print(f"  skip  {metric}: not present in both files")

    def compare_absolute(self, baseline, fresh, metric):
        base, now = lookup(baseline, metric), lookup(fresh, metric)
        if base is None or now is None:
            self.skip(metric, "baseline" if base is None else "fresh")
            return
        limit = base * (1.0 + REGRESSION_LIMIT)
        self.check("absolute", metric, now <= limit,
                   f"{now:.2f} vs baseline {base:.2f} (limit {limit:.2f})")

    def compare_relative(self, baseline, fresh, metric):
        base, now = lookup(baseline, metric), lookup(fresh, metric)
        if base is None or now is None:
            self.skip(metric, "baseline" if base is None else "fresh")
            return
        floor = base / (1.0 + REGRESSION_LIMIT)
        self.check("relative", metric, now >= floor,
                   f"{now:.2f}x vs baseline {base:.2f}x (floor {floor:.2f}x)")


def check_compiled(guard, baseline, fresh):
    if fresh.get("bitwise_identical") is not True:
        guard.fail("bitwise_identical", "fresh run did not certify bitwise identity")

    for metric in ABSOLUTE_NS_METRICS:
        guard.compare_absolute(baseline, fresh, metric)
    for metric in RELATIVE_SPEEDUP_METRICS:
        guard.compare_relative(baseline, fresh, metric)
    for metric, floor in SPEEDUP_FLOORS.items():
        now = lookup(fresh, metric)
        if now is None:
            guard.fail(metric, f"missing from fresh results (floor {floor}x unverified)")
            continue
        guard.check("relative", metric, now >= floor, f"{now:.2f}x vs hard floor {floor:.2f}x")


def check_shards(guard, baseline, fresh):
    # Acceptance flags certified by the fresh run itself.
    if fresh.get("k1_bitwise_identical") is not True:
        guard.fail("k1_bitwise_identical",
                   "one shard did not reproduce the monolithic trajectory bitwise")
    if fresh.get("monotone_1_2_4") is not True:
        guard.fail("monotone_1_2_4",
                   "steady-state wall clock not monotone non-increasing over 1 -> 2 -> 4 shards")

    gap = fresh.get("max_gap")
    if gap is None:
        guard.fail("max_gap", "missing from fresh results")
    else:
        guard.check("relative", "max_gap", abs(gap) <= SHARD_MAX_GAP,
                    f"{gap:.4%} optimality gap vs limit {SHARD_MAX_GAP:.0%}")

    for metric, floor in SHARD_SPEEDUP_FLOORS.items():
        now = lookup(fresh, metric)
        if now is None:
            guard.fail(metric, f"missing from fresh results (floor {floor}x unverified)")
            continue
        guard.check("relative", metric, now >= floor, f"{now:.2f}x vs hard floor {floor:.2f}x")

    for metric in SHARD_RELATIVE_METRICS:
        guard.compare_relative(baseline, fresh, metric)

    # Per-workload steady-state wall clocks, matched by (workload, shard
    # count) so full-scale runs and row reordering don't misalign pairs.
    base_workloads = {w.get("name"): w for w in baseline.get("workloads", [])}
    for workload in fresh.get("workloads", []):
        name = workload.get("name")
        base_workload = base_workloads.get(name)
        if base_workload is None:
            guard.skip(f"workloads[{name}]", "baseline")
            continue
        base_rows = {row.get("shards"): row
                     for row in base_workload.get("steady", {}).get("rows", [])}
        for row in workload.get("steady", {}).get("rows", []):
            shards = row.get("shards")
            metric = f"workloads[{name}].steady[shards={shards}].wall_ms"
            base_row = base_rows.get(shards)
            if base_row is None or "wall_ms" not in base_row or "wall_ms" not in row:
                guard.skip(metric, "baseline")
                continue
            base, now = base_row["wall_ms"], row["wall_ms"]
            limit = base * (1.0 + REGRESSION_LIMIT)
            guard.check("absolute", metric, now <= limit,
                        f"{now:.2f} ms vs baseline {base:.2f} (limit {limit:.2f})")


FASTPATH_MAX_UTILITY_GAP = 0.02  # fidelity: fastpath vs event-sim oracle
FASTPATH_DROP_SLACK = 0.01  # tolerated fastpath drop rate above the event sim's
FASTPATH_SPEEDUP_FLOORS = {"speedup_1": 5.0, "speedup_8": 20.0}


def check_fastpath(guard, baseline, fresh):
    # Acceptance flags certified by the fresh run itself.
    if fresh.get("deterministic") is not True:
        guard.fail("deterministic",
                   "fastpath statsJson diverged across worker counts")

    gap = lookup(fresh, "fidelity.utility_gap_vs_sim")
    if gap is None:
        guard.fail("fidelity.utility_gap_vs_sim", "missing from fresh results")
    else:
        guard.check("relative", "fidelity.utility_gap_vs_sim",
                    abs(gap) <= FASTPATH_MAX_UTILITY_GAP,
                    f"{gap:.4%} vs limit {FASTPATH_MAX_UTILITY_GAP:.0%}")
    sim_drop = lookup(fresh, "fidelity.sim_drop_rate")
    fast_drop = lookup(fresh, "fidelity.fast_drop_rate")
    if sim_drop is not None and fast_drop is not None:
        guard.check("relative", "fidelity.fast_drop_rate",
                    fast_drop <= sim_drop + FASTPATH_DROP_SLACK,
                    f"{fast_drop:.4f} vs sim {sim_drop:.4f} "
                    f"(slack {FASTPATH_DROP_SLACK})")

    # Same-machine msgs/sec ratios: hard floors plus the 25% band.
    for metric, floor in FASTPATH_SPEEDUP_FLOORS.items():
        now = lookup(fresh, metric)
        if now is None:
            guard.fail(metric, f"missing from fresh results (floor {floor}x unverified)")
            continue
        guard.check("relative", metric, now >= floor,
                    f"{now:.2f}x vs hard floor {floor:.2f}x")
        guard.compare_relative(baseline, fresh, metric)

    # Raw per-worker throughput vs the committed baseline is absolute
    # (machine-dependent): relaxed under LRGP_PERF_ALLOW_UNKNOWN_HW.
    base_rows = {row.get("workers"): row
                 for row in lookup(baseline, "throughput.workers") or []}
    for row in lookup(fresh, "throughput.workers") or []:
        workers = row.get("workers")
        metric = f"throughput.workers[{workers}].msgs_per_sec"
        base_row = base_rows.get(workers)
        if base_row is None or "msgs_per_sec" not in base_row or "msgs_per_sec" not in row:
            guard.skip(metric, "baseline")
            continue
        base, now = base_row["msgs_per_sec"], row["msgs_per_sec"]
        floor = base / (1.0 + REGRESSION_LIMIT)
        guard.check("absolute", metric, now >= floor,
                    f"{now:.0f} msgs/s vs baseline {base:.0f} (floor {floor:.0f})")


def check_pair(guard, baseline_path, fresh_path):
    with open(baseline_path) as f:
        baseline = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)

    kind = fresh.get("bench", "bench_compiled")
    print(f"perf guard [{kind}]: baseline {baseline_path} vs fresh {fresh_path}")
    if baseline.get("bench", "bench_compiled") != kind:
        guard.fail("bench", f"baseline is {baseline.get('bench')!r}, fresh is {kind!r}")
        return
    if kind == "bench_shards":
        check_shards(guard, baseline, fresh)
    elif kind == "bench_fastpath":
        check_fastpath(guard, baseline, fresh)
    else:
        check_compiled(guard, baseline, fresh)


def main(argv):
    if len(argv) < 3 or len(argv) % 2 != 1:
        sys.stderr.write(__doc__)
        return 2

    allow_unknown_hw = os.environ.get("LRGP_PERF_ALLOW_UNKNOWN_HW", "") not in ("", "0")
    guard = Guard(allow_unknown_hw)
    if allow_unknown_hw:
        print("note: LRGP_PERF_ALLOW_UNKNOWN_HW set — absolute regressions warn only")

    for i in range(1, len(argv), 2):
        try:
            check_pair(guard, argv[i], argv[i + 1])
        except (OSError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2

    if guard.warnings:
        print(f"{len(guard.warnings)} warning(s).")
    if guard.failures:
        print(f"{len(guard.failures)} perf regression(s) detected:", file=sys.stderr)
        for failure in guard.failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("perf guard passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
