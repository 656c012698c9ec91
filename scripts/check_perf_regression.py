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
  bench_async    (BENCH_async.json)  live async runtime: every fault
                                     scenario reconverged, byte-identical
                                     deterministic reruns, zero
                                     deadlocks, virtual-time TTR bands
  bench_scenarios (BENCH_scenarios.json)
                                     production scenario matrix: every
                                     catalog cell within 5% of best-known,
                                     byte-identical reruns, cross-engine
                                     bitwise parity, sharded K=4 gap <= 1%,
                                     the overdrive-vs-headroom dataplane
                                     contract, per-cell utility-vs-best and
                                     recovery TTR bands
  bench_dataplane (BENCH_dataplane.json)
                                     event dataplane closed loop: recovery
                                     consistency flag, per-(scenario, seed)
                                     planned-vs-achieved utility gap,
                                     drop-rate and virtual-time latency
                                     bands vs the baseline
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


def check_async(guard, baseline, fresh):
    # Acceptance flags certified by the fresh run itself.  These are
    # virtual-time results, so they are hardware-independent and always
    # enforced.
    if fresh.get("all_reconverged") is not True:
        guard.fail("all_reconverged",
                   "some fault scenario failed to reconverge to within 1% of its "
                   "pre-fault steady state")
    if fresh.get("deterministic") is not True:
        guard.fail("deterministic",
                   "deterministic-mode reruns were not byte-identical (digest logs "
                   "or utility traces diverged)")
    if fresh.get("deadlocks") != 0:
        guard.fail("deadlocks", f"{fresh.get('deadlocks')} deadlock(s) reported")

    # Per-scenario time-to-reconverge, in virtual seconds: a ratio of
    # virtual clocks, not wall clocks, so the 25% band holds on any
    # machine.  A scenario whose baseline TTR is 0 (never left the 1%
    # band) must stay at 0.
    base_rows = {row.get("name"): row for row in baseline.get("scenarios", [])}
    for row in fresh.get("scenarios", []):
        name = row.get("name")
        metric = f"scenarios[{name}].time_to_reconverge_seconds"
        base_row = base_rows.get(name)
        if base_row is None:
            guard.skip(metric, "baseline")
            continue
        base = base_row.get("result", {}).get("time_to_reconverge_seconds")
        now = row.get("result", {}).get("time_to_reconverge_seconds")
        if base is None or now is None:
            guard.skip(metric, "baseline" if base is None else "fresh")
            continue
        if now < 0:
            guard.fail(metric, "scenario never reconverged")
            continue
        # Half a sample period of slack absorbs quantization when the
        # baseline sits at or near zero.
        limit = base * (1.0 + REGRESSION_LIMIT) + 0.5 * fresh.get("sample_period", 0.05)
        guard.check("relative", metric, now <= limit,
                    f"{now:.2f}s vs baseline {base:.2f}s (limit {limit:.2f}s)")


SCENARIO_MAX_SHARDED_GAP = 0.01  # sharded K=4 vs best-known utility
SCENARIO_MIN_ASYNC_VS_BEST = 0.90  # async churn replay vs best-known


def check_scenarios(guard, baseline, fresh):
    # Acceptance flags certified by the fresh run itself.  Everything in
    # this bench is a deterministic replay (virtual ticks, seeded traffic,
    # seeded dataplane), so all checks are hardware-independent and always
    # enforced.
    if fresh.get("deterministic") is not True:
        guard.fail("deterministic",
                   "pinned-cell reruns were not byte-identical (problem JSON, "
                   "manifest or utility trace diverged)")
    if fresh.get("all_cells_within_5pct_of_best") is not True:
        guard.fail("all_cells_within_5pct_of_best",
                   "some catalog cell finished below 95% of its best-known utility")

    differential = fresh.get("differential", {})
    if differential.get("bitwise_serial_compiled_incremental_sharded1") is not True:
        guard.fail("differential.bitwise",
                   "serial/compiled/incremental/sharded-K1 final allocations diverged")
    gap = differential.get("sharded4_gap_fraction")
    if gap is None:
        guard.fail("differential.sharded4_gap_fraction", "missing from fresh results")
    else:
        guard.check("relative", "differential.sharded4_gap_fraction",
                    abs(gap) <= SCENARIO_MAX_SHARDED_GAP,
                    f"{gap:.4%} gap vs limit {SCENARIO_MAX_SHARDED_GAP:.0%}")
    async_vs_best = differential.get("async_utility_vs_best")
    if async_vs_best is None:
        guard.fail("differential.async_utility_vs_best", "missing from fresh results")
    else:
        guard.check("relative", "differential.async_utility_vs_best",
                    async_vs_best >= SCENARIO_MIN_ASYNC_VS_BEST,
                    f"{async_vs_best:.4f} vs floor {SCENARIO_MIN_ASYNC_VS_BEST:.2f}")

    # The PR 4 overdrive regression: only meaningful when the dataplane
    # ran (LRGP_SCENARIO_DATAPLANE=0 smoke runs skip it).
    if fresh.get("with_dataplane"):
        if fresh.get("overdrive_contract", {}).get("holds") is not True:
            guard.fail("overdrive_contract.holds",
                       "overdriven plant no longer sheds >= 20% while the headroom "
                       "twin delivers within 2%")

    # Per-cell utility-vs-best and recovery TTR bands against the
    # committed baseline (both are ratios/virtual clocks — machine-free).
    base_cells = {row.get("name"): row for row in baseline.get("scenarios", [])}
    for row in fresh.get("scenarios", []):
        name = row.get("name")
        base_row = base_cells.get(name)
        if base_row is None:
            guard.skip(f"scenarios[{name}]", "baseline")
            continue
        metric = f"scenarios[{name}].utility_vs_best"
        base, now = base_row.get("utility_vs_best"), row.get("utility_vs_best")
        if base is None or now is None:
            guard.skip(metric, "baseline" if base is None else "fresh")
        else:
            floor = base / (1.0 + REGRESSION_LIMIT)
            guard.check("relative", metric, now >= floor,
                        f"{now:.4f} vs baseline {base:.4f} (floor {floor:.4f})")
        base_ttr = base_row.get("recovery", {}).get("time_to_reconverge_seconds")
        now_ttr = row.get("recovery", {}).get("time_to_reconverge_seconds")
        if base_ttr is None or now_ttr is None:
            continue  # static cell: no recovery analysis on either side
        metric = f"scenarios[{name}].time_to_reconverge_seconds"
        if now_ttr < 0:
            guard.fail(metric, "cell never reconverged")
            continue
        if base_ttr < 0:
            guard.skip(metric, "baseline (never reconverged)")
            continue
        # Half a replay tick of slack absorbs sample quantization.
        limit = base_ttr * (1.0 + REGRESSION_LIMIT) + 0.025
        guard.check("relative", metric, now_ttr <= limit,
                    f"{now_ttr:.2f}s vs baseline {base_ttr:.2f}s (limit {limit:.2f}s)")


DATAPLANE_GAP_SLACK = 0.01   # tolerated widening of |utility_gap_fraction|
DATAPLANE_DROP_SLACK = 0.01  # tolerated drop-rate increase vs baseline


def check_dataplane(guard, baseline, fresh):
    # The closed loop is a deterministic replay (seeded traffic, virtual
    # clocks), so every check here is hardware-independent.
    if fresh.get("all_consistent") is not True:
        guard.fail("all_consistent",
                   "measured and allocation-level recovery disagree in some run")

    base_cells = {}
    for scenario in baseline.get("scenarios", []):
        for seed_row in scenario.get("seeds", []):
            base_cells[(scenario.get("name"), seed_row.get("seed"))] = seed_row
    for scenario in fresh.get("scenarios", []):
        name = scenario.get("name")
        for row in scenario.get("seeds", []):
            seed = row.get("seed")
            cell = f"scenarios[{name}][seed={seed}]"
            base_row = base_cells.get((name, seed))
            if base_row is None:
                guard.skip(cell, "baseline")
                continue
            base_gap = base_row.get("utility_gap_fraction")
            now_gap = row.get("utility_gap_fraction")
            if base_gap is not None and now_gap is not None:
                limit = abs(base_gap) + DATAPLANE_GAP_SLACK
                guard.check("relative", f"{cell}.utility_gap_fraction",
                            abs(now_gap) <= limit,
                            f"|{now_gap:.4f}| vs baseline |{base_gap:.4f}| "
                            f"(limit {limit:.4f})")
            base_drop = base_row.get("drop_rate")
            now_drop = row.get("drop_rate")
            if base_drop is not None and now_drop is not None:
                limit = base_drop + DATAPLANE_DROP_SLACK
                guard.check("relative", f"{cell}.drop_rate", now_drop <= limit,
                            f"{now_drop:.4f} vs baseline {base_drop:.4f} "
                            f"(limit {limit:.4f})")
            base_p99 = base_row.get("latency_p99_seconds")
            now_p99 = row.get("latency_p99_seconds")
            if base_p99 is not None and now_p99 is not None:
                # Virtual-time latency: deterministic, but quantized by
                # the histogram buckets — allow the standard band.
                limit = base_p99 * (1.0 + REGRESSION_LIMIT)
                guard.check("relative", f"{cell}.latency_p99_seconds",
                            now_p99 <= limit,
                            f"{now_p99:.4f}s vs baseline {base_p99:.4f}s "
                            f"(limit {limit:.4f}s)")


FASTPATH_MAX_UTILITY_GAP = 0.02  # fidelity: fastpath vs event-sim oracle
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
                    fast_drop <= sim_drop + DATAPLANE_DROP_SLACK,
                    f"{fast_drop:.4f} vs sim {sim_drop:.4f} "
                    f"(slack {DATAPLANE_DROP_SLACK})")

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
    elif kind == "bench_async":
        check_async(guard, baseline, fresh)
    elif kind == "bench_scenarios":
        check_scenarios(guard, baseline, fresh)
    elif kind == "bench_dataplane":
        check_dataplane(guard, baseline, fresh)
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
