#!/usr/bin/env python3
"""Perf gate over the archived BENCH_*.json artifacts.

Compares the bench records of the current run against the previous run's
artifact and fails when a tracked metric regressed by more than the
threshold (default 25%). Metrics are matched record-by-record: a record's
identity is (bench name, record name, every string label), so e.g. the
"axpy" case of backend "avx2" only ever compares against itself.

Metric direction is inferred from its name:

  - lower-is-better:  *seconds* (wall/charged/lookup timings),
    *trainings_to_target* (budget an estimator needs to reach a target
    error — the adaptive-allocation headline), *variance* (across-run
    estimator variance at a fixed seeded budget), *reconnects* and
    *degraded* (a seeded fault schedule yields a deterministic recovery
    path — more reconnects or degraded coalitions means resilience got
    clumsier), *overhead* (the TCP-vs-socketpair wall ratio)
  - higher-is-better: *speedup*, *dedup*, *per_second*, *throughput*
  - everything else (counts, bytes, errors) is informational: never gated,
    because trainings counts and byte sizes legitimately change with the
    workload, and correctness counts are gated by the benches themselves.

A missing baseline — first run ever, renamed bench, new record or new
metric — is tolerated silently: the gate only compares what both runs
measured, so adding benches never breaks CI. Timings below --min-seconds
(default 10ms) are skipped as noise-dominated; the skip applies only to
*seconds* metrics — seeded counts and variances are deterministic, so
small values of those still gate.

Usage:
  check_bench_regression.py --baseline DIR --current DIR [options]
  check_bench_regression.py --self-test

Baseline/current may be directories (every BENCH_*.json inside is paired
by filename) or single JSON files. Exit 0 = no gated regression, 1 =
regression over threshold, 2 = usage error.
"""

import argparse
import glob
import json
import os
import sys
import tempfile

LOWER_IS_BETTER = ("seconds", "trainings_to_target", "variance",
                   "reassigned", "reconnects", "degraded", "overhead")
HIGHER_IS_BETTER = ("speedup", "dedup", "per_second", "throughput")


def direction_of(metric: str):
    """'lower' / 'higher' for gated metrics, None for informational."""
    name = metric.lower()
    # Rates like jobs_per_second contain "second" but are higher-better,
    # so the higher-is-better patterns take precedence.
    if any(pattern in name for pattern in HIGHER_IS_BETTER):
        return "higher"
    if any(pattern in name for pattern in LOWER_IS_BETTER):
        return "lower"
    return None


def record_key(bench: str, record: dict) -> tuple:
    """Identity of a record: bench, name, and all string labels, sorted."""
    labels = sorted(
        (k, v) for k, v in record.items() if isinstance(v, str)
    )
    return (bench, tuple(labels))


def load_records(path: str) -> dict:
    """{record_key: {metric: value}} for one BENCH_*.json file."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    bench = doc.get("bench", os.path.basename(path))
    out = {}
    for record in doc.get("records", []):
        metrics = {
            k: float(v)
            for k, v in record.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
        # Duplicate keys (repeated identical cases) keep the last record,
        # matching how a reader of the JSON would resolve them.
        out[record_key(bench, record)] = metrics
    return out


def compare(baseline: dict, current: dict, threshold: float,
            min_seconds: float) -> list:
    """Returns a list of regression strings; empty means the gate passes."""
    regressions = []
    for key, base_metrics in baseline.items():
        cur_metrics = current.get(key)
        if cur_metrics is None:
            continue  # record removed or renamed: not a perf regression
        for metric, base in base_metrics.items():
            direction = direction_of(metric)
            if direction is None or metric not in cur_metrics:
                continue
            cur = cur_metrics[metric]
            if direction == "lower":
                if "seconds" in metric.lower() and \
                        max(base, cur) < min_seconds:
                    continue  # noise-dominated micro-timing
                if base > 0 and cur > base * (1.0 + threshold):
                    regressions.append(
                        "%s %s: %.6g -> %.6g (+%.0f%%, limit +%.0f%%)"
                        % (_key_str(key), metric, base, cur,
                           100.0 * (cur / base - 1.0), 100.0 * threshold))
            else:
                if base > 0 and cur < base * (1.0 - threshold):
                    regressions.append(
                        "%s %s: %.6g -> %.6g (-%.0f%%, limit -%.0f%%)"
                        % (_key_str(key), metric, base, cur,
                           100.0 * (1.0 - cur / base), 100.0 * threshold))
    return regressions


def _key_str(key: tuple) -> str:
    bench, labels = key
    return bench + "[" + ", ".join("%s=%s" % kv for kv in labels) + "]"


def pair_files(baseline: str, current: str) -> list:
    """[(baseline_file, current_file)] pairs, matched by filename."""
    if os.path.isfile(current):
        return [(baseline, current)] if os.path.isfile(baseline) else []
    pairs = []
    for cur in sorted(glob.glob(os.path.join(current, "BENCH_*.json"))):
        base = os.path.join(baseline, os.path.basename(cur))
        if os.path.isfile(base):
            pairs.append((base, cur))
    return pairs


def run_gate(args) -> int:
    if not os.path.exists(args.baseline):
        print("perf gate: no baseline at %s — first run, passing"
              % args.baseline)
        return 0
    pairs = pair_files(args.baseline, args.current)
    if not pairs:
        print("perf gate: no comparable BENCH_*.json pairs — passing")
        return 0
    regressions = []
    compared = 0
    for base_file, cur_file in pairs:
        baseline = load_records(base_file)
        current = load_records(cur_file)
        compared += len(set(baseline) & set(current))
        regressions += compare(baseline, current, args.threshold,
                               args.min_seconds)
    print("perf gate: %d record(s) compared across %d file pair(s)"
          % (compared, len(pairs)))
    for line in regressions:
        print("REGRESSION %s" % line)
    if regressions:
        print("perf gate: FAILED (%d metric(s) over the %.0f%% threshold)"
              % (len(regressions), 100.0 * args.threshold))
        return 1
    print("perf gate: ok")
    return 0


def self_test() -> int:
    """Exercises the gate end-to-end on synthesized artifacts."""
    failures = []

    def check(name, condition):
        print("%s %s" % ("ok  " if condition else "FAIL", name))
        if not condition:
            failures.append(name)

    def write(directory, filename, records, bench="t"):
        path = os.path.join(directory, filename)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"bench": bench, "records": records}, f)
        return path

    check("seconds is lower-better", direction_of("wall_seconds") == "lower")
    check("speedup is higher-better", direction_of("speedup") == "higher")
    check("jobs_per_second is higher-better",
          direction_of("jobs_per_second") == "higher")
    check("counts are informational", direction_of("trainings") is None)
    check("bytes are informational",
          direction_of("budget_mapped_bytes") is None)
    check("trainings_to_target_error is lower-better",
          direction_of("trainings_to_target_error") == "lower")
    check("total_variance is lower-better",
          direction_of("total_variance") == "lower")
    check("cluster_speedup is higher-better",
          direction_of("cluster_speedup") == "higher")
    check("reassigned_coalitions is lower-better",
          direction_of("reassigned_coalitions") == "lower")
    check("workers_lost is informational",
          direction_of("workers_lost") is None)
    check("errors are informational", direction_of("best_rel_l2") is None)

    args = argparse.Namespace(threshold=0.25, min_seconds=0.01)
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = os.path.join(tmp, "base")
        cur_dir = os.path.join(tmp, "cur")
        os.makedirs(base_dir)
        os.makedirs(cur_dir)

        rec = {"name": "case", "backend": "avx2", "wall_seconds": 1.0,
               "speedup": 4.0, "trainings": 100,
               "trainings_to_target_error": 120.0}
        write(base_dir, "BENCH_a.json", [rec])

        ok = dict(rec, wall_seconds=1.2, trainings=900)
        write(cur_dir, "BENCH_a.json", [ok])
        args.baseline, args.current = base_dir, cur_dir
        check("20% slower passes at 25% threshold", run_gate(args) == 0)

        write(cur_dir, "BENCH_a.json", [dict(rec, wall_seconds=1.3)])
        check("30% slower fails", run_gate(args) == 1)

        write(cur_dir, "BENCH_a.json", [dict(rec, speedup=2.0)])
        check("halved speedup fails", run_gate(args) == 1)

        write(cur_dir, "BENCH_a.json",
              [dict(rec, name="other", wall_seconds=99.0)])
        check("renamed record tolerated", run_gate(args) == 0)

        write(cur_dir, "BENCH_a.json",
              [dict(rec, backend="avx512", wall_seconds=99.0)])
        check("different label is a different record", run_gate(args) == 0)

        write(cur_dir, "BENCH_a.json",
              [dict(rec, trainings_to_target_error=200.0)])
        check("grown trainings-to-target fails", run_gate(args) == 1)

        write(cur_dir, "BENCH_a.json",
              [dict(rec, trainings_to_target_error=90.0)])
        check("shrunk trainings-to-target passes", run_gate(args) == 0)

        tiny = {"name": "t", "wall_seconds": 0.0001}
        write(base_dir, "BENCH_a.json", [tiny])
        write(cur_dir, "BENCH_a.json", [dict(tiny, wall_seconds=0.0009)])
        check("sub-threshold timings are noise-skipped", run_gate(args) == 0)

        # The noise skip must not swallow small deterministic counts: a
        # variance regression below --min-seconds still gates.
        small = {"name": "v", "total_variance": 0.0001}
        write(base_dir, "BENCH_a.json", [small])
        write(cur_dir, "BENCH_a.json", [dict(small, total_variance=0.0009)])
        check("small variance regressions still gate", run_gate(args) == 1)

        # The cluster phase: a collapsed sharding speedup or a jump in
        # reassigned coalitions (the faulted run losing more work) gates;
        # matching counts pass.
        cluster = {"name": "cluster", "scenario": "linreg",
                   "cluster_speedup": 2.0, "reassigned_coalitions": 3.0,
                   "workers_lost": 1.0}
        write(base_dir, "BENCH_a.json", [cluster])
        write(cur_dir, "BENCH_a.json", [dict(cluster)])
        check("unchanged cluster metrics pass", run_gate(args) == 0)
        write(cur_dir, "BENCH_a.json", [dict(cluster, cluster_speedup=1.0)])
        check("halved cluster_speedup fails", run_gate(args) == 1)
        write(cur_dir, "BENCH_a.json",
              [dict(cluster, reassigned_coalitions=9.0)])
        check("grown reassigned_coalitions fails", run_gate(args) == 1)
        write(cur_dir, "BENCH_a.json", [dict(cluster, workers_lost=5.0)])
        check("workers_lost is not gated", run_gate(args) == 0)

        # The TCP resilience phase: a seeded fault schedule makes the
        # recovery path deterministic, so extra reconnects, extra
        # degraded coalitions, or a fatter transport overhead all gate.
        check("reconnects is lower-better",
              direction_of("reconnects") == "lower")
        check("degraded_coalitions is lower-better",
              direction_of("degraded_coalitions") == "lower")
        check("tcp_overhead_ratio is lower-better",
              direction_of("tcp_overhead_ratio") == "lower")
        check("partition_recovery_seconds is lower-better",
              direction_of("partition_recovery_seconds") == "lower")
        tcp = {"name": "tcp", "scenario": "linreg",
               "tcp_overhead_ratio": 1.2, "reconnects": 1.0,
               "partition_recovery_seconds": 0.05,
               "degraded_coalitions": 120.0}
        write(base_dir, "BENCH_a.json", [tcp])
        write(cur_dir, "BENCH_a.json", [dict(tcp)])
        check("unchanged tcp metrics pass", run_gate(args) == 0)
        write(cur_dir, "BENCH_a.json", [dict(tcp, reconnects=3.0)])
        check("grown reconnects fails", run_gate(args) == 1)
        write(cur_dir, "BENCH_a.json", [dict(tcp, degraded_coalitions=200.0)])
        check("grown degraded_coalitions fails", run_gate(args) == 1)
        write(cur_dir, "BENCH_a.json", [dict(tcp, tcp_overhead_ratio=2.0)])
        check("fatter tcp overhead fails", run_gate(args) == 1)

        args.baseline = os.path.join(tmp, "missing")
        check("missing baseline dir passes", run_gate(args) == 0)

        args.baseline = base_dir
        empty = os.path.join(tmp, "empty")
        os.makedirs(empty)
        args.current = empty
        check("no comparable pairs passes", run_gate(args) == 0)

    if failures:
        print("self-test: %d failure(s)" % len(failures))
        return 1
    print("self-test: all checks passed")
    return 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", help="previous run's artifact dir/file")
    parser.add_argument("--current", help="this run's artifact dir/file")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed relative regression (default 0.25)")
    parser.add_argument("--min-seconds", type=float, default=0.01,
                        help="ignore timings where both sides are below "
                             "this (default 0.01)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in test suite and exit")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        parser.print_usage(sys.stderr)
        return 2
    return run_gate(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
