#!/usr/bin/env python3
"""Build and run the fedshapd end-to-end benchmark (bench/e2e).

One workload, as BENCHMARK.json declares it (run from the repo root):

    python3 bench/e2e/run.py --workload shared-tenants --seed 3 \\
        --seconds 10 --trace 0

prints the driver's report, then as its last line one JSON object with
the keys correct, attempted, failed and metrics (the end-to-end metrics,
or with --trace 1 the per-layer metrics of the traced replay).

Every workload, K times each in alternating order, summarized:

    python3 bench/e2e/run.py --runs 5 [--seconds 10] [--seed 1] [--trace]

prints each metric's median and interquartile range by name with its
unit, and flags every metric whose IQR exceeds its regression bound.

    python3 bench/e2e/run.py --self-test

runs the driver's own checks. Builds go to .bench_build/e2e under the
repository root; nothing is written outside it.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SOURCE = os.path.join(ROOT, "bench", "e2e")
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
DRIVER = os.path.join(BUILD, "fedshap_e2e")
WORKLOADS = ["train-heavy", "shared-tenants", "durable-mixed", "cluster-tcp",
             "cluster-outage"]
# A run past this is killed and reported as failed; a BENCHMARK.json run
# must end within 180 s.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; False when either fails."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "2"])
    for step in steps:
        # Build output goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def run_driver(workload, seed, seconds, trace):
    """Runs one workload; returns the driver's JSON report, or None."""
    work = os.path.join(BUILD, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    report = os.path.join(work, "report.json")
    command = [DRIVER, "--workload=" + workload, "--seed=%d" % seed,
               "--seconds=%g" % seconds, "--json=" + report,
               "--scratch=" + os.path.join(work, "scratch")]
    if trace:
        spans = os.path.join(BUILD, "spans-%s.json" % workload)
        command.append("--trace=" + spans)
    try:
        subprocess.run(command, stdout=sys.stdout, stderr=sys.stderr,
                       timeout=RUN_TIMEOUT_S)
        with open(report) as f:
            return json.load(f)
    except (subprocess.TimeoutExpired, OSError, ValueError) as error:
        print("run.py: %s: %s" % (workload, error), file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)


def metric_table():
    """The driver's end-to-end metric table: name -> unit, direction, bound."""
    out = subprocess.run([DRIVER, "--metrics"], capture_output=True, text=True,
                         check=True).stdout
    return {m["name"]: m for m in json.loads(out)}


def check_benchmark_json(table):
    """Warns when BENCHMARK.json no longer matches the driver's table."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as f:
        declared = {m["name"]: m for m in json.load(f)["end_to_end"]}
    for name, m in table.items():
        d = declared.get(name)
        if d is None or (d["unit"], d["better"], d["bound"]) != (
                m["unit"], m["better"], m["bound"]):
            print("warning: BENCHMARK.json disagrees with the driver on "
                  + name)


def single_run_mode(args):
    if not build():
        return 1
    report = run_driver(args.workload, args.seed, args.seconds, args.trace == 1)
    if report is None:
        return 1
    metrics = report["per_layer" if args.trace == 1 else "end_to_end"]
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if report["correct"] else 1


def summary_mode(args):
    if not build():
        return 1
    table = metric_table()
    check_benchmark_json(table)
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    samples = {w: {} for w in workloads}
    units = {}
    ok = True
    for k in range(args.runs):
        # Alternate the order so no workload always runs first or last.
        for workload in workloads if k % 2 == 0 else workloads[::-1]:
            print("== %s run %d/%d" % (workload, k + 1, args.runs), flush=True)
            report = run_driver(workload, args.seed + k, args.seconds,
                                args.trace)
            if report is None:
                ok = False
                continue
            ok = ok and report["correct"]
            section = dict(report["per_layer" if args.trace else "end_to_end"])
            if not args.trace:
                section["job_fail_ratio"] = {
                    "value": report["failed"] / report["attempted"],
                    "unit": "ratio"}
            for name, m in section.items():
                samples[workload].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
    flagged = 0
    for workload in workloads:
        print("\n%s" % workload)
        print("  %-30s %14s %12s %8s %7s  %s" % ("metric", "median", "IQR",
                                                  "IQR/med", "bound", "unit"))
        for name, values in samples[workload].items():
            median = statistics.median(values)
            iqr = 0.0
            if len(values) > 1:
                q = statistics.quantiles(values, n=4)
                iqr = q[2] - q[0]
            spread = iqr / abs(median) if median else 0.0
            bound = table.get(name)
            flag = ""
            if bound is not None:
                allowed = max(bound["bound"] * abs(median), bound["floor"])
                if iqr > allowed:
                    flag = "  IQR EXCEEDS BOUND"
                    flagged += 1
            print("  %-30s %14.6g %12.4g %8.3f %7s  %s%s" % (
                name, median, iqr, spread,
                "%.2f" % bound["bound"] if bound else "-", units[name], flag))
    print("\n%d metric(s) flagged; %s" % (
        flagged, "all runs correct" if ok else "SOME RUNS FAILED"))
    return 0 if ok and flagged == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        if not build():
            return 1
        return subprocess.run([DRIVER, "--self-test"]).returncode
    if args.workload:
        return single_run_mode(args)
    return summary_mode(args)


if __name__ == "__main__":
    sys.exit(main())
