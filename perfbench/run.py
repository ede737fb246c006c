#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the session server.

Run from the root of a checkout:

    python3 perfbench/run.py --workload traffic-paced --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --test

The first call configures and builds the libraries, the stream_server
example (the system under test) and the load generator into
.bench_build/perfbench. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; --record FILE also appends
it, tagged with workload, seed and trace, to a JSON-lines result document
that perfbench/render_md.py turns into a parent-vs-change table. Traced
runs write their span trace (Chrome trace-event JSON) and per-layer
self-time summary to .bench_build/perfbench/out. METRICS.md lists every
workload and metric.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORKLOADS = ["traffic-paced", "reach-sliding", "tenants-contended"]
TARGETS = ["perfbench", "example_stream_server", "perfbench_test"]
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_quietly(command):
    """Runs a build step; shows its output only when it fails."""
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        log(done.stdout)
        raise RuntimeError("failed: " + " ".join(command))


def build():
    run_quietly(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"])
    run_quietly(["cmake", "--build", BUILD_DIR, "-j", "4", "--target"] +
                TARGETS)


def run_workload(workload, args, out_dir):
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--server", os.path.join(BUILD_DIR, "examples", "stream_server"),
               "--out-dir", out_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(workload + ": no result within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(workload + ": benchmark exited with %d" %
                           done.returncode)
    return json.loads(lines[-1])


def run_tests():
    build()
    subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")], check=True)
    here = os.path.dirname(os.path.abspath(__file__))
    subprocess.run([sys.executable, "-m", "unittest", "-q",
                    "test_render_md"], cwd=here, check=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--record", help="append results to this JSON-lines file")
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        log("perfbench: run from the root of a checkout "
            "(CMakeLists.txt and src/ not found)")
        return 2
    if args.test:
        return run_tests()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    try:
        build()
        out_dir = os.path.join(BUILD_DIR, "out")
        os.makedirs(out_dir, exist_ok=True)
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        results = {}
        for workload in workloads:
            results[workload] = run_workload(workload, args, out_dir)
    except RuntimeError as error:
        log("perfbench: %s" % error)
        return 1

    if args.record:
        with open(args.record, "a") as record:
            for workload, result in results.items():
                record.write(json.dumps({"workload": workload,
                                         "seed": args.seed,
                                         "trace": args.trace,
                                         "result": result}) + "\n")
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
        return 0
    # Every workload: a table per workload, then one combined result line.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, result in results.items():
        print("%s:" % workload)
        for name, metric in result["metrics"].items():
            print("  %-40s %16.6g %s" % (name, metric["value"], metric["unit"]))
            combined["metrics"][workload + "/" + name] = metric
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
