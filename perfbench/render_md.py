#!/usr/bin/env python3
"""Renders perfbench results as a parent-vs-change markdown table.

    python3 perfbench/render_md.py --parent parent.jsonl --change change.jsonl \
        [--benchmark BENCHMARK.json]

Each input is a result document: JSON lines as written by
`perfbench/run.py --record FILE`, one {"workload", "seed", "trace",
"result"} record per run. Every (workload, metric) pair gets one row with
each side's median and quartiles over its runs, the change relative to
the parent's median, and, when BENCHMARK.json gives one, the metric's
bound and whether the change is worse by more than it. Standard library
only.
"""

import argparse
import json
import statistics
import sys


def load(path):
    with open(path) as lines:
        return [json.loads(line) for line in lines if line.strip()]


def group(records):
    """{(workload, metric): {"unit": str, "values": [float]}}."""
    grouped = {}
    for record in records:
        for name, metric in record["result"]["metrics"].items():
            entry = grouped.setdefault((record["workload"], name),
                                       {"unit": metric["unit"], "values": []})
            entry["values"].append(float(metric["value"]))
    return grouped


def summary(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def bounds_of(benchmark):
    """{metric: (better, bound or None)} from a BENCHMARK.json document."""
    bounds = {}
    for metric in benchmark.get("end_to_end", []):
        bounds[metric["name"]] = (metric["better"], metric.get("bound"))
    for metric in benchmark.get("per_layer", []):
        bounds[metric["name"]] = (metric["better"], None)
    return bounds


def cell(values):
    if not values:
        return ""
    median, q1, q3 = summary(values)
    return "%.4g [%.4g, %.4g]" % (median, q1, q3)


def render(parent, change, bounds=None):
    bounds = bounds or {}
    rows = ["| workload | metric | unit | parent median [q1, q3] | "
            "change median [q1, q3] | change | bound |",
            "|---|---|---|---|---|---|---|"]
    for key in sorted(set(parent) | set(change)):
        workload, name = key
        before = parent.get(key, {}).get("values", [])
        after = change.get(key, {}).get("values", [])
        unit = (parent.get(key) or change.get(key))["unit"]
        delta = ""
        verdict = ""
        if before and after and summary(before)[0] != 0:
            ratio = summary(after)[0] / summary(before)[0] - 1
            delta = "%+.1f%%" % (100 * ratio)
            better, bound = bounds.get(name, (None, None))
            if bound is not None:
                worse = ratio > bound if better == "lower" else -ratio > bound
                verdict = "%.0f%%%s" % (100 * bound,
                                        " **exceeded**" if worse else "")
        rows.append("| %s | %s | %s | %s | %s | %s | %s |" % (
            workload, name, unit, cell(before), cell(after), delta, verdict))
    return "\n".join(rows) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--benchmark", help="BENCHMARK.json for the bounds")
    args = parser.parse_args()
    bounds = {}
    if args.benchmark:
        with open(args.benchmark) as benchmark:
            bounds = bounds_of(json.load(benchmark))
    sys.stdout.write(render(group(load(args.parent)),
                            group(load(args.change)), bounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
