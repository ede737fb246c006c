#!/usr/bin/env python3
"""CI bench regression gate.

Compares bench JSON documents (bench/async_pipeline, bench/multi_tenant)
against checked-in reference values in bench/baseline.json. Every bench
the baseline gates must be supplied: a missing document fails the check
rather than silently skipping its gates.

  * throughput floors: each baseline entry names a run (matched by the
    key/value pairs under "match") and its reference triples_per_sec; the
    gate fails when the measured run drops below
    reference * (1 - tolerance). The tolerance is deliberately generous —
    CI runners differ wildly from the machine that recorded the baseline —
    so the floor only catches order-of-magnitude regressions (a serialized
    pipeline, an accidental O(n^2) in the hot path), not scheduler noise.
  * ratio gates: machine-independent invariants between two runs of the
    same document, e.g. the reuse path must keep a >= 1.5x throughput
    edge over the same sliding workload without reuse. Ratios divide out
    the host speed, so their bounds are tight. Each ratio may name the
    run field it divides via "field" (default "triples_per_sec"); time
    fields put the slower run in the numerator, e.g. the
    grounding-reuse-ground-cost gate divides the cold sliding run's
    ground_ms_total by the reuse run's, i.e. the grounding-phase speedup.
  * ceilings: machine-independent upper bounds on a run field, used for
    the compact data plane's bytes_per_triple counter (retained window
    store + grounding atom table bytes per triple of the largest window)
    and the burst-overload leg's unaccounted_windows (emitted windows
    neither delivered nor tombstoned — any positive value means the
    ordered merge stalled on a shed slot). Bytes are deterministic for a
    fixed workload — no tolerance derating; the ceiling caps
    representation bloat (a reverted packed layout, a leaked per-window
    buffer) regardless of host speed. A ceiling of 0 on the cold
    sliding-tc leg's decided_groundings pins the scope of decided
    grounding: recursive components are never decided.
  * minimums: machine-independent lower bounds on a run field, used for
    the burst-overload leg's completeness (items reasoned / items
    admitted). The leg is self-clocked — valleys push behind a drain
    barrier, spikes push back-to-back — so the shed fraction is set by
    queue capacity and spike shape, not host speed, and the bound holds
    with no tolerance derating. The sync leg's decided_groundings must
    count every partition grounding of its windows (each P' partition
    is stratified, so the grounder decides it and the solver is
    skipped), and the sliding reuse leg's incremental_windows must count
    nearly every window (a leg that falls back every window would still
    answer correctly, so only the count shows the replay path ran).

Usage:
  check_bench_regression.py [--baseline bench/baseline.json] \
      async_pipeline=async.json multi_tenant=multi_tenant.json

A bench may be named several times (async_pipeline=sync.json
async_pipeline=sliding-tc.json ...): the runs of its documents are merged
before any check, so each leg can be timed in a fresh process
(async_pipeline --leg=<name>).

Exits non-zero (with a per-check report) on any violation. To refresh the
baseline after an intentional perf change, run the benches on a quiet
machine and copy the reported triples_per_sec values into
bench/baseline.json (see docs/benchmarks.md).
"""

import argparse
import json
import sys


def matches(run, match):
    return all(run.get(key) == value for key, value in match.items())


def find_run(runs, match, context):
    found = [run for run in runs if matches(run, match)]
    if not found:
        raise SystemExit(f"baseline {context}: no run matches {match}")
    if len(found) > 1:
        raise SystemExit(f"baseline {context}: {match} is ambiguous "
                         f"({len(found)} runs)")
    return found[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="bench/baseline.json")
    parser.add_argument("benches", nargs="+",
                        help="<baseline-key>=<bench-json-path> pairs")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    tolerance = float(baseline.get("tolerance", 0.8))

    documents = {}
    for pair in args.benches:
        name, _, path = pair.partition("=")
        if not path:
            raise SystemExit(f"expected <name>=<path>, got: {pair!r}")
        with open(path) as f:
            document = json.load(f)
        if name in documents:
            # Several documents for one bench (one per leg, each timed in
            # its own process): their runs merge.
            documents[name]["runs"].extend(document["runs"])
        else:
            documents[name] = document

    gated = (set(baseline.get("floors", {}))
             | {ratio["bench"] for ratio in baseline.get("ratios", [])}
             | set(baseline.get("ceilings", {}))
             | set(baseline.get("minimums", {})))
    missing = sorted(gated - set(documents))
    if missing:
        raise SystemExit(f"no bench document supplied for {missing}: "
                         f"their baseline gates would not run")

    failures = []
    checks = 0

    # Strict run schema: every bench emits the same record shape (see
    # bench/bench_json.h), and the baseline pins the exact field list.
    # Unknown fields mean the serializer and baseline drifted apart;
    # missing fields mean a bench stopped reporting something a gate may
    # silently depend on. Either way: fail loudly.
    run_fields = baseline.get("schema", {}).get("run_fields")
    if run_fields:
        expected = set(run_fields)
        for name, document in documents.items():
            for i, run in enumerate(document["runs"]):
                checks += 1
                unknown = sorted(set(run) - expected)
                missing = sorted(expected - set(run))
                if unknown or missing:
                    detail = []
                    if unknown:
                        detail.append(f"unknown fields {unknown}")
                    if missing:
                        detail.append(f"missing fields {missing}")
                    message = (f"{name} run {i} "
                               f"({run.get('mode', '?')}): "
                               + ", ".join(detail))
                    print(f"[FAIL] schema {message}")
                    failures.append(f"schema {message}")
        print(f"[ok] schema: {sum(len(d['runs']) for d in documents.values())}"
              f" runs checked against {len(expected)} fields")

    for name, floors in baseline.get("floors", {}).items():
        runs = documents[name]["runs"]
        for floor in floors:
            checks += 1
            run = find_run(runs, floor["match"], name)
            reference = float(floor["triples_per_sec"])
            minimum = reference * (1.0 - tolerance)
            measured = float(run["triples_per_sec"])
            verdict = "ok" if measured >= minimum else "FAIL"
            print(f"[{verdict}] {name} {floor['match']}: "
                  f"{measured:.0f} triples/s "
                  f"(floor {minimum:.0f} = {reference:.0f} * "
                  f"{1.0 - tolerance:.2f})")
            if measured < minimum:
                failures.append(f"{name} {floor['match']}")

    for ratio in baseline.get("ratios", []):
        name = ratio["bench"]
        checks += 1
        runs = documents[name]["runs"]
        field = ratio.get("field", "triples_per_sec")
        numerator = find_run(runs, ratio["numerator"], name)
        denominator = find_run(runs, ratio["denominator"], name)
        for run, role in ((numerator, "numerator"), (denominator,
                                                     "denominator")):
            if field not in run:
                raise SystemExit(
                    f"baseline {name} {ratio.get('name', 'ratio')}: "
                    f"{role} run has no field {field!r} "
                    f"(older bench binary?)")
        denom_value = float(denominator[field])
        measured = (float(numerator[field]) / denom_value
                    if denom_value > 0 else 0.0)
        minimum = float(ratio["min_ratio"])
        verdict = "ok" if measured >= minimum else "FAIL"
        print(f"[{verdict}] {name} {ratio.get('name', 'ratio')} ({field}): "
              f"{measured:.2f}x (minimum {minimum:.2f}x)")
        if measured < minimum:
            failures.append(f"{name} {ratio.get('name', 'ratio')}")

    for name, ceilings in baseline.get("ceilings", {}).items():
        runs = documents[name]["runs"]
        for ceiling in ceilings:
            checks += 1
            run = find_run(runs, ceiling["match"], name)
            field = ceiling.get("field", "bytes_per_triple")
            if field not in run:
                raise SystemExit(
                    f"baseline {name} ceiling {ceiling['match']}: run has "
                    f"no field {field!r} (older bench binary?)")
            maximum = float(ceiling["max"])
            measured = float(run[field])
            verdict = "ok" if measured <= maximum else "FAIL"
            print(f"[{verdict}] {name} {ceiling['match']} ({field}): "
                  f"{measured:.1f} (ceiling {maximum:.1f})")
            if measured > maximum:
                failures.append(f"{name} ceiling {ceiling['match']}")

    for name, minimums in baseline.get("minimums", {}).items():
        runs = documents[name]["runs"]
        for floor in minimums:
            checks += 1
            run = find_run(runs, floor["match"], name)
            field = floor.get("field", "completeness")
            if field not in run:
                raise SystemExit(
                    f"baseline {name} minimum {floor['match']}: run has "
                    f"no field {field!r} (older bench binary?)")
            minimum = float(floor["min"])
            measured = float(run[field])
            verdict = "ok" if measured >= minimum else "FAIL"
            print(f"[{verdict}] {name} {floor['match']} ({field}): "
                  f"{measured:.4f} (minimum {minimum:.4f})")
            if measured < minimum:
                failures.append(f"{name} minimum {floor['match']}")

    if checks == 0:
        raise SystemExit("no checks ran: baseline keys do not match the "
                         "supplied bench documents")
    if failures:
        print(f"\n{len(failures)} bench regression check(s) failed:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nall {checks} bench regression checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
