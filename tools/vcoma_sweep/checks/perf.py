"""Gate the perf-core trajectory against the committed baseline.

Reads BENCH_perf_core.json (written by bench/bench_perf_core), checks
that every expected metric is present and finite -- a `null` metric
means a non-finite rate leaked into the report, which is exactly the
corruption the bench's trial-clamping exists to prevent -- and
compares the *ratio* metrics (speedup, replay_speedup) against
bench/perf_baseline.json.

Only ratios are gated: both sides of each ratio run in the same
process on the same host, so the ratio is stable where absolute
refs/sec on shared CI runners is hopelessly noisy.  A ratio below
baseline * (1 - tolerance) fails the check.  Absolute rates are
appended to the trajectory file for trending, never gated.

Usage:
    python3 -m vcoma_sweep check-perf
        [--report BENCH_perf_core.json]
        [--baseline bench/perf_baseline.json]
        [--append perf_trajectory.jsonl]
"""

import argparse
import json
import math
import sys

EXPECTED_METRICS = (
    "refs_per_sec_slow",
    "refs_per_sec_fast",
    "refs_per_sec_replay",
    "speedup",
    "replay_speedup",
    "kvlookup_refs_per_sec_live",
    "kvlookup_refs_per_sec_replay",
    "kvlookup_replay_speedup",
)


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--report", default="BENCH_perf_core.json")
    ap.add_argument("--baseline", default="bench/perf_baseline.json")
    ap.add_argument("--append", default=None,
                    help="trajectory JSONL file to append this run to")
    args = ap.parse_args(argv)

    try:
        with open(args.report) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read perf report '{args.report}': {e}")
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read baseline '{args.baseline}': {e}")

    metrics = report.get("metrics")
    if not isinstance(metrics, dict):
        fail(f"'{args.report}' carries no metrics object")
    for name in EXPECTED_METRICS:
        value = metrics.get(name)
        if value is None:
            # bench_util serialises non-finite doubles as null.
            fail(f"metric '{name}' is missing or null (a non-finite "
                 "rate reached the report)")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric '{name}' is not a finite number: {value!r}")
        if value <= 0:
            fail(f"metric '{name}' is not positive: {value}")

    tolerance = baseline.get("tolerance", 0.2)
    if not 0 < tolerance < 1:
        fail(f"baseline tolerance {tolerance!r} is not in (0, 1)")
    gates = baseline.get("gates")
    if not isinstance(gates, dict) or not gates:
        fail(f"baseline '{args.baseline}' defines no gates")

    failures = []
    for name, floor in sorted(gates.items()):
        if name not in metrics:
            failures.append(f"gated metric '{name}' absent from report")
            continue
        threshold = floor * (1.0 - tolerance)
        value = metrics[name]
        verdict = "ok" if value >= threshold else "REGRESSION"
        print(f"{name}: measured {value:.3f}, baseline {floor:.3f}, "
              f"threshold {threshold:.3f} -> {verdict}")
        if value < threshold:
            failures.append(
                f"{name} regressed: {value:.3f} < {threshold:.3f} "
                f"(baseline {floor:.3f} - {tolerance:.0%})")

    if args.append:
        row = {"bench": report.get("bench"),
               "wall_ms": report.get("wall_ms"),
               "metrics": {k: metrics.get(k) for k in EXPECTED_METRICS}}
        try:
            with open(args.append, "a") as f:
                f.write(json.dumps(row, sort_keys=True) + "\n")
        except OSError as e:
            fail(f"cannot append trajectory '{args.append}': {e}")

    if failures:
        for f_ in failures:
            print(f"FAIL: {f_}", file=sys.stderr)
        sys.exit(1)
    print("perf trajectory OK")


if __name__ == "__main__":
    main()
