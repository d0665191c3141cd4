#!/usr/bin/env python3
"""Diff current BENCH_*.json files against a committed baseline.

Closes the ROADMAP gap "CI runs the benches and uploads the JSON, but
nothing yet *diffs* them across PRs": every bench emits a flat JSON array
of rows (see bench/bench_json.hpp); this script matches rows between the
baseline directory (committed, bench/baselines/) and the current
directory (the fresh build/ output) and fails on a >20% regression.

Hardware-comparability rule: committed baselines come from whatever
machine produced them, CI runs on different hardware, so *absolute*
throughput numbers (records_per_sec) are not comparable across the two
and are only checked with --absolute (for local A/B runs on one
machine). *Ratio* metrics — a bounded/unbounded or contended/solo
comparison measured in the same process — are hardware-independent and
are enforced by default.

Usage:
  tools/bench_diff.py --baseline bench/baselines --current build
  tools/bench_diff.py --baseline old_build --current build --absolute
"""

import argparse
import json
import pathlib
import sys

# Metrics enforced by default: dimensionless ratios measured within one
# process, stable across machines.
# peak_ratio_unbounded_vs_bounded is deliberately absent: the bounded
# peak depends on scheduling interleave (hundreds vs tens), so the ratio
# swings too much for a 20% gate — bench_backpressure enforces its own
# hard >=10x bar in-process instead.
RATIO_METRICS = {
    # bench_backpressure: bounded vs. unbounded inbox throughput.
    "throughput_bounded_vs_unbounded",
    # bench_fairness: fast sessions' aggregate throughput with one stalled
    # slow peer vs. without it (per-session output credit isolation).
    "fairness_fast_vs_solo",
}
# Metrics enforced only with --absolute: machine-dependent throughput.
ABSOLUTE_METRICS = {"records_per_sec"}
# Keys that identify a row (everything string-valued plus these ints).
IDENTITY_KEYS = ("bench", "mode", "bound")

DEFAULT_TOLERANCE = 0.20


def row_identity(row):
    ident = []
    for key in IDENTITY_KEYS:
        if key in row:
            ident.append((key, row[key]))
    return tuple(ident)


class SchemaError(Exception):
    """A BENCH_*.json file that does not match the bench_json.hpp shape."""


def validate_rows(path, data):
    """Checks the bench_json.hpp schema before any metric is touched.

    A malformed file (hand-edited baseline, truncated CI artifact, a bench
    emitting a new shape) should fail with a message naming the file, the
    row, and the violated rule — not with a KeyError/TypeError traceback
    halfway through the diff.
    """
    if not isinstance(data, list):
        raise SchemaError(
            f"{path}: top level must be a JSON array of rows, "
            f"got {type(data).__name__}")
    known_metrics = RATIO_METRICS | ABSOLUTE_METRICS
    any_metric = False
    for i, row in enumerate(data):
        if not isinstance(row, dict):
            raise SchemaError(
                f"{path}: row {i} must be an object, "
                f"got {type(row).__name__}")
        if "bench" not in row:
            raise SchemaError(
                f"{path}: row {i} lacks the 'bench' identity key "
                f"(has: {sorted(row)})")
        any_metric = any_metric or any(m in row for m in known_metrics)
        for metric in known_metrics:
            if metric not in row:
                continue
            value = row[metric]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(
                    f"{path}: row {i} metric '{metric}' must be a number, "
                    f"got {value!r}")
    # Per-file, not per-row: summary rows legitimately carry only identity
    # keys plus the ratio, and the per-mode rows only throughput.
    if data and not any_metric:
        raise SchemaError(
            f"{path}: no row carries any known metric key "
            f"{sorted(known_metrics)} — nothing to diff; if the bench emits "
            f"a new metric, add it to RATIO_METRICS or ABSOLUTE_METRICS")


def load_rows(path):
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            raise SchemaError(f"{path}: not valid JSON: {e}") from e
    validate_rows(path, data)
    return {row_identity(r): r for r in data}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True,
                    help="directory holding committed BENCH_*.json baselines")
    ap.add_argument("--current", required=True,
                    help="directory holding freshly produced BENCH_*.json")
    ap.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                    help="allowed fractional regression (default 0.20)")
    ap.add_argument("--absolute", action="store_true",
                    help="also enforce machine-dependent metrics "
                         "(records_per_sec) — same-machine A/B runs only")
    args = ap.parse_args()

    baseline_dir = pathlib.Path(args.baseline)
    current_dir = pathlib.Path(args.current)
    metrics = set(RATIO_METRICS)
    if args.absolute:
        metrics |= ABSOLUTE_METRICS

    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"bench_diff: no baselines under {baseline_dir}", file=sys.stderr)
        return 2

    failures = []
    compared = 0
    for base_path in baselines:
        cur_path = current_dir / base_path.name
        if not cur_path.exists():
            # A bench that no longer runs is a regression of its own.
            failures.append(f"{base_path.name}: missing from {current_dir}")
            continue
        try:
            base_rows = load_rows(base_path)
            cur_rows = load_rows(cur_path)
        except SchemaError as e:
            print(f"bench_diff: schema error: {e}", file=sys.stderr)
            return 2
        for ident, base_row in base_rows.items():
            cur_row = cur_rows.get(ident)
            if cur_row is None:
                failures.append(
                    f"{base_path.name}: row {dict(ident)} missing from current run")
                continue
            for metric in sorted(metrics):
                if metric not in base_row:
                    continue
                base_v = float(base_row[metric])
                if base_v <= 0:
                    continue
                if metric not in cur_row:
                    failures.append(
                        f"{base_path.name}: {dict(ident)} lost metric {metric}")
                    continue
                cur_v = float(cur_row[metric])
                change = (cur_v - base_v) / base_v
                compared += 1
                marker = "OK "
                if change < -args.tolerance:
                    marker = "REG"
                    failures.append(
                        f"{base_path.name}: {dict(ident)} {metric} "
                        f"{base_v:.4g} -> {cur_v:.4g} ({change:+.1%})")
                print(f"  [{marker}] {base_path.name} {dict(ident)} "
                      f"{metric}: {base_v:.4g} -> {cur_v:.4g} ({change:+.1%})")

    if compared == 0:
        print("bench_diff: no comparable metrics found — check baselines",
              file=sys.stderr)
        return 2
    if failures:
        print(f"\nbench_diff: {len(failures)} regression(s) beyond "
              f"{args.tolerance:.0%}:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nbench_diff: {compared} metric(s) within {args.tolerance:.0%} "
          f"of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
