#!/usr/bin/env python3
"""Validate a qfcard telemetry snapshot against tools/metrics_schema.json.

The snapshot is the JSON written by `qfcard_cli --metrics-out=PATH` (or
obs::WriteSnapshotJson): metrics registry + trace-buffer stats. CI runs the
smoke workload at QFCARD_THREADS=1 and 4 and feeds the snapshot here; a pass
means the pipeline's instrumentation is still wired — per-stage latency
histograms populated, per-backend q-error histograms populated, thread-pool
series present.

Checks, in order:
  1. structural — top-level keys, version, counter/gauge/histogram row shapes,
     every histogram's buckets end in le="+Inf" and bucket counts sum to the
     histogram count, and its quantiles are ordered p50 <= p90 <= p95 <= max;
  2. schema-required series — counters/histograms named in the schema exist
     (optionally matched by a labels prefix, e.g. any `backend=` label set);
  3. liveness — schema 'nonzero' counters have a summed value > 0 and
     'min_count' histograms have enough observations, so a refactor that
     silently stops recording fails CI instead of shipping dead telemetry.

Stdlib only (json/argparse) — no third-party packages.

Exit status: 0 valid, 1 with one "error: ..." line per violation.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

NUMERIC = (int, float)


class Checker:
    def __init__(self) -> None:
        self.errors: list[str] = []

    def error(self, msg: str) -> None:
        self.errors.append(msg)

    def require(self, cond: bool, msg: str) -> bool:
        if not cond:
            self.error(msg)
        return cond


def check_structure(snap: dict, chk: Checker) -> None:
    for key in ("version", "metrics", "trace"):
        if not chk.require(key in snap, f"missing top-level key '{key}'"):
            return
    chk.require(snap["version"] == 2,
                f"unsupported snapshot version {snap['version']!r}")
    metrics = snap["metrics"]
    if not chk.require(isinstance(metrics, dict), "'metrics' is not an object"):
        return
    for section in ("counters", "gauges", "histograms"):
        rows = metrics.get(section)
        if not chk.require(isinstance(rows, list),
                           f"metrics.{section} is not an array"):
            continue
        for i, row in enumerate(rows):
            where = f"metrics.{section}[{i}]"
            if not chk.require(isinstance(row, dict), f"{where} not an object"):
                continue
            chk.require(isinstance(row.get("name"), str),
                        f"{where} missing string 'name'")
            chk.require(isinstance(row.get("labels"), str),
                        f"{where} missing string 'labels'")
            if section in ("counters", "gauges"):
                chk.require(isinstance(row.get("value"), NUMERIC),
                            f"{where} missing numeric 'value'")
            else:
                check_histogram_row(row, where, chk)


QUANTILE_ORDER = ("p50", "p90", "p95", "max")


def check_histogram_row(row: dict, where: str, chk: Checker) -> None:
    for field in ("count", "sum", "mean", "max", "p50", "p90", "p95"):
        chk.require(isinstance(row.get(field), NUMERIC),
                    f"{where} missing numeric '{field}'")
    if all(isinstance(row.get(f), NUMERIC) for f in QUANTILE_ORDER):
        for lo, hi in zip(QUANTILE_ORDER, QUANTILE_ORDER[1:]):
            chk.require(row[lo] <= row[hi],
                        f"{where} ({row.get('name')}) {lo} {row[lo]} exceeds "
                        f"{hi} {row[hi]}")
    buckets = row.get("buckets")
    if not chk.require(isinstance(buckets, list) and buckets,
                       f"{where} missing non-empty 'buckets'"):
        return
    last_le = None
    total = 0
    for j, b in enumerate(buckets):
        bw = f"{where}.buckets[{j}]"
        if not chk.require(isinstance(b, dict), f"{bw} not an object"):
            return
        chk.require(isinstance(b.get("count"), int) and b["count"] >= 0,
                    f"{bw} missing non-negative integer 'count'")
        total += b.get("count", 0) if isinstance(b.get("count"), int) else 0
        last_le = b.get("le")
    chk.require(last_le == "+Inf",
                f"{where} last bucket le is {last_le!r}, expected '+Inf' "
                "(overflow bucket)")
    if isinstance(row.get("count"), int):
        chk.require(total == row["count"],
                    f"{where} bucket counts sum to {total} but count is "
                    f"{row['count']}")


def rows_named(rows: list, name: str, labels_prefix: str = "") -> list:
    return [r for r in rows
            if isinstance(r, dict) and r.get("name") == name
            and str(r.get("labels", "")).startswith(labels_prefix)]


def check_schema(snap: dict, schema: dict, chk: Checker) -> None:
    metrics = snap.get("metrics", {})
    counters = metrics.get("counters", [])
    histograms = metrics.get("histograms", [])

    cschema = schema.get("counters", {})
    for name in cschema.get("required", []):
        chk.require(bool(rows_named(counters, name)),
                    f"required counter '{name}' missing")
    for name in cschema.get("nonzero", []):
        rows = rows_named(counters, name)
        total = sum(r.get("value", 0) for r in rows)
        chk.require(bool(rows) and total > 0,
                    f"counter '{name}' must be > 0 (got {total}) — "
                    "instrumentation went dead?")

    gauges = metrics.get("gauges", [])
    for name in schema.get("gauges", {}).get("required", []):
        chk.require(bool(rows_named(gauges, name)),
                    f"required gauge '{name}' missing")

    for spec in schema.get("histograms", {}).get("required", []):
        name = spec["name"]
        prefix = spec.get("labels_prefix", "")
        rows = rows_named(histograms, name, prefix)
        label = f"'{name}'" + (f" with labels '{prefix}*'" if prefix else "")
        if not chk.require(bool(rows), f"required histogram {label} missing"):
            continue
        min_count = spec.get("min_count", 0)
        best = max(r.get("count", 0) for r in rows)
        chk.require(best >= min_count,
                    f"histogram {label} has max count {best}, expected >= "
                    f"{min_count}")

    tschema = schema.get("trace", {})
    trace = snap.get("trace", {})
    if chk.require(isinstance(trace, dict), "'trace' is not an object"):
        for field in tschema.get("required_fields", []):
            chk.require(isinstance(trace.get(field), int),
                        f"trace missing integer '{field}'")
        if all(isinstance(trace.get(k), int) for k in ("recorded", "dropped")):
            chk.require(trace["dropped"] <= trace["recorded"],
                        "trace.dropped exceeds trace.recorded")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("snapshot", help="JSON file from --metrics-out")
    parser.add_argument("--schema",
                        default=str(pathlib.Path(__file__).resolve().parent /
                                    "metrics_schema.json"))
    parser.add_argument("--profile", default=None,
                        help="validate the required series of "
                             "schema['profiles'][PROFILE] instead of the "
                             "top-level ones (structural checks always run); "
                             "e.g. --profile=server for the qfcard_server "
                             "smoke snapshot")
    args = parser.parse_args(argv)

    try:
        snap = json.loads(pathlib.Path(args.snapshot).read_text("utf-8"))
    except (OSError, ValueError) as e:
        print(f"error: cannot parse snapshot {args.snapshot}: {e}",
              file=sys.stderr)
        return 1
    try:
        schema = json.loads(pathlib.Path(args.schema).read_text("utf-8"))
    except (OSError, ValueError) as e:
        print(f"error: cannot parse schema {args.schema}: {e}",
              file=sys.stderr)
        return 1

    if args.profile is not None:
        profiles = schema.get("profiles", {})
        if args.profile not in profiles:
            known = ", ".join(k for k in sorted(profiles) if k != "_comment")
            print(f"error: unknown profile '{args.profile}' "
                  f"(schema defines: {known or 'none'})", file=sys.stderr)
            return 1
        schema = profiles[args.profile]

    chk = Checker()
    if chk.require(isinstance(snap, dict), "snapshot is not a JSON object"):
        check_structure(snap, chk)
        check_schema(snap, schema, chk)

    for msg in chk.errors:
        print(f"error: {msg}")
    if chk.errors:
        print(f"validate_metrics: {len(chk.errors)} violation(s) in "
              f"{args.snapshot}", file=sys.stderr)
        return 1
    n_hist = len(snap.get("metrics", {}).get("histograms", []))
    n_ctr = len(snap.get("metrics", {}).get("counters", []))
    print(f"validate_metrics: OK ({args.snapshot}: {n_ctr} counters, "
          f"{n_hist} histograms)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
