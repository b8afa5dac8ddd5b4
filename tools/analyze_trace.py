#!/usr/bin/env python3
"""Reconstruct per-request critical paths from a qfcard trace dump.

Reads the Chrome trace-event JSON written by --trace-out /
obs::WriteTraceEventJson ({"traceEvents": [...]}, docs/observability.md)
and validates its structure (every event must be loadable by Perfetto).

For every request trace (a `serve.request` root span) the tool stitches the
cross-thread path — submit on the client thread, queue wait, the worker's
micro-batch (joined by trace id or follow-from link), and the
featurize/predict leaves inside it — then prints a p50/p95/p99 breakdown
per stage and a connectivity summary.

Failure modes (exit 1), for CI:
  --fail-on-orphans    any span whose parent id never closed
  --min-requests N     fewer than N completed (non-rejected) requests
  --require-connected  a completed request whose root does not reach a
                       micro-batch execution span

Stdlib only, like the other tools/ scripts.
"""

import argparse
import json
import sys

EVENT_PHASES = {"X", "M", "s", "f"}
METADATA_NAMES = {"process_name", "thread_name"}

# Span names the path reconstruction keys on (src/serve/server.cc,
# src/estimators/ml_estimator.cc).
ROOT = "serve.request"
SUBMIT = "serve.submit"
QUEUE_WAIT = "serve.queue_wait"
BATCH = "serve.batch"
EXEC = "estimate.batch"
FEATURIZE = "estimate.featurize"
PREDICT = "estimate.predict"


class TraceFormatError(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise TraceFormatError(msg)


def spans_from_trace_events(doc):
    events = doc.get("traceEvents")
    _require(isinstance(events, list), "'traceEvents' must be a list")
    spans = []
    for i, ev in enumerate(events):
        _require(isinstance(ev, dict), f"event[{i}] is not an object")
        ph = ev.get("ph")
        _require(ph in EVENT_PHASES, f"event[{i}] has unknown ph {ph!r}")
        _require(isinstance(ev.get("name"), str), f"event[{i}] lacks a name")
        _require(isinstance(ev.get("pid"), int), f"event[{i}] lacks int pid")
        _require(isinstance(ev.get("tid"), int), f"event[{i}] lacks int tid")
        if ph == "M":
            _require(ev["name"] in METADATA_NAMES,
                     f"event[{i}] metadata name {ev['name']!r} unknown")
            _require(isinstance(ev.get("args", {}).get("name"), str),
                     f"event[{i}] metadata lacks args.name")
            continue
        _require(isinstance(ev.get("ts"), (int, float)),
                 f"event[{i}] lacks numeric ts")
        if ph in ("s", "f"):
            _require("id" in ev, f"event[{i}] flow lacks id")
            continue
        dur = ev.get("dur")
        _require(isinstance(dur, (int, float)) and dur >= 0,
                 f"event[{i}] lacks nonnegative dur")
        args = ev.get("args")
        _require(isinstance(args, dict), f"event[{i}] lacks args")
        for key in ("span", "parent", "trace"):
            _require(isinstance(args.get(key), int),
                     f"event[{i}] args lacks int '{key}'")
        spans.append({
            "id": args["span"],
            "parent": args["parent"],
            "trace": args["trace"],
            "name": ev["name"],
            "start": float(ev["ts"]) / 1e6,
            "dur": float(dur) / 1e6,
            "error": bool(args.get("error", False)),
            "links": list(args.get("links", [])),
            "route": ev["pid"],
        })
    return spans


def load_spans(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    _require(isinstance(doc, dict), "top level must be an object")
    return spans_from_trace_events(doc)


def percentile(sorted_values, q):
    """Nearest-rank percentile over an already-sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))  # ceil
    return sorted_values[int(rank) - 1]


class Analysis:
    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children = {}
        for s in spans:
            self.children.setdefault(s["parent"], []).append(s)
        # A micro-batch serves its first member's trace directly and every
        # other member via a follow-from link; either way the batch span is
        # the request's execution edge.
        self.batch_by_trace = {}
        for s in spans:
            if s["name"] != BATCH:
                continue
            self.batch_by_trace.setdefault(s["trace"], s)
            for link in s["links"]:
                self.batch_by_trace.setdefault(link, s)
        self.orphans = [
            s for s in spans
            if s["parent"] != 0 and s["parent"] not in self.by_id
        ]
        self.roots = [
            s for s in spans if s["name"] == ROOT and s["id"] == s["trace"]
        ]

    def subtree(self, span):
        out, frontier = [], [span]
        while frontier:
            cur = frontier.pop()
            out.append(cur)
            frontier.extend(self.children.get(cur["id"], []))
        return out

    def request_paths(self):
        """One stage dict per completed request root."""
        paths = []
        for root in self.roots:
            if root["error"]:
                continue  # rejected before execution; no path to walk
            kids = self.children.get(root["id"], [])
            queue_wait = [s for s in kids if s["name"] == QUEUE_WAIT]
            batch = self.batch_by_trace.get(root["id"])
            stages = {
                "queue_wait": sum(s["dur"] for s in queue_wait),
                "batch_exec": batch["dur"] if batch else 0.0,
                "featurize": 0.0,
                "predict": 0.0,
                "total": root["dur"],
            }
            connected = False
            if batch is not None:
                tree = self.subtree(batch)
                connected = any(s["name"] == EXEC for s in tree)
                stages["featurize"] = sum(
                    s["dur"] for s in tree if s["name"] == FEATURIZE)
                stages["predict"] = sum(
                    s["dur"] for s in tree if s["name"] == PREDICT)
            paths.append({"root": root, "stages": stages,
                          "connected": connected})
        return paths


STAGE_ORDER = ("queue_wait", "batch_exec", "featurize", "predict", "total")


def print_stage_table(paths, out=None):
    out = out if out is not None else sys.stdout
    print(f"{'stage':<12}{'p50 ms':>12}{'p95 ms':>12}{'p99 ms':>12}"
          f"{'mean ms':>12}{'count':>8}", file=out)
    for stage in STAGE_ORDER:
        values = sorted(p["stages"][stage] for p in paths)
        mean = sum(values) / len(values) if values else 0.0
        print(f"{stage:<12}"
              f"{percentile(values, 50) * 1e3:>12.3f}"
              f"{percentile(values, 95) * 1e3:>12.3f}"
              f"{percentile(values, 99) * 1e3:>12.3f}"
              f"{mean * 1e3:>12.3f}"
              f"{len(values):>8}", file=out)


def analyze_file(path, args):
    """Returns a list of failure strings (empty = pass)."""
    try:
        spans = load_spans(path)
    except (OSError, json.JSONDecodeError, TraceFormatError) as e:
        return [f"{path}: unreadable trace: {e}"]
    analysis = Analysis(spans)
    paths = analysis.request_paths()
    rejected = sum(1 for r in analysis.roots if r["error"])
    connected = sum(1 for p in paths if p["connected"])
    print(f"== {path} ==")
    print(f"spans: {len(spans)}  traces: "
          f"{len({s['trace'] for s in spans if s['trace']})}  "
          f"requests: {len(paths)} completed / {rejected} rejected  "
          f"connected: {connected}/{len(paths)}  "
          f"orphans: {len(analysis.orphans)}")
    if paths:
        print_stage_table(paths)

    failures = []
    if args.fail_on_orphans and analysis.orphans:
        for s in analysis.orphans[:10]:
            failures.append(
                f"{path}: orphaned span id={s['id']} name={s['name']!r} "
                f"(parent {s['parent']} never closed)")
        if len(analysis.orphans) > 10:
            failures.append(
                f"{path}: ... {len(analysis.orphans) - 10} more orphans")
    if len(paths) < args.min_requests:
        failures.append(
            f"{path}: {len(paths)} completed requests, "
            f"expected >= {args.min_requests}")
    if args.require_connected:
        broken = [p for p in paths if not p["connected"]]
        for p in broken[:10]:
            failures.append(
                f"{path}: request trace {p['root']['id']} never reached a "
                f"micro-batch execution span across the thread boundary")
        if len(broken) > 10:
            failures.append(f"{path}: ... {len(broken) - 10} more "
                            "disconnected requests")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("traces", nargs="+",
                        help="trace-event JSON dump(s) from --trace-out")
    parser.add_argument("--fail-on-orphans", action="store_true",
                        help="exit 1 if any span's parent never closed")
    parser.add_argument("--min-requests", type=int, default=0, metavar="N",
                        help="exit 1 with fewer than N completed requests")
    parser.add_argument("--require-connected", action="store_true",
                        help="exit 1 if a completed request's root does not "
                             "reach a micro-batch execution span")
    args = parser.parse_args(argv)

    failures = []
    for path in args.traces:
        failures.extend(analyze_file(path, args))
    if failures:
        print()
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("trace analysis OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
