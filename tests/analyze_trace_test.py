"""Self-test for tools/analyze_trace.py (docs/observability.md).

Builds synthetic Chrome trace-event dumps (the format --trace-out writes)
and checks the analyzer's verdicts: a fully connected two-request tree
passes under every strict flag, an orphaned span fails --fail-on-orphans, a
disconnected request fails --require-connected, rejected (errored) roots do
not count toward --min-requests, and a structurally broken dump is rejected
outright.

Run directly (python3 tests/analyze_trace_test.py) or via ctest
(analyze_trace_selftest).
"""

import importlib.util
import io
import json
import pathlib
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "analyze_trace.py"

spec = importlib.util.spec_from_file_location("analyze_trace", TOOL)
analyze_trace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(analyze_trace)


def span(sid, parent, trace, name, dur=0.001, error=False, links=(),
         start=0.0):
    return {"id": sid, "parent": parent, "trace": trace, "tid": 0,
            "error": error, "name": name, "start_s": start,
            "duration_s": dur, "links": list(links)}


def connected_two_request_spans():
    """Two requests; the second is served by the first's batch via a link."""
    return [
        span(2, 1, 1, "serve.submit"),
        span(3, 1, 1, "serve.queue_wait", dur=0.002),
        span(11, 10, 10, "serve.submit"),
        span(12, 10, 10, "serve.queue_wait", dur=0.004),
        span(6, 5, 1, "estimate.featurize", dur=0.003),
        span(7, 5, 1, "estimate.predict", dur=0.001),
        span(5, 4, 1, "estimate.batch", dur=0.005),
        span(4, 1, 1, "serve.batch", dur=0.006, links=[10]),
        span(1, 0, 1, "serve.request", dur=0.010),
        span(10, 0, 10, "serve.request", dur=0.012),
    ]


def trace_event_doc(spans):
    """A span list in Chrome trace-event form, as obs::WriteTraceEventJson
    writes it."""
    events = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "qfcard (unrouted)"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "thread 0"}},
    ]
    for s in spans:
        events.append({
            "name": s["name"], "cat": "qfcard", "ph": "X",
            "ts": s["start_s"] * 1e6, "dur": s["duration_s"] * 1e6,
            "pid": 1, "tid": s["tid"],
            "args": {"span": s["id"], "parent": s["parent"],
                     "trace": s["trace"], "error": s["error"],
                     "links": s["links"]}})
        for link in s["links"]:
            events.append({"name": "request", "cat": "qfcard.flow",
                           "ph": "s", "id": link, "pid": 1, "tid": 0,
                           "ts": 0.0})
            events.append({"name": "request", "cat": "qfcard.flow",
                           "ph": "f", "bp": "e", "id": link, "pid": 1,
                           "tid": s["tid"], "ts": s["start_s"] * 1e6})
    return {"displayTimeUnit": "ms", "traceEvents": events}


class AnalyzeTraceTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, name, doc):
        path = self.dir / name
        path.write_text(json.dumps(doc))
        return str(path)

    def run_tool(self, *argv):
        out = io.StringIO()
        with redirect_stdout(out):
            code = analyze_trace.main(list(argv))
        return code, out.getvalue()

    def test_connected_tree_passes_strict_flags(self):
        spans = connected_two_request_spans()
        events = self.write("events.json", trace_event_doc(spans))
        code, out = self.run_tool(events, "--fail-on-orphans",
                                  "--require-connected", "--min-requests", "2")
        self.assertEqual(code, 0, out)
        self.assertIn("connected: 2/2", out)
        self.assertIn("orphans: 0", out)
        # The stage table covers every attribution stage.
        for stage in ("queue_wait", "batch_exec", "featurize", "predict",
                      "total"):
            self.assertIn(stage, out)

    def test_orphaned_span_fails_fail_on_orphans(self):
        spans = connected_two_request_spans()
        spans.append(span(99, 999, 1, "estimate.batch"))  # parent 999
        path = self.write("orphan.json", trace_event_doc(spans))
        code, out = self.run_tool(path)  # informational without the flag
        self.assertEqual(code, 0, out)
        self.assertIn("orphans: 1", out)
        code, _ = self.run_tool(path, "--fail-on-orphans")
        self.assertEqual(code, 1)

    def test_disconnected_request_fails_require_connected(self):
        spans = connected_two_request_spans()
        # A third request with no serve.batch anywhere in its trace.
        spans.append(span(21, 20, 20, "serve.submit"))
        spans.append(span(20, 0, 20, "serve.request", dur=0.02))
        path = self.write("disconnected.json", trace_event_doc(spans))
        code, _ = self.run_tool(path)
        self.assertEqual(code, 0)
        code, _ = self.run_tool(path, "--require-connected")
        self.assertEqual(code, 1)

    def test_rejected_roots_do_not_count_as_completed(self):
        spans = connected_two_request_spans()
        spans.append(span(31, 30, 30, "serve.submit", error=True))
        spans.append(span(30, 0, 30, "serve.request", error=True))
        path = self.write("rejected.json", trace_event_doc(spans))
        code, out = self.run_tool(path, "--min-requests", "2")
        self.assertEqual(code, 0, out)
        self.assertIn("2 completed / 1 rejected", out)
        code, _ = self.run_tool(path, "--min-requests", "3")
        self.assertEqual(code, 1)

    def test_structurally_broken_dumps_are_rejected(self):
        no_events = {"displayTimeUnit": "ms", "spans": []}
        code, _ = self.run_tool(self.write("broken1.json", no_events))
        self.assertEqual(code, 1)
        bad_span = {"traceEvents": [{"name": "x", "ph": "X", "pid": 1,
                                     "tid": 0, "ts": 0.0}]}  # no dur/args
        code, _ = self.run_tool(self.write("broken2.json", bad_span))
        self.assertEqual(code, 1)
        bad_event = {"traceEvents": [{"name": "x", "ph": "Q", "pid": 1,
                                      "tid": 0}]}
        code, _ = self.run_tool(self.write("broken3.json", bad_event))
        self.assertEqual(code, 1)
        not_json = self.dir / "broken4.json"
        not_json.write_text("{nope")
        code, _ = self.run_tool(str(not_json))
        self.assertEqual(code, 1)

    def test_cli_entry_point(self):
        path = self.write("cli.json",
                          trace_event_doc(connected_two_request_spans()))
        proc = subprocess.run(
            [sys.executable, str(TOOL), path, "--fail-on-orphans",
             "--require-connected", "--min-requests", "2"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("trace analysis OK", proc.stdout)


if __name__ == "__main__":
    unittest.main()
