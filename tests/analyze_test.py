"""Self-test for tools/qfcard_analyze.py against the miniature project at
tools/testdata/analyze_proj/ (docs/static_analysis.md).

The fixture tree seeds one violation per pass — an upward layer include, an
include cycle, a lock-order cycle, an unannotated guarded member, a
discarded Status, an unregistered metric, a dead catalog entry, and a
required-but-uncatalogued series — plus the suppression-contract cases:
a justified suppression per rule (must silence exactly that rule), one
reasonless suppression (itself a finding), and one suppression naming the
wrong rule (must not silence) — and a `files` layer pin (common/pool.*
above storage) that must win over common's `dirs` match while its sibling
common/sibling.cc is still flagged.

Source-file expectations are `// expect: <rule>` markers on the finding
line; the two schema-side findings are asserted explicitly because
tools/metrics_schema.json cannot carry C++ comments.

Run directly (python3 tests/analyze_test.py) or via ctest (analyze_selftest).
"""

import json
import pathlib
import re
import subprocess
import sys
import tempfile
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
ANALYZE = ROOT / "tools" / "qfcard_analyze.py"
FIXTURE = ROOT / "tools" / "testdata" / "analyze_proj"

EXPECT_RE = re.compile(r"//\s*expect:\s*(?P<rules>[\w-]+(?:\s+[\w-]+)*)")
FINDING_RE = re.compile(
    r"^(?P<file>.+?):(?P<line>\d+): \[(?P<rule>[\w-]+)\] (?P<msg>.*)$")


def expected_from_markers() -> set:
    out = set()
    for path in sorted(FIXTURE.glob("src/**/*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(FIXTURE / "src").as_posix()
        for idx, line in enumerate(path.read_text().splitlines(), start=1):
            m = EXPECT_RE.search(line)
            if m:
                for rule in m.group("rules").split():
                    out.add((rel, idx, rule))
    return out


def run_analyzer(*extra_args: str, root: pathlib.Path = FIXTURE):
    proc = subprocess.run(
        [sys.executable, str(ANALYZE), "--root", str(root)] +
        list(extra_args),
        capture_output=True, text=True)
    findings = []
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            findings.append((m.group("file"), int(m.group("line")),
                             m.group("rule"), m.group("msg")))
    return proc, findings


class AnalyzeSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.json_path = pathlib.Path(tempfile.mkstemp(suffix=".json")[1])
        cls.proc, cls.findings = run_analyzer("--json", str(cls.json_path))
        cls.report = json.loads(cls.json_path.read_text())

    @classmethod
    def tearDownClass(cls):
        cls.json_path.unlink(missing_ok=True)

    def test_exit_status_and_marker_parity(self):
        self.assertEqual(self.proc.returncode, 1,
                         self.proc.stdout + self.proc.stderr)
        source_findings = {(f, l, r) for f, l, r, _ in self.findings
                           if f != "tools/metrics_schema.json"}
        self.assertEqual(source_findings, expected_from_markers(),
                         "findings diverge from // expect markers:\n"
                         + self.proc.stdout)

    def test_schema_side_findings(self):
        schema = [(r, m) for f, _, r, m in self.findings
                  if f == "tools/metrics_schema.json"]
        self.assertEqual(len(schema), 2, self.proc.stdout)
        self.assertTrue(any("dead.counter" in m for _, m in schema))
        self.assertTrue(any("orphan.required" in m for _, m in schema))
        self.assertTrue(all(r == "telemetry" for r, _ in schema))

    def test_each_pass_contributes(self):
        rules = {r for _, _, r, _ in self.findings}
        self.assertEqual(rules, {"layer", "include-cycle", "guarded-by",
                                 "lock-order", "error-policy",
                                 "discarded-status", "telemetry"})

    def test_files_entry_wins_over_dirs(self):
        # common/pool.{h,cc} are pinned by `files` to the pool layer above
        # storage, so pool.cc may include storage/store.h; their sibling
        # common/sibling.cc is mapped by `dirs` and stays in common.
        layer = [(f, m) for f, _, r, m in self.findings if r == "layer"]
        self.assertFalse(any(f.startswith("common/pool.") for f, _ in layer),
                         self.proc.stdout)
        sibling = sorted(m for f, m in layer if f == "common/sibling.cc")
        self.assertEqual(len(sibling), 2, self.proc.stdout)
        self.assertIn("'common/pool.h' (layer pool)", sibling[0])
        self.assertIn("'storage/store.h' (layer storage)", sibling[1])
        self.assertTrue(all("(layer common)" in m for m in sibling))

    def test_justified_suppressions_silence_exactly_their_rule(self):
        out = self.proc.stdout
        # ok(layer) on the serve/api2.h include; ok(guarded-by) on noted_;
        # ok(telemetry) on justified.counter — all with reasons, all silent.
        self.assertNotIn("api2.h", out)
        self.assertNotIn("noted_", out)
        self.assertNotIn("justified.counter", out)
        # The wrong-rule suppression on mismatched_ must NOT silence.
        self.assertIn("mismatched_", out)

    def test_mutable_members_checked_without_a_mutex(self):
        # Cache owns no mutex: its bare mutable member is a finding (a
        # const-method write races), while the atomic, the justified
        # suppression, and the plain (non-mutable) member stay silent.
        cache = [m for f, _, r, m in self.findings
                 if r == "guarded-by" and "'Cache'" in m]
        self.assertEqual(len(cache), 1, self.proc.stdout)
        self.assertIn("member 'last_hit_' is mutable", cache[0])
        for silent in ("hits_", "memo_", "capacity_"):
            self.assertNotIn(silent, self.proc.stdout)

    def test_reasonless_suppression_is_a_finding(self):
        lazy = [(f, l, r, m) for f, l, r, m in self.findings
                if "suppression has no reason" in m]
        self.assertEqual(len(lazy), 1, self.proc.stdout)
        self.assertEqual(lazy[0][0], "storage/store.h")
        self.assertEqual(lazy[0][2], "guarded-by")

    def test_json_report_graphs(self):
        include_graph = self.report["include_graph"]
        self.assertEqual(include_graph["cycles"],
                         ["query/a.h -> query/b.h -> query/a.h"])
        lock = self.report["lock_graph"]
        self.assertEqual(lock["cycle"],
                         ["Pair::a_", "Pair::b_", "Pair::a_"])
        # The justified lock-order suppression drops the edge from the graph
        # but records it for audit.
        sup = lock["suppressed_edges"]
        self.assertEqual(len(sup), 1, sup)
        self.assertEqual((sup[0]["from"], sup[0]["to"]),
                         ("Quiet::c_", "Quiet::d_"))
        self.assertNotIn("Quiet::c_", [e["from"] for e in lock["edges"]])

    def test_check_schema_runs_only_telemetry(self):
        proc, findings = run_analyzer("--check-schema")
        self.assertEqual(proc.returncode, 1)
        self.assertTrue(all(r == "telemetry" for _, _, r, _ in findings),
                        proc.stdout)

    def test_deleting_catalog_entry_fails(self):
        # Acceptance check from the analyzer's contract: removing a
        # registered series from the catalog must fail --check-schema.
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            for sub in ("tools", "src"):
                dst = tmp / sub
                dst.mkdir()
                for p in sorted((FIXTURE / sub).rglob("*")):
                    if p.is_file():
                        target = dst / p.relative_to(FIXTURE / sub)
                        target.parent.mkdir(parents=True, exist_ok=True)
                        target.write_text(p.read_text())
            schema_path = tmp / "tools" / "metrics_schema.json"
            schema = json.loads(schema_path.read_text())
            schema["catalog"]["counters"].remove("good.counter")
            schema_path.write_text(json.dumps(schema))
            proc, findings = run_analyzer("--check-schema", root=tmp)
            self.assertEqual(proc.returncode, 1)
            self.assertTrue(any("good.counter" in m
                                for _, _, _, m in findings), proc.stdout)

    def test_repo_is_clean(self):
        proc, findings = run_analyzer(root=ROOT)
        self.assertEqual(proc.returncode, 0,
                         proc.stdout + proc.stderr)
        self.assertEqual(findings, [])


if __name__ == "__main__":
    unittest.main()
