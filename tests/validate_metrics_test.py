"""Self-test for tools/validate_metrics.py against the
tools/testdata/metrics/ fixtures (docs/observability.md).

good_snapshot.json must validate; bad_snapshot.json carries histogram rows
whose quantiles are out of order (p95 above max, p50 above p90) and must be
rejected with one error per row. Both run against schema.json, which
requires no series, so only the structural checks are exercised.

Run directly (python3 tests/validate_metrics_test.py) or through ctest
(validate_metrics_selftest).
"""

import pathlib
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
VALIDATE = ROOT / "tools" / "validate_metrics.py"
FIXTURES = ROOT / "tools" / "testdata" / "metrics"


def run_validate(snapshot: str):
    return subprocess.run(
        [sys.executable, str(VALIDATE), str(FIXTURES / snapshot),
         "--schema", str(FIXTURES / "schema.json")],
        capture_output=True, text=True)


class ValidateMetricsSelfTest(unittest.TestCase):
    def test_ordered_quantiles_pass(self):
        proc = run_validate("good_snapshot.json")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_quantile_above_max_or_out_of_order_fails(self):
        proc = run_validate("bad_snapshot.json")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        errors = [l for l in proc.stdout.splitlines() if l.startswith("error:")]
        self.assertEqual(len(errors), 2, proc.stdout)
        self.assertIn("p95 0.0975 exceeds max 0.0731", errors[0])
        self.assertIn("p50 0.00015 exceeds p90 0.0001", errors[1])


if __name__ == "__main__":
    unittest.main()
