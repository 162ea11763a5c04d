"""Tests of run.py's check of the parsed report.

Run from the repository root: python3 -m unittest perfbench/test_run.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC = {
    "end_to_end": [{"name": "read_p50_ms", "unit": "ms", "better": "lower",
                    "bound": 0.2}],
    "per_layer": [{"name": "join.exec_ms.p50", "unit": "ms",
                   "better": "lower"}],
}


def report(metrics, **overrides):
    out = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    out.update(overrides)
    return out


class ValidateTest(unittest.TestCase):
    def test_selects_the_metrics_of_the_mode(self):
        metrics = {"read_p50_ms": {"value": 1.25, "unit": "ms"},
                   "join.exec_ms.p50": {"value": 0.5, "unit": "ms"}}
        self.assertEqual(run.validate(report(metrics), SPEC, False),
                         {"read_p50_ms": {"value": 1.25, "unit": "ms"}})
        self.assertEqual(run.validate(report(metrics), SPEC, True),
                         {"join.exec_ms.p50": {"value": 0.5, "unit": "ms"}})

    def test_rejects_missing_metric(self):
        with self.assertRaises(SystemExit):
            run.validate(report({}), SPEC, False)

    def test_rejects_wrong_unit(self):
        metrics = {"read_p50_ms": {"value": 1.0, "unit": "s"}}
        with self.assertRaises(SystemExit):
            run.validate(report(metrics), SPEC, False)

    def test_rejects_non_finite_or_missing_value(self):
        for value in (None, float("nan"), float("inf"), True, "1"):
            metrics = {"read_p50_ms": {"value": value, "unit": "ms"}}
            with self.assertRaises(SystemExit, msg=repr(value)):
                run.validate(report(metrics), SPEC, False)

    def test_rejects_bad_counts(self):
        metrics = {"read_p50_ms": {"value": 1.0, "unit": "ms"}}
        for bad in ({"attempted": 0}, {"failed": 1.5}, {"correct": "yes"}):
            with self.assertRaises(SystemExit, msg=repr(bad)):
                run.validate(report(metrics, **bad), SPEC, False)


if __name__ == "__main__":
    unittest.main()
