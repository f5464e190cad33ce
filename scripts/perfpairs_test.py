"""Unit tests of perfpairs' verdict, on synthetic results with no runs.

Run from the repository root:

    python3 -m unittest discover -s scripts -p '*_test.py'
"""

import unittest

import perfpairs

OPS = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
P50 = {"name": "op_p50_ms", "better": "lower", "bound": 0.25}


def runs(name, *vals):
    """One synthetic perfbench result per value, carrying only that metric."""
    return [{"correct": True, "failed": 0, "metrics": {name: {"value": v}}} for v in vals]


class VerdictTest(unittest.TestCase):
    def test_higher_is_better_30_percent_worse_regresses(self):
        r = perfpairs.compare(OPS, runs("ops_per_s", *[100.0] * 5), runs("ops_per_s", *[70.0] * 5))
        self.assertTrue(r["regressed"])
        self.assertAlmostEqual(r["worse_by"], 30.0)
        self.assertEqual(r["wins"], 0)
        self.assertIn("| REGRESSED |", perfpairs.table("w", [r]))

    def test_change_inside_bound_is_ok(self):
        r = perfpairs.compare(P50, runs("op_p50_ms", *[100.0] * 5), runs("op_p50_ms", *[110.0] * 5))
        self.assertFalse(r["regressed"])
        self.assertIn("| ok |", perfpairs.table("w", [r]))

    def test_past_bound_but_inside_parent_iqr_is_ok(self):
        # Parent median 100 with quartiles 80 and 120: the IQR of 40 is wider
        # than the 25% bound, so a median 30 worse is within the parent's own
        # spread.
        before = runs("op_p50_ms", 60.0, 80.0, 100.0, 120.0, 140.0)
        r = perfpairs.compare(P50, before, runs("op_p50_ms", *[130.0] * 5))
        self.assertAlmostEqual(r["worse_by"], 30.0)
        self.assertFalse(r["regressed"])
        # The same change against a tight parent regresses.
        r = perfpairs.compare(P50, runs("op_p50_ms", *[100.0] * 5), runs("op_p50_ms", *[130.0] * 5))
        self.assertTrue(r["regressed"])

    def test_improvement_is_ok(self):
        r = perfpairs.compare(OPS, runs("ops_per_s", *[100.0] * 5), runs("ops_per_s", *[200.0] * 5))
        self.assertFalse(r["regressed"])
        self.assertLess(r["worse_by"], 0)
        self.assertEqual(r["wins"], 5)

    def test_metric_missing_on_one_side_is_an_error(self):
        before = runs("op_p50_ms", *[100.0] * 3)
        after = runs("op_p50_ms", *[100.0] * 3)
        del after[1]["metrics"]["op_p50_ms"]
        with self.assertRaises(ValueError):
            perfpairs.compare(P50, before, after)
        with self.assertRaises(ValueError):
            perfpairs.compare(P50, runs("other", 1.0, 2.0), runs("op_p50_ms", 1.0, 2.0))


if __name__ == "__main__":
    unittest.main()
