#!/usr/bin/env python3
"""The paired benchmark gate's decision rule (scripts/bench_pairs.py),
on synthetic per-pair results: nothing is built or run."""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "scripts"))
import bench_pairs  # noqa: E402

LOWER = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "refs_per_s", "unit": "refs/s", "better": "higher",
          "bound": 0.25}
SPEC = {"workloads": [{"name": "sweep"}, {"name": "serve"}],
        "end_to_end": [LOWER, HIGHER]}


def result(setup=1.0, rate=100.0, correct=True, failed=0, attempted=10):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"setup_s": {"value": setup, "unit": "s"},
                        "refs_per_s": {"value": rate, "unit": "refs/s"}}}


def results(pairs=3, **change):
    """Every workload, parent at the defaults, change as given."""
    return {w["name"]: {"parent": [result() for _ in range(pairs)],
                        "change": [result(**change) for _ in range(pairs)]}
            for w in SPEC["workloads"]}


class VerdictTest(unittest.TestCase):
    def test_lower_is_better_worse_than_bound_regresses(self):
        row = bench_pairs.verdict(LOWER, [1.0, 1.0, 1.02], [1.3, 1.3, 1.3])
        self.assertEqual(row["verdict"], "REGRESSION")
        self.assertEqual(row["wins"], 0)

    def test_higher_is_better_inside_bound_passes(self):
        row = bench_pairs.verdict(HIGHER, [100.0, 101.0, 99.0],
                                  [80.0, 81.0, 79.0])
        self.assertEqual(row["verdict"], "within bound")
        self.assertAlmostEqual(row["ratio"], 0.8)

    def test_parent_spread_wider_than_bound_is_unresolved(self):
        parent = [1.0, 2.0, 3.0, 4.0]
        row = bench_pairs.verdict(LOWER, parent, [4.0, 5.0, 6.0, 7.0])
        self.assertEqual(row["verdict"], "unresolved")
        rows, failures = bench_pairs.judge(
            {"workloads": [{"name": "sweep"}], "end_to_end": [LOWER]},
            {"sweep": {"parent": [result(setup=v) for v in parent],
                       "change": [result(setup=v + 3) for v in parent]}},
            4)
        self.assertEqual(rows[0]["verdict"], "unresolved")
        self.assertEqual(failures, [])

    def test_nine_of_ten_wins_past_the_parent_iqr_is_a_gain(self):
        parent = [100.0 + i for i in range(10)]
        change = [v + 10.0 for v in parent[:9]] + [parent[9] - 1.0]
        row = bench_pairs.verdict(HIGHER, parent, change)
        self.assertEqual(row["wins"], 9)
        self.assertEqual(row["verdict"], "gain")

    def test_eight_of_ten_wins_is_no_gain(self):
        parent = [100.0 + i for i in range(10)]
        change = ([v + 10.0 for v in parent[:8]] +
                  [v - 1.0 for v in parent[8:]])
        row = bench_pairs.verdict(HIGHER, parent, change)
        self.assertEqual(row["wins"], 8)
        self.assertEqual(row["verdict"], "within bound")

    def test_three_of_three_wins_is_too_few_pairs_for_a_gain(self):
        row = bench_pairs.verdict(HIGHER, [100.0, 101.0, 102.0],
                                  [120.0, 121.0, 122.0])
        self.assertEqual(row["wins"], 3)
        self.assertEqual(row["verdict"], "within bound")

    def test_nine_wins_inside_the_parent_iqr_is_no_gain(self):
        parent = [100.0 + i for i in range(10)]
        change = [v + 1.0 for v in parent[:9]] + [parent[9] - 1.0]
        row = bench_pairs.verdict(HIGHER, parent, change)
        self.assertEqual(row["wins"], 9)
        self.assertEqual(row["verdict"], "within bound")


class JudgeTest(unittest.TestCase):
    def test_clean_runs_pass(self):
        rows, failures = bench_pairs.judge(SPEC, results(), 3)
        self.assertEqual(failures, [])
        self.assertEqual(len(rows), 4)

    def test_regression_fails(self):
        _, failures = bench_pairs.judge(SPEC, results(rate=50.0), 3)
        self.assertEqual(failures, ["sweep: refs_per_s regressed",
                                    "serve: refs_per_s regressed"])

    def test_incorrect_run_fails(self):
        runs = results()
        runs["serve"]["change"][1] = result(correct=False)
        _, failures = bench_pairs.judge(SPEC, runs, 3)
        self.assertEqual(failures, ["serve: change pair 1 is not correct"])

    def test_higher_failed_share_fails(self):
        _, failures = bench_pairs.judge(SPEC, results(failed=1), 3)
        self.assertEqual(len(failures), 2)
        self.assertIn("sweep: change fails", failures[0])

    def test_equal_failed_share_passes(self):
        runs = results(failed=1)
        runs["sweep"]["parent"] = [result(failed=1) for _ in range(3)]
        runs["serve"]["parent"] = [result(failed=1) for _ in range(3)]
        self.assertEqual(bench_pairs.judge(SPEC, runs, 3)[1], [])

    def test_missing_workload_fails(self):
        runs = results()
        del runs["serve"]
        _, failures = bench_pairs.judge(SPEC, runs, 3)
        self.assertEqual(failures, ["serve: missing"])

    def test_crashed_or_missing_run_fails(self):
        runs = results()
        runs["sweep"]["parent"][0] = None
        runs["sweep"]["change"].pop()
        _, failures = bench_pairs.judge(SPEC, runs, 3)
        self.assertEqual(failures,
                         ["sweep: parent pair 0 crashed or is missing",
                          "sweep: change pair 2 crashed or is missing"])


if __name__ == "__main__":
    unittest.main()
