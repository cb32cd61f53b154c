"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import ledger


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_picks_an_observed_value(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(ledger.nearest_rank(values, 50), 3)
        self.assertEqual(ledger.nearest_rank(values, 20), 1)
        self.assertEqual(ledger.nearest_rank(values, 21), 2)
        self.assertEqual(ledger.nearest_rank(values, 100), 5)
        self.assertEqual(ledger.nearest_rank(values, 0), 1)

    def test_nearest_rank_of_hundred(self):
        values = list(range(1, 101))
        self.assertEqual(ledger.nearest_rank(values, 90), 90)
        self.assertEqual(ledger.nearest_rank(values, 99), 99)

    def test_failures_sort_last(self):
        values = [1.0, math.inf, 2.0, 3.0]
        self.assertEqual(ledger.nearest_rank(values, 50), 2.0)
        self.assertEqual(ledger.nearest_rank(values, 100), math.inf)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            ledger.nearest_rank([], 50)

    def test_ten_beyond_rule(self):
        self.assertEqual(ledger.samples_beyond(100, 90), 10)
        self.assertEqual(ledger.samples_beyond(100, 99), 1)
        # 100 samples support p90 but not p95; 1000 support p99.
        self.assertEqual(ledger.tail_percentile(100), 90)
        self.assertEqual(ledger.tail_percentile(199), 90)
        self.assertEqual(ledger.tail_percentile(200), 95)
        self.assertEqual(ledger.tail_percentile(1000), 99)
        self.assertEqual(ledger.tail_percentile(10000), 99.9)
        # Fewer than 40 samples support no tail beyond the median.
        self.assertIsNone(ledger.tail_percentile(39))
        self.assertEqual(ledger.tail_percentile(40), 75)

    def test_summary_reports_sample_count(self):
        s = ledger.latency_summary([float(i) for i in range(1, 201)])
        self.assertEqual(s["n"], 200)
        self.assertEqual(s["p50"], 100.0)
        self.assertEqual(s["tail_p"], 95)
        self.assertEqual(s["tail"], 190.0)
        self.assertIsNone(ledger.latency_summary([1.0, 2.0])["tail_p"])


class SpanTimesTest(unittest.TestCase):
    @staticmethod
    def span(sid, parent, start, end):
        return {"id": sid, "parent": parent, "start_ns": start, "end_ns": end}

    def test_leaf_self_time_is_its_wall_time(self):
        t = ledger.span_times([self.span(0, -1, 10, 30)])
        self.assertEqual(t[0], {"wall_ns": 20, "child_ns": 0, "self_ns": 20})

    def test_sequential_children(self):
        spans = [self.span(0, -1, 0, 100), self.span(1, 0, 10, 30),
                 self.span(2, 0, 40, 90), self.span(3, 2, 50, 60)]
        t = ledger.span_times(spans)
        self.assertEqual(t[0]["child_ns"], 70)
        self.assertEqual(t[0]["self_ns"], 30)
        # Grandchildren count only against their own parent.
        self.assertEqual(t[2]["child_ns"], 10)
        self.assertEqual(t[2]["self_ns"], 40)

    def test_children_in_pool_workers_overlap_and_count_once(self):
        # Four workers run children concurrently: summing them (160) would
        # exceed the parent's wall time (100).
        spans = [self.span(0, -1, 0, 100)]
        spans += [self.span(i, 0, 20, 60) for i in range(1, 5)]
        spans.append(self.span(5, 0, 50, 80))
        t = ledger.span_times(spans)
        self.assertEqual(t[0]["child_ns"], 60)
        self.assertEqual(t[0]["self_ns"], 40)
        for v in t.values():
            self.assertEqual(v["wall_ns"], v["self_ns"] + v["child_ns"])

    def test_child_outliving_parent_is_clipped(self):
        spans = [self.span(0, -1, 0, 50), self.span(1, 0, 40, 70),
                 self.span(2, 0, 60, 80)]
        t = ledger.span_times(spans)
        self.assertEqual(t[0]["child_ns"], 10)
        self.assertEqual(t[0]["self_ns"], 40)


class OpenLoopTest(unittest.TestCase):
    def test_scripted_schedule(self):
        # Due every 100 ms. The second request waits 50 ms for a free
        # connection, the third is never answered, the fourth is wrong.
        records = [
            {"due": 0.0, "sent": 0.0, "done": 0.020, "ok": True},
            {"due": 0.1, "sent": 0.15, "done": 0.19, "ok": True},
            {"due": 0.2, "sent": 0.2, "done": None, "ok": False},
            {"due": 0.3, "sent": 0.3, "done": 0.31, "ok": False},
            {"due": 0.4, "sent": 0.401, "done": 0.5, "ok": True},
        ]
        r = ledger.open_loop(records, limit_ms=60.0)
        self.assertEqual(r["offered"], 5)
        # Within 60 ms of due: only the first. The second took 40 ms once
        # sent but 90 ms from its due time.
        self.assertAlmostEqual(r["goodput_frac"], 0.2)
        self.assertAlmostEqual(r["lateness_p99_ms"], 50.0)
        self.assertEqual(r["latency"]["n"], 5)
        self.assertAlmostEqual(r["latency"]["p50"], 100.0)
        self.assertEqual(ledger.nearest_rank([20, 90, math.inf, math.inf,
                                              100], 80), math.inf)

    def test_all_on_time(self):
        records = [{"due": i * 0.01, "sent": i * 0.01, "done": i * 0.01 + 0.005,
                    "ok": True} for i in range(50)]
        r = ledger.open_loop(records, limit_ms=10.0)
        self.assertEqual(r["goodput_frac"], 1.0)
        self.assertAlmostEqual(r["latency"]["p50"], 5.0)
        self.assertEqual(r["latency"]["tail_p"], 80)
        self.assertAlmostEqual(r["lateness_p99_ms"], 0.0)


if __name__ == "__main__":
    unittest.main()
