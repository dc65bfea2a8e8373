"""Tests of the perfbench statistics helper (benchstats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import tempfile
import unittest

import benchstats
from benchstats import Metric, Span


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond_the_reported_value(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted input
        value, pct = benchstats.tail(values)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertAlmostEqual(pct, 90.0)

    def test_smallest_sample_count_with_a_tail(self):
        value, pct = benchstats.tail(range(11))
        self.assertEqual(value, 0)
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_too_few_samples_fall_back_to_the_maximum(self):
        self.assertEqual(benchstats.tail([3, 1, 2]), (3, 100.0))

    def test_percentile_rises_with_sample_count(self):
        _, p200 = benchstats.tail(range(200))
        _, p1000 = benchstats.tail(range(1000))
        self.assertAlmostEqual(p200, 95.0)
        self.assertAlmostEqual(p1000, 99.0)

    def test_blocked_tail_is_the_median_of_block_tails(self):
        # Three blocks of 100; one stall sample in the last block only.
        values = list(range(100)) + list(range(100, 200)) + list(range(200, 299)) + [10_000]
        value, pct, blocks = benchstats.blocked_tail(values, block=100)
        self.assertEqual(blocks, 3)
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(value, 189)  # block tails 89, 189, 289: the stall moves none
        # A partial trailing block is left out.
        self.assertEqual(benchstats.blocked_tail(values + [5] * 50, block=100)[2], 3)

    def test_blocked_tail_of_a_short_run_is_the_plain_rule(self):
        self.assertEqual(benchstats.blocked_tail(range(150), block=100),
                         benchstats.tail(range(150)) + (1,))

    def test_floor_is_the_mean_of_the_fastest_share(self):
        values = list(range(1000, 0, -1))  # 1..1000, unsorted input
        self.assertAlmostEqual(benchstats.floor(values), 5.5)  # mean of 1..10
        self.assertAlmostEqual(benchstats.floor(values, share=0.05), 25.5)

    def test_floor_of_a_short_run_takes_at_least_three_samples(self):
        self.assertAlmostEqual(benchstats.floor([9.0, 1.0, 5.0, 3.0, 7.0]), 3.0)
        self.assertEqual(benchstats.floor([7.5, 8.5]), 8.0)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.tail([])
        with self.assertRaises(ValueError):
            benchstats.median([])
        with self.assertRaises(ValueError):
            benchstats.floor([])


class MetricRecord(unittest.TestCase):
    def test_json_form_carries_value_and_unit(self):
        m = Metric("job_p50_ms", 1.25, "ms", 40)
        self.assertEqual(m.as_json(), {"value": 1.25, "unit": "ms"})
        self.assertEqual(m.n, 40)

    def test_record_form_carries_sample_count_and_note(self):
        self.assertEqual(Metric("job_tail_ms", 3.5, "ms", 400, "p97.5").record(),
                         {"name": "job_tail_ms", "value": 3.5, "unit": "ms", "n": 400,
                          "note": "p97.5"})
        self.assertNotIn("note", Metric("setup_s", 0.1, "s", 21).record())


def span(name, sid, parent, start, end, tid=1, **args):
    return Span(name, sid, parent, tid, float(start), float(end), args)


class SelfTime(unittest.TestCase):
    def test_nested_children_are_subtracted_once(self):
        spans = [
            span("job", 1, 0, 0, 100),
            span("parse", 2, 1, 0, 10),
            span("run", 3, 1, 20, 90),
            span("lu", 4, 3, 30, 60),  # grandchild: counted against run only
        ]
        selfs = benchstats.self_times(spans)
        self.assertAlmostEqual(selfs[1], 100 - 10 - 70)
        self.assertAlmostEqual(selfs[3], 70 - 30)
        self.assertAlmostEqual(selfs[4], 30)

    def test_overlapping_worker_children_count_their_union(self):
        # A sweep span whose points run on two worker threads at once.
        spans = [
            span("sweep.run", 1, 0, 0, 100, tid=1),
            span("point", 2, 1, 10, 50, tid=2),
            span("point", 3, 1, 30, 70, tid=3),
            span("point", 4, 1, 90, 120, tid=2),  # runs past the parent's end
        ]
        selfs = benchstats.self_times(spans)
        self.assertAlmostEqual(selfs[1], 100 - (70 - 10) - (100 - 90))

    def test_union_length(self):
        self.assertAlmostEqual(benchstats.union_length([(0, 5), (3, 8), (10, 12)]), 10)
        self.assertAlmostEqual(benchstats.union_length([(4, 4), (6, 2)]), 0)

    def test_layer_table_shares_sum_to_one(self):
        spans = [span("job", 1, 0, 0, 100), span("parse", 2, 1, 0, 25)]
        table = {r["name"]: r for r in benchstats.layer_table(spans)}
        self.assertAlmostEqual(table["job"]["self_ms"], 0.075)
        self.assertAlmostEqual(table["parse"]["share"], 0.25)
        self.assertAlmostEqual(sum(r["share"] for r in table.values()), 1.0)


class ChromeTrace(unittest.TestCase):
    def test_round_trip_of_ids_parents_and_args(self):
        doc = {
            "otherData": {"seed": "7"},
            "traceEvents": [
                {"name": "job", "ph": "X", "pid": 1, "tid": 1, "ts": 5.0, "dur": 10.0,
                 "args": {"id": 1, "parent": 0}},
                {"name": "engine.run_op", "ph": "X", "pid": 1, "tid": 1, "ts": 6.0,
                 "dur": 2.0, "args": {"id": 2, "parent": 1, "newton_iters": 3}},
            ],
        }
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            spans, other = benchstats.load_chrome_trace(path)
        self.assertEqual(other, {"seed": "7"})
        self.assertEqual([(s.id, s.parent) for s in spans], [(1, 0), (2, 1)])
        self.assertEqual(spans[1].args, {"newton_iters": 3})
        self.assertAlmostEqual(spans[0].dur, 10.0)


if __name__ == "__main__":
    unittest.main()
