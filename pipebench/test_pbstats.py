"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s pipebench -p 'test_*.py'
"""

import unittest

import pbstats


class WeightedPercentileTest(unittest.TestCase):
    def test_each_decision_carries_its_poll_latency(self):
        # 10 decisions at 1 ms, 80 at 2 ms, 10 at 9 ms.
        samples = [(2.0, 80), (9.0, 10), (1.0, 10)]
        self.assertEqual(pbstats.weighted_percentile(samples, 0.50),
                         (2.0, 1))
        self.assertEqual(pbstats.weighted_percentile(samples, 0.90),
                         (2.0, 1))
        self.assertEqual(pbstats.weighted_percentile(samples, 0.95),
                         (9.0, 0))

    def test_zero_weight_polls_are_ignored(self):
        samples = [(100.0, 0), (1.0, 3), (2.0, 1)]
        self.assertEqual(pbstats.weighted_percentile(samples, 0.75),
                         (1.0, 1))
        self.assertEqual(pbstats.weighted_percentile(samples, 1.0),
                         (2.0, 0))

    def test_polls_beyond_counts_polls_not_decisions(self):
        samples = [(float(i), 1) for i in range(1, 201)]
        value, beyond = pbstats.weighted_percentile(samples, 0.95)
        self.assertEqual(value, 190.0)
        self.assertEqual(beyond, 10)
        heavy = samples + [(500.0, 1000)]
        value, beyond = pbstats.weighted_percentile(heavy, 0.5)
        self.assertEqual((value, beyond), (500.0, 0))

    def test_replay_percentile_summarises_each_poll(self):
        # Three polls of 5, 5 and 1 decisions, replayed four times;
        # interference hits a different poll in each replay.
        replays = [[(1.0, 5), (2.0, 5), (3.0, 1)],
                   [(9.0, 5), (2.0, 5), (3.0, 1)],
                   [(1.0, 5), (8.0, 5), (3.0, 1)],
                   [(1.0, 5), (2.0, 5), (7.0, 1)]]
        self.assertEqual(pbstats.replay_percentile(replays, 0.4), (1.0, 2))
        self.assertEqual(pbstats.replay_percentile(replays, 0.5), (2.0, 1))
        self.assertEqual(pbstats.replay_percentile(replays, 1.0), (3.0, 0))

    def test_replay_percentile_rejects_replays_that_differ(self):
        with self.assertRaises(ValueError):
            pbstats.replay_percentile([[(1.0, 5)], [(1.0, 5), (2.0, 1)]],
                                      0.5)
        with self.assertRaises(ValueError):
            pbstats.replay_percentile([[(1.0, 5)], [(1.0, 4)]], 0.5)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            pbstats.weighted_percentile([(1.0, 0)], 0.5)
        with self.assertRaises(ValueError):
            pbstats.weighted_percentile([(1.0, 1)], 0.0)


class FastHalfMedianTest(unittest.TestCase):
    def test_drops_the_slower_half(self):
        self.assertEqual(pbstats.fast_half_median([9.0, 1.0, 3.0, 2.0]), 1.5)
        # Odd count: the middle value belongs to the faster half.
        self.assertEqual(pbstats.fast_half_median([5.0, 1.0, 3.0]), 2.0)
        self.assertEqual(pbstats.fast_half_median([4.0]), 4.0)

    def test_rejects_empty(self):
        with self.assertRaises(ValueError):
            pbstats.fast_half_median([])


class IqrShareTest(unittest.TestCase):
    def test_iqr_share(self):
        # Exclusive method on 1..9: q1 = 2.5, median = 5, q3 = 7.5.
        values = [float(v) for v in range(1, 10)]
        self.assertAlmostEqual(pbstats.iqr_share(values), 1.0)
        # On ten values: q1 = 2.75, median = 5.5, q3 = 8.25.
        self.assertAlmostEqual(
            pbstats.iqr_share([float(v) for v in range(10, 0, -1)]), 1.0)
        self.assertEqual(pbstats.iqr_share([2.0] * 5), 0.0)


class BoundTest(unittest.TestCase):
    def test_lower_is_better(self):
        share, ok = pbstats.within_bound([10, 10, 10], [11, 11, 12],
                                         "lower", 0.1)
        self.assertAlmostEqual(share, 0.1)
        self.assertTrue(ok)
        share, ok = pbstats.within_bound([10, 10, 10], [12, 12, 12],
                                         "lower", 0.1)
        self.assertAlmostEqual(share, 0.2)
        self.assertFalse(ok)

    def test_higher_is_better(self):
        share, ok = pbstats.within_bound([100, 100], [80, 80], "higher",
                                         0.1)
        self.assertAlmostEqual(share, 0.2)
        self.assertFalse(ok)
        share, ok = pbstats.within_bound([100, 100], [130, 130], "higher",
                                         0.1)
        self.assertAlmostEqual(share, -0.3)
        self.assertTrue(ok)

    def test_unknown_direction(self):
        with self.assertRaises(ValueError):
            pbstats.worse_share(1.0, 2.0, "sideways")


def span(i, parent, start, end):
    return {"id": i, "parent": parent, "start_ns": start, "end_ns": end}


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            span(0, -1, 0, 100),   # job
            span(1, 0, 10, 40),    # stage
            span(2, 1, 15, 25),    # sub-stage of 1
            span(3, 1, 30, 35),
            span(4, 0, 50, 90),    # stage
        ]
        selfs = pbstats.self_times(spans)
        self.assertEqual(selfs, {0: 30, 1: 15, 2: 10, 3: 5, 4: 40})
        # Self times of a tree add up to the root's duration.
        self.assertEqual(sum(selfs.values()), 100)

    def test_overlapping_children_count_once(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 60),
                 span(2, 0, 40, 80), span(3, 0, 90, 120)]
        self.assertEqual(pbstats.self_times(spans)[0], 100 - 70 - 10)

    def test_subtree(self):
        spans = [span(0, -1, 0, 10), span(1, 0, 0, 5), span(2, 1, 1, 2),
                 span(3, -1, 20, 30)]
        self.assertEqual(sorted(pbstats.subtree(spans, 0)), [0, 1, 2])


if __name__ == "__main__":
    unittest.main()
