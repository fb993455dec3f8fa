"""Unit tests for the benchmark's own arithmetic.

Run from the repository root:  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import metrics


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 90), 90)
        self.assertEqual(metrics.percentile([7.0], 99), 7.0)

    def test_samples_beyond(self):
        self.assertEqual(metrics.samples_beyond(100, 90), 10)
        self.assertEqual(metrics.samples_beyond(99, 90), 9)
        self.assertEqual(metrics.samples_beyond(20, 50), 10)

    def test_highest_supported_percentile(self):
        self.assertIsNone(metrics.highest_supported_percentile(19))
        self.assertEqual(metrics.highest_supported_percentile(20), 50.0)
        self.assertEqual(metrics.highest_supported_percentile(99), 50.0)
        self.assertEqual(metrics.highest_supported_percentile(100), 90.0)
        self.assertEqual(metrics.highest_supported_percentile(1000), 99.0)
        self.assertEqual(metrics.highest_supported_percentile(10000), 99.9)

    def test_p90_needs_100_samples(self):
        self.assertIsNone(metrics.supported_percentile([1.0] * 99, 90))
        values = [float(v) for v in range(108)]
        self.assertEqual(metrics.supported_percentile(values, 90), 97.0)


class SelfTime(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(metrics.self_time((0, 10), []), 10)

    def test_disjoint_children(self):
        self.assertEqual(metrics.self_time((0, 10), [(1, 3), (5, 8)]), 5)

    def test_overlapping_children_count_once(self):
        # Two children on different threads overlap on [4, 6].
        self.assertEqual(metrics.self_time((0, 10), [(2, 6), (4, 9)]), 3)

    def test_nested_children_count_once(self):
        # A grandchild inside a child adds no coverage.
        self.assertEqual(metrics.self_time((0, 10), [(1, 9), (2, 4)]), 2)

    def test_children_clipped_to_parent(self):
        self.assertEqual(metrics.self_time((5, 10), [(0, 7), (9, 12)]), 2)

    def test_child_coverage(self):
        self.assertEqual(metrics.child_coverage((0, 100), [(0, 50), (25, 95)]), 95)


class Ratios(unittest.TestCase):
    def test_zero_denominator_is_none(self):
        # The channel-cache hit ratio of a synthetic workload: no lookups.
        hits, misses = 0, 0
        self.assertIsNone(metrics.ratio(hits, hits + misses))

    def test_ratio(self):
        self.assertEqual(metrics.ratio(3, 4), 0.75)
        self.assertEqual(metrics.ratio(0, 4), 0.0)

    def test_never_nan(self):
        result = metrics.ratio(0.0, 0.0)
        self.assertFalse(isinstance(result, float) and math.isnan(result))


class Median(unittest.TestCase):
    def test_median_of_empty_is_none(self):
        self.assertIsNone(metrics.median([]))

    def test_median(self):
        self.assertEqual(metrics.median([3.0, 1.0, 2.0]), 2.0)


if __name__ == "__main__":
    unittest.main()
