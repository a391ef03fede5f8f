"""Tests of the spread rule perfbench/spread.py applies to repeated runs.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

from spread import seeds, spread


class SpreadTest(unittest.TestCase):
    def test_quartiles_follow_statistics_quantiles(self):
        # statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        self.assertAlmostEqual(spread(list(range(1, 11))), (8.25 - 2.75) / 5.5)

    def test_spread_is_scale_free_and_zero_when_steady(self):
        values = [9.8, 10.1, 10.0, 9.9, 10.2]
        self.assertAlmostEqual(spread(values), spread([3 * v for v in values]))
        self.assertEqual(spread([4.0] * 10), 0.0)

    def test_a_zero_median_has_no_finite_spread(self):
        self.assertEqual(spread([0.0, 0.0, 0.0]), float("inf"))

    def test_seed_ranges(self):
        self.assertEqual(list(seeds("1-10")), list(range(1, 11)))
        self.assertEqual(list(seeds("7")), [7])


if __name__ == "__main__":
    unittest.main()
