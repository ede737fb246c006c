"""Tests of render_md.py (run by `python3 perfbench/run.py --test`)."""

import unittest

import render_md


def record(workload, **metrics):
    return {"workload": workload, "seed": 1, "trace": 0,
            "result": {"correct": True, "attempted": 1, "failed": 0,
                       "metrics": {name: {"value": value, "unit": "ms"}
                                   for name, value in metrics.items()}}}


class RenderTest(unittest.TestCase):
    def test_medians_and_quartiles_per_side(self):
        parent = render_md.group([record("w", lat=v) for v in (1, 2, 3, 4, 5)])
        change = render_md.group([record("w", lat=v) for v in (2, 3, 4)])
        table = render_md.render(parent, change)
        row = table.splitlines()[2]
        self.assertIn("| w | lat | ms |", row)
        self.assertIn("3 [1.5, 4.5]", row)
        self.assertIn("3 [2, 4]", row)
        self.assertIn("+0.0%", row)

    def test_bound_exceeded_follows_direction(self):
        bounds = render_md.bounds_of({
            "end_to_end": [{"name": "lat", "unit": "ms", "better": "lower",
                            "bound": 0.1},
                           {"name": "rate", "unit": "1/s", "better": "higher",
                            "bound": 0.1}]})
        parent = render_md.group([record("w", lat=10, rate=100)])
        slower = render_md.group([record("w", lat=12, rate=80)])
        faster = render_md.group([record("w", lat=8, rate=120)])
        worse = render_md.render(parent, slower, bounds)
        better = render_md.render(parent, faster, bounds)
        self.assertEqual(worse.count("**exceeded**"), 2)
        self.assertNotIn("exceeded", better)

    def test_metric_on_one_side_only(self):
        parent = render_md.group([record("w", old=1)])
        change = render_md.group([record("w", new=2)])
        table = render_md.render(parent, change)
        self.assertIn("| w | new | ms |  | 2 [2, 2] |", table)
        self.assertIn("| w | old | ms | 1 [1, 1] |  |", table)


if __name__ == "__main__":
    unittest.main()
