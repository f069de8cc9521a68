"""Tests of the benchmark's own logic: the declared metrics and workloads
obey the benchmark file format, and the runner's aggregation and
traced-run comparison behave as documented.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import unittest

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SpecTest(unittest.TestCase):
    def test_names_and_units_use_the_allowed_alphabet(self):
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for m in spec[group]:
                self.assertTrue(NAME.fullmatch(m["name"]), m["name"])
                self.assertTrue(UNIT.fullmatch(m["unit"]), m["unit"])
                self.assertIn(m["better"], ("lower", "higher"))
                names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "a name is used twice")

    def test_bounds_and_setup_metric(self):
        spec = load_spec()
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()), bounds)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_workload_reasons_are_single_short_lines(self):
        for w in load_spec()["workloads"]:
            self.assertTrue(NAME.fullmatch(w["name"]), w["name"])
            self.assertLessEqual(len(w["why"]), 200, w["name"])
            self.assertNotIn("\n", w["why"])


class DriverTest(unittest.TestCase):
    def test_per_input_picks_within_inputs_then_averages(self):
        reps = {
            1: [{"a": 3.0, "b": 1.0}, {"a": 1.0, "b": 2.0}],
            2: [{"a": 5.0, "b": 9.0}, {"a": 7.0, "b": 8.0}, {"a": 9.0, "b": 4.0}],
        }
        self.assertEqual(run.per_input(reps, ["a", "b"], min), {"a": 3.0, "b": 2.5})
        self.assertEqual(
            run.per_input(reps, ["a"], run.statistics.median), {"a": (2.0 + 7.0) / 2}
        )

    def test_times_scale_by_the_fastest_reference_run(self):
        values = {"wall_s": 3.0, "setup_s": 1.0, "run_s": 2.0, "peak_rss_mb": 50.0}
        slow = [run.REFERENCE_S * f for f in (2.0, 1.5, 1.6)]
        self.assertEqual(
            run.scaled(values, slow),
            {"wall_s": 2.0, "setup_s": 1.0 / 1.5, "run_s": 2.0 / 1.5, "peak_rss_mb": 50.0},
        )
        self.assertEqual(run.scaled(values, [run.REFERENCE_S]), values)

    def test_traced_run_must_match_untraced_simulation(self):
        a = {"events": 10, "pkts_sent": 4, "digest": "00ff", "wall_s": 1.0}
        self.assertTrue(run.same_simulation(a, dict(a, wall_s=2.0)))
        for key, other in (("events", 11), ("pkts_sent", 5), ("digest", "00fe")):
            self.assertFalse(run.same_simulation(a, dict(a, **{key: other})), key)


if __name__ == "__main__":
    unittest.main()
