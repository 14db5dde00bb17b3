"""Self-tests of the benchmark's own checks.

Run from the root of a checkout::

    python3 perfbench/selftest.py

The last test drives one real ``sweep-tiny`` repetition (a few
seconds) to show that a tampered pinned fingerprint or tampered output
fails the output check.
"""

import json
import os
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

ROOT = os.getcwd()


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r") as handle:
        return json.load(handle)


class NameTests(unittest.TestCase):
    def test_benchmark_names_match_pattern(self):
        spec = _benchmark_json()
        names = [item["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for item in spec[key]]
        self.assertEqual(checks.bad_names(names), [])
        self.assertEqual(len(names), len(set(names)))

    def test_bad_names_are_caught(self):
        self.assertEqual(checks.bad_names(["ok.name-1", "bad name", "x/y"]),
                         ["bad name", "x/y"])

    def test_benchmark_lists_what_run_reports(self):
        spec = _benchmark_json()
        driven = [w["name"] for w in spec["workloads"]]
        self.assertEqual(driven, [w for w in run.WORKLOADS if w in driven])
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            run.END_TO_END_UNITS,
        )
        reported = run.layer_metrics({}, {"counts": {}}, [], {}, None, workers=2)
        reported["trace.overhead_ratio"] = (1.0, "ratio")
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            {name: unit for name, (_, unit) in reported.items()},
        )
        self.assertEqual(checks.bad_names(reported), [])


class LedgerTests(unittest.TestCase):
    def test_rows_sum_to_traced_wall(self):
        started = time.perf_counter()
        tracer = layers.Tracer(started)
        inner = tracer.wrap("inner", lambda: time.sleep(0.02))

        def outer_body():
            time.sleep(0.01)
            inner()
            inner()

        outer = tracer.wrap("outer", outer_body)

        def numbers():
            for value in range(3):
                time.sleep(0.005)
                yield value

        traced_numbers = tracer.wrap_iter("gen", numbers)
        outer()
        tracer.set_phase("second")
        self.assertEqual(list(traced_numbers()), [0, 1, 2])
        time.sleep(0.01)
        wall = tracer.finish()
        rows = tracer.ledger_rows()
        by_name = {(row["phase"], row["name"]): row for row in rows}
        self.assertAlmostEqual(
            sum(row["self_s"] for row in rows), wall, delta=1e-6
        )
        outer_row = by_name[("setup", "outer")]
        inner_row = by_name[("setup", "inner")]
        self.assertEqual(inner_row["calls"], 2)
        self.assertAlmostEqual(
            outer_row["self_s"],
            outer_row["total_s"] - inner_row["total_s"],
            delta=1e-9,
        )
        self.assertGreaterEqual(inner_row["self_s"], 0.04)
        self.assertEqual(by_name[("second", "gen")]["calls"], 4)
        self.assertGreaterEqual(
            by_name[("second", layers.UNATTRIBUTED)]["self_s"], 0.01
        )
        gap, allowed = checks.ledger_gap(rows, wall)
        self.assertLessEqual(abs(gap), allowed)

    def test_span_open_across_a_phase_switch(self):
        tracer = layers.Tracer(time.perf_counter())

        def straddle():
            time.sleep(0.02)
            tracer.set_phase("later")
            time.sleep(0.02)

        tracer.wrap("straddle", straddle)()
        wall = tracer.finish()
        rows = tracer.ledger_rows()
        self.assertAlmostEqual(
            sum(row["self_s"] for row in rows), wall, delta=1e-6
        )
        for phase, (phase_wall, covered) in tracer.phases.items():
            self.assertGreaterEqual(covered, 0.015, phase)
            self.assertLessEqual(covered, phase_wall, phase)
        self.assertEqual([row["phase"] for row in rows if row["name"] == "straddle"],
                         ["setup"])

    def test_gap_beyond_tolerance_is_reported(self):
        rows = [{"self_s": 10.0}]
        gap, allowed = checks.ledger_gap(rows, 12.0)
        self.assertGreater(abs(gap), allowed)


class OutputCheckTests(unittest.TestCase):
    def test_tampered_pin_fails(self):
        pinned = {"mar20-day": {"tables": "a" * 64}}
        self.assertIsNone(
            checks.pinned_mismatch(pinned, "mar20-day", "tables", "a" * 64)
        )
        self.assertIsNotNone(
            checks.pinned_mismatch(pinned, "mar20-day", "tables", "b" * 64)
        )

    def test_replay_ignores_only_beacon_shares(self):
        live = {"table2": {"beacon_shares": {"x": 1}, "full_shares": 1}}
        replay = {"table2": {"beacon_shares": {}, "full_shares": 1}}
        self.assertEqual(checks.replay_mismatches(replay, live), [])
        replay["table2"]["full_shares"] = 2
        self.assertEqual(
            checks.replay_mismatches(replay, live), ["table2.full_shares"]
        )

    def test_real_sweep_rep_and_tampering(self):
        bench = run.Bench(ROOT, "sweep-tiny", 0)
        bench.prepare()
        report = bench.run_rep(bench.run_config())
        self.assertEqual(bench.examine(report)["problems"], [])

        bench.pinned = json.loads(json.dumps(bench.pinned))
        real = bench.pinned["sweep-tiny"]["sweep_json"]
        bench.pinned["sweep-tiny"]["sweep_json"] = real[::-1]
        outcome = bench.examine(report)
        self.assertTrue(outcome["problems"])
        self.assertEqual(outcome["failed"], outcome["attempted"])

        bench.pinned["sweep-tiny"]["sweep_json"] = real
        tampered = dict(report, stdout=report["stdout"].replace(b"1", b"2", 1))
        self.assertTrue(bench.examine(tampered)["problems"])


if __name__ == "__main__":
    unittest.main()
