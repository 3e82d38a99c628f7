#!/usr/bin/env python3
"""Self-tests of the benchmark's pure parts: the tail-percentile rule, the
parsing of CLI output, failure accounting, and the consistency of
BENCHMARK.json with expectations.json.

Run from anywhere: `python3 perfbench/test_run.py`.
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


class TailLatency(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        # 200 samples: p99 leaves 2 beyond it, p95 leaves exactly 10.
        self.assertEqual(run.tail_latency(range(1, 201)), (95.0, 190))

    def test_steps_down_the_ladder(self):
        # 100 samples: p95 leaves 5 beyond, p90 leaves 10.
        self.assertEqual(run.tail_latency(range(1, 101)), (90.0, 90))
        # 1000 samples: p99 leaves 10 beyond.
        self.assertEqual(run.tail_latency(range(1, 1001)), (99.0, 990))

    def test_order_does_not_matter(self):
        samples = list(range(1, 201))
        self.assertEqual(run.tail_latency(reversed(samples)), run.tail_latency(samples))

    def test_short_runs_fall_back_to_the_median(self):
        self.assertEqual(run.tail_latency([3.0, 1.0, 2.0]), (50.0, 2.0))
        self.assertEqual(run.tail_latency([5.0]), (50.0, 5.0))
        # 20 samples is the smallest run whose p50 has ten beyond it.
        self.assertEqual(run.tail_latency(range(1, 21)), (50.0, 10))


class CliParsing(unittest.TestCase):
    def test_faults_line(self):
        out = (
            "c7552: 7438 stuck-at + 32 bridge faults x 4096 vectors (frames 1): 2226 detected "
            "(29.8% coverage) in 0.369 s, backend delta, lanes 256, 1 thread(s), dropping on, "
            "mean dirty cone 61.8 of 3719 nodes\n"
        )
        got = run.parse_cli(run.FAULTS_LINE, out)
        self.assertEqual(
            {k: got[k] for k in ("stuck_at", "bridges", "vectors", "frames", "detected")},
            {"stuck_at": 7438, "bridges": 32, "vectors": 4096, "frames": 1, "detected": 2226},
        )
        self.assertEqual(got["coverage"], 29.8)

    def test_synth_line_after_other_output(self):
        out = (
            "s5378: 2779 gates -> 5 modules, feasible: true, cost 14330.9\n"
            "sensor area 1.234e5; delay 900 -> 950 ps; per-vector test 12.0 ns\n"
        )
        got = run.parse_cli(run.SYNTH_LINE, out)
        self.assertEqual(got["feasible"], "true")
        self.assertEqual(got["modules"], 5)
        self.assertEqual(got["cost"], 14330.9)

    def test_no_match(self):
        self.assertIsNone(run.parse_cli(run.SYNTH_LINE, "error: cannot read `x.bench`\n"))
        self.assertIsNone(run.parse_cli(run.FAULTS_LINE, ""))

    def test_drained_line(self):
        line = "drained: 12 completed, 0 shed, 1 partial, 2 degraded, 0 panics, 0 restarts"
        self.assertEqual(run.DRAINED_LINE.search(line)["partial"], "1")


class FailureAccounting(unittest.TestCase):
    EXPECTED = {"digest": "00ff", "detected": 3, "faults": 10}

    def ok(self, **result):
        return {"status": "ok", "result": dict(self.EXPECTED, **result)}

    def test_tally(self):
        tally = run.Tally()
        for reason in (None, "bad", None, None):
            tally.record(reason)
        self.assertEqual((tally.attempted, tally.failed, tally.ok), (4, 1, 3))
        self.assertEqual(tally.reasons, ["bad"])

    def test_matching_response_passes(self):
        self.assertIsNone(run.check_response(self.ok(cache_hit=True), self.EXPECTED))

    def test_refused_partial_and_errored_responses_fail(self):
        for status in ("overloaded", "partial", "error"):
            response = {"status": status, "error": {"message": "queue full"}}
            self.assertIn(status, run.check_response(response, self.EXPECTED))

    def test_wrong_output_fails(self):
        self.assertIn("digest", run.check_response(self.ok(digest="0100"), self.EXPECTED))
        self.assertIsNotNone(run.check_response({"status": "ok"}, self.EXPECTED))

    def test_stats_tier_may_rise_never_fall(self):
        want = {"tier": "gatesep"}
        self.assertIsNone(run.check_response({"status": "ok", "result": {"tier": "separation"}}, want))
        self.assertIsNotNone(run.check_response({"status": "ok", "result": {"tier": "timing"}}, want))

    def test_drain_accounting(self):
        clean = {"accepted": 5, "request_errors": 0}
        drained = {"completed": 5, "panics": 0, "restarts": 0}
        self.assertEqual(run.drain_problems(clean, drained), [])
        self.assertEqual(len(run.drain_problems(clean, dict(drained, completed=4))), 1)
        self.assertEqual(len(run.drain_problems(clean, dict(drained, panics=1))), 1)
        self.assertEqual(len(run.drain_problems(dict(clean, request_errors=2), drained)), 1)
        self.assertEqual(len(run.drain_problems(clean, None)), 1)


class Spans(unittest.TestCase):
    def test_covered_frac_counts_direct_children_only(self):
        spans = [
            {"parent": None, "start_ms": 0.0, "end_ms": 10.0},
            {"parent": 0, "start_ms": 0.0, "end_ms": 4.0},
            {"parent": 0, "start_ms": 4.0, "end_ms": 9.0},
            {"parent": 2, "start_ms": 4.0, "end_ms": 9.0},
        ]
        self.assertAlmostEqual(run.covered_frac(spans), 0.9)


class Requests(unittest.TestCase):
    def test_request_line_puts_the_id_first(self):
        body = json.dumps({"op": "sim", "circuit": "c432"}).encode()
        line = run.request_line(body, 7)
        self.assertTrue(line.endswith(b"\n"))
        self.assertEqual(json.loads(line), {"id": 7, "op": "sim", "circuit": "c432"})

    def test_schedule_is_seeded_and_covers_every_key_per_block(self):
        keys = ["a", "b", "c", "d"]

        def take(seed, n):
            order = run.schedule(keys, seed)
            return [next(order) for _ in range(n)]

        first = take(5, 8)
        self.assertEqual(first, take(5, 8))
        self.assertEqual([rid for rid, _ in first], list(range(1, 9)))
        self.assertEqual(sorted(key for _, key in first[:4]), keys)
        self.assertEqual(sorted(key for _, key in first[4:]), keys)


class Spec(unittest.TestCase):
    def test_every_per_layer_metric_has_its_expectation(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        expectations = json.loads((HERE / "expectations.json").read_text())
        names = {metric["name"] for metric in spec["per_layer"]}
        self.assertEqual(names, set(expectations["per_layer"]))
        workloads = {w["name"] for w in spec["workloads"]}
        self.assertEqual(workloads, set(run.WORKLOADS))
        for entry in expectations["per_layer"].values():
            for metric, workload, _ in entry["moves"]:
                self.assertIn(workload, workloads)
                self.assertIn(metric, {m["name"] for m in spec["end_to_end"]} | names)
            for workload in entry["no_change"]:
                self.assertIn(workload, workloads)


if __name__ == "__main__":
    unittest.main()
