"""Tests of the benchmark's own logic, plus a smoke pass of every workload.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke pass builds the benchmark (like run.py) and runs each workload on
tiny inputs, untraced and traced.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402


def span(id_, parent, name, start, end):
    return {"id": id_, "parent": parent, "name": name,
            "start": start, "end": end}


class SelfTimeTest(unittest.TestCase):
    def setUp(self):
        # root [0, 10]
        #   gp.run_to_overflow [1, 5]
        #     gp.step [2, 3]
        #   congestion.estimate_incremental [4, 7]  (overlaps its sibling)
        #   padding.update [8, 11]  (runs past the root's end)
        #     gp.set_padding [9, 9.5]
        self.spans = [
            span(0, -1, "place@4", 0.0, 10.0),
            span(1, 0, "gp.run_to_overflow", 1.0, 5.0),
            span(2, 1, "gp.step", 2.0, 3.0),
            span(3, 0, "congestion.estimate_incremental", 4.0, 7.0),
            span(4, 0, "padding.update", 8.0, 11.0),
            span(5, 4, "gp.set_padding", 9.0, 9.5),
        ]

    def test_self_time_subtracts_union_of_children(self):
        selfs = benchlib.self_times(self.spans)
        # Children cover [1, 7] and [8, 10] of the root (clipped).
        self.assertAlmostEqual(selfs[0], 10.0 - 6.0 - 2.0)
        self.assertAlmostEqual(selfs[1], 4.0 - 1.0)
        self.assertAlmostEqual(selfs[2], 1.0)
        self.assertAlmostEqual(selfs[3], 3.0)
        self.assertAlmostEqual(selfs[4], 3.0 - 0.5)
        self.assertAlmostEqual(selfs[5], 0.5)

    def test_layer_self_times(self):
        layers = benchlib.layer_self_times(self.spans)
        self.assertAlmostEqual(layers["gp"], 3.0 + 1.0 + 0.5)
        self.assertAlmostEqual(layers["congestion"], 3.0)
        self.assertAlmostEqual(layers["padding"], 2.5)
        self.assertAlmostEqual(layers["unattributed"], 2.0)
        self.assertEqual(layers["router"], 0.0)

    def test_layers_sum_to_root_without_overlap(self):
        spans = [span(0, -1, "root", 0.0, 10.0),
                 span(1, 0, "gp.run_to_overflow", 0.5, 4.0),
                 span(2, 1, "gp.step", 1.0, 2.0),
                 span(3, 0, "legal.legalize", 4.0, 6.5),
                 span(4, 0, "router.evaluate_routability", 7.0, 9.0)]
        total = sum(benchlib.layer_self_times(spans).values())
        self.assertAlmostEqual(total, 10.0)

    def test_subtree_and_span_self(self):
        tree = benchlib.subtree(self.spans + [span(6, -1, "place@1", 20, 30)], 0)
        self.assertEqual(sorted(s["id"] for s in tree), [0, 1, 2, 3, 4, 5])
        t, n = benchlib.span_self(tree, "gp.run_to_overflow", "gp.step")
        self.assertAlmostEqual(t, 4.0)
        self.assertEqual(n, 2)

    def test_layer_of(self):
        self.assertEqual(benchlib.layer_of("gp.step"), "gp")
        self.assertIsNone(benchlib.layer_of("place@4"))
        self.assertIsNone(benchlib.layer_of("unknown.thing"))


class PercentileTest(unittest.TestCase):
    def test_quantile_interpolates(self):
        self.assertEqual(benchlib.quantile([3, 1, 2], 0.5), 2)
        self.assertAlmostEqual(benchlib.quantile([1, 2, 3, 4], 0.75), 3.25)
        self.assertEqual(benchlib.quantile([7], 0.75), 7)
        with self.assertRaises(ValueError):
            benchlib.quantile([], 0.5)

    def test_tail_percentile_needs_ten_beyond(self):
        self.assertIsNone(benchlib.tail_percentile(19))
        self.assertEqual(benchlib.tail_percentile(20), 50)
        self.assertEqual(benchlib.tail_percentile(39), 50)
        self.assertEqual(benchlib.tail_percentile(40), 75)
        self.assertEqual(benchlib.tail_percentile(99), 75)
        self.assertEqual(benchlib.tail_percentile(100), 90)
        self.assertEqual(benchlib.tail_percentile(200), 95)
        self.assertEqual(benchlib.tail_percentile(1000), 99)
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)


def job(index, pass_=0, ok=True, rejected=False, checksum="aa", error=""):
    return {"index": index, "pass": pass_, "ok": ok, "rejected": rejected,
            "checksum": checksum, "error": error, "t_start": 0.0,
            "t_decoded": 1.0, "hpwl_legal": 1.0}


class FailureCountTest(unittest.TestCase):
    def test_clean_serve_run(self):
        raw = {"job_list": 2, "jobs": [job(0), job(1), job(0, 1)],
               "replays": [{"index": 0, "match": True}]}
        self.assertEqual(benchlib.count_failures("serve", raw)[:2], (3, 0))

    def test_rejected_job_is_a_failure_not_a_skip(self):
        raw = {"job_list": 3, "jobs": [
            job(0), job(1, ok=False, rejected=True, error="rejected: queue_full"),
            job(2)]}
        attempted, failed, reasons = benchlib.count_failures("serve", raw)
        self.assertEqual((attempted, failed), (3, 1))
        self.assertIn("queue_full", reasons[0])
        m = benchlib.end_to_end("serve", dict(raw, setup_s=[1.0], phase_s=2.0,
                                              daemon_rss_kb=1024, routes=[]),
                                attempted, failed)
        self.assertAlmostEqual(m["ok_frac"], 2.0 / 3.0)

    def test_failed_missing_and_mismatched_jobs(self):
        raw = {"job_list": 4, "errors": ['connection: reset'], "jobs": [
            job(0), job(1, ok=False, error="session ended failed"),
            job(0, 1, checksum="bb"), job(2)],
            "replays": [{"index": 2, "match": False}]}
        attempted, failed, _ = benchlib.count_failures("serve", raw)
        # job 3 never ran; job 1 failed; job 0 pass 1 differs; replay of 2.
        self.assertEqual((attempted, failed), (5, 4))

    def test_serve_checksum_against_earlier_run(self):
        raw = {"job_list": 1, "jobs": [job(0, checksum="cc")]}
        self.assertEqual(
            benchlib.count_failures("serve", raw, {"0": "aa"})[1], 1)

    def test_place_and_explore(self):
        reps = [{"instance": 0, "legal": True, "checksum": "aa"},
                {"instance": 1, "legal": False, "checksum": "aa"},
                {"instance": 2, "legal": True, "checksum": "bb"}]
        self.assertEqual(benchlib.count_failures("place", {"reps": reps})[:2],
                         (3, 2))
        self.assertEqual(benchlib.count_failures(
            "place", {"reps": reps[:1]}, {"0": "ff"})[:2], (1, 1))
        explore = [{"instance": 0, "threw": True, "trials": 16},
                   {"instance": 1, "threw": False, "trials": 16,
                    "legal": True, "checksum": "aa"}]
        self.assertEqual(
            benchlib.count_failures("explore", {"reps": explore})[:2], (32, 16))


class BenchmarkFileTest(unittest.TestCase):
    """BENCHMARK.json names exactly the metrics and workloads run.py has."""

    def test_metrics_and_workloads_match(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         benchlib.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         benchlib.PER_LAYER)
        import run
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


class SmokeTest(unittest.TestCase):
    """Every workload end to end on tiny inputs, untraced and traced."""

    def run_bench(self, workload, trace):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
             "--tiny"], capture_output=True, text=True, timeout=900)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], out.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        names = benchlib.PER_LAYER if trace else benchlib.END_TO_END
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_workloads(self):
        for workload in ("place_media_s64", "explore_a53_s256",
                         "serve_small_s256"):
            with self.subTest(workload=workload):
                m = self.run_bench(workload, 0)
                for name in benchlib.END_TO_END:
                    # Tiny blocks route without overflow.
                    if name not in ("vof_pct", "best_loss"):
                        self.assertGreater(m[name], 0, name)
                layers = self.run_bench(workload, 1)
                self.assertGreater(layers["gp.gradient_evals"], 0)
                if workload.startswith("place"):
                    total = sum(layers[l + ".self_s"] for l in benchlib.LAYERS)
                    self.assertAlmostEqual(
                        total + layers["trace.unattributed_s"],
                        layers["trace.wall_s"], places=6)
                    self.assertGreater(layers["gp.kernel_coverage"], 0.5)


if __name__ == "__main__":
    unittest.main()
