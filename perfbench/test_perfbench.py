"""Tests of the benchmark runner's statistics and names.

    python3 -m unittest discover -s perfbench
"""

import json
import os
import random
import statistics
import tempfile
import unittest

import run
import stats


class StatsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_quartiles_match_statistics_module(self):
        rng = random.Random(7)
        for n in (2, 3, 10, 37):
            xs = [rng.random() for _ in range(n)]
            self.assertEqual(stats.quartiles(xs), tuple(statistics.quantiles(xs, n=4)))
        self.assertEqual(stats.quartiles([5.0]), (5.0, 5.0, 5.0))

    def test_spread(self):
        # quantiles of 1..10 (exclusive method): 2.75, 5.5, 8.25
        self.assertAlmostEqual(stats.spread([float(i) for i in range(1, 11)]), 5.5 / 5.5)

    def test_percentile_nearest_rank(self):
        xs = [float(i) for i in range(1, 101)]
        self.assertEqual(stats.percentile(xs, 90), 90.0)
        self.assertEqual(stats.percentile(xs, 50), 50.0)
        self.assertEqual(stats.percentile([2.0, 1.0], 1), 1.0)

    def test_tail_needs_ten_beyond(self):
        self.assertIsNone(stats.tail([1.0] * 10))
        self.assertEqual(stats.tail([float(i) for i in range(20)])[0], 50.0)
        p, value, n = stats.tail([float(i) for i in range(1, 101)])
        self.assertEqual((p, value, n), (90.0, 90.0, 100))
        self.assertEqual(stats.tail([float(i) for i in range(1000)])[0], 99.0)
        # 99 samples: p90 leaves only 9 above it
        self.assertEqual(stats.tail([float(i) for i in range(99)])[0], 75.0)


class DefinitionTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_names_match_benchmark_json(self):
        self.assertEqual(run.check_definition(), [])
        self.assertEqual({w["name"] for w in self.spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"] for m in self.spec["end_to_end"]}, set(run.END_TO_END))
        self.assertEqual({m["name"] for m in self.spec["per_layer"]}, set(run.PER_LAYER))

    def test_client_reports_every_per_layer_metric(self):
        with open(os.path.join(run.HERE, "bench.ml")) as f:
            client = f.read()
        split = {f"pass.{p}.s" for p in ("sccp", "baseline", "licm_dom", "gvn", "if_convert", "lower")}
        for name in set(run.PER_LAYER) - split:
            self.assertIn(f'"{name}"', client)
        for name in split:
            self.assertIn(f'"{name.split(".")[1]}"', client)

    def test_setup_metric_and_command(self):
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.spec["end_to_end"]))
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])

    def test_end_to_end_metrics_from_raw_record(self):
        raw = {
            "setup_s": [0.3, 0.1, 0.2],
            "jobs": [
                {"round": 0, "phase": "cold", "cpu_s": 2.0, "wall_s": 1.0,
                 "iterations": 100, "best_ncd": 0.9},
                {"round": 0, "phase": "warm", "cpu_s": 0.5, "wall_s": 0.4,
                 "iterations": 100, "best_ncd": 0.9},
                {"round": 1, "phase": "cold", "cpu_s": 4.0, "wall_s": 2.5,
                 "iterations": 200, "best_ncd": 0.5},
                {"round": 1, "phase": "warm", "cpu_s": 0.7, "wall_s": 0.6,
                 "iterations": 200, "best_ncd": 0.5},
                {"round": 2, "phase": "cold", "cpu_s": 1.0, "wall_s": 1.0,
                 "iterations": 50, "best_ncd": 0.5},
            ],
            "attempted": 5,
            "peak_rss_mb": 100.0,
        }
        m = run.end_to_end(raw, failed=1)
        self.assertEqual(set(m), set(run.END_TO_END))
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["evals_per_s"], 350 / 7.0)
        # per-round wall rates 100, 80 and 50: their median
        self.assertEqual(m["evals_per_wall_s"], 80.0)
        self.assertEqual(m["cold_job_p50_s"], 2.0)
        self.assertEqual(m["warm_job_p50_s"], 0.6)
        self.assertEqual(m["best_ncd"], 0.9)
        self.assertEqual(m["passed_frac"], 0.8)


class JobListTest(unittest.TestCase):
    def test_job_seeds_come_from_the_benchmark_seed(self):
        for w in run.WORKLOADS:
            self.assertEqual(run.job_list(w, 3), run.job_list(w, 3))
            self.assertNotEqual(run.job_list(w, 3), run.job_list(w, 4))

    def test_rounds_repeat_the_template_with_fresh_seeds(self):
        for w, (_, template) in run.WORKLOADS.items():
            lines = run.job_list(w, 1).splitlines()
            self.assertEqual(lines.count("round"), run.ROUNDS)
            self.assertEqual(len(lines), run.ROUNDS * (1 + len(template)))
            seeds = [line.split()[5] for line in lines if line.startswith("job")]
            self.assertEqual(len(set(seeds)), len(seeds))


class DeterminismGuardTest(unittest.TestCase):
    def job(self, **kw):
        j = {"bench": "b", "profile": "p", "strategy": "hill", "seed": 1,
             "budget": 100, "objective": "ncd",
             "phase": "warm", "best_ncd": 0.5, "iterations": 10,
             "compilations": 10, "store_hits": 3}
        j.update(kw)
        return j

    def test_drift_across_runs_is_reported_by_name(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "det.json")
            raw = {"jobs": [self.job()], "layers": {}}
            self.assertEqual(run.determinism_drift(raw, path), ([], []))
            self.assertEqual(run.determinism_drift(raw, path), ([], []))
            raw = {"jobs": [self.job(best_ncd=0.25)], "layers": {}}
            drifts, observed = run.determinism_drift(raw, path)
            self.assertEqual(observed, [])
            self.assertEqual(len(drifts), 1)
            self.assertIn("best_ncd 0.5 -> 0.25", drifts[0])

    def test_drift_within_one_run(self):
        with tempfile.TemporaryDirectory() as d:
            raw = {"jobs": [self.job(), self.job(compilations=11)], "layers": {}}
            drifts, _ = run.determinism_drift(raw, os.path.join(d, "det.json"))
            self.assertEqual(len(drifts), 1)
            self.assertIn("compilations", drifts[0])

    def test_store_hits_drift_is_observed_only(self):
        with tempfile.TemporaryDirectory() as d:
            raw = {"jobs": [self.job(), self.job(store_hits=4)], "layers": {}}
            drifts, observed = run.determinism_drift(raw, os.path.join(d, "det.json"))
            self.assertEqual(drifts, [])
            self.assertEqual(len(observed), 1)
            self.assertIn("store_hits 3 -> 4", observed[0])

    def test_replay_columns_are_guarded(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "det.json")
            layers = {"snapshot.hit_ratio": 0.1, "compilations": 400.0}
            run.determinism_drift({"jobs": [], "layers": layers}, path)
            layers = dict(layers, **{"snapshot.hit_ratio": 0.2})
            drifts, _ = run.determinism_drift({"jobs": [], "layers": layers}, path)
            self.assertEqual(len(drifts), 1)
            self.assertIn("snapshot.hit_ratio", drifts[0])


if __name__ == "__main__":
    unittest.main()
