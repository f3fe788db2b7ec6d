"""Tests for the benchmark's own arithmetic and for the agreement between
BENCHMARK.json and pxbench/spec.json.

    python3 -m unittest discover -s pxbench -p 'test_*.py'
"""

import json
import math
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))  # 1..100, shuffled order must not matter
        self.assertEqual(metrics.percentile(list(reversed(xs)), 50), 50)
        self.assertEqual(metrics.percentile(xs, 90), 90)
        self.assertEqual(metrics.percentile(xs, 100), 100)
        self.assertEqual(metrics.percentile([7.0], 90), 7.0)

    def test_p90_of_100_samples_has_ten_beyond(self):
        self.assertEqual(metrics.samples_beyond(100, 90), 10)
        self.assertEqual(metrics.samples_beyond(99, 90), 9)
        self.assertEqual(metrics.min_samples_for(90), 100)
        self.assertEqual(metrics.min_samples_for(99), 1000)
        self.assertEqual(metrics.min_samples_for(50), 20)

    def test_p10_of_100_samples_has_ten_at_or_below(self):
        self.assertEqual(metrics.samples_at_or_below(100, 10), 10)
        self.assertEqual(metrics.samples_at_or_below(4, 10), 1)
        for n in (1, 4, 99, 100, 457):
            xs = list(range(n))
            p = metrics.percentile(xs, 10)
            self.assertEqual(sum(1 for x in xs if x <= p), metrics.samples_at_or_below(n, 10))

    def test_samples_beyond_counts_exactly(self):
        for n in (1, 3, 10, 101, 457):
            xs = list(range(n))
            p = metrics.percentile(xs, 90)
            self.assertEqual(sum(1 for x in xs if x > p), metrics.samples_beyond(n, 90))

    def test_windowed_percentile(self):
        # A stall confined to one window of three moves that window only.
        calm = [1.0] * 95 + [2.0] * 5
        stall = [9.0] * 100
        self.assertEqual(metrics.windowed_percentile(calm + stall + calm, 90, 100), 1.0)
        # The trailing partial window joins the last full one.
        self.assertEqual(metrics.windowed_percentile(calm + [9.0] * 50, 90, 100), 9.0)
        # Fewer samples than a window: one window, the plain percentile.
        self.assertEqual(metrics.windowed_percentile([3.0, 1.0, 2.0], 90, 100), 3.0)

    def test_rejects_empty_and_bad_q(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)
        with self.assertRaises(ValueError):
            metrics.percentile([1], 0)

    def test_histogram_percentile_matches_samples(self):
        xs = [1, 1, 2, 2, 2, 3, 5, 8, 13, 40]
        hist = {}
        for x in xs:
            hist[str(x)] = hist.get(str(x), 0) + 1
        for q in (10, 50, 90, 99, 100):
            self.assertEqual(metrics.histogram_percentile(hist, q), metrics.percentile(xs, q))
        self.assertEqual(metrics.histogram_percentile({}, 50), 0.0)


class RatioBases(unittest.TestCase):
    def test_zero_base_reads_zero(self):
        self.assertEqual(metrics.ratio(0, 0), 0.0)
        self.assertEqual(metrics.ratio(5, 0), 0.0)
        self.assertEqual(metrics.ratio(3, 4), 0.75)

    def raw(self, counters, solves=(0.5, 0.5), steps=10):
        return {
            "solve_s": [1.0, 1.0],
            "steps_per_solve": steps,
            "params": {},
            "traced": {
                "solve_s": list(solves), "counters": counters, "spans": [],
                "slice_us_hist": {}, "trace_dropped": 0, "cpu_s": 2.0, "wall_s": 1.0,
                "after": {},
            },
        }

    def test_bases(self):
        c = {
            "/px/scheduler{loc0/worker#0}/busy_ns": 4e8,
            "/px/scheduler{loc1/worker#0}/busy_ns": 2e8,
            "/px/scheduler{loc0/worker#0}/steals": 3,
            "/px/scheduler{loc1/worker#0}/failed_steal_rounds": 9,
            "/px/scheduler{loc0/worker#0}/tasks_executed": 40,
            "/px/parcel/messages_sent": 60,
            "/px/net/frames_on_wire": 20,
            "/px/net/acks": 5,
            "/px/timer/callbacks_scheduled": 30,
            "/px/timer/callbacks_cancelled": 15,
            "/px/agas/cache_hits": 1,
            "/px/agas/cache_misses": 3,
            "/px/agas/migrations": 3,
            "/px/agas/migration_aborts": 1,
            "/px/net/modeled_ns": 4e6,
        }
        m = metrics.per_layer(self.raw(c), nproc=4, steal_frac=0.0)
        # busy over workers x summed solve wall time: 0.6 s / (2 x 1.0 s).
        self.assertAlmostEqual(m["runtime.busy_frac"], 0.3)
        # per step over solves x steps_per_solve = 20 steps.
        self.assertAlmostEqual(m["runtime.tasks_per_step"], 2.0)
        self.assertAlmostEqual(m["parcel.messages_per_step"], 3.0)
        self.assertAlmostEqual(m["runtime.steal_success_frac"], 0.25)
        self.assertAlmostEqual(m["net.parcels_per_frame"], 3.0)
        self.assertAlmostEqual(m["net.acks_per_frame"], 0.25)
        self.assertAlmostEqual(m["net.rto_arms_per_parcel"], 0.5)
        self.assertAlmostEqual(m["net.rto_cancel_frac"], 0.5)
        self.assertAlmostEqual(m["net.modeled_ms_per_solve"], 2.0)
        self.assertAlmostEqual(m["agas.cache_hit_frac"], 0.25)
        self.assertAlmostEqual(m["agas.migrations_per_solve"], 1.5)
        self.assertAlmostEqual(m["agas.migration_abort_frac"], 0.25)
        # cpu seconds over traced wall x nproc.
        self.assertAlmostEqual(m["process.cpu_util"], 0.5)
        # traced over untraced median, minus one.
        self.assertAlmostEqual(m["trace.overhead_frac"], -0.5)
        # Layers the workload did not cross read 0, not NaN.
        self.assertEqual(m["stencil.sweep_glups"], 0.0)
        self.assertEqual(m["runtime.task_pool_miss_frac"], 0.0)
        self.assertTrue(all(math.isfinite(v) for v in m.values()))

    def test_end_to_end(self):
        raw = {"setup_s": [3.0, 1.0, 2.0], "solve_s": [0.5] * 99 + [2.0],
               "lattice_updates_per_solve": 1_000_000, "attempted": 101, "failed": 1,
               "peak_rss_kib": 2048.0}
        e = metrics.end_to_end(raw)
        self.assertEqual(e["setup_s"], (2.0, 3))
        self.assertEqual(e["solve_s.p10"], (0.5, 100))
        self.assertEqual(e["solve_s.p50"], (0.5, 100))
        self.assertEqual(e["solve_s.p90"], (0.5, 100))
        self.assertAlmostEqual(e["mlups"][0], 2.0)  # 1e6 LUP at the 0.5 s p10
        # A slow majority moves the median but not the fastest tenth.
        raw["solve_s"] = [0.5] * 10 + [0.25] * 10 + [2.0] * 80
        e = metrics.end_to_end(raw)
        self.assertEqual(e["solve_s.p10"], (0.25, 100))
        self.assertEqual(e["solve_s.p50"], (2.0, 100))
        self.assertAlmostEqual(e["mlups"][0], 4.0)
        self.assertAlmostEqual(e["failed_frac"][0], 1 / 101)
        self.assertEqual(e["peak_rss_mb"], (2.0, 1))


class Pooling(unittest.TestCase):
    def record(self, solves, rss):
        return {"params": {"nx": 8}, "lattice_updates_per_solve": 10, "setup_s": [0.1],
                "solve_s": solves, "domain_ctor_ms": [1.0], "attempted": len(solves),
                "failed": 0, "total_attempted": len(solves), "total_failed": 0,
                "oracle_s": 0.5, "loop_wall_s": sum(solves), "peak_rss_kib": rss}

    def test_samples_concatenate_counts_sum(self):
        raws = [self.record([1.0, 2.0], 10.0), self.record([3.0], 30.0),
                self.record([4.0], 20.0)]
        p = metrics.pool(raws)
        self.assertEqual(p["solve_s"], [1.0, 2.0, 3.0, 4.0])
        self.assertEqual(p["setup_s"], [0.1] * 3)
        self.assertEqual(p["domain_ctor_ms"], [1.0] * 3)
        self.assertEqual(p["total_attempted"], 4)
        self.assertEqual(p["peak_rss_kib"], 20.0)
        self.assertEqual(p["params"], {"nx": 8})
        self.assertEqual(p["lattice_updates_per_solve"], 10)
        self.assertEqual(p["processes"], 3)
        # The inputs are left as they were.
        self.assertEqual(raws[0]["solve_s"], [1.0, 2.0])

    def test_one_record_is_itself_and_traced_records_do_not_pool(self):
        r = self.record([1.0], 1.0)
        self.assertIs(metrics.pool([r]), r)
        with self.assertRaises(ValueError):
            metrics.pool([dict(r, traced={}), r])


class SchedulerCounterSum(unittest.TestCase):
    def test_sums_every_worker_of_every_scheduler(self):
        c = {
            "/px/scheduler{loc0-6/worker#0}/tasks_executed": 10,
            "/px/scheduler{loc1-6/worker#0}/tasks_executed": 20,
            "/px/scheduler{loc2-6/worker#0}/tasks_executed": 30,
            "/px/scheduler{loc2-6/worker#1}/tasks_executed": 5,
            "/px/scheduler{loc2-6/worker#1}/busy_ns": 7,
            # Scheduler-level and other families are not worker counters.
            "/px/scheduler{loc0-6}/tasks_spawned": 1000,
            "/px/stacks{loc0-6}/pool_hits": 1000,
        }
        totals, workers = metrics.sum_worker_counters(c)
        self.assertEqual(totals, {"tasks_executed": 65, "busy_ns": 7})
        self.assertEqual(workers, 4)

    def test_instance_counters(self):
        c = {"/px/stacks{loc0}/pool_misses": 2, "/px/stacks{loc1}/pool_misses": 3,
             "/px/stacks{loc1}/pool_hits": 9}
        self.assertEqual(metrics.sum_instance_counters(c, "stacks", "pool_misses"), 5)
        self.assertEqual(metrics.sum_instance_counters(c, "stacks", "pool_hits"), 9)


class Residual(unittest.TestCase):
    def test_self_time_uses_union_of_clipped_children(self):
        self.assertEqual(metrics.self_time((0, 100), []), 100)
        self.assertEqual(metrics.self_time((0, 100), [(10, 20), (30, 50)]), 70)
        # Overlapping children are not counted twice.
        self.assertEqual(metrics.self_time((0, 100), [(10, 40), (30, 50)]), 60)
        # Children sticking out of the parent are clipped to it.
        self.assertEqual(metrics.self_time((0, 100), [(-10, 10), (90, 120)]), 80)
        self.assertEqual(metrics.self_time((0, 100), [(200, 300)]), 100)

    def test_residual_over_solve_spans(self):
        spans = [
            ["setup", 0, 1000, -1, -1],
            ["solve", 0, 100, -1, 0],
            ["stencil.sweep", 0, 90, 1, 0],
            ["solve", 200, 300, -1, 1],
            ["stencil.sweep", 200, 270, 3, 1],
            ["simd.decode", 270, 300, 3, 1],
        ]
        # Self time 10 + 0 over 200 of solve time.
        self.assertAlmostEqual(metrics.residual_frac(spans), 0.05)
        self.assertEqual(metrics.residual_frac([]), 0.0)


class SpecAgreement(unittest.TestCase):
    def test_every_declared_metric_is_computed_and_predicted(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        spec = json.loads((ROOT / "pxbench" / "spec.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(spec["workloads"]))
        predicted = {m for row in spec["layers"] for m in row["metrics"]}
        self.assertEqual(predicted, {m["name"] for m in bench["per_layer"]})
        workloads = set(spec["workloads"])
        for row in spec["layers"]:
            self.assertTrue(set(row["no_change_on"]) <= workloads, row["layer"])
            for target in row["should_move"]:
                self.assertIn(target["workload"], workloads, row["layer"])
        e2e = {m["name"] for m in bench["end_to_end"]}
        self.assertTrue(e2e <= set(spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
