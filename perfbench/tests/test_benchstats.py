"""Tests of the benchmark's own statistics, gates and self-time derivation.

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))
import benchstats as bs  # noqa: E402

INF = math.inf


class MedianAndQuartiles(unittest.TestCase):
    def test_median(self):
        self.assertEqual(bs.median([3, 1, 2]), 2)
        self.assertEqual(bs.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [7, 1, 5, 3, 9, 11, 2, 8, 4, 6]
        q1, q2, q3 = bs.quartiles(values)
        self.assertEqual(q2, 5.5)
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q3, 8.25)

    def test_spread_is_iqr_over_median(self):
        values = [10, 10, 10, 10, 11, 9, 10, 10]
        q1, q2, q3 = bs.quartiles(values)
        self.assertAlmostEqual(bs.spread(values), (q3 - q1) / q2)
        self.assertEqual(bs.spread([5, 5, 5, 5]), 0)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(bs.percentile(values, 50), 50)
        self.assertEqual(bs.percentile(values, 99), 99)
        self.assertEqual(bs.percentile(values, 100), 100)
        self.assertEqual(bs.percentile([5], 99), 5)

    def test_beyond_counts(self):
        self.assertEqual(bs.beyond(1000, 99), 10)
        self.assertEqual(bs.beyond(999, 99), 9)
        self.assertEqual(bs.beyond(100, 90), 10)
        self.assertEqual(bs.beyond(20, 50), 10)

    def test_tail_takes_highest_percentile_with_ten_beyond(self):
        self.assertEqual(bs.tail(list(range(1000)))[0], 99)
        self.assertEqual(bs.tail(list(range(999)))[0], 90)
        self.assertEqual(bs.tail(list(range(100)))[0], 90)
        self.assertEqual(bs.tail(list(range(99)))[0], 50)
        self.assertEqual(bs.tail(list(range(20)))[0], 50)
        self.assertIsNone(bs.tail(list(range(19))))

    def test_tail_value(self):
        p, v = bs.tail([float(x) for x in range(1, 1001)])
        self.assertEqual((p, v), (99, 990.0))


class Geomean(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(bs.geomean([1, 100]), 10)
        self.assertAlmostEqual(bs.geomean([2, 8]), 4)
        self.assertAlmostEqual(bs.geomean(x for x in [3.0]), 3.0)

    def test_geomean_rejects_zero_and_empty(self):
        with self.assertRaises(ValueError):
            bs.geomean([1, 0])
        with self.assertRaises(ValueError):
            bs.geomean([])


class OpenLoop(unittest.TestCase):
    def test_latency_is_measured_from_due_time(self):
        # The generator stalled: three requests due at 0, 10, 20 all went
        # out at 100. Measured from submit they look fast (5, 6, 7); from
        # due time they carry the stall.
        stream = {"due": [0, 10, 20], "submit": [100, 100, 100],
                  "done": [105, 106, 107], "row": [0, 0, 0], "rows": ["k"]}
        self.assertEqual(bs.stream_latencies(stream), [105, 96, 87])
        self.assertEqual(bs.stream_lags(stream), [100, 90, 80])

    def test_failures_count_beyond_every_percentile(self):
        stream = {"due": [0, 10, 20, 30], "submit": [0, 10, 20, 30],
                  "done": [5, 15, -1, 35], "row": [0, 1, 0, 1],
                  "rows": ["a", "b"]}
        lat = bs.stream_latencies(stream)
        self.assertEqual(lat[2], INF)
        self.assertEqual(bs.percentile(lat, 100), INF)
        self.assertEqual(bs.percentile(lat, 80), INF)
        self.assertEqual(bs.percentile(lat, 75), 5)
        self.assertEqual(bs.percentile(lat, 50), 5)
        # Successful requests only, grouped by row.
        self.assertEqual(bs.stream_rows(stream), {"a": [5], "b": [5, 5]})

    def test_failed_tail_is_reported_as_failed(self):
        lat = [1.0] * 900 + [INF] * 100
        metrics, p = bs.tail_metrics("bystander_launch_us", lat)
        self.assertEqual(p, bs.REPORTED_TAILS[0])
        self.assertEqual(metrics["bystander_launch_us_p50"], 1.0)
        self.assertEqual(metrics["bystander_launch_us_p99"], 1.0)
        lat = [1.0] * 899 + [INF] * 101
        metrics, _ = bs.tail_metrics("bystander_launch_us", lat)
        self.assertEqual(metrics["bystander_launch_us_p99"],
                         bs.FAILED_LATENCY_US)

    def test_generator_lag_is_reported_for_every_open_loop(self):
        def stream(lag):
            n = 200
            return {"due": [10.0 * i for i in range(n)],
                    "submit": [10.0 * i + lag for i in range(n)],
                    "done": [10.0 * i + lag + 1 for i in range(n)],
                    "row": [0] * n, "rows": ["k"]}
        layers = bs.loadgen_layers({"streams": {"main": stream(3.0),
                                                "bystander": stream(7.0)}})
        self.assertEqual(layers, {"loadgen.lag_us_p99.main": 3.0,
                                  "loadgen.lag_us_p99.bystander": 7.0})
        # A closed-loop main client reports the gap between its requests.
        layers = bs.loadgen_layers({"streams": {"bystander": stream(7.0)},
                                    "client_gap_us": [float(i)
                                                      for i in range(100)]})
        self.assertEqual(layers["loadgen.lag_us_p99.main"], 98.0)


class Gate(unittest.TestCase):
    def raw(self, **kw):
        raw = {"attempted": 100, "failed": 0, "mismatches": 0, "errors": []}
        raw.update(kw)
        return raw

    def test_clean_run_passes(self):
        ok, reasons = bs.gate(self.raw())
        self.assertTrue(ok)
        self.assertEqual(reasons, [])

    def test_mismatch_fails_the_run(self):
        ok, reasons = bs.gate(self.raw(
            failed=1, mismatches=1,
            errors=["small: output hash mismatch on pb_small_1_0"]))
        self.assertFalse(ok)
        self.assertTrue(any("mismatch" in r for r in reasons))

    def test_ok_frac_counts_failures(self):
        stream = {"due": [0.0] * 40, "submit": [0.0] * 40,
                  "done": [float(i + 1) for i in range(40)],
                  "row": [0] * 40, "rows": ["k"]}
        e2e = {"setup_s": [1.0], "streams": {"bystander": stream},
               "warm_stream": "bystander", "kcycles_rows": {"k": 2.0},
               "regs": [10], "smem": [64], "compile_us": [1000.0],
               "first_result_us": [3000.0]}
        raw = self.raw(attempted=80, failed=2, peak_rss_mib=10.0)
        m, _ = bs.end_to_end(raw, e2e)
        self.assertAlmostEqual(m["ok_frac"], 78 / 80)
        self.assertEqual(m["bystander_launch_us_p50"], 20.0)
        self.assertEqual(m["compile_ms_p50"], 1.0)
        self.assertEqual(m["static_smem_bytes_sum"], 64)

    def test_bystander_probe_p50_is_median_of_kernel_medians(self):
        e2e = {"setup_s": [1.0], "warm_rows": {"r": [1000.0]},
               "kcycles_rows": {"k": 2.0}, "regs": [10], "smem": [64],
               "compile_us": [1000.0], "first_result_us": [3000.0],
               "bystander_cpu_rows": {
                   "bystander0": [10.0] * 60, "bystander0_failed": 0,
                   "bystander1": [100.0] * 60, "bystander1_failed": 0}}
        m, _ = bs.end_to_end(self.raw(attempted=120, failed=0,
                                      peak_rss_mib=1.0), e2e)
        self.assertEqual(m["bystander_launch_us_p50"], 55.0)
        self.assertEqual(m["bystander_launch_us_p99"], 100.0)
        # A failed probe counts beyond every percentile of the pooled list.
        e2e["bystander_cpu_rows"]["bystander1_failed"] = 70
        m, _ = bs.end_to_end(self.raw(attempted=190, failed=70,
                                      peak_rss_mib=1.0), e2e)
        self.assertEqual(m["bystander_launch_us_p50"], 100.0)
        self.assertEqual(m["bystander_launch_us_p99"], bs.FAILED_LATENCY_US)

    def test_refuses_debug_and_sanitizer_builds(self):
        good_env = {"build_type": "Release", "ndebug": True, "sanitizer": ""}
        self.assertEqual(bs.check_environment(good_env), [])
        self.assertTrue(bs.check_environment(
            dict(good_env, build_type="Debug")))
        self.assertTrue(bs.check_environment(dict(good_env, ndebug=False)))
        self.assertTrue(bs.check_environment(
            dict(good_env, sanitizer="thread")))
        self.assertTrue(bs.check_environment(
            dict(good_env, sanitizer="undefined")))


class SelfTimes(unittest.TestCase):
    def tree(self):
        # A service request: 100 us wall. loadgen 0-10, submit 10-15, the
        # worker's run (a library span, duration only) 60 us, inside it the
        # launch engine 30-80 with two parallel teams 40-70 and 50-75.
        teams = {"n": "vgpu.teams", "l": "vgpu",
                 "s": [[40, 70], [50, 75]]}
        launch = {"n": "exec.launch", "l": "exec", "s": [[30, 80]],
                  "c": [{"n": "exec.prepare", "l": "exec", "s": [[30, 35]]},
                        teams]}
        return {"n": "request", "l": "service", "s": [[0, 100]],
                "c": [{"n": "loadgen", "l": "loadgen", "s": [[0, 10]]},
                      {"n": "service.submit", "l": "service",
                       "s": [[10, 15]]},
                      {"n": "service.run", "l": "host", "d": 60,
                       "c": [launch]}]}

    def test_self_times_add_up_to_wall(self):
        layers, wall, ok = bs.self_time_check(self.tree())
        self.assertEqual(wall, 100)
        self.assertTrue(ok)
        self.assertEqual(layers["loadgen"], 10)
        self.assertEqual(layers["service"], 100 - 10 - 5 - 60 + 5)
        self.assertEqual(layers["host"], 60 - 50)
        self.assertEqual(layers["vgpu"], 35)  # union of the two teams
        self.assertEqual(layers["exec"], 50 - 5 - 35 + 5)
        self.assertAlmostEqual(sum(layers.values()), wall)

    def test_child_outside_parent_breaks_the_sum(self):
        t = self.tree()
        t["c"][2]["d"] = 200  # the run claims more than the request's wall
        _, wall, ok = bs.self_time_check(t)
        self.assertFalse(ok)

    def test_summary(self):
        s = bs.self_time_summary([dict(self.tree(), kind="small")] * 3)
        self.assertEqual(s["small"]["n"], 3)
        self.assertEqual(s["small"]["ok"], 3)
        self.assertEqual(s["small"]["wall"], 100)


if __name__ == "__main__":
    unittest.main()
