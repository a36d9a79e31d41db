#!/usr/bin/env python3
"""Tests for the benchmark's own logic (metric arithmetic and output
checks). Needs no build: python3 perfbench/test_run.py"""

import json
import random
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def raw_sample(**overrides):
    """Driver output of a traced run, with timings chosen so that every
    remainder would be negative without the floor."""
    raw = {
        "session_build_s": 1.0, "session_run_s": 0.5, "session_builds": 4,
        "runs": 12, "machine_boot_s": 0.8, "link_decode_s": 0.3,
        "reboot_s": 0.6, "serial_wall_s": 1.2, "cache_hits": 8,
        "cache_misses": 4, "csv_write_s": 0.01, "sim_instr": 3000,
        "sim_cycles": 9000, "ff_iters": 100, "sim_kernel_instr": 500,
        "interrupts": 2, "loop_iters": 400, "parallel_wall_s": 1.0,
        "parallel_cpu_s": 1.9, "threads": 2, "replay_on_s": 1.6,
        "replay_off_s": 1.5, "point_s": [0.1, 0.2, 0.3, 0.4],
    }
    raw.update(overrides)
    return raw


class Remainders(unittest.TestCase):
    def test_floor_at_zero(self):
        self.assertEqual(run.remainder(1.0, 0.7, 0.5), 0.0)
        self.assertAlmostEqual(run.remainder(2.0, 0.7, 0.5), 0.8)

    def test_layer_remainders_non_negative(self):
        m = run.layer_metrics(raw_sample())
        for name in ("isa.assemble_s", "cpu.execute_s",
                     "core.study_overhead_s"):
            self.assertGreaterEqual(m[name], 0.0, name)

    def test_remainders_when_parts_fit(self):
        m = run.layer_metrics(raw_sample(
            session_build_s=2.0, session_run_s=1.0, serial_wall_s=3.5))
        self.assertAlmostEqual(m["isa.assemble_s"], 2.0 - 0.8 - 0.3)
        self.assertAlmostEqual(m["cpu.execute_s"], 1.0 - 0.6)
        self.assertAlmostEqual(m["core.study_overhead_s"], 0.5)

    def test_ratios(self):
        m = run.layer_metrics(raw_sample())
        self.assertAlmostEqual(m["harness.build_share"], 1.0 / 1.5)
        self.assertAlmostEqual(m["harness.cache_hit_rate"], 8 / 12)
        self.assertAlmostEqual(m["cpu.ff_fold_frac"], 0.25)
        self.assertAlmostEqual(m["support.parallel_eff"], 0.95)
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.1 / 1.5)

    def test_no_loops_means_zero_fold_fraction(self):
        m = run.layer_metrics(raw_sample(loop_iters=0, ff_iters=0))
        self.assertEqual(m["cpu.ff_fold_frac"], 0.0)


class Relative(unittest.TestCase):
    def test_brackets_each_repetition(self):
        # Repetition k is divided by the mean of the calibrations
        # timed just before and just after it.
        self.assertAlmostEqual(
            run.relative([2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0]), 3.0)
        self.assertAlmostEqual(
            run.relative([3.0, 3.0, 3.0], [1.0, 2.0, 1.0, 1.0]), 2.0)

    def test_cancels_uniform_host_slowdown(self):
        fast = run.relative([2.0, 2.1, 1.9], [0.1, 0.1, 0.1, 0.1])
        slow = run.relative([3.0, 3.15, 2.85], [0.15] * 4)
        self.assertAlmostEqual(fast, slow)


class TailPercentile(unittest.TestCase):
    def beyond(self, xs, value):
        return sum(1 for x in xs if x > value)

    def test_keeps_ten_samples_beyond(self):
        rng = random.Random(7)
        # 40 is the smallest n at which the lowest candidate (p75)
        # leaves ten samples above it.
        for n in (40, 57, 100, 324, 672, 1920, 5000):
            xs = [rng.random() for _ in range(n)]
            pct, value = run.tail_percentile(xs)
            self.assertGreaterEqual(self.beyond(xs, value), 10, n)
            # The next higher candidate would leave fewer than ten.
            higher = [p for p in run.TAIL_CANDIDATES if p > pct]
            if higher:
                rank = run.nearest_rank(sorted(xs), min(higher))
                self.assertLess(n - rank, 10, n)

    def test_study_sizes(self):
        self.assertEqual(run.tail_percentile(range(1920))[0], 99.0)
        self.assertEqual(run.tail_percentile(range(672))[0], 98.0)
        self.assertEqual(run.tail_percentile(range(324))[0], 95.0)

    def test_too_few_samples_fall_back_to_median(self):
        self.assertEqual(run.tail_percentile([3, 1, 2]), (50.0, 2))
        self.assertEqual(run.tail_percentile(range(39)), (50.0, 19))


class TableCheck(unittest.TestCase):
    CSV = ("processor,interface,loopsize,run,error\n"
           "PD,pm,1,0,999.000000\n"
           "PD,pm,1,1,4803.000000\n")

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        self.ref = self.dir / "ref.csv"
        self.ref.write_text(self.CSV)

    def tearDown(self):
        self.tmp.cleanup()

    def out(self, text):
        path = self.dir / "out.csv"
        path.write_text(text)
        return path

    def test_identical_table_matches(self):
        self.assertTrue(run.table_matches(self.out(self.CSV), self.ref, False))

    def test_tampered_value_detected(self):
        out = self.out(self.CSV.replace("4803", "4804"))
        self.assertFalse(run.table_matches(out, self.ref, False))
        # Other seeds change values, so only keys are compared there.
        self.assertTrue(run.table_matches(out, self.ref, True))

    def test_tampered_key_detected(self):
        out = self.out(self.CSV.replace("PD,pm,1,1", "PD,pc,1,1"))
        self.assertFalse(run.table_matches(out, self.ref, False))
        self.assertFalse(run.table_matches(out, self.ref, True))

    def test_missing_or_truncated_row_detected(self):
        out = self.out(self.CSV.rsplit("PD", 1)[0])
        self.assertFalse(run.table_matches(out, self.ref, True))
        self.assertFalse(run.table_matches(self.dir / "none.csv", self.ref,
                                           True))

    def test_check_tables_names_the_tampered_table(self):
        saved = run.REFERENCE_DIR
        run.REFERENCE_DIR = self.dir / "results"
        try:
            out_dir = self.dir / "out"
            for d in (run.REFERENCE_DIR, out_dir):
                d.mkdir()
                for f in ("duration_uk.csv", "duration_user.csv"):
                    (d / f).write_text(self.CSV)
            self.assertEqual(run.check_tables("duration_sweep", 2, out_dir),
                             [])
            (run.REFERENCE_DIR / "duration_user.csv").write_text(
                self.CSV.replace("999", "998"))
            self.assertEqual(run.check_tables("duration_sweep", 2, out_dir),
                             ["duration_user.csv"])
            self.assertEqual(run.check_tables("duration_sweep", 7, out_dir),
                             [])
        finally:
            run.REFERENCE_DIR = saved


class Fingerprint(unittest.TestCase):
    def test_mismatch_names_the_count(self):
        rec = {k: 10 for k in run.FINGERPRINT_KEYS}
        self.assertEqual(run.fingerprint_mismatches(dict(rec), rec), [])
        moved = dict(rec, **{"kernel.interrupts": 11, "cpu.ff_iters": 5})
        self.assertEqual(run.fingerprint_mismatches(moved, rec),
                         ["kernel.interrupts"])

    def test_recorded_for_every_workload(self):
        rec = json.loads(run.FINGERPRINT.read_text())
        for name, (seed, _) in run.WORKLOADS.items():
            self.assertEqual(rec[name]["seed"], seed)
            for k in run.FINGERPRINT_KEYS:
                self.assertIsInstance(rec[name][k], int)


class Contract(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
