"""Quick tests of the benchmark itself: oracles, reduced-size runs, traces.

    python3 -m unittest discover -s bench/tests      # from the checkout root
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check_trace  # noqa: E402
import common  # noqa: E402
import oracles  # noqa: E402

END_TO_END = ("setup_s", "items_per_s", "item_p50_ms", "item_tail_ms", "peak_rss_mb")


def run_bench(*extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--seed", "7", "--seconds", "1"]
    return subprocess.run(cmd + list(extra), capture_output=True, text=True, cwd=cwd,
                          timeout=170)


class OracleTest(unittest.TestCase):
    def test_group_counts(self):
        self.assertEqual(oracles.group_count(64), 11)
        self.assertEqual(oracles.group_count(72), 6)
        self.assertEqual(len(oracles.group_types(16)), 5)
        self.assertEqual(oracles.group_count(1), 1)

    def test_subgroup_counts(self):
        self.assertEqual(oracles.subgroup_count((2, 2, 2)), 16)
        self.assertEqual(oracles.subgroup_count((2, 4)), 8)
        self.assertEqual(oracles.subgroup_count((27,)), 4)
        self.assertEqual(oracles.subgroup_count((2, 3)), 4)
        self.assertEqual(oracles.subgroup_count((2,) * 7), 29212)

    def test_mccoy_rank(self):
        self.assertEqual(oracles.mccoy_rank_mod([[2]], 4), 0)
        self.assertEqual(oracles.mccoy_rank_mod([[1, 0], [0, 1]], 6), 2)
        self.assertEqual(oracles.mccoy_rank_mod([[1, 0], [0, 2]], 4), 1)
        self.assertEqual(oracles.mccoy_rank_mod([[3]], 6), 0)

    def test_primes(self):
        self.assertTrue(oracles.is_probable_prime(1000003))
        self.assertTrue(oracles.is_probable_prime(1000000007))
        self.assertFalse(oracles.is_probable_prime(561))
        self.assertEqual(oracles.factor(360), {2: 3, 3: 2, 5: 1})
        self.assertEqual(oracles.p_part(360, 2), 8)

    def test_a2_count(self):
        self.assertEqual(oracles.a2_rep_count(3), 688)
        self.assertEqual(oracles.a2_rep_count(1), 4)


class ReducedRunTest(unittest.TestCase):
    def test_each_workload_runs_and_checks(self):
        for workload in common.WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench("--workload", workload, "--trace", "0", "--quick")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                report = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(report), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(report["correct"])
                self.assertEqual(report["failed"], 0)
                self.assertGreaterEqual(report["attempted"], 1)
                self.assertEqual(set(report["metrics"]), set(END_TO_END))
                for metric in report["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_traced_counts_repeat(self):
        self.assertEqual(check_trace.main(["--quick", "--seed", "7"]), 0)

    def test_refuses_without_program(self):
        bare = os.path.join(ROOT, common.RUN_DIR, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run_bench("--workload", "quiver-reps", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
