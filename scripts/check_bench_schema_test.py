#!/usr/bin/env python3
"""Self-test for check_bench_schema.py: runs the checker on small synthetic
reports and asserts its exit status and printed gate lines.

Run directly (python3 scripts/check_bench_schema_test.py) or through ctest
(check_bench_schema_test).
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_bench_schema.py")


def maint_record(mode, rep, visits, updates, sweeps, height):
    return {
        "mode": mode, "rep": rep, "ops_per_us": 2.0, "final_height": height,
        "committed_updates": updates, "maint_nodes_visited": visits,
        "visits_per_update": visits / updates, "maint_passes": sweeps,
        "full_sweeps": sweeps, "rotations": 0, "removals": 0,
        "queue_captured": 0, "queue_enqueued": 0, "queue_deduped": 0,
        "queue_drained": 0, "mean_drain_latency_us": 0.0, "abort_ratio": 0.0,
    }


def maintpath_report(sweep_vpu, targeted_vpu):
    return {
        "bench": "maintpath",
        "ablation_maintenance_ab": {
            "bench": "ablation_maintenance_ab",
            "meta": {"reps": 1},
            "results": [
                maint_record("sweep", 0, sweep_vpu * 1000, 1000, 4, 15),
                maint_record("targeted", 0, targeted_vpu * 1000, 1000, 1, 15),
            ],
        },
    }


def reshard_report(**overrides):
    rec = {
        "ops_per_us": 2.9, "steady_ops_per_us": 2.9,
        "migration_min_ops_per_us": 2.8, "migration_dip_ratio": 0.96,
        "abort_ratio": 0.0001, "shard_count": 4, "splits": 1, "merges": 1,
        "keys_migrated": 2500, "migration_batches": 70,
        "keys_conserved": True,
    }
    rec.update(overrides)
    return {
        "bench": "reshard_churn",
        "meta": {"threads": 4, "shards": 4, "hw_concurrency": 4,
                 "hot_percent": 95, "update_percent": 50},
        "results": [rec],
    }


class CheckBenchSchemaTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def run_checker(self, report, *args, baseline=None):
        path = os.path.join(self.tmp.name, "report.json")
        with open(path, "w") as f:
            json.dump(report, f)
        cmd = [sys.executable, CHECKER, path, *args]
        if baseline is not None:
            base = os.path.join(self.tmp.name, "baseline.json")
            with open(base, "w") as f:
                json.dump(baseline, f)
            cmd += ["--baseline", base]
        return subprocess.run(cmd, capture_output=True, text=True)

    def test_failed_saving_still_evaluates_trajectory(self):
        # Saving 12/10 = 1.2x < 1.5x; targeted 10.0 against a baseline of
        # 10.0 holds the trajectory guard.
        proc = self.run_checker(maintpath_report(12.0, 10.0),
                                baseline=maintpath_report(20.0, 10.0))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertRegex(proc.stdout, r"maintpath saving: 1\.20x.*FAIL")
        self.assertRegex(proc.stdout, r"maintpath trajectory: 10\.0.*OK")
        self.assertIn("nodes/sweep", proc.stdout)

    def test_reshard_dip_below_bound_fails(self):
        proc = self.run_checker(reshard_report(migration_dip_ratio=0.4))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertRegex(proc.stdout, r"migration_dip_ratio: 0\.40.*FAIL")

    def test_reshard_keys_not_conserved_fails(self):
        proc = self.run_checker(reshard_report(keys_conserved=False))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertRegex(proc.stdout, r"keys_conserved: false.*FAIL")

    def test_reshard_cycle_not_run_fails(self):
        # A refused split: no migration window, so the dip reads 1.0.
        proc = self.run_checker(reshard_report(
            splits=0, merges=0, migration_dip_ratio=1.0))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertRegex(proc.stdout, r"cycle_ran: splits=0.*FAIL")

    def test_good_reshard_report_passes(self):
        proc = self.run_checker(reshard_report())
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertNotIn("FAIL", proc.stdout)


if __name__ == "__main__":
    unittest.main()
