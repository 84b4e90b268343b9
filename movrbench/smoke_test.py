#!/usr/bin/env python3
"""Smoke test of the MoVR benchmark at a tiny size.

    python3 movrbench/smoke_test.py

Runs every workload through run.py with --size tiny, untraced and traced,
and asserts that every metric is emitted with its unit and a finite value
(null only for a frame latency the transport reports as +inf), that every
correctness check passed, and that the benchmark refuses to run without
the library sources. Takes about a minute after the first build.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402  (the benchmark module itself)

# The end-to-end metrics of each workload, beyond the contract's three.
REPORT_METRICS = {
    "arena_dense": {"user_sim_s_per_s": "user-s/s", "glitch_frac": "frac",
                    "frame_ms_p50": "ms"},
    "session_chaos": {"user_sim_s_per_s": "user-s/s", "glitch_frac": "frac",
                      "frame_ms_p50": "ms"},
    "plan_room": {"plan_s": "s", "outage_frac": "frac"},
}
# Layers that must do work (> 0 per unit) or none (== 0) on each workload.
ACTIVE = {
    "arena_dense": ["arena.interference.calls", "arena.lease.calls",
                    "arena.admission.calls", "phy.link.calls",
                    "channel.oracle.queries", "core.gain_control.calls",
                    "core.link_manager.calls", "net.transport.calls",
                    "sim.events", "rf.field.calls"],
    "session_chaos": ["phy.link.calls", "channel.oracle.queries",
                      "channel.solver.pairs", "core.gain_control.calls",
                      "core.link_manager.calls", "net.transport.calls",
                      "sim.events", "log.records", "log.bytes",
                      "log.recorder.self_s", "log.verify_s"],
    "plan_room": ["phy.link.calls", "channel.oracle.queries",
                  "channel.solver.pairs", "core.gain_control.calls",
                  "rf.field.calls"],
}
IDLE = {
    "arena_dense": ["log.records", "log.bytes"],
    "session_chaos": ["arena.interference.calls", "arena.lease.calls"],
    "plan_room": ["sim.events", "net.transport.calls",
                  "core.link_manager.calls"],
}


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(run.DEFAULT_SEED), "--seconds", "0.5", "--trace",
         str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            cls.contract = json.load(f)

    def parse(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertTrue(lines[-2].startswith("report: "))
        report = json.loads(lines[-2][len("report: "):])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(report["metrics"]["check_fail_frac"]["value"], 0.0)
        return result, report

    def assert_contract(self, result, section):
        wanted = {m["name"]: m["unit"] for m in self.contract[section]}
        self.assertEqual(set(result["metrics"]), set(wanted))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], wanted[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
            self.assertTrue(math.isfinite(metric["value"]), name)

    def test_end_to_end(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, report = self.parse(bench(workload, 0))
                self.assert_contract(result, "end_to_end")
                for name in ("unit_wall_s", "setup_s", "peak_rss_mb"):
                    self.assertGreater(result["metrics"][name]["value"], 0)
                env = report["env"]
                for key in ("commit", "source_digest", "build_type",
                            "compiler", "threads", "nproc", "seed",
                            "heldout_seed"):
                    self.assertIn(key, env)
                self.assertNotIn(env["build_type"], ("Debug", ""))
                for name, unit in REPORT_METRICS[workload].items():
                    metric = report["metrics"][name]
                    self.assertEqual(metric["unit"], unit, name)
                    value = metric["value"]
                    if value is None:  # only a +inf transport latency
                        self.assertEqual(name, "frame_ms_p50")
                    else:
                        self.assertTrue(math.isfinite(value), name)

    def test_per_layer(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, report = self.parse(bench(workload, 1))
                self.assert_contract(result, "per_layer")
                metrics = result["metrics"]
                for name in ACTIVE[workload]:
                    self.assertGreater(metrics[name]["value"], 0, name)
                for name in IDLE[workload]:
                    self.assertEqual(metrics[name]["value"], 0, name)
                self.assertIn("cross_check", report)

    def test_refuses_without_sources(self):
        bare = run.build_dir().parent / "smoke_bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "movrbench/run.py", "--workload", "plan_room",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
