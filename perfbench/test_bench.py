#!/usr/bin/env python3
"""The fleet benchmark's own tests, on reduced fleets.

    python3 perfbench/test_bench.py

Builds the benchmark like run.py does, then checks for every workload:
books balance; two runs give the same sim_digest; a traced run reports
the same simulated outputs as an untraced one; metric names are well
formed and match BENCHMARK.json; the per-layer zeros the README
predicts hold. Also checks that run.py refuses to run without the
program's sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SEED = 3


def bench(workload, traced=False, seed=SEED):
    return run.repetition(workload, seed, traced, small=True)


def run_cli(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace",
         str(trace), "--small"],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def contract():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class FleetBench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.plain = {w: bench(w) for w in run.WORKLOADS}
        cls.traced = {w: bench(w, traced=True) for w in run.WORKLOADS}

    def test_books_balance(self):
        for w in run.WORKLOADS:
            for record in (self.plain[w], self.traced[w]):
                self.assertTrue(record["ok"], w)
                self.assertTrue(record["cloud_books"], w)
                self.assertTrue(record["serve_books"], w)
                self.assertTrue(record["energy_closes"], w)
                self.assertGreater(record["vm_requests"], 0, w)

    def test_sim_digest_repeats(self):
        for w in run.WORKLOADS:
            again = bench(w)
            self.assertEqual(run.simulated(again), run.simulated(self.plain[w]),
                             w)
            self.assertRegex(again["sim_digest"], r"^[0-9a-f]{16}$")

    def test_seed_changes_inputs(self):
        other = bench("fleet-day", seed=SEED + 1)
        self.assertNotEqual(other["sim_digest"],
                            self.plain["fleet-day"]["sim_digest"])

    def test_traced_matches_untraced(self):
        for w in run.WORKLOADS:
            self.assertEqual(run.simulated(self.traced[w]),
                             run.simulated(self.plain[w]), w)
            self.assertNotIn("layers", self.plain[w])

    def test_metric_names_match_contract(self):
        spec = contract()
        per_layer = {m["name"] for m in spec["per_layer"]}
        for w in run.WORKLOADS:
            layers = set(self.traced[w]["layers"])
            self.assertEqual(layers | {"bench.trace_overhead_s"}, per_layer, w)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         run.WORKLOADS)

    def test_predicted_zeros(self):
        def layer(w, name):
            return self.traced[w]["layers"][name]["value"]

        idle_on_fleet_day = [
            "openstack.evacuations", "openstack.mig_submitted",
            "openstack.mig_completed", "openstack.inject_s",
            "serve.requests", "daemons.errors_correctable",
            "hypervisor.node_crashes", "telemetry.trace_events"]
        for name in idle_on_fleet_day:
            self.assertEqual(layer("fleet-day", name), 0, name)
        for w in ("fleet-day", "serve-peak"):
            self.assertEqual(layer(w, "core.commission_s"), 0, w)
            self.assertEqual(layer(w, "daemons.stresslog_cycles"), 0, w)
        self.assertEqual(layer("eop-storm", "serve.requests"), 0)
        self.assertGreater(layer("serve-peak", "serve.requests"), 0)
        self.assertGreater(layer("eop-storm", "daemons.stresslog_cycles"), 0)
        self.assertGreater(layer("eop-storm", "openstack.mig_completed"), 0)
        self.assertGreater(layer("eop-storm", "daemons.errors_correctable"), 0)
        for w in run.WORKLOADS:
            self.assertGreater(layer(w, "hypervisor.node_ticks"), 0, w)

    def test_result_line(self):
        spec = contract()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run_cli("eop-storm", trace)
            self.assertEqual(code, 0)
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(set(result["metrics"]),
                             {m["name"] for m in spec[key]})
            for m in spec[key]:
                self.assertEqual(result["metrics"][m["name"]]["unit"],
                                 m["unit"])

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "fleet-day", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
