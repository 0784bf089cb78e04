#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny size.

    python3 perfbench/smoke_test.py

Runs every workload twice untraced and twice traced at `--size tiny
--seconds 0` and checks that

* `BENCHMARK.json` is exactly what the benchmark's metric table prints;
* every result is correct, with no failed operation, and names every
  metric of its kind with the unit `BENCHMARK.json` gives it;
* the environment record names the fixed pool width;
* the seed-determined metrics (units mJ, frac, count and bytes) are
  bit-identical across the two runs, while a different seed changes them.

The invariants themselves (energy meter totals, continuous answer and
custody, checkpoint round trip, serve accounting, pass-to-pass
determinism) are checked inside every run; a broken one shows up here as
`correct: false`.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
DETERMINISTIC_UNITS = {"mJ", "frac", "count", "bytes"}

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run(workload, trace, seed=None):
    cmd = RUN + ["--workload", workload, "--trace", str(trace), "--size", "tiny", "--seconds", "0"]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return env, json.loads(lines[-1]), done.stderr


class Smoke(unittest.TestCase):
    def test_benchmark_json_matches_the_compiled_table(self):
        printed = subprocess.run(RUN + ["--print-spec"], cwd=ROOT, capture_output=True, text=True, check=True).stdout
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            self.assertEqual(fh.read(), printed)

    def test_every_workload(self):
        for w in SPEC["workloads"]:
            for trace, table in [(0, "end_to_end"), (1, "per_layer")]:
                with self.subTest(workload=w["name"], trace=trace):
                    first_env, first, err = run(w["name"], trace)
                    _, second, _ = run(w["name"], trace)
                    for res in (first, second):
                        self.assertTrue(res["correct"], err)
                        self.assertEqual(res["failed"], 0)
                        self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(first_env["prospector_threads"], "1")
                    self.assertIsNotNone(first_env["nproc"])
                    units = {m["name"]: m["unit"] for m in SPEC[table]}
                    self.assertEqual(set(first["metrics"]), set(units))
                    for name, m in first["metrics"].items():
                        self.assertEqual(m["unit"], units[name], name)
                        self.assertIsInstance(m["value"], (int, float), name)
                        if m["unit"] in DETERMINISTIC_UNITS:
                            self.assertEqual(m["value"], second["metrics"][name]["value"], name)

    def test_seed_changes_the_inputs(self):
        _, a, _ = run("plan_geo500", 0, seed=1)
        _, b, _ = run("plan_geo500", 0, seed=2)
        self.assertNotEqual(a["metrics"]["energy_mj_per_query"], b["metrics"]["energy_mj_per_query"])


if __name__ == "__main__":
    unittest.main()
