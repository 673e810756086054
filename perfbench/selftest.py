"""Self-tests of the benchmark, on the small --smoke levels (about 20 s).

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that every metric named in
BENCHMARK.json is emitted with its unit, that spans nest with
non-negative self times, that per-layer self times add up to run_s
within the measured trace overhead, that exact counts repeat across
runs, that an output off its reference is a failed operation (not a
crash), and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import OUT_DIR, REFERENCE, WORKLOADS  # noqa: E402

COUNTS = ("network.cg_iters", "subdivision.map_calls", "subdivision.simplices",
          "graphs.edges", "cli.bytes_out")


def bench(*args, cwd=None):
    """Run run.py in smoke mode; return (exit code, stdout lines)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--smoke", "--seconds", "0", *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def record(workload, seed, trace):
    with open(os.path.join(OUT_DIR, f"{workload}-smoke-seed{seed}-trace{trace}.json")) as fh:
        return json.load(fh)


class SmokeRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open("BENCHMARK.json") as fh:
            cls.spec = json.load(fh)
        cls.results = {}
        for w in WORKLOADS:
            for seed, trace in ((1, 0), (1, 1), (2, 1)):
                code, lines = bench("--workload", w, "--seed", str(seed), "--trace", str(trace))
                assert code == 0, (w, seed, trace, lines[-3:])
                cls.results[w, seed, trace] = (lines, json.loads(lines[-1]))

    def test_every_metric_is_emitted_with_its_unit(self):
        for (w, seed, trace), (lines, res) in self.results.items():
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                want = self.spec["per_layer" if trace else "end_to_end"]
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, {m["name"]: m["unit"] for m in want})
                for v in res["metrics"].values():
                    self.assertIsInstance(v["value"], (int, float))
                self.assertTrue(any(line.split()[1:2] == ["fail_frac"] for line in lines))

    def test_spans_nest_and_self_times_are_non_negative(self):
        for w in WORKLOADS:
            for proc in record(w, 1, 1)["processes"]:
                spans = proc.get("spans", [])
                for s in spans:
                    self.assertGreaterEqual(s["self"], -1e-9, s)
                    if s["parent"] is not None:
                        p = spans[s["parent"]]
                        self.assertLessEqual(p["start"], s["start"], (p, s))
                        self.assertLessEqual(s["end"], p["end"], (p, s))

    def test_layer_self_times_add_up_to_run_s(self):
        for w in WORKLOADS:
            procs = record(w, 1, 1)["processes"]
            untraced = next(p for p in procs if "spans" not in p)
            traced = next(p for p in procs if "spans" in p)
            total = sum(traced["run_self_s"].values()) + traced["run_map_s"]
            self.assertAlmostEqual(total, traced["traced_run_s"], delta=1e-6)
            overhead = abs(traced["wall_run_s"] - untraced["wall_run_s"])
            slack = overhead + 0.01 * untraced["wall_run_s"] + 1e-3
            self.assertLessEqual(abs(total - untraced["wall_run_s"]), slack, w)

    def test_counts_repeat_exactly(self):
        for w in WORKLOADS:
            a = self.results[w, 1, 1][1]["metrics"]
            b = self.results[w, 2, 1][1]["metrics"]
            for name in COUNTS:
                self.assertEqual(a[name]["value"], b[name]["value"], (w, name))


class FailurePaths(unittest.TestCase):
    def test_value_off_reference_is_a_failed_operation(self):
        with open(REFERENCE) as fh:
            ref = json.load(fh)
        ref["smoke"]["rho6"]["resistance hexacarpet 2"]["R"] *= 1 + 1e-6
        path = os.path.join(OUT_DIR, "perturbed-reference.json")
        with open(path, "w") as fh:
            json.dump(ref, fh)
        code, lines = bench("--workload", "rho6", "--reference", path)
        res = json.loads(lines[-1])
        self.assertEqual(code, 0)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertEqual(res["attempted"], len(ref["smoke"]["rho6"]))

    def test_refuses_to_run_without_the_program(self):
        bare = os.path.join(OUT_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out"))
        shutil.copy("BENCHMARK.json", bare)
        code, lines = bench("--workload", "rho6", cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
