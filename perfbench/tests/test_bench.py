"""Tests of the benchmark itself. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

They build the benchmark's C++ unit tests (perfbench/tests/test_stats.cpp), run a
tiny configuration of every workload in both trace modes and check that
it reports every metric BENCHMARK.json names with its unit, check that the
correctness gate trips on a tampered reward, and check that the benchmark
refuses to run without the repository's sources.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
SCRATCH = os.path.join(ROOT, ".bench_build")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class SpecTest(unittest.TestCase):
    def test_benchmark_json_is_well_formed(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        runs = 4 + 22 * len(spec["workloads"])
        self.assertLess(runs * (spec["run_seconds"] + 10), 3420)
        names = set()
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            self.assertGreater(m["bound"], 0)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertNotIn(m["name"], names)
            names.add(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class UnitTest(unittest.TestCase):
    def test_helpers(self):
        build = os.path.join(SCRATCH, "perfbench-tests")
        for cmd in (["cmake", "-S", BENCH, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release",
                     "-DPERFBENCH_BUILD_TESTS=ON"],
                    ["cmake", "--build", build, "--target", "perfbench_tests",
                     "-j", "4"]):
            done = subprocess.run(cmd, capture_output=True, text=True)
            self.assertEqual(done.returncode, 0, done.stdout[-4000:])
        done = subprocess.run([os.path.join(build, "perfbench_tests")],
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stdout[-4000:])


class WorkloadTest(unittest.TestCase):
    def check_run(self, workload, trace):
        spec = load_spec()
        proc = run(workload, trace, "--tiny")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = result_of(proc)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in wanted})
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        if not trace:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)
        return result

    def test_paper(self):
        self.check_run("paper", 0)
        self.check_run("paper", 1)

    def test_city(self):
        self.check_run("city", 0)
        layers = self.check_run("city", 1)["metrics"]
        self.assertGreater(layers["run.threads"]["value"], 1)

    def test_served(self):
        self.check_run("served", 0)
        layers = self.check_run("served", 1)["metrics"]
        self.assertEqual(layers["run.peers"]["value"], 1)
        self.assertGreater(layers["serve.lines_per_slot"]["value"], 0)


class GateTest(unittest.TestCase):
    def check_trips(self, workload, trace):
        proc = run(workload, trace, "--tiny", "--tamper-reward")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIs(result_of(proc)["correct"], False)
        self.assertIn("GATE FAILED", proc.stdout)

    def test_traced_vs_untraced_reward(self):
        self.check_trips("paper", 1)
        self.check_trips("city", 1)

    def test_served_vs_in_process_reward(self):
        self.check_trips("served", 0)


class MissingSourcesTest(unittest.TestCase):
    def test_refuses_without_the_repository(self):
        bare = os.path.join(SCRATCH, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("paper", 0, cwd=bare,
                       script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
