"""Self-test of the benchmark at a tiny size.

    python3 -m unittest discover -s perfbench/tests -v

Run from the root of a persim source tree. The first test to run builds
the driver (into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench); the rest take seconds each.
"""

import io
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

import compare  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_bench(workload, seed, trace=0, *extra, cwd=ROOT, env=None,
              seconds=0):
    """Run perfbench/run.py at the tiny size; returns the process."""
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds),
               "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest_of(proc):
    return re.search(r"^digest: ([0-9a-f]+)$", proc.stdout, re.M).group(1)


class Schema(unittest.TestCase):
    def test_benchmark_json_shape(self):
        bench = bench_json()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        self.assertEqual(bench["paths"], ["perfbench"])
        self.assertEqual(bench["command"], ["python3", "perfbench/run.py"])
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         ["kv_service", "fig_sweep", "crash_check"])
        names = []
        for workload in bench["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
            names.append(workload["name"])
        for metric in bench["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
            names.append(metric["name"])
        for metric in bench["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
            names.append(metric["name"])
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        for metric in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))

    def test_every_workload_prints_every_metric(self):
        bench = bench_json()
        for workload in bench["workloads"]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                proc = run_bench(workload["name"], 3, trace)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                result = result_of(proc)
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertEqual(
                    {name: m["unit"] for name, m in result["metrics"].items()},
                    {m["name"]: m["unit"] for m in bench[section]})
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertIn("host: ", proc.stdout)


class Outputs(unittest.TestCase):
    def test_same_seed_gives_identical_checked_outputs(self):
        first = run_bench("kv_service", 5)
        second = run_bench("kv_service", 5)
        other = run_bench("kv_service", 6)
        for proc in (first, second, other):
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(digest_of(first), digest_of(second))
        self.assertNotEqual(digest_of(first), digest_of(other))

    def test_perturbed_expected_output_fails_the_check(self):
        golden = os.path.join(ROOT, "tests", "conformance", "golden",
                              "conformance_report.txt")
        with open(golden, "rb") as handle:
            data = bytearray(handle.read())
        data[len(data) // 2] ^= 0x01
        perturbed = os.path.join(run.build_dir(), "perturbed_golden.txt")
        os.makedirs(run.build_dir(), exist_ok=True)
        with open(perturbed, "wb") as handle:
            handle.write(data)
        proc = run_bench("crash_check", 1, 0, "--golden", perturbed)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("CHECK FAILED: crash_check/conformance_golden",
                      proc.stdout)
        self.assertFalse(result_of(proc)["correct"])

    def test_known_defect_is_reported_only_on_migrating_groups(self):
        # Seed 5 shows the known TxnResolve defect (README.md); every
        # other hardened surface stays checked.
        proc = run_bench("crash_check", 5)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        cells = re.findall(r"^NOTE: known defect, counted as failed: "
                           r"([^:]+):", proc.stdout, re.M)
        for cell in cells:
            self.assertTrue(cell.startswith("kv-migrate-"), cell)

    def test_operation_counts_depend_on_the_seed_alone(self):
        # A longer run fits in more batches; attempted and failed count
        # the checked batch, so they must not change with it. Seed 5
        # has known-defect failures, so failed is not trivially 0.
        short = run_bench("crash_check", 5)
        longer = run_bench("crash_check", 5, seconds=4)
        for proc in (short, longer):
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertGreater(result_of(short)["failed"], 0)
        for key in ("attempted", "failed"):
            self.assertEqual(result_of(short)[key], result_of(longer)[key])

    def test_fails_without_the_sources(self):
        bare = os.path.join(run.build_dir(), "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.dirname(HERE), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = run_bench("fig_sweep", 1, cwd=bare, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class Compare(unittest.TestCase):
    def record(self, cpu, wall):
        return {"workload": "fig_sweep", "seed": 1, "trace": 0,
                "host": {"nproc": 4, "cpu": cpu, "build_type": "Release",
                         "compiler": "GNU 12", "rev": "r"},
                "result": {"metrics": {
                    m["name"]: {"value": wall, "unit": m["unit"]}
                    for m in bench_json()["end_to_end"]}}}

    def test_crossing_hosts_prints_both_fingerprints(self):
        out = io.StringIO()
        compare.compare([self.record("cpu A", 1.0)],
                        [self.record("cpu B", 1.0)], bench_json(), out)
        self.assertIn("hosts differ", out.getvalue())
        self.assertIn("cpu A", out.getvalue())
        self.assertIn("cpu B", out.getvalue())

    def test_regression_beyond_bound_is_flagged(self):
        out = io.StringIO()
        regressions = compare.compare([self.record("cpu", 1.0)],
                                      [self.record("cpu", 2.0)],
                                      bench_json(), out)
        self.assertNotIn("hosts differ", out.getvalue())
        self.assertIn("WORSE", out.getvalue())
        self.assertGreater(regressions, 0)


if __name__ == "__main__":
    unittest.main()
