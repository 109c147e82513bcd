#!/usr/bin/env python3
"""Persim benchmark: build the driver from source, run one workload,
check its metrics against BENCHMARK.json and print the result.

    python3 perfbench/run.py --workload kv_service --seed 1 --seconds 20 --trace 0

Run from the root of a persim source tree. The driver is built with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is the host
fingerprint. Each result is also kept, with its fingerprint, under
<build dir>/results/ for perfbench/compare.py. With --trace 1 the span
trace of the traced batches is written to <build dir>/traces/.

Extra options (--size tiny, --golden PATH) are passed to the driver.
Exit status: 0 when the run finished, every output check held and
every metric is present; non-zero otherwise.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure and build the driver; returns the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "-j", jobs, "--target", "persim_perfbench"],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(bdir, "persim_perfbench")


def source_rev():
    """Git revision, or a content hash when the tree is not a clone."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  check=True, capture_output=True,
                                  text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha1()
    for top in ("src", "bench", "perfbench"):
        for path in sorted(glob.glob(os.path.join(ROOT, top, "**", "*"),
                                     recursive=True)):
            if os.path.isfile(path):
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def fingerprint(bdir):
    """nproc, CPU model, build type, compiler and source revision."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type, compiler = "unknown", "unknown"
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as handle:
            for line in handle:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    for path in glob.glob(os.path.join(bdir, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        fields = {}
        with open(path) as handle:
            for line in handle:
                for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                    if line.startswith("set(%s " % key):
                        fields[key] = line.split('"')[1]
        compiler = "%s %s" % (fields.get("CMAKE_CXX_COMPILER_ID", "?"),
                              fields.get("CMAKE_CXX_COMPILER_VERSION", "?"))
    return {"nproc": os.cpu_count(), "cpu": cpu, "build_type": build_type,
            "compiler": compiler, "rev": source_rev()}


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    section = bench["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def incomplete(metrics, expected):
    """Problems that make a result unusable: a missing, extra,
    mis-unit, non-numeric, NaN or negative metric."""
    problems = []
    for name, unit in sorted(expected.items()):
        if name not in metrics:
            problems.append("missing metric %s" % name)
            continue
        value = metrics[name].get("value")
        if metrics[name].get("unit") != unit:
            problems.append("%s has unit %r, expected %r"
                            % (name, metrics[name].get("unit"), unit))
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or math.isnan(value) or math.isinf(value) or value < 0):
            problems.append("%s has bad value %r" % (name, value))
    for name in sorted(set(metrics) - set(expected)):
        problems.append("unexpected metric %s" % name)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["kv_service", "fig_sweep", "crash_check"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.SubprocessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 1

    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--golden", os.path.join(ROOT, "tests", "conformance",
                                        "golden", "conformance_report.txt")]
    if args.trace:
        os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
        command += ["--trace-out", os.path.join(bdir, "traces", tag + ".json")]
    command += extra
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as error:
        print("perfbench: driver did not finish: %s" % error, file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        print("perfbench: driver exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    problems = incomplete(result["metrics"], expected_metrics(args.trace))
    if problems:
        for problem in problems:
            print("perfbench: %s" % problem, file=sys.stderr)
        return 1
    correct = result["correct"] and proc.returncode == 0

    host = fingerprint(bdir)
    final = {"correct": correct, "attempted": result["attempted"],
             "failed": result["failed"], "metrics": result["metrics"]}
    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    with open(os.path.join(bdir, "results", tag + ".json"), "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "host": host, "result": final}, handle, indent=1)
    print("\n".join(lines[:-1]))
    print("host: " + json.dumps(host, sort_keys=True))
    print(json.dumps(final))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
