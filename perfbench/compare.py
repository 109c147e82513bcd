#!/usr/bin/env python3
"""Compare two sets of benchmark results kept by perfbench/run.py.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds result records (<build dir>/results/*.json) of one
commit. For every workload and end-to-end metric the script prints the
median over the records of each side, the change as a share of the
base median (positive is worse, by the metric's "better" direction),
the bound BENCHMARK.json fixes, and a verdict. When the two sides ran
on different hosts (nproc, CPU, build type or compiler differ) it
prints both fingerprints first, so a machine change is not read as a
regression. Exit status: 1 when a metric got worse by more than its
bound, else 0.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = ("nproc", "cpu", "build_type", "compiler")


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as handle:
            records.append(json.load(handle))
    return records


def hosts(records):
    return sorted({json.dumps({k: r["host"].get(k) for k in HOST_KEYS},
                              sort_keys=True) for r in records})


def compare(base, head, bench, out=sys.stdout):
    """Print the comparison; returns the number of regressions."""
    base_hosts, head_hosts = hosts(base), hosts(head)
    if base_hosts != head_hosts:
        out.write("hosts differ; a change may be the machine's:\n")
        for side, fps in (("base", base_hosts), ("head", head_hosts)):
            for fp in fps:
                out.write("  %s host: %s\n" % (side, fp))
    for side, records in (("base", base), ("head", head)):
        revs = sorted({r["host"].get("rev", "?") for r in records})
        out.write("%s rev: %s\n" % (side, ", ".join(revs)))

    regressions = 0
    workloads = sorted({r["workload"] for r in base + head if not r["trace"]})
    for workload in workloads:
        out.write("%s\n" % workload)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            sides = []
            for records in (base, head):
                values = [r["result"]["metrics"][name]["value"]
                          for r in records
                          if r["workload"] == workload and not r["trace"]]
                sides.append(statistics.median(values) if values else None)
            if None in sides:
                out.write("  %-14s missing on one side\n" % name)
                continue
            old, new = sides
            worse = (new - old) if metric["better"] == "lower" else (old - new)
            share = worse / old if old else 0.0
            verdict = "ok"
            if share > metric["bound"]:
                verdict = "WORSE"
                regressions += 1
            elif share < -metric["bound"]:
                verdict = "better"
            out.write("  %-14s base %-12.6g head %-12.6g worse by %+7.2f%% "
                      "(bound %.0f%%) %s\n"
                      % (name, old, new, 100 * share, 100 * metric["bound"],
                         verdict))
    return regressions


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    return 1 if compare(load(argv[1]), load(argv[2]), bench) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
