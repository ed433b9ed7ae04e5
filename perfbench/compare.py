#!/usr/bin/env python3
"""Compares benchmark results of two builds, per workload and metric.

  python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are result files written by run.py, or directories of them
(for example copies of .bench_results/ taken after each side's runs). Per
workload and metric the medians over each side's untraced runs are set
against each other, with the quartile spread of each side and the bound
BENCHMARK.json fixes for the metric. Results measured on hosts or
toolchains with different fingerprints are refused: the differing
fingerprints are printed and the script exits 2 without comparing.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
from run import HOST_KEYS  # noqa: E402


def load(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".json") and not f.startswith("spans-"))
    records = []
    for name in files:
        with open(name) as f:
            record = json.load(f)
        if record.get("trace") == 0:
            records.append(record)
    if not records:
        sys.exit("compare: no untraced results in %s" % path)
    return records


def host(record):
    fp = record.get("fingerprint", {})
    return {k: fp.get(k) for k in HOST_KEYS}


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args()
    base, change = load(args.base), load(args.change)

    hosts = {json.dumps(host(r), sort_keys=True) for r in base + change}
    if len(hosts) > 1:
        print("=" * 72)
        print("FINGERPRINTS DIFFER: these results come from different hosts or "
              "toolchains")
        for h in sorted(hosts):
            print("  " + h)
        print("=" * 72)
        print("refusing to compare")
        return 2

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    worse_count = 0
    print("%-12s %-18s %12s %12s %8s %8s %8s %6s  %s" % (
        "workload", "metric", "base", "change", "change%", "spread0", "spread1",
        "bound", "verdict"))
    for workload in [w["name"] for w in spec["workloads"]]:
        a = [r for r in base if r["workload"] == workload]
        b = [r for r in change if r["workload"] == workload]
        if not a or not b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["result"]["metrics"][name]["value"] for r in a]
            vb = [r["result"]["metrics"][name]["value"] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            rel = (mb - ma) / ma if ma else 0.0
            worse = rel > metric["bound"] if metric["better"] == "lower" \
                else -rel > metric["bound"]
            unresolved = max(spread(va), spread(vb)) > metric["bound"]
            verdict = "WORSE" if worse else ("unresolved" if unresolved else "ok")
            worse_count += worse
            print("%-12s %-18s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s" % (
                workload, name, ma, mb, 100 * rel, 100 * spread(va), 100 * spread(vb),
                100 * metric["bound"], verdict))
    print("commits: base %s | change %s" % (
        sorted({r["fingerprint"].get("git_commit") for r in base}),
        sorted({r["fingerprint"].get("git_commit") for r in change})))
    return 1 if worse_count else 0


if __name__ == "__main__":
    sys.exit(main())
