#!/usr/bin/env python3
"""Builds and runs the TrafficBench benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --test          # the benchmark's own unit tests

The first call configures and builds the library and the perfbench binary
under the build directory ($CARGO_TARGET_DIR, default .bench_build). Every
run prints the binary's report, a host fingerprint line, and as its last
line the result object. It also writes the result, with the fingerprint, to
.bench_results/<workload>-seed<seed>-trace<0|1>.json. A traced run prints
the tracing overhead against the untraced result of the same workload and
seed, when one exists. compare.py compares result files.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".bench_results")
RUN_TIMEOUT_S = 175
ISA_FLAGS = ("avx2", "fma", "avx512f", "avx512_vnni", "avx512_bf16", "amx_tile",
             "amx_bf16", "amx_int8")
HOST_KEYS = ("cpu_model", "isa", "nproc", "compiler", "build_type", "cxx_flags")


class BenchError(Exception):
    pass


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no library sources next to the benchmark (expected src/)")
    bdir = build_dir()
    log = sys.stderr
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", bdir, "-j", jobs]
    for target in targets:
        cmd += ["--target", target]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        raise BenchError("build failed")
    return bdir


def read_text(path):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            return f.read()
    except OSError:
        return ""


def source_digest():
    """sha256 over the library and benchmark sources: names the code even
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def fingerprint(bdir):
    cpuinfo = read_text("/proc/cpuinfo")
    model = re.search(r"^model name\s*:\s*(.*)$", cpuinfo, re.M)
    flags = re.search(r"^flags\s*:\s*(.*)$", cpuinfo, re.M)
    present = set(flags.group(1).split()) if flags else set()
    cache = read_text(os.path.join(bdir, "CMakeCache.txt"))
    compiler_path = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache, re.M)
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    compiler = "unknown"
    if compiler_path:
        proc = subprocess.run([compiler_path.group(1), "--version"],
                              capture_output=True, text=True)
        compiler = proc.stdout.splitlines()[0] if proc.stdout else compiler_path.group(1)
    # The flags the library was really compiled with.
    flags_make = read_text(os.path.join(
        bdir, "trafficbench", "CMakeFiles", "trafficbench.dir", "flags.make"))
    cxx_flags = re.search(r"^CXX_FLAGS = (.*)$", flags_make, re.M)
    return {
        "cpu_model": model.group(1).strip() if model else "unknown",
        "isa": [f for f in ISA_FLAGS if f in present],
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "build_type": build_type.group(1) if build_type else "unknown",
        "cxx_flags": cxx_flags.group(1).strip() if cxx_flags else "unknown",
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def host_differences(a, b):
    return [k for k in HOST_KEYS if a.get(k) != b.get(k)]


def parse_e2e(lines):
    for line in lines:
        if line.startswith("e2e:"):
            pairs = (item.split("=", 1) for item in line[4:].split())
            return {k: float(v) for k, v in pairs}
    return {}


def result_path(workload, seed, trace):
    return os.path.join(RESULTS, "%s-seed%s-trace%d.json" % (workload, seed, trace))


def tracing_overhead(args, fp, e2e):
    """Traced minus untraced end-to-end numbers, for the same workload and
    seed on the same host."""
    path = result_path(args.workload, args.seed, 0)
    try:
        with open(path) as f:
            untraced = json.load(f)
    except (OSError, ValueError):
        return None, "no untraced result for this workload and seed yet (%s)" % path
    diff = host_differences(fp, untraced.get("fingerprint", {}))
    if diff:
        return None, "untraced result was measured on another host (%s)" % ", ".join(diff)
    if untraced["fingerprint"].get("source_digest") != fp["source_digest"]:
        return None, "untraced result was measured with other code"
    base = untraced.get("e2e", {})
    overhead = {k: e2e[k] - base[k] for k in e2e if k in base}
    return overhead, None


def run(args):
    bdir = build(["perfbench"])
    os.makedirs(RESULTS, exist_ok=True)
    spans = os.path.join(RESULTS, "spans-%s-seed%s.json" % (args.workload, args.seed))
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not lines:
        raise BenchError("perfbench exited with %d and printed nothing" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        raise BenchError("perfbench exited with %d without a result line" % proc.returncode)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError("malformed result line")

    for line in lines[:-1]:
        print(line)
    fp = fingerprint(bdir)
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    e2e = parse_e2e(lines)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": fp, "e2e": e2e, "result": result}
    if args.trace:
        overhead, why = tracing_overhead(args, fp, e2e)
        if overhead is None:
            print("tracing overhead: unavailable: " + why)
        else:
            record["tracing_overhead"] = overhead
            for name in sorted(overhead):
                print("tracing overhead: %s %+.6g (traced minus untraced)" %
                      (name, overhead[name]))
    with open(result_path(args.workload, args.seed, args.trace), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(lines[-1])
    sys.stdout.flush()
    return proc.returncode


def run_tests():
    bdir = build(["perfbench_tests"])
    return subprocess.run([os.path.join(bdir, "perfbench_tests")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["train_sweep", "serve_mixed",
                                               "serve_hot", "city_scale"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()
    try:
        if args.test:
            return run_tests()
        if args.workload is None:
            parser.error("--workload is required")
        return run(args)
    except BenchError as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
