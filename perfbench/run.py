#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ingest|query|serve --seed N \
        --seconds S --trace 0|1

The first call configures and builds perfbench/ (and the libraries it
links from src/) into .bench_build/; later calls rebuild incrementally.
stdout carries the provenance line and, last, one JSON result
line {correct, attempted, failed, metrics}. A failed build, a failed
correctness gate or a timeout exits non-zero without a result line.

    python3 perfbench/run.py --selftest

runs the benchmark's own checks instead: a sub-second smoke run of every
workload, traced and untraced, must emit every metric BENCHMARK.json names
with its unit, and the correctness gate must trip when a wrapper store
drops or corrupts records. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "apm_perfbench")
BUILD_TYPE = "RelWithDebInfo"
# A run must end within 180 s; the margin covers the incremental build.
RUN_TIMEOUT_S = 165


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no src/ next to perfbench/: nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "apm_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout is reserved for results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def source_sha():
    """The commit when the checkout is a git repository, else a content
    hash of the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def run_bench(args, timeout_s):
    """Runs the benchmark binary once; returns (exit code, stdout lines)."""
    data_dir = os.path.join(BUILD_DIR, "data-%d" % os.getpid())
    shutil.rmtree(data_dir, ignore_errors=True)
    cmd = [BINARY] + args + ["--dir", data_dir, "--git-sha", source_sha()]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=timeout_s)
        code, out = r.returncode, r.stdout
    except subprocess.TimeoutExpired:
        log("benchmark timed out after %d s" % timeout_s)
        code, out = 124, ""
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    return code, out.splitlines()


def parse_result(lines):
    """The final JSON result line, or None if it is missing or malformed."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return result


def bench_args(workload, seed, seconds, trace, extra=()):
    return ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace)] + list(extra)


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    smoke = ["--scale", "0.05"]
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            start = time.monotonic()
            code, lines = run_bench(
                bench_args(name, 7, 0.5, trace, smoke), RUN_TIMEOUT_S)
            result = parse_result(lines)
            tag = "%s trace=%d" % (name, trace)
            if code != 0 or result is None or not result["correct"]:
                problems.append(tag + ": smoke run failed (exit %d)" % code)
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append("%s: metrics %s, expected %s" %
                                (tag, sorted(got.items()),
                                 sorted(want.items())))
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append(tag + ": bad attempted/failed counts")
            if trace == 1:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                for op in ("insert", "read", "scan"):
                    rungs = [m["engine.%s_us" % op], m["stores.%s_us" % op],
                             m["net.remote_%s_us" % op]]
                    if rungs != sorted(rungs):
                        problems.append("%s: %s rungs not ordered engine <= "
                                        "store <= remote: %s" %
                                        (tag, op, rungs))
            log("%s ok in %.1f s" % (tag, time.monotonic() - start))
    for w in spec["workloads"]:
        for inject in ("drop", "corrupt"):
            code, lines = run_bench(
                bench_args(w["name"], 7, 0.5, 0,
                            smoke + ["--inject", inject]), RUN_TIMEOUT_S)
            tag = "%s --inject %s" % (w["name"], inject)
            if code == 0 or parse_result(lines) is not None:
                problems.append(tag + ": the correctness gate did not trip")
            else:
                log(tag + ": gate tripped as expected")
    for p in problems:
        log("SELFTEST FAILURE: " + p)
    log("selftest %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not build():
        return 1
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")
    code, lines = run_bench(
        bench_args(args.workload, args.seed, args.seconds, args.trace),
        RUN_TIMEOUT_S)
    if code != 0 or parse_result(lines) is None:
        log("run failed (exit %d)" % code)
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
