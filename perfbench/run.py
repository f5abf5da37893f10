#!/usr/bin/env python3
"""End-to-end benchmark of the assess engine: build, run one workload, check.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper_ssb100 --seed 1 --seconds 30 --trace 0

The first run configures and builds the program's libraries and the driver
(Release) under .bench_build/; later runs rebuild incrementally. The driver
runs the workload in its own process and prints, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics. The metric names and units come from BENCHMARK.json: this
script passes its end_to_end and per_layer lists to the driver, and fails
the run unless the printed metrics are exactly the end_to_end (--trace 0) or
per_layer (--trace 1) list.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("paper_ssb100", "session_cache", "dashboard_ingest")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/CMakeLists.txt) not found under " + ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(ROOT, ".bench_build", "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                      "--target", "perfbench_driver"])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(step))


def source_id():
    """The commit when run inside git, else a hash of the program sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def metric_lists():
    """BENCHMARK.json's end_to_end and per_layer lists, as name -> unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def as_argument(metrics):
    return ",".join("%s=%s" % item for item in metrics.items())


def check_result(line, want):
    """Returns an error message, or None when the result line is valid."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are " + ", ".join(sorted(result))
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if printed != want:
        missing = sorted(set(want) - set(printed))
        extra = sorted(set(printed) - set(want))
        units = sorted(n for n in set(want) & set(printed)
                       if want[n] != printed[n])
        return ("metrics differ from BENCHMARK.json: missing %s, extra %s, "
                "unit mismatch %s" % (missing, extra, units))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a positive integer"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    end_to_end, per_layer = metric_lists()
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--end-to-end", as_argument(end_to_end),
               "--per-layer", as_argument(per_layer),
               "--out-dir", OUT_DIR, "--source-id", source_id()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %d s"
             % (args.workload, RUN_TIMEOUT_S))
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    error = check_result(lines[-1], per_layer if args.trace else end_to_end)
    if error is not None:
        fail(error, code=3)
    print(lines[-1], flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
