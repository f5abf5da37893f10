#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workloads session_cache --seeds 1-5

For every workload and metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to a third of the metric's bound
from BENCHMARK.json, the target every spread should stay below.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed",
                                     str(seed), "--seconds", str(args.seconds),
                                     "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            last = done.stdout.rstrip("\n").split("\n")[-1]
            try:
                result = json.loads(last)
            except ValueError:
                print("%s seed %d: no result (exit %d)\n%s" %
                      (workload, seed, done.returncode, done.stderr[-2000:]))
                sys.exit(1)
            brief = {k: round(v["value"], 4)
                     for k, v in result["metrics"].items()
                     if k in bounds}
            host = ""
            for line in done.stdout.splitlines():
                if line.startswith("record "):
                    record = json.loads(line[len("record "):])
                    host = " steal %.1f%% calib %s ms" % (
                        record["host_steal_pct"], record["host_calib_ms"])
            print("%s seed %d: correct=%s attempted=%d failed=%d %s%s" %
                  (workload, seed, result["correct"], result["attempted"],
                   result["failed"], brief, host), flush=True)
            for line in done.stdout.splitlines():
                if line.startswith("error "):
                    print("  " + line)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            if len(vals) < 2 or name not in bounds:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            target = bounds[name] / 3 if bounds[name] else float("nan")
            print("  %-12s median %12.4f  spread %.4f  (target < %.4f)%s" %
                  (name, med, spread, target,
                   "" if spread < target else "  <-- too wide"))


if __name__ == "__main__":
    main()
