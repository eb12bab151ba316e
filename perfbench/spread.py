#!/usr/bin/env python3
"""Measure the run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload supp-rw --seeds 1-10

Runs the benchmark once per seed (each run a fresh process, untraced)
and prints, per end-to-end metric of BENCHMARK.json, the median and the
interquartile range as a share of the median (quartiles as
statistics.quantiles(values, n=4) gives them), next to the metric's
bound and a third of it.  The same figures follow for the unscaled
wall-clock metrics the report prints (raw.*) and for the host's
slowdown against the reference host, so the two can be compared.  Run
from the root of the checkout.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPORTED = ["raw.throughput_rps", "raw.read_p50_ms", "raw.read_p99_ms", "raw.setup_s",
            "host.slowdown"]
METRIC_LINE = re.compile(r"^metric (\S+)\s.*value=(\S+)$")


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(v):
    med = statistics.median(v)
    q1, _, q3 = statistics.quantiles(v, n=4)
    return med, (q3 - q1) / med


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float)
    args = p.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    reported = {n: [] for n in REPORTED}
    for seed in seeds_of(args.seeds):
        r = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = r.stdout.strip().split("\n")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit("seed %d: incorrect result %s" % (seed, result))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        for line in lines:
            m = METRIC_LINE.match(line)
            if m and m.group(1) in reported:
                reported[m.group(1)].append(float(m.group(2)))
        print("seed %d: %s | %s" % (seed, " ".join(
            "%s=%.4g" % (n, v[-1]) for n, v in values.items()), " ".join(
            "%s=%.4g" % (n, v[-1]) for n, v in reported.items() if v)), flush=True)
    print("%-20s %12s %10s %8s %8s" % ("metric", "median", "iqr/med", "bound", "bound/3"))
    for m in bench["end_to_end"]:
        med, iqr = spread(values[m["name"]])
        print("%-20s %12.5g %10.4f %8.3f %8.4f" % (
            m["name"], med, iqr, m["bound"], m["bound"] / 3))
    for name, v in reported.items():
        if len(v) >= 2:
            med, iqr = spread(v)
            print("%-20s %12.5g %10.4f" % (name, med, iqr))


if __name__ == "__main__":
    main()
