#!/usr/bin/env python3
"""Smoke test of the benchmark: short runs of every workload.

    python3 perfbench/test/smoke.py

Run from the root of the checkout.  It asserts that
- every short run exits 0 and ends with a well-formed result line;
- an untraced run prints every end-to-end metric by name with its unit,
  the host's slowdown and the unscaled wall-clock figures, and its
  result holds exactly BENCHMARK.json's end_to_end metrics;
- a traced run prints and reports exactly BENCHMARK.json's per_layer
  metrics, each with its unit, and supp-division's traced run feeds the
  batch kernels rows;
- every answer is right at HEAD (error_rate 0, correct true), and a
  deliberately wrong expected answer drives error_rate above 0;
- a PASCALR_* override is refused;
- in a directory that holds only BENCHMARK.json and perfbench/, the
  benchmark fails without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join("perfbench", "run.py")

COMMON = {"throughput_rps": "1/s", "read_p50_ms": "ms", "read_p99_ms": "ms",
          "error_rate": "ratio", "setup_s": "s", "heap_peak_mb": "MB",
          "host.slowdown": "ratio", "host.probe_ms": "ms", "raw.throughput_rps": "1/s",
          "raw.read_p50_ms": "ms", "raw.read_p99_ms": "ms", "raw.setup_s": "s"}
WRITES = {"write_p50_ms": "ms", "write_p99_ms": "ms", "write_amp": "ratio"}
METRIC_LINE = re.compile(r"^metric (\S+)\s+unit=(\S+)\s+n=(\d+)\s+q1=\S+\s+median=\S+\s+q3=\S+\s+value=(.+)$")

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL " + what, flush=True)


def run(workload, trace, *extra, cwd=ROOT, env=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--short"] + list(extra)
    r = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, env=env, timeout=600)
    return r.returncode, r.stdout.rstrip("\n").split("\n"), r.stderr


def printed(lines):
    out = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            out[m.group(1)] = (m.group(2), m.group(4))
    return out


def result_of(lines):
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if sorted(result) == ["attempted", "correct", "failed", "metrics"] else None


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in [x["name"] for x in bench["workloads"]]:
        rc, lines, err = run(w, 0)
        check(rc == 0, "%s trace 0 exits 0 (%s)" % (w, err.strip()[-300:]))
        result = result_of(lines)
        check(result is not None, "%s trace 0 ends with a result line" % w)
        if result is None:
            continue
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
              "%s answers are all right: %s" % (w, lines[-1][:200]))
        check({k: v["unit"] for k, v in result["metrics"].items()} == e2e,
              "%s result holds exactly the end_to_end metrics" % w)
        shown = printed(lines)
        wanted = dict(COMMON, **(WRITES if w == "supp-rw" else {}))
        for name, unit in wanted.items():
            check(name in shown and shown[name][0] == unit,
                  "%s prints %s with unit %s" % (w, name, unit))
        check("error_rate" in shown and float(shown["error_rate"][1]) == 0.0,
              "%s error_rate is 0" % w)

        rc, lines, err = run(w, 1)
        check(rc == 0, "%s trace 1 exits 0 (%s)" % (w, err.strip()[-300:]))
        result = result_of(lines)
        check(result is not None and result["correct"], "%s trace 1 result is correct" % w)
        if result is not None:
            check({k: v["unit"] for k, v in result["metrics"].items()} == layers,
                  "%s traced result holds exactly the per_layer metrics" % w)
        shown = printed(lines)
        for name, unit in layers.items():
            check(name in shown and shown[name][0] == unit,
                  "%s traced run prints %s with unit %s" % (w, name, unit))
        if w == "supp-division" and "batch.rows_in" in shown:
            check(float(shown["batch.rows_in"][1]) > 0,
                  "supp-division runs the batch kernels (batch.rows_in > 0)")

    rc, lines, _ = run("uni-adhoc", 0, "--inject-wrong-answer")
    shown = printed(lines)
    result = result_of(lines)
    check(rc == 0 and result is not None and not result["correct"] and result["failed"] > 0,
          "a wrong expected answer makes the result incorrect")
    check("error_rate" in shown and float(shown["error_rate"][1]) > 0.0,
          "a wrong expected answer drives error_rate above 0")

    env = dict(os.environ, PASCALR_JOBS="1")
    rc, lines, _ = run("uni-adhoc", 0, env=env)
    check(rc != 0 and result_of(lines) is None, "a PASCALR_JOBS override is refused")

    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines, _ = run("uni-adhoc", 0, cwd=bare)
    check(rc != 0 and result_of(lines) is None,
          "without the sources the benchmark fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    if failures:
        print("%d check(s) failed" % len(failures))
        sys.exit(1)
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
