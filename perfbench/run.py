#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload uni-adhoc --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout.  The script builds
perfbench/perfbench.exe with dune (build output goes to stderr), runs
the workload in a fresh process and relays its report; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1).  `--workload all` runs every workload, each in
a fresh process, and ends with a combined JSON line.

Runs with PASCALR_JOBS, PASCALR_BATCH_SIZE or PASCALR_NO_INDEX set are
refused, so two runs always compare like with like.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["uni-adhoc", "supp-division", "supp-rw"]
OVERRIDES = ("PASCALR_JOBS", "PASCALR_BATCH_SIZE", "PASCALR_NO_INDEX")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("dune is not on PATH")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no dune project with lib/ at %s: the benchmark builds the "
            "library from source" % ROOT)
    # No shared cache: the build reads and writes only inside the checkout.
    cmd = dune_command() + ["build", "--root", ".", "--cache=disabled",
                            "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0:
        die("build failed (exit %d)" % r.returncode)
    return os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")


def run_one(exe, workload, args):
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(ROOT, ".perfbench")]
    if args.short:
        cmd.append("--short")
    if args.inject_wrong_answer:
        cmd.append("--inject-wrong-answer")
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
        die("%s exited with %d" % (workload, r.returncode), 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("%s printed no result line" % workload, 1)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("%s printed a malformed result line" % workload, 1)
    return lines[:-1], result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=38.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--short", action="store_true",
                   help="no minimum sample counts and two set-ups: a smoke run")
    p.add_argument("--inject-wrong-answer", action="store_true",
                   help="check one read against a deliberately wrong answer")
    args = p.parse_args()
    for v in OVERRIDES:
        if v in os.environ:
            die("%s is set; unset it so runs compare like with like" % v)
    exe = build()
    if args.workload != "all":
        report, result = run_one(exe, args.workload, args)
        print("\n".join(report))
        print(json.dumps(result))
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        report, result = run_one(exe, w, args)
        print("\n".join(report))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][w + "/" + name] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
