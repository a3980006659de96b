#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark (see README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (with the pobp sources next
to it) into .bench_build/perfbench; later calls only rebuild what changed.
Build output goes to stderr, so the last stdout line is always the result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "pobp_perfbench")
SELFTEST = os.path.join(BUILD, "perfbench_selftest")
RUN_TIMEOUT_S = 175
# Short windows for the smoke test: a few hundred ops per workload.
SMOKE_SECONDS = {"serve_small": "0.1", "serve_cache": "0.5", "batch_large": "1"}


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def run_binary(args):
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def selftest():
    if not build("perfbench_selftest") or not build("pobp_perfbench"):
        return 1
    if subprocess.run([SELFTEST]).returncode:
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run_binary(["--workload", workload, "--seed", "1",
                                    "--seconds", SMOKE_SECONDS[workload],
                                    "--trace", trace])
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            metrics = result.get("metrics", {})
            problems = []
            if code != 0 or result.get("correct") is not True:
                problems.append("exit %d, correct=%s" % (code, result.get("correct")))
            for m in spec[group]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("missing " + m["name"])
                elif got.get("unit") != m["unit"]:
                    problems.append("%s unit %s, want %s"
                                    % (m["name"], got.get("unit"), m["unit"]))
            extra = set(metrics) - {m["name"] for m in spec[group]}
            problems += ["unlisted metric " + name for name in sorted(extra)]
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("smoke %-12s trace=%s %4d ops  %s"
                  % (workload, trace, result.get("attempted", 0), status))
            failures += bool(problems)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests and smoke runs")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    if not build("pobp_perfbench"):
        return 1
    argv = ["--workload", args.workload, "--seed", args.seed,
            "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        argv += ["--spans-out",
                 os.path.join(BUILD, "spans-%s.tsv" % args.workload)]
    code, out = run_binary(argv)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
