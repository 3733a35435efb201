#!/usr/bin/env python3
"""The repository benchmark's one command.

    python3 perfbench/run.py --workload <dba_apb1|sweep_demo|service_mix> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck

Builds the WARLOCK library and the benchmark program from source into
.bench_build/ (a no-op when up to date; build output goes to stderr), then
runs the program from the checkout root. Its last line of stdout is
the JSON result. --selfcheck runs every workload, untraced and traced, on
tiny inputs and two seeds, and fails unless every run is correct with no
failed operation.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "warlock_perfbench")
WORKLOADS = ("dba_apb1", "sweep_demo", "service_mix")


def build():
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "warlock_perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def selfcheck():
    bad = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            for seed in ("1", "2"):
                args = [BINARY, "--workload", workload, "--seed", seed,
                        "--seconds", "1", "--trace", trace, "--tiny"]
                done = subprocess.run(args, cwd=ROOT, capture_output=True,
                                      text=True)
                lines = done.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                    ok = (done.returncode == 0 and result["correct"] and
                          result["failed"] == 0 and result["attempted"] > 0)
                except (IndexError, ValueError, KeyError):
                    ok = False
                bad += not ok
                print("%-4s %-12s trace=%s seed=%s" %
                      ("ok" if ok else "FAIL", workload, trace, seed))
                if not ok:
                    sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
    return 1 if bad else 0


def main():
    build()
    if sys.argv[1:] == ["--selfcheck"]:
        return selfcheck()
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
