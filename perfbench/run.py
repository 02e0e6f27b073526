#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the checkout root:

    python3 perfbench/run.py --workload record|query|live|all \
        --seed N --seconds S --trace 0|1 [--tiny] [--corrupt WHAT]

Builds perfbench/ (its own CMake package, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
binary, prints its report and ends with one JSON line holding exactly
the metrics BENCHMARK.json declares: end_to_end with --trace 0,
per_layer with --trace 1. A per-layer metric the workload never
touches (a live counter on `record`, say) reads 0. `--workload all`
runs the three workloads in turn, one JSON line each.

Exits non-zero, without a result line, when the build or the run
fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("record", "query", "live")
# A run must end within 180 s; the build is not part of it.
RUN_TIMEOUT_S = 175


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_one(binary, args, workload):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        raise RuntimeError("perfbench exited with %d" % proc.returncode)
    print("\n".join(lines[:-1]))
    measured = json.loads(lines[-1])

    metrics = {}
    untouched = []
    for spec in declared(args.trace):
        got = measured["metrics"].get(spec["name"])
        if got is None and args.trace:
            untouched.append(spec["name"])
            got = {"value": 0, "unit": spec["unit"]}
        if got is None or got["unit"] != spec["unit"]:
            raise RuntimeError("metric %s: measured %r, declared unit %s"
                               % (spec["name"], got, spec["unit"]))
        metrics[spec["name"]] = {"value": got["value"],
                                 "unit": spec["unit"]}
    if untouched:
        print("not exercised by %s (reported as 0): %s"
              % (workload, ", ".join(untouched)))
    print(json.dumps({"correct": measured["correct"],
                      "attempted": measured["attempted"],
                      "failed": measured["failed"],
                      "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", choices=("smtr", "table", "archive"))
    args = parser.parse_args()
    try:
        binary = build()
        for workload in (WORKLOADS if args.workload == "all"
                         else (args.workload,)):
            run_one(binary, args, workload)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as err:
        sys.stderr.write("perfbench: %s\n" % err)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
