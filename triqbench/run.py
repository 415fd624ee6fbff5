#!/usr/bin/env python3
"""TriQ's bench of record: build the triqbench harness and run one workload.

Run from the repository root:

    python3 triqbench/run.py --workload study --seed 1 --seconds 20 --trace 0

The harness is built from source into $CARGO_TARGET_DIR (default
.bench_build) with CMake, then run with every TRIQ_* variable removed
from its environment, so it measures the program's defaults. With
--trace 0 the last line of output carries the end-to-end metrics named
in BENCHMARK.json; with --trace 1 it carries the per-layer metrics and a
Chrome trace is written into the build directory. See triqbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ("study", "scale", "wide", "triqd")

# Set-up is short (milliseconds), so one sample of it is mostly noise:
# run.py starts the harness this many extra times in --setup-only mode
# and reports the median.
SETUP_REPEATS = 9

# Every harness process must finish well inside the 180 s run limit.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("triqbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(source_dir, build_dir, env):
    """Configure (once) and build the harness; return the binary path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, env=env, check=True,
                       stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "triqbench",
                    "-j", jobs], env=env, check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "triqbench")


def run_harness(argv, env, timeout):
    """Run the harness; return (exit code, stdout lines, last-line JSON)."""
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE,
                          timeout=timeout, text=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = os.getcwd()
    source_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("TriQ sources not found under ./src; "
             "run from the repository root")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    env = {k: v for k, v in os.environ.items() if not k.startswith("TRIQ_")}

    try:
        binary = build(source_dir, build_dir, env)
    except subprocess.CalledProcessError as e:
        fail("build failed: %s" % e)

    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--root", root]
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                code, _, result = run_harness(base + ["--setup-only"], env,
                                              RUN_TIMEOUT_S)
                if code != 0 or result is None:
                    fail("set-up failed (exit %d)" % code)
                setups.append(result["setup_s"])
        code, lines, result = run_harness(
            base + ["--trace", str(args.trace), "--trace-dir", build_dir],
            env, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the harness did not finish in %d s" % RUN_TIMEOUT_S)
    for line in lines[:-1]:
        print(line)
    if result is None:
        fail("the harness exited %d without a result" % code)
    setups.append(result["setup_s"])

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        if name == "setup_s":
            value = statistics.median(setups)
        elif name in result["metrics"]:
            got = result["metrics"][name]
            if got["unit"] != unit:
                fail("metric %s has unit %s, expected %s"
                     % (name, got["unit"], unit))
            value = got["value"]
        elif args.trace:
            value = 0.0  # a layer this workload does not exercise
        else:
            fail("the harness did not report %s" % name)
        metrics[name] = {"value": value, "unit": unit}

    print(json.dumps({"correct": bool(result["correct"]) and code == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
