#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the repository's libraries, mhprof_run, mhprofd and the
benchmark program mhprof_e2e (e2e_bench/CMakeLists.txt) as a Release
build in .bench_build/ at the repository root, runs one workload, and
prints as its last line the JSON result the names and units in
BENCHMARK.json define:

    python3 e2e_bench/run.py --workload trace_to_mhp --seed 7 \
        --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of the traced replay (0 for a layer the workload does not run).
Exit status is 0 only when every output check passed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
TARGETS = ["mhprof_e2e", "mhprof_run", "mhprofd"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then an incremental Release build of TARGETS."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            configured = subprocess.run(
                ["cmake", "-S", HERE, "-B", CMAKE_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=log, stderr=subprocess.STDOUT)
            if configured.returncode != 0:
                shutil.rmtree(CMAKE_DIR, ignore_errors=True)
                fail("cmake configure failed; see " + log_path)
        built = subprocess.run(
            ["cmake", "--build", CMAKE_DIR, "-j4", "--target"] + TARGETS,
            stdout=log, stderr=subprocess.STDOUT)
        if built.returncode != 0:
            fail("build failed; see " + log_path)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_benchmark(args, work, span_dump):
    argv = [os.path.join(CMAKE_DIR, "mhprof_e2e"),
            "--workload=" + args.workload, "--seed=%d" % args.seed,
            "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
            "--tools=" + os.path.join(CMAKE_DIR, "mhprof_tools"),
            "--work=" + work, "--span-dump=" + span_dump,
            "--scale=" + args.scale]
    if args.inject_mismatch:
        argv.append("--inject-mismatch")
    # Own process group, so a timeout also stops the mhprofd it spawned.
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("mhprof_e2e exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out


def parse(lines):
    """metric name -> (value, unit), and the result counts."""
    metrics, result = {}, None
    for line in lines:
        fields = line.split()
        if len(fields) >= 4 and fields[0] == "metric":
            metrics[fields[1]] = (float(fields[2]), fields[3])
        elif fields and fields[0] == "result":
            result = dict(f.split("=", 1) for f in fields[1:])
    return metrics, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the self-check's small inputs")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="perturb every reference (check must fail)")
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    build()

    work = os.path.join(BUILD, "work", "%s-%d" % (args.workload, os.getpid()))
    span_dir = os.path.join(BUILD, "spans")
    os.makedirs(span_dir, exist_ok=True)
    span_dump = os.path.join(span_dir, "%s-seed%d.tsv" % (args.workload,
                                                          args.seed))
    try:
        code, out = run_benchmark(args, work, span_dump)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.splitlines()
    for line in lines:
        print(line)
    metrics, result = parse(lines)
    if result is None:
        fail("mhprof_e2e exited %d without a result" % code)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    reported = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name not in metrics:
            if not args.trace:
                fail("end-to-end metric %s was not measured" % name)
            # A layer this workload does not run did no work.
            print("metric %s 0 %s  # layer not on this workload's path"
                  % (name, unit))
            metrics[name] = (0.0, unit)
        value, got_unit = metrics[name]
        if got_unit != unit:
            fail("metric %s printed in %s, BENCHMARK.json says %s"
                 % (name, got_unit, unit))
        reported[name] = {"value": value, "unit": unit}

    correct = result.get("correct") == "1" and code == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": reported}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
