#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library modules and the perfbench binary (Release) under $CARGO_TARGET_DIR
or .bench_build; later runs rebuild incrementally. The binary prints a
readable summary and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 1 it also writes a
Chrome trace-event file (open it in Perfetto) under the build directory.

Exit status: 0 when every output check passed, 1 when a check failed or
the build or run broke, 2 on a usage error.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("qaoa2_large", "leaf_grid", "service_mixed")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then build the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}")
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(f"build step {step[:2]} failed: {err}")
            if done.returncode != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-40:]))
                fail(f"build failed (log: {log_path})")
    return os.path.join(build_dir, "perfbench")


def catalog(trace):
    """Metric names BENCHMARK.json expects for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(build_dir)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    # qsim splits sweeps of more than 2^14 amplitudes over the process-wide
    # pool; on a shared VM the 4-thread sweeps' wall time swung 2.6x between
    # runs with CPU steal, so the kernels run on one thread. Engine slots
    # and pools stay as each workload sets them.
    env = dict(os.environ, QQ_THREADS="1")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        fail(f"{args.workload} exited with status {run.returncode}")

    result = json.loads(lines[-1])
    expected = catalog(args.trace)
    if list(result["metrics"]) != expected:
        sys.stdout.write(run.stdout)
        fail(f"metrics {list(result['metrics'])} do not match BENCHMARK.json "
             f"{expected}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and run.returncode == 0 else 1)


if __name__ == "__main__":
    main()
