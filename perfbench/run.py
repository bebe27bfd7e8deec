#!/usr/bin/env python3
"""Runs one workload of the dragonviz pipeline benchmark.

    python3 perfbench/run.py --workload design_point|sweep|brush \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the harness (Release) into
.bench_build/perfbench on first use, runs the workload in its own process,
and relays its output. The last line of stdout is the result JSON, with
the metrics and units BENCHMARK.json declares. Exits non-zero without a
result when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("design_point", "sweep", "brush")
RUN_BUDGET_S = 170  # for everything after the build


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def declared_metrics(trace):
    """(name, unit) of each metric BENCHMARK.json declares for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [(m["name"], m["unit"]) for m in bench["per_layer" if trace else "end_to_end"]]


def result_line(harness, trace):
    """The benchmark's result from the harness's {"values": {name: number}}.
    Every end-to-end metric must be measured; a layer the workload never
    enters reports 0. A value BENCHMARK.json does not declare is an error."""
    declared = declared_metrics(trace)
    values = harness["values"]
    unknown = set(values) - {name for name, _ in declared}
    missing = [name for name, _ in declared if name not in values]
    if unknown or (missing and not trace):
        raise ValueError(f"undeclared {sorted(unknown)}, missing {missing}")
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in declared}
    return json.dumps({"correct": harness["correct"], "attempted": harness["attempted"],
                       "failed": harness["failed"], "metrics": metrics})


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("dragonviz sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        exe = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    out = os.path.join(ROOT, ".bench_build", "out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    # Busy threads stay within the host's: the VA ring pool gets 2 threads
    # (brush's 2 daemon workers share it), and the simulator runs sequentially.
    env = dict(os.environ, DV_VA_THREADS="2")
    env.pop("DV_PARALLEL", None)

    deadline = time.monotonic() + RUN_BUDGET_S
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out]
    try:
        if args.workload == "brush":
            # The served run is simulated in a process of its own, so its
            # memory does not count towards brush's peak RSS.
            run_file = os.path.join(out, "run.json")
            subprocess.run([exe, "--prepare", run_file, "--seed", str(args.seed)],
                           env=env, stdout=sys.stderr, check=True,
                           timeout=deadline - time.monotonic())
            cmd += ["--run-file", run_file]
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=deadline - time.monotonic())
    except (OSError, subprocess.SubprocessError) as e:
        log(f"run failed: {e}")
        return 1

    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        log(f"perfbench exited with code {proc.returncode}")
        return 1
    try:
        result = result_line(json.loads(lines[-1]), args.trace)
    except (ValueError, KeyError, TypeError) as e:
        log(f"malformed result line: {e}")
        return 1
    sys.stdout.write("\n".join(lines[:-1] + [result]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
