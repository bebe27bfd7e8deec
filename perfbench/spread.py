#!/usr/bin/env python3
"""Steadiness check: runs workloads over several seeds and reports, per
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Run from the repository root. Prints one table per workload and, last,
one JSON line with every run's values.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs incorrect")
    probe = [l for l in lines if l.startswith("provenance ")]
    prov = json.loads(probe[-1][len("provenance "):]) if probe else {}
    return {k: v["value"] for k, v in result["metrics"].items()}, prov


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {}
    for w in args.workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            values, prov = run_once(w, seed, bench["run_seconds"])
            runs.append({"seed": seed, "metrics": values,
                         "probe_s": [prov.get("host_probe_before_s"),
                                     prov.get("host_probe_after_s")]})
            print(f"{w} seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in values.items()),
                  flush=True)
        record[w] = runs
        print(f"\n{w}: {'metric':<14}{'median':>14}{'spread':>9}{'bound/3':>9}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            flag = "" if spread < bound / 3 else "  <-- too wide"
            print(f"{'':<{len(w) + 2}}{name:<14}{med:>14.6g}{spread:>9.4f}{bound / 3:>9.4f}{flag}")
        print(flush=True)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
