#!/usr/bin/env python3
"""Builds vdebench from source, runs one workload, and prints one JSON line.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to .bench_build/. The last
line of standard output is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). Exits non-zero, printing no result, when the
benchmark cannot be built or run.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", BUILD, "-j4", "--target", "vdebench"]
    return all(subprocess.run(step, stdout=sys.stderr).returncode == 0
               for step in (configure, compile_))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not build():
        sys.exit("vdebench: build failed")

    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    out = os.path.join(results, name)
    if os.path.exists(out):
        os.remove(out)
    cmd = [os.path.join(BUILD, "vdebench"), f"--workload={a.workload}",
           f"--seed={a.seed}", f"--seconds={a.seconds}", f"--out={out}"]
    if a.trace:
        cmd.append("--traced")
    sys.stdout.flush()
    run = subprocess.run(cmd)
    if not os.path.exists(out):
        sys.exit(f"vdebench: no result (exit {run.returncode})")
    with open(out) as f:
        result = json.load(f)["workloads"][a.workload]

    section, declared = (("per_layer", spec["per_layer"]) if a.trace
                         else ("e2e", spec["end_to_end"]))
    metrics = {}
    for m in declared:
        measured = result[section].get(m["name"])
        if measured is None or measured["unit"] != m["unit"]:
            sys.exit(f"vdebench: no {m['name']} in {m['unit']}")
        metrics[m["name"]] = {"value": measured["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": bool(result["correct"]) and run.returncode == 0,
        "attempted": result["attempted"],
        "failed": result["failed"] + result["mismatched"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
