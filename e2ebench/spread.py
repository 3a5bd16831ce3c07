#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and prints, for every
end-to-end metric, the median and the spread (distance between the first and
third quartile as a share of the median) next to a third of its bound.

    python3 e2ebench/spread.py [first_seed [seeds [workload ...]]]

Run it from the root of the repository. Every run's result line is appended
to the file named by SPREAD_LOG, if set.
"""
import json
import os
import statistics
import subprocess
import sys

bench = json.load(open("BENCHMARK.json"))
first = int(sys.argv[1]) if len(sys.argv) > 1 else 1
count = int(sys.argv[2]) if len(sys.argv) > 2 else 10
chosen = sys.argv[3:] or [w["name"] for w in bench["workloads"]]
log = os.environ.get("SPREAD_LOG")

for workload in chosen:
    runs = []
    for seed in range(first, first + count):
        out = subprocess.run(
            bench["command"]
            + ["--workload", workload, "--seed", str(seed)]
            + ["--seconds", str(bench["run_seconds"]), "--trace", "0"],
            check=True, capture_output=True, text=True,
        ).stdout.strip().splitlines()[-1]
        result = json.loads(out)
        assert result["correct"], (workload, seed, out)
        runs.append(result["metrics"])
        if log:
            with open(log, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
    for metric in bench["end_to_end"]:
        values = [run[metric["name"]]["value"] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median
        limit = metric["bound"] / 3
        flag = "" if spread <= limit or metric["name"] == "setup_s" else "  <-- too wide"
        print(f"{workload:<22} {metric['name']:<12} median {median:>12.4f} {metric['unit']:<4}"
              f" spread {spread:7.4f}  (bound/3 = {limit:.4f}){flag}", flush=True)
