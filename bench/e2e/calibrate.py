#!/usr/bin/env python3
"""Calibrate the benchmark's end-to-end bounds.

Runs every workload of BENCHMARK.json once per seed, rotating the
workload order each round, and summarises each end-to-end metric per
workload: median, quartiles (statistics.quantiles, n=4), the
interquartile range and the full range as shares of the median.

    python3 bench/e2e/calibrate.py run LABEL FIRST_SEED COUNT
    python3 bench/e2e/calibrate.py compare LABEL_A LABEL_B

`run` appends each verdict line to bench/e2e/calibration/LABEL.jsonl and
writes bench/e2e/calibration/LABEL-summary.json; `compare` prints how far
LABEL_B's medians moved from LABEL_A's, as shares of LABEL_A's. Run
from the repository root.
"""

import json
import os
import statistics
import subprocess
import sys
import time

RESULTS = os.path.join("bench", "e2e", "calibration")


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def summarise(rows, bench):
    out = {}
    for w in [w["name"] for w in bench["workloads"]]:
        mine = [r for r in rows if r["workload"] == w]
        per = {}
        for m in bench["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in mine]
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            per[m["name"]] = {
                "n": len(vals),
                "median": med,
                "q1": q1,
                "q3": q3,
                "iqr_share": (q3 - q1) / med,
                "range_share": (max(vals) - min(vals)) / med,
                "bound": m["bound"],
            }
        out[w] = per
    return out


def run(label, first, count):
    bench = load_bench()
    workloads = [w["name"] for w in bench["workloads"]]
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, label + ".jsonl")
    rows = []
    for i in range(count):
        seed = first + i
        k = i % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            t0 = time.monotonic()
            proc = subprocess.run(
                bench["command"]
                + ["--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True)
            row = {"workload": w, "seed": seed, "round": i,
                   "wall_s": time.monotonic() - t0,
                   "result": json.loads(proc.stdout.strip().splitlines()[-1])}
            rows.append(row)
            with open(path, "a") as f:
                f.write(json.dumps(row) + "\n")
            print(w, seed, round(row["wall_s"], 1), row["result"]["metrics"],
                  flush=True)
    summary = summarise(rows, bench)
    with open(os.path.join(RESULTS, label + "-summary.json"), "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
    print_summary(summary)


def print_summary(summary):
    for w, per in summary.items():
        for name, s in per.items():
            print(f"{w:12} {name:12} median {s['median']:.6g}  "
                  f"iqr {100 * s['iqr_share']:.1f}%  "
                  f"range {100 * s['range_share']:.1f}%  "
                  f"bound {100 * s['bound']:.0f}%")


def compare(a, b):
    sa = json.load(open(os.path.join(RESULTS, a + "-summary.json")))
    sb = json.load(open(os.path.join(RESULTS, b + "-summary.json")))
    for w, per in sa.items():
        for name, s in per.items():
            moved = sb[w][name]["median"] / s["median"] - 1
            print(f"{w:12} {name:12} {100 * moved:+.1f}%  "
                  f"bound {100 * s['bound']:.0f}%")


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "run":
        run(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        compare(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)
