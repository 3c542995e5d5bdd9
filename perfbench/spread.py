#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports, for each end-to-end
metric, its median and its spread: the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median. A spread below
a third of the metric's bound in BENCHMARK.json is steady; set-up time is
judged by its median only.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload sim-long --seeds 10
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description="Report the benchmark's run-to-run spread over several seeds.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"seed {seed}: {res['failed']} of {res['attempted']} checks failed")
        for name in bounds:
            values[name].append(res["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
    steady = True
    for name, vs in values.items():
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q3 - q1) / med
        ok = name == "setup_s" or spread < bounds[name] / 3
        steady = steady and ok
        print(f"{args.workload:15} {name:22} median {med:<14.6g} spread {spread:7.2%}  "
              f"bound {bounds[name]:.0%}  {'ok' if ok else 'UNSTEADY'}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
