#!/usr/bin/env python3
"""Check that the benchmark is steady enough to gate on.

    python3 perfbench/steady.py [--workloads a,b] [--seeds N]
                                [--first-seed K] [--trace]

Run from the root of the repository. Runs perfbench/run.py once per
seed on each workload and prints, for every metric, the median, the
spread (distance between the first and third quartile as a share of
the median, as statistics.quantiles(values, n=4) gives them) and, for
end-to-end metrics, the bound from BENCHMARK.json. A spread above a
third of its bound is flagged. With --trace the runs are traced and
the deterministic work counts must read exactly the same in every
run; any difference is reported and makes the exit status non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# Work counts that must not depend on timing, seed order or host.
DETERMINISTIC = ["exec.runs_used", "diag.attempts", "hw.profiles",
                 "baseline.cbi_runs", "fleet.accepted",
                 "fleet.duplicates", "fleet.decode_errors",
                 "obs.accounting_violations", "failed_frac"]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    status = 0
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, bench["run_seconds"], args.trace)
                for seed in range(args.first_seed,
                                  args.first_seed + args.seeds)]
        print(f"== {workload}: {len(runs)} runs, "
              f"attempted {[r['attempted'] for r in runs]}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            line = f"  {name:32s} median {med:14.6g} spread {spread:7.4f}"
            if name in bounds:
                flag = "" if spread < bounds[name] / 3 else "  <-- unsteady"
                line += f" bound {bounds[name]}{flag}"
                line += "\n    " + " ".join(f"{v:.4g}" for v in values)
            if args.trace and name in DETERMINISTIC and \
                    len(set(values)) > 1:
                line += f"  <-- differs between runs: {values}"
                status = 1
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
