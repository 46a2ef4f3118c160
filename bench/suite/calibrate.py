#!/usr/bin/env python3
"""Measures the benchmark's own run-to-run spread and records the baseline.

  python3 bench/suite/calibrate.py --runs 10 --sets 2 --out bench/suite/baseline.json

Runs every workload of BENCHMARK.json once per seed, in --sets sets of
--runs seeds each (set k uses seeds k*runs+1 .. (k+1)*runs), through run.py.
Per set, (workload, end-to-end metric), it records the values, their median
and their spread: the distance between the first and third quartiles that
statistics.quantiles(values, n=4) gives, as a share of the median. From the
second set on it also records the shift: how much worse than the first
set's median the set's median is, as a share of the first. A metric is
flagged when its spread is above a third of its bound or its shift is above
its bound; the exit code is 1 if any is.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent


def run(workload, seed):
    done = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.splitlines()
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    result = json.loads(lines[-1])
    if done.returncode or not result["correct"]:
        sys.exit(f"calibrate.py: {workload} seed {seed} failed: {lines[-1]}")
    return env, {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets, env, flagged = [], {}, []
    for k in range(args.sets):
        record = {}
        for workload in (w["name"] for w in spec["workloads"]):
            values = {}
            for seed in range(k * args.runs + 1, (k + 1) * args.runs + 1):
                env, result = run(workload, seed)
                for name, value in result.items():
                    values.setdefault(name, []).append(value)
            record[workload] = {}
            for name, vals in values.items():
                q1, median, q3 = statistics.quantiles(vals, n=4)
                entry = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median, "values": vals}
                bound = metrics[name]["bound"]
                marks = []
                if entry["spread"] > bound / 3:
                    marks.append("spread above a third of the bound")
                if k > 0:
                    first = sets[0][workload][name]["median"]
                    sign = 1 if metrics[name]["better"] == "lower" else -1
                    entry["shift"] = sign * (median - first) / first
                    if entry["shift"] > bound:
                        marks.append("shift above the bound")
                if marks:
                    flagged.append((k + 1, workload, name))
                record[workload][name] = entry
                shift = f"  shift {100 * entry['shift']:+6.2f}%" if k > 0 else ""
                print(f"set {k + 1} {workload:12s} {name:12s} median {median:12.6g}"
                      f"  spread {100 * entry['spread']:6.2f}%{shift}"
                      f"  bound {100 * bound:5.1f}%"
                      + "".join(f"  <-- {m}" for m in marks), flush=True)
        sets.append(record)
    if args.out:
        out = {"env": env, "runs": args.runs, "run_seconds": spec["run_seconds"],
               "sets": sets}
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
