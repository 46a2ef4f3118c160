#!/usr/bin/env python3
"""Builds sf_bench from this checkout and runs it.

  python3 bench/suite/run.py --workload serve_small --seed 1 --seconds 30 --trace 0
  python3 bench/suite/run.py          # every workload of BENCHMARK.json in turn

The build goes to $CARGO_TARGET_DIR/suite (default .bench_build/suite) with
the repository root's CMake build; checkpoints and traces of a run stay under
that directory too. Each workload runs in its own process. The output is
sf_bench's: one "name workload value unit" line per metric, an env line,
whether that env matches the one baseline.json was measured in, and as the
last line the JSON result. Exits non-zero, without a result, when the
program cannot be built or run.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
RUN_TIMEOUT_S = 170
# Runnable by name but not in BENCHMARK.json, so never gated: a synthetic
# stress point whose traffic mix has no measured source (README.md).
UNGATED = ["serve_multitenant"]
# Fields that make two runs' numbers incomparable when they differ.
ENV_KEYS = ("nproc", "threads", "gemm_simd", "build_type")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "suite"


def build(out):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SUITE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", "sf_bench"])
    # Compiler temporaries stay inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            log("run.py: build failed:", " ".join(step))
            sys.exit(2)
    return out / "sf_bench"


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return done.stdout.strip() or "unknown"


def env_note(env):
    baseline = SUITE / "baseline.json"
    if not baseline.exists():
        return "env: no baseline to compare with"
    base = json.loads(baseline.read_text()).get("env", {})
    diffs = [f"{k} {env.get(k)} != {base.get(k)}" for k in ENV_KEYS
             if env.get(k) != base.get(k)]
    if diffs:
        return "env: INCOMPARABLE with bench/suite/baseline.json (" + ", ".join(diffs) + ")"
    return "env: comparable with bench/suite/baseline.json"


def run_one(binary, spec, workload, args, out):
    trace_file = out / "traces" / f"{workload}-seed{args.seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-file", str(trace_file), "--work-dir", str(out / "work"),
           "--commit", commit()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s")
        sys.exit(1)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("\n".join(lines))
        log(f"run.py: {workload} exited {done.returncode} without a result")
        sys.exit(1)
    kind = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"] for m in spec[kind]}
    if set(result["metrics"]) != expected:
        log(f"run.py: {workload} reported {sorted(set(result['metrics']) ^ expected)}"
            f" against BENCHMARK.json's {kind} list")
        sys.exit(1)
    env = {}
    for line in lines[:-1]:
        print(line)
        if line.startswith("env "):
            env = json.loads(line[4:])
    print(env_note(env))
    return result, lines[-1], done.returncode


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads + UNGATED)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if args.workload:
        _, line, code = run_one(binary, spec, args.workload, args, out)
        print(line)
        sys.exit(code)

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in workloads:
        result, _, rc = run_one(binary, spec, workload, args, out)
        code = code or rc
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    sys.exit(code)


if __name__ == "__main__":
    main()
