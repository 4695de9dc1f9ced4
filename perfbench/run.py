#!/usr/bin/env python3
"""Build and run the sdrmpi repository benchmark (see perfbench/BENCHMARK.md).

From the root of a repository checkout:

    python3 perfbench/run.py --workload scale_cg_sdr --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30   # every workload, one table
    python3 perfbench/run.py --selftest                     # every oracle can fail

The C++ harness (perfbench/sdrbench.cpp) is built from source as a Release
build under $CARGO_TARGET_DIR, or .bench_build when that is unset. Result
files and span files land in <build root>/perfbench-results. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
WORKLOADS = ("scale_cg_sdr", "coll_mat_native", "sweep_grid")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configures (once) and builds sdrbench; returns its path."""
    if not (REPO / "CMakeLists.txt").is_file() or not (REPO / "src" / "sdrmpi").is_dir():
        log(f"no sdrmpi sources next to {HERE.name}/ (need CMakeLists.txt and src/sdrmpi)")
        sys.exit(2)
    build_dir = build_root() / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        if not (build_dir / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(build_dir), "--target", "sdrbench",
                        "-j", jobs], check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        sys.exit(2)
    return build_dir / "sdrbench"


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns its result object (the last stdout line)."""
    root = build_root()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(root / "perfbench-results"),
           "--work", str(root / "perfbench-work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload}: sdrbench exited with code {proc.returncode}")
        sys.exit(1)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload or --selftest is required")

    binary = build()
    if args.selftest:
        work = build_root() / "perfbench-work"
        sys.exit(subprocess.run([str(binary), "--selftest", "--work", str(work)]).returncode)

    if args.workload != "all":
        result = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    print(f"{'workload':18s} {'metric':28s} {'value':>16s} unit")
    for workload in WORKLOADS:
        result = run_workload(binary, workload, args.seed, args.seconds, args.trace)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            print(f"{workload:18s} {name:28s} {metric['value']:16.6g} {metric['unit']}")
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
