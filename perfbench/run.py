#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the checkout. The first run configures and builds
perfbench (Release) under .bench_build/; later runs rebuild only what
changed. Everything the run writes stays under .bench_build/.

The last line of standard output is the run's JSON result. A traced run
(--trace 1) also prints its tracing overhead: its own end-to-end numbers
minus those of the last untraced run with the same workload and seed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
WORK = ROOT / ".bench_build"
BUILD = WORK / "perfbench"
RESULTS = WORK / "results"
RUN_TIMEOUT_S = 170


def build() -> Path:
    """Configures (once) and builds the perfbench target; returns the binary."""
    log = WORK / "build.log"
    WORK.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(SOURCE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)  # reconfigure next time
                sys.stderr.write(log.read_text()[-4000:])
                sys.stderr.write(f"perfbench: build failed (log: {log})\n")
                raise SystemExit(2)
    return BUILD / "perfbench"


def overhead_lines(workload: str, seed: int, traced: dict) -> list:
    """Traced minus untraced end-to-end numbers for the same workload and seed."""
    untraced_path = RESULTS / f"{workload}-{seed}-trace0.json"
    if not untraced_path.exists():
        return [f"tracing overhead: no untraced run of {workload} seed {seed} to compare "
                f"(run it with --trace 0 first)"]
    untraced = json.loads(untraced_path.read_text())
    lines = ["tracing overhead (traced - untraced, same workload and seed):"]
    for name, base in untraced.items():
        if name not in traced:
            continue
        delta = traced[name]["value"] - base["value"]
        share = delta / base["value"] * 100 if base["value"] else 0.0
        lines.append(f"  {name:<32} {delta:+14.6g} {base['unit']} ({share:+.1f}%)")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    RESULTS.mkdir(parents=True, exist_ok=True)
    data_dir = WORK / "data" / f"{args.workload}-{args.seed}-{os.getpid()}"
    e2e_file = RESULTS / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{args.seconds:g}", "--trace", str(args.trace),
           "--data-dir", str(data_dir), "--e2e-out", str(e2e_file)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 3
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        return proc.returncode or 2
    result = lines.pop()
    print("\n".join(lines))
    if args.trace and e2e_file.exists():
        print("\n".join(overhead_lines(args.workload, args.seed, json.loads(e2e_file.read_text()))))
    print(result)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
