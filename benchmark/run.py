#!/usr/bin/env python3
"""Build memxct_bench from this checkout and run one workload.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
benchmark/build (the library sources come from src/); later runs only
re-check the build. The binary's table of every metric goes to standard
output, followed by one JSON line: {"correct", "attempted", "failed",
"metrics"}, where metrics are the end-to-end metrics of BENCHMARK.json
(--trace 0) or its per-layer metrics (--trace 1). The full record and, for
traced runs, the Chrome trace-event file are kept under benchmark/build/out/.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
BUILD = BENCH / "build"
BINARY = BUILD / "memxct_bench"
OUT = BUILD / "out"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    return 2


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "memxct_bench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        return fail("library sources (src/) not found next to benchmark/")
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        return fail(f"build failed: {e}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = OUT / f"{stem}.json"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json", str(record_path)]
    if args.trace:
        cmd += ["--trace", str(OUT / f"{stem}.trace.json")]
    # One process, four OpenMP threads: the reference host has four cores.
    env = dict(os.environ, OMP_NUM_THREADS="4")
    if record_path.exists():
        record_path.unlink()
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    if not record_path.is_file():
        return fail(f"memxct_bench exited {proc.returncode} without a record")

    record = json.loads(record_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            return fail(f"metric {m['name']} missing from the record")
        if got["unit"] != m["unit"]:
            return fail(f"metric {m['name']} is in {got['unit']}, "
                        f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(record["correct"]) and proc.returncode == 0
    sys.stdout.flush()
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
