#!/usr/bin/env python3
"""Builds and runs the repo benchmark for one workload.

    python3 perfbench/run.py --workload spill --seed 1 --seconds 50 --trace 0

Run from the root of a source tree. The first call configures and builds
perfbench/ (the object store from src/ plus the load generator) into
.bench_build/; later calls rebuild incrementally. The build must be an
optimised, uninstrumented tree: the same rule as the repo's bench runner
(no -fsanitize flag, which also covers fuzzer builds, and build type
Release or RelWithDebInfo), and the generator binary refuses to run from
an unoptimised or sanitized build as well.

Output: the generator's `metric NAME VALUE UNIT` lines (every end-to-end
and per-layer metric), then, as the last line, one JSON object with keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list (the
traced run also writes its spans under .bench_build/work/traces/).
Exits non-zero, without a result line, when the build or run fails; exits
1 after the result line when an output check failed.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_TYPE = "RelWithDebInfo"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def reject_instrumented_build(build_dir):
    """Refuses sanitizer (and so fuzzer), debug and unset-type trees."""
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        fail(f"no CMakeCache.txt in {build_dir}")
    for line in cache.read_text().splitlines():
        key, _, value = line.partition("=")
        name = key.split(":", 1)[0]
        value = value.strip()
        if name.startswith("CMAKE_CXX_FLAGS") and "-fsanitize" in value:
            fail(f"refusing to benchmark {build_dir}: {name}={value}")
        if name == "CMAKE_BUILD_TYPE" and value not in ("Release",
                                                        "RelWithDebInfo"):
            fail(f"refusing to benchmark {build_dir}: CMAKE_BUILD_TYPE="
                 f"{value or '<empty>'} (use Release or RelWithDebInfo)")


def build():
    """Configures (once) and builds the generator; returns its path."""
    build_dir = build_root() / "perfbench"
    if not (ROOT / "src" / "cluster" / "cluster.h").exists():
        fail(f"object store sources not found under {ROOT / 'src'}")
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    reject_instrumented_build(build_dir)
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(build_dir), "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    binary = build_dir / "mdos_loadgen"
    if not binary.exists():
        fail(f"build produced no {binary}")
    return binary


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        fail(f"{path} not found")
    return json.loads(path.read_text())


def run(binary, workload, seed, seconds, trace):
    """Runs the generator; returns (its full JSON result, stdout lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(build_root() / "work")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"{workload} exited {proc.returncode} without a result")
    return json.loads(lines[-1]), lines[:-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = load_benchmark()
    binary = build()
    result, lines = run(binary, args.workload, args.seed, args.seconds,
                        args.trace == 1)
    for line in lines:
        print(line)
    print("host " + json.dumps(result["host"]))

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None:
            fail(f"metric {spec['name']} missing from the run")
        if got["unit"] != spec["unit"]:
            fail(f"metric {spec['name']} has unit {got['unit']}, "
                 f"BENCHMARK.json says {spec['unit']}")
        metrics[spec["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
