#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 perfbench/selftest.py [--seconds 2]

1. Reproducible inputs: hashes the op schedule of every workload for two
   seeds, twice each; one seed must give one hash, two seeds two hashes.
2. Output contract: runs every workload for a few seconds untraced and
   traced, and asserts that the untraced run prints every end-to-end
   metric and the traced run every metric BENCHMARK.json names, each with
   its unit, that the result line carries exactly the metrics of its
   mode, and that the run's output checks passed.
Exits non-zero on the first failure.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
import run  # noqa: E402  (the benchmark's own build + run helpers)


def schedule_hash(binary, workload, seed):
    out = subprocess.run([str(binary), "--schedule-hash", "--workload",
                          workload, "--seed", str(seed), "--ops", "50000"],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def check(condition, message):
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()

    bench = run.load_benchmark()
    binary = run.build()
    # Every workload the generator knows, including any BENCHMARK.json
    # does not gate on.
    workloads = subprocess.run([str(binary), "--list"], capture_output=True,
                               text=True, check=True).stdout.split()

    for workload in workloads:
        a1, a2 = (schedule_hash(binary, workload, 1) for _ in range(2))
        b1, b2 = (schedule_hash(binary, workload, 2) for _ in range(2))
        check(a1 == a2 and b1 == b2, f"{workload}: schedule not reproducible")
        check(a1 != b1, f"{workload}: seeds 1 and 2 give one schedule")
        print(f"schedule {workload}: seed1={a1} seed2={b1}")

    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    every = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    for workload in workloads:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=run.ROOT)
            check(proc.returncode == 0,
                  f"{workload} trace={trace} exited {proc.returncode}:\n"
                  f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            lines = proc.stdout.strip().splitlines()
            printed = {}
            for line in lines[:-1]:
                parts = line.split()
                if len(parts) == 4 and parts[0] == "metric":
                    printed[parts[1]] = parts[3]
            # An untraced run prints the end-to-end metrics; a traced run
            # prints every metric.
            for name, unit in (every if trace else end_to_end).items():
                check(printed.get(name) == unit,
                      f"{workload}: metric {name} [{unit}] not printed "
                      f"(got {printed.get(name)})")
            result = json.loads(lines[-1])
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"],
                  f"{workload}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0,
                  f"{workload}: output checks failed")
            mode = bench["per_layer" if trace else "end_to_end"]
            check(sorted(result["metrics"]) == sorted(m["name"] for m in mode),
                  f"{workload} trace={trace}: result metrics differ from "
                  f"BENCHMARK.json")
            print(f"run {workload} trace={trace}: {len(printed)} metrics, "
                  f"{result['attempted']} ops, correct")
    print("selftest passed")


if __name__ == "__main__":
    main()
