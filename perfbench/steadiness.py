#!/usr/bin/env python3
"""Measures run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workload NAME ...]
                                    [--write perfbench/steadiness.json]

Runs each workload --runs times untraced, each with another seed, and
reports per metric the median, the quartiles (statistics.quantiles, n=4)
and the spread (third minus first quartile, as a share of the median),
and fails when a spread is over the metric's bound in BENCHMARK.json
(setup_s included); a spread at or over a third of the bound is noted.

Each run also records four diagnostics: host.steal_share (hypervisor
steal, to tell host noise from ours), gen.worker_busy_share (how busy
the busiest generator thread was, to show the store and not the
generator sets the pace of a closed loop), and read_gibps and
cpu_ms_per_kop, which BENCHMARK.json reports but does not gate. Each set records a SHA-256 of
the code it ran (src/, perfbench/src/, perfbench/CMakeLists.txt and
run.py), so two sets can be shown to run one code.

With --write, the set is appended to the JSON file. When the file already
holds a set, each median is also compared with that first set's, and a
shift for the worse by more than the metric's bound fails.
"""
import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
import run  # noqa: E402

DIAGNOSTICS = ("host.steal_share", "gen.worker_busy_share", "read_gibps",
               "cpu_ms_per_kop")


def source_digest():
    """SHA-256 over the paths and bytes of the code a run executes: the
    object store (src/) and the generator with its build and runner."""
    digest = hashlib.sha256()
    paths = sorted((run.ROOT / "src").rglob("*")) + sorted(
        (run.BENCH_DIR / "src").rglob("*")) + [
        run.BENCH_DIR / "CMakeLists.txt", run.BENCH_DIR / "run.py"]
    for path in paths:
        if path.is_file():
            digest.update(str(path.relative_to(run.ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def measure(workload, seeds, seconds, record):
    values = {}
    diagnostics = {name: [] for name in DIAGNOSTICS}
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds)],
            capture_output=True, text=True, cwd=run.ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
        printed = {}
        for line in lines:
            if line.startswith("host "):
                record["host"] = json.loads(line[5:])
            parts = line.split()
            if len(parts) == 4 and parts[0] == "metric":
                printed[parts[1]] = float(parts[2])
        for name in DIAGNOSTICS:
            diagnostics[name].append(printed[name])
        for name, metric in json.loads(lines[-1])["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values, diagnostics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--write")
    args = parser.parse_args()

    bench = run.load_benchmark()
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    path = Path(args.write) if args.write else None
    record = {"run_seconds": seconds, "sets": []}
    if path and path.exists():
        record = json.loads(path.read_text())
    first = record["sets"][0]["workloads"] if record["sets"] else {}

    run.build()
    this_set = {"seeds": seeds, "source_sha256": source_digest(),
                "workloads": {}}
    ok = True
    for workload in workloads:
        values, diagnostics = measure(workload, seeds, seconds, record)
        rows = {}
        print(f"== {workload} (seeds {seeds[0]}-{seeds[-1]})")
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            v = values[name]
            median = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / median
            notes = []
            if spread > bound:
                notes.append("spread over the bound")
                ok = False
            elif spread >= bound / 3:
                notes.append("spread >= bound/3")
            row = {"unit": spec["unit"], "median": median, "q1": q1,
                   "q3": q3, "spread": spread, "bound": bound, "values": v}
            line = (f"{name:16s} median {median:12.6g} {spec['unit']:6s}"
                    f" q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:6.3f}")
            base = first.get(workload, {}).get("metrics", {}).get(name)
            if base:
                worse = (median - base["median"]) / base["median"]
                if spec["better"] == "higher":
                    worse = -worse
                row["worse_than_first_set"] = worse
                line += f" vs first set {worse:+.3f}"
                if worse > bound:
                    notes.append("median worse than the first set by more "
                                 "than the bound")
                    ok = False
            rows[name] = row
            print(line + ("  [" + "; ".join(notes) + "]" if notes else ""))
        for name, v in diagnostics.items():
            print(f"{name:22s} " + " ".join(f"{x:.4g}" for x in v))
        this_set["workloads"][workload] = {"metrics": rows,
                                           "diagnostics": diagnostics}
    record["sets"].append(this_set)
    if path:
        path.write_text(json.dumps(record, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
