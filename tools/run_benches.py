#!/usr/bin/env python3
"""Runs the benchmark suite and emits a machine-readable JSON record.

Benches print measurements as "RESULT key=value key=value ..." lines;
this script collects them (plus the raw stdout for human reading) into
one JSON file per run — the bench trajectory the repo tracks across PRs
(BENCH_pr4.json and onward; see docs/benchmarks.md).

Usage:
  tools/run_benches.py [--out BENCH_pr4.json]
                       [--build-dir build-rel]
                       [--benches bench_egress,bench_crc32]
                       [--skip-build]

The script configures/builds its own RelWithDebInfo tree by default:
benchmark numbers from a Debug build are meaningless, and the default
test build is whatever the developer last configured.
"""

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

DEFAULT_BENCHES = [
    "bench_egress",
    "bench_crc32",
    "bench_fig6_retrieval_latency",
    "bench_scaleout_vs_disagg",
    "bench_replication",
    "bench_hedged_read",
]
# Quick-mode knobs: enough work for stable numbers, short enough for CI.
BENCH_ENV = {
    "bench_egress": {"MDOS_EGRESS_MB": "128"},
    "bench_crc32": {"MDOS_CRC_MB": "256"},
    # The cluster benches pay a simulated 2 ms LAN RTT per RPC, so trim
    # repetitions.
    "bench_fig6_retrieval_latency": {"MDOS_REPS": "6"},
    "bench_scaleout_vs_disagg": {"MDOS_REPS": "6"},
    "bench_replication": {"MDOS_REPS": "6"},
    # Each episode boots a fresh 3-node cluster (cold health ranking);
    # 2*reps episodes per phase keeps the p99 meaningful but quick.
    "bench_hedged_read": {"MDOS_REPS": "8"},
}


def reject_instrumented_build(build_dir: Path):
    """Refuses to record benchmarks from a sanitizer/fuzzer build.

    Sanitizer instrumentation slows everything 2-20x; numbers from such
    a tree would poison the BENCH_*.json trajectory the repo tracks
    across PRs. The CI sanitizer and fuzz jobs use dedicated build dirs
    (build-asan, build-tsan, build-fuzz) and never invoke this script,
    and this check keeps an accidental local `--build-dir build-asan`
    from slipping through either.
    """
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        return
    for line in cache.read_text().splitlines():
        if line.startswith("SANITIZE:") and line.split("=", 1)[1].strip():
            sys.exit(f"refusing to benchmark {build_dir}: configured with "
                     f"{line.strip()} (sanitized numbers would pollute the "
                     f"bench record; use a clean build dir)")
        if line.startswith("MDOS_FUZZ:") and \
                line.split("=", 1)[1].strip().upper() in ("ON", "TRUE", "1"):
            sys.exit(f"refusing to benchmark {build_dir}: configured with "
                     f"{line.strip()} (fuzzer instrumentation skews timings; "
                     f"use a clean build dir)")
        # Build type matters as much as instrumentation: a Debug (or
        # unset-type) tree runs the allocator and codec hot paths at -O0,
        # silently skewing the whole trajectory low.
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1].strip()
            if build_type not in ("Release", "RelWithDebInfo"):
                sys.exit(
                    f"refusing to benchmark {build_dir}: "
                    f"CMAKE_BUILD_TYPE={build_type or '<empty>'} (benchmarks "
                    f"must come from a Release or RelWithDebInfo tree; "
                    f"reconfigure with -DCMAKE_BUILD_TYPE=RelWithDebInfo or "
                    f"point --build-dir at one)")


def parse_result_lines(stdout: str):
    """Extracts RESULT lines into dicts, coercing numeric values."""
    results = []
    for line in stdout.splitlines():
        if not line.startswith("RESULT "):
            continue
        entry = {}
        for token in line[len("RESULT "):].split():
            if "=" not in token:
                continue
            key, value = token.split("=", 1)
            try:
                entry[key] = int(value)
            except ValueError:
                try:
                    entry[key] = float(value)
                except ValueError:
                    entry[key] = value
        if entry:
            results.append(entry)
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_pr4.json")
    parser.add_argument("--build-dir", default="build-rel")
    parser.add_argument("--benches",
                        default=",".join(DEFAULT_BENCHES),
                        help="comma-separated bench binaries to run")
    parser.add_argument("--skip-build", action="store_true",
                        help="assume the binaries are already built")
    args = parser.parse_args()

    repo = Path(__file__).resolve().parent.parent
    build_dir = repo / args.build_dir
    benches = [b for b in args.benches.split(",") if b]

    reject_instrumented_build(build_dir)
    if not args.skip_build:
        subprocess.run(
            ["cmake", "-B", str(build_dir), "-S", str(repo),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True)
        subprocess.run(
            ["cmake", "--build", str(build_dir), "--target", *benches,
             "-j", "2"],
            check=True)

    record = {
        "schema": 1,
        "generated_unix": int(time.time()),
        "host": {
            "machine": platform.machine(),
            "system": platform.system(),
            "processor": platform.processor(),
        },
        "benches": {},
    }

    failures = []
    for bench in benches:
        binary = build_dir / bench
        if not binary.exists():
            failures.append(f"{bench}: binary not found at {binary}")
            continue
        env = dict(BENCH_ENV.get(bench, {}))
        print(f"== running {bench} {env or ''}", flush=True)
        proc = subprocess.run(
            [str(binary)], capture_output=True, text=True,
            env={**__import__('os').environ, **env})
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        record["benches"][bench] = {
            "exit_code": proc.returncode,
            "results": parse_result_lines(proc.stdout),
            "raw": proc.stdout,
        }
        if proc.returncode != 0:
            failures.append(f"{bench}: exit code {proc.returncode}")

    out_path = Path(args.out)
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out_path} ({len(record['benches'])} benches)")

    if failures:
        print("FAILURES:", *failures, sep="\n  ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
