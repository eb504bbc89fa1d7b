#!/usr/bin/env python3
"""Perf ledger entry point: builds perfbench from source, runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark (the optibfs library plus the driver, Release) under
.bench_build/; later runs rebuild incrementally. Prints a provenance line
and, as the last line of stdout, the result JSON object. Exits non-zero,
printing no result, if the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def source_digest():
    """SHA-256 over the library and benchmark sources (names and bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_stamp():
    """(sha, dirty) of the checkout, or (None, None) outside a git tree."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if sha.returncode != 0:
            return None, None
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--", "src", "perfbench"],
            capture_output=True, text=True, timeout=30)
        return sha.stdout.strip(), bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return None, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out-dir", str(OUT)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.exit(f"perfbench: run failed with exit code {done.returncode}")
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    result = json.loads(lines[-1])
    provenance = {}
    for line in lines[:-1]:
        provenance.update(json.loads(line).get("provenance", {}))
    if provenance.get("stalls"):
        # A stall ends a traced run before every layer is replayed: the
        # layers it never reached read 0 and are named in the provenance.
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for metric in spec["per_layer" if args.trace == "1" else "end_to_end"]:
            if metric["name"] not in result["metrics"]:
                result["metrics"][metric["name"]] = {"value": 0, "unit": metric["unit"]}
                provenance.setdefault("unmeasured", []).append(metric["name"])
    sha, dirty = git_stamp()
    provenance.update({
        "git_sha": sha,
        "dirty": dirty,
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "trace": int(args.trace),
    })
    record = {"provenance": provenance, **result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
