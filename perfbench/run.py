#!/usr/bin/env python3
"""Builds the benchmark harness from this checkout and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload fit-sparse --seed 1 --seconds 10 --trace 0

Workloads: fit-sparse, fit-dense, serve-stream, serve-router. --trace 0
prints the end-to-end metrics, --trace 1 the per-layer metrics of a traced
run (GLOSSARY.md lists both). The last line of stdout is the JSON result;
the build happens under .bench_build/perfbench and run records and span
files land in .bench_build/perfbench/runs.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(BUILD, "runs")
WORKLOADS = ("fit-sparse", "fit-dense", "serve-stream", "serve-router")
# A run must end within this many seconds (the build is not counted).
RUN_LIMIT_S = 170


def run_quiet(cmd, timeout):
    """Runs a build step; on failure prints its output to stderr."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-6000:])
        sys.exit(proc.returncode or 1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"], 300)
    run_quiet(["cmake", "--build", BUILD, "--target", "umgad_perf", "-j", jobs], 850)
    return os.path.join(BUILD, "umgad_perf")


def source_hash():
    """SHA-256 over the library and harness sources: identifies the code
    measured when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             timeout=10, check=False)
        sha = out.stdout.decode().strip()
        return sha if out.returncode == 0 and sha else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    binary = build()
    os.makedirs(RUNS, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", RUNS,
           "--source-hash", source_hash(), "--git-sha", git_sha()]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("benchmark run exceeded %d s after %.0f s\n"
                         % (RUN_LIMIT_S, time.monotonic() - start))
        sys.exit(3)
    sys.exit(code)


if __name__ == "__main__":
    main()
