#!/usr/bin/env python3
"""Runs alternating parent/change pairs of one perfbench workload.

Usage (from the repository root, with the parent commit checked out in a
second directory, e.g. `git archive <sha> | tar xf - -C ../parent`):
  python3 tools/bench_pairs.py --parent ../parent --change . \\
      --workload fit-dense --seeds 1-10,9001 --seconds 20 \\
      --out BENCH_fit-dense.json

Each seed is one pair: `python3 perfbench/run.py --workload W --seed S
--seconds N --trace 0` runs in both checkouts, the parent first on the 1st,
3rd, ... pair and the change first on the others, so a drift in the host's
speed during the session lands on both sides alike. Around every run the
aggregate `cpu` line of /proc/stat is read, and the run's steal share
(steal ticks over all ticks) is recorded. Both checkouts are built once
before the first pair, so no run pays for a build.

The output JSON holds every run's end-to-end metrics and notes, each side's
median, quartiles, min and max per metric, the pairs the change won per
metric, and a provenance line (host, cores, CPU features, selected kernels,
steal share). A summary table goes to stdout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

# Direction of each end-to-end metric (BENCHMARK.json's "better").
LOWER_IS_BETTER = {"setup_s": True, "peak_rss_mb": True, "op_p50_ms": True,
                   "throughput_per_s": False, "auc": False}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def cpu_ticks():
    """Total and steal ticks of the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    ticks = [int(v) for v in fields[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted in user, so only the first 8 add up.
    return sum(ticks[:8]), (ticks[7] if len(ticks) > 7 else 0)


def steal_share(before, after):
    if before is None or after is None or after[0] == before[0]:
        return None
    return (after[1] - before[1]) / (after[0] - before[0])


def run_once(checkout, workload, seed, seconds):
    """One perfbench run; returns its result, notes, provenance and steal."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    before = cpu_ticks()
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, check=False)
    wall = time.monotonic() - start
    after = cpu_ticks()
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    record_path = os.path.join(checkout, ".bench_build", "perfbench", "runs",
                               "run-%s-seed%d-trace0.json" % (workload, seed))
    record = {}
    if result is not None and os.path.exists(record_path):
        with open(record_path) as fh:
            record = json.load(fh)
    return {"seed": seed, "returncode": proc.returncode, "wall_s": wall,
            "steal_share": steal_share(before, after), "result": result,
            "notes": record.get("notes", {}),
            "kernels": record.get("provenance", {}).get("kernels", {}),
            "cpu_features": record.get("provenance", {}).get("cpu_features", "")}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(values):
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def metric_values(runs, name):
    return [r["result"]["metrics"][name]["value"] for r in runs
            if r["result"] is not None and name in r["result"]["metrics"]]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10,9001")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", help="write the JSON record here")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}

    for name, checkout in sides.items():
        # A 1 s run builds the harness; its numbers are discarded.
        warm = run_once(checkout, args.workload, seeds[0], 1)
        if warm["returncode"] != 0:
            sys.exit("%s checkout failed to build or run (exit %d)"
                     % (name, warm["returncode"]))

    runs = {"parent": [], "change": []}
    for index, seed in enumerate(seeds):
        order = ["parent", "change"] if index % 2 == 0 else ["change", "parent"]
        for name in order:
            run = run_once(sides[name], args.workload, seed, args.seconds)
            run["position"] = order.index(name)
            runs[name].append(run)
            value = (run["result"] or {}).get("metrics", {}).get(
                "op_p50_ms", {}).get("value")
            print("seed %-5d %-6s op_p50_ms %s steal %s" % (
                seed, name, value, run["steal_share"]), flush=True)

    metrics = sorted({m for side in runs.values() for r in side
                      if r["result"] is not None
                      for m in r["result"]["metrics"]})
    summary = {}
    for m in metrics:
        entry = {}
        for name in sides:
            values = metric_values(runs[name], m)
            if values:
                entry[name] = summarize(values)
        wins = 0
        pairs = 0
        for p, c in zip(runs["parent"], runs["change"]):
            pv = metric_values([p], m)
            cv = metric_values([c], m)
            if not pv or not cv:
                continue
            pairs += 1
            better = cv[0] < pv[0] if LOWER_IS_BETTER.get(m, True) else cv[0] > pv[0]
            wins += 1 if better else 0
        entry["change_wins"] = "%d/%d" % (wins, pairs)
        summary[m] = entry

    steals = [r["steal_share"] for side in runs.values() for r in side
              if r["steal_share"] is not None]
    kernels = next((r["kernels"] for side in runs.values() for r in side
                    if r["kernels"]), {})
    features = next((r["cpu_features"] for side in runs.values() for r in side
                     if r["cpu_features"]), "")
    provenance = ("host %s, %d cores (%s; %s), kernels %s, steal share "
                  "median %.4f max %.4f, %d pairs of --seconds %d, parent "
                  "first on pairs 1, 3, ..." % (
                      platform.node(), os.cpu_count() or 0, cpu_model(),
                      features, json.dumps(kernels, sort_keys=True),
                      statistics.median(steals) if steals else float("nan"),
                      max(steals) if steals else float("nan"), len(seeds),
                      args.seconds))
    record = {"workload": args.workload, "seeds": seeds,
              "seconds": args.seconds, "provenance": provenance,
              "summary": summary,
              "failed_runs": sum(1 for side in runs.values() for r in side
                                 if r["result"] is None or r["result"]["failed"]),
              "runs": runs}
    for m in metrics:
        e = summary[m]
        print("%-18s parent %s  change %s  wins %s" % (
            m, "%.6g [%.6g, %.6g]" % (e["parent"]["median"], e["parent"]["q1"],
                                      e["parent"]["q3"]) if "parent" in e else "-",
            "%.6g [%.6g, %.6g]" % (e["change"]["median"], e["change"]["q1"],
                                   e["change"]["q3"]) if "change" in e else "-",
            e["change_wins"]))
    print(provenance)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
