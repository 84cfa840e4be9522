#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs perfbench/run.sh once per seed on each named workload, one run at a
time, and prints, per workload and metric, the median of the runs and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. Run it from the root of a checkout:

    python3 perfbench/steadiness.py --runs 10 --out spread.jsonl ingest-durable rank-read

Each run prints its seed, the host's CPU steal share over the measured
phase, the share of the phase's steal windows its latency medians kept,
the daemon's collections in the phase (run.steal_pct,
run.windows_kept_pct and run.gc_cycles from the info line) and its
metrics, so a run the hypervisor starved shows as such. A spread is "ok" when it is within the
metric's bound, the test BENCHMARK.json's bounds are applied with. Each
run's result is appended to --out, so two sets of runs can be compared
later with --compare A.jsonl B.jsonl; a median drift is "ok" when it is
not worse than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def bounds():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return bench, {m["name"]: m["bound"] for m in bench["end_to_end"]}


def run_once(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}")
    info = json.loads(lines[-2].removeprefix("perfbench: "))
    return res, {k: info.get("run." + k, -1) for k in ("steal_pct", "windows_kept_pct", "gc_cycles", "gc_cpu_ms")}


def summarize(rows, bound):
    by = {}
    for r in rows:
        for name, m in r["result"]["metrics"].items():
            by.setdefault((r["workload"], name), []).append(m["value"])
    out = {}
    for (w, name), vals in sorted(by.items()):
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        out[(w, name)] = (med, spread, len(vals))
        print(f"{w:16s} {name:22s} n={len(vals):2d} median={med:12.4f} "
              f"spread={spread:6.3f} bound={bound[name]:.2f} "
              f"{'ok' if spread <= bound[name] else 'WIDE'}")
    return out


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    bench, bound = bounds()

    if args.compare:
        a, b = (summarize(load(p), bound) for p in args.compare)
        for key in sorted(a):
            if key in b:
                ma, mb = a[key][0], b[key][0]
                drift = (mb - ma) / ma if ma else 0.0
                print(f"{key[0]:16s} {key[1]:22s} drift={drift:+.3f} bound={bound[key[1]]:.2f} "
                      f"{'ok' if drift <= bound[key[1]] else 'WORSE'}")
        return

    rows = []
    for w in args.workloads or [x["name"] for x in bench["workloads"]]:
        for i in range(args.runs):
            seed = args.first_seed + i
            res, host = run_once(w, seed, bench["run_seconds"])
            row = {"workload": w, "seed": seed, "host": host, "result": res}
            vals = " ".join(f"{k}={m['value']:.4g}" for k, m in sorted(res["metrics"].items()))
            print(f"{w:16s} seed={seed:<4d} steal={host['steal_pct']:5.1f}% "
                  f"kept={host['windows_kept_pct']:3.0f}% gc={host['gc_cycles']} ({host['gc_cpu_ms']:.0f} ms) {vals}", flush=True)
            rows.append(row)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(row) + "\n")
    summarize(rows, bound)


if __name__ == "__main__":
    main()
