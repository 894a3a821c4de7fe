#!/usr/bin/env python3
"""A/A self-check: how much the benchmark's own numbers move between runs.

    python3 perfbench/aa.py [--runs 10] [--seconds 30]

Runs every workload --runs times on seeds 1..runs (same code, different
inputs), then once more on a held-out seed (HELD_OUT_SEED). For every
end-to-end metric it prints the median, the spread (distance between the
first and third quartile as a share of the median, as
statistics.quantiles(n=4) gives them) and the IQR itself, min, max and
the metric's bound from
BENCHMARK.json, and flags a spread above the bound (setup_s is flagged
against its bound too, although the bound gates only its median). The
held-out run is flagged when it lies further from the median than the
bound. The end-to-end metrics the benchmark prints but does not gate are
shown the same way, without a bound. Exits 1 when anything is flagged or a
run fails its output checks.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

import run as bench

BENCHMARK_JSON = os.path.join(bench.ROOT, "BENCHMARK.json")
HELD_OUT_SEED = 1000003
UNGATED = {"sat_msgs_per_s": "msg/s", "wire_bytes_per_msg": "B/msg",
           "fail_ratio": "ratio"}


def run_once(binary, workload, seed, seconds):
    p = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=bench.RUN_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if p.returncode != 0 or not result.get("correct"):
        sys.stdout.write(p.stdout)
        return None
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for line in lines[:-1]:  # "<workload> diag <name> <value> <unit>"
        cols = line.split()
        if len(cols) == 5 and cols[1] == "diag" and cols[2] in UNGATED:
            values[cols[2]] = float(cols[3])
    return values


def spread(values):
    """Median, IQR and IQR / median of `values`."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q3 - q1, (q3 - q1) / med if med else 0.0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30)
    args = p.parse_args()
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    binary = bench.build()
    if binary is None:
        return 2
    flagged = False
    for w in bench.WORKLOADS:
        rows = []
        for seed in range(1, args.runs + 1):
            r = run_once(binary, w, seed, args.seconds)
            if r is None:
                print(f"{w}: seed {seed} failed its checks")
                return 1
            rows.append(r)
        held = run_once(binary, w, HELD_OUT_SEED, args.seconds)
        if held is None:
            print(f"{w}: held-out seed {HELD_OUT_SEED} failed its checks")
            return 1
        print(f"\n{w}: {args.runs} runs x {args.seconds} s, held-out seed "
              f"{HELD_OUT_SEED}")
        print(f"  {'metric':18s} {'unit':10s} {'median':>12s} {'iqr':>11s} "
              f"{'spread':>7s} {'bound':>6s} {'min':>12s} {'max':>12s} "
              f"{'held-out':>12s}")
        for name in list(bounds) + list(UNGATED):
            values = [r[name] for r in rows]
            med, iqr, sp = spread(values)
            bound = bounds.get(name)
            off = abs(held[name] - med) / med if med else 0.0
            flags = []
            if bound is not None and sp > bound:
                flags.append("SPREAD>BOUND")
            if bound is not None and off > bound:
                flags.append("HELD-OUT>BOUND")
            flagged |= bool(flags)
            shown = f"{bound:6.0%}" if bound is not None else f"{'-':>6s}"
            print(f"  {name:18s} {units.get(name, UNGATED.get(name)):10s} "
                  f"{med:12.6g} {iqr:11.4g} {sp:7.1%} {shown} "
                  f"{min(values):12.6g} {max(values):12.6g} "
                  f"{held[name]:12.6g} {' '.join(flags)}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
