#!/usr/bin/env python3
"""Spread mode: run one workload N times (one seed each) and print every
metric's median and quartiles against its bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload batch_loaded --runs 10
    python3 perfbench/spread.py --workload routed_reload --runs 10 --sets 2
    python3 perfbench/spread.py --workload batch_loaded --runs 5 --trace 1

Run from the repository root. Run i uses seed i. With --sets 2 the N seeds
run twice and the script checks that the two sets agree: for every metric,
the two medians may differ by at most the bound, as a share of the first.
Spread is the interquartile range (statistics.quantiles, n=4) as a share of
the median; a spread above a third of the bound is flagged as not steady.
Exits non-zero if any run fails its oracle gate or the sets disagree.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    return result, wall


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def one_set(spec, workload, seeds, trace):
    values, ok = {}, True
    for seed in seeds:
        result, wall = run_once(spec, workload, seed, trace)
        ok &= bool(result["correct"])
        print(f"  seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={wall:.1f}s", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values, ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()
    spec = load_spec()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    by_name = {m["name"]: m for m in metrics}
    seeds = list(range(1, args.runs + 1))

    sets, all_ok = [], True
    for i in range(args.sets):
        print(f"set {i + 1}: {args.workload}, seeds {seeds[0]}..{seeds[-1]}", flush=True)
        values, ok = one_set(spec, args.workload, seeds, args.trace)
        sets.append(values)
        all_ok &= ok

    print(f"\n{'metric':34} {'unit':9} {'q1':>12} {'median':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for name, m in by_name.items():
        for i, values in enumerate(sets):
            if name not in values or len(values[name]) < 2:
                continue
            q1, med, q3, spread = summarise(values[name])
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "steady" if spread <= bound / 3 else (
                    "within bound" if spread <= bound else "TOO NOISY")
            label = name if i == 0 else f"  (set {i + 1})"
            print(f"{label:34} {m['unit']:9} {q1:12.6g} {med:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bound if bound is not None else '':>6}  {verdict}")
        if args.sets == 2 and m.get("bound") is not None and name in sets[0]:
            first = statistics.median(sets[0][name])
            second = statistics.median(sets[1][name])
            worse = (second - first) / first if m["better"] == "lower" else (first - second) / first
            agree = abs(second - first) / first <= m["bound"]
            all_ok &= agree
            print(f"{'':34} second set worse by {worse:+.3f} of the first median: "
                  f"{'agree' if agree else 'DISAGREE'}")
    if not all_ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
