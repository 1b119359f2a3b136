#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

For every workload and every metric this prints the median over the
seeds and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json. A spread above a third of its
bound is flagged; one above the bound itself is flagged, listed at the end,
and makes the script exit 1.

    python3 perfbench/spread.py --seeds 10 --seconds 15 [--trace 0|1] \
        [--workload NAME ...] [--first-seed N] [--out results.json]

Run it from the root of the repository. It uses the command named in
BENCHMARK.json, so it measures exactly what a benchmark run measures.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    record = {}
    over = []
    for w in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            r = run_once(bench["command"], w, seed, seconds, args.trace)
            runs.append(r)
            print(f"{w} seed {seed}: attempted {r['attempted']} failed {r['failed']}",
                  flush=True)
        record[w] = runs
        print(f"\n{w}: {'metric':<36} {'median':>14} {'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, sp = spread(values)
            bound = bounds.get(name)
            flag = ""
            if None not in (bound, sp) and sp > bound:
                flag = "  OVER BOUND"
                over.append(f"{w} {name}: spread {sp:.3f} > bound {bound}")
            elif None not in (bound, sp) and sp > bound / 3:
                flag = "  > bound/3"
            shown = "-" if sp is None else f"{sp:.3f}"
            print(f"{w}: {name:<36} {med:>14.4f} {shown:>8} "
                  f"{'' if bound is None else bound:>6}{flag}")
        print(flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    if over:
        sys.exit("spread over its bound:\n" + "\n".join(over))


if __name__ == "__main__":
    main()
