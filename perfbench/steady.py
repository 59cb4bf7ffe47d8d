#!/usr/bin/env python3
"""Steadiness report for the repository benchmark.

Runs one workload N times, with seeds 1..N, through the command and
for the run_seconds in BENCHMARK.json, and prints for every end-to-end
metric its median, first and third quartiles (Python's
statistics.quantiles(n=4)), the spread (Q3 - Q1) / median, and each
run's value with its sample count. A metric whose spread exceeds its
bound in BENCHMARK.json is marked. With --sets 2 the workload runs N
more times, with seeds N+1..2N, and the second median is compared with
the first: a metric worse by more than its bound is marked too.

    python3 perfbench/steady.py --workload grouped_exact --runs 10

Exits 1 when any metric is marked or any run fails or reports an
incorrect result. Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run with seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    samples = {}
    for line in lines:
        if line.startswith("samples "):
            samples = json.loads(line[len("samples "):])
    return result, samples


def one_set(bench, args, first_seed):
    runs = []
    for i in range(args.runs):
        seed = first_seed + i
        result, samples = run_once(bench["command"], args.workload, seed, bench["run_seconds"])
        runs.append((seed, result, samples))
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"  seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
    return runs


def summarize(bench, runs, label):
    marked = []
    print(f"{label}: {len(runs)} runs")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r[1]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        counts = ",".join(str(r[2].get(name, "?")) for r in runs)
        flag = ""
        if spread > bound:
            flag = "  <-- spread exceeds bound"
            marked.append(name)
        elif spread > bound / 3:
            flag = "  (spread above a third of bound)"
        print(f"  {name:12s} median {med:.6g} {metric['unit']:5s} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f} bound {bound} samples [{counts}]{flag}")
    return marked


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=[1, 2])
    parser.add_argument("--bench", default="BENCHMARK.json")
    args = parser.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        raise SystemExit(f"unknown workload {args.workload}")
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2")

    sets = []
    for s in range(args.sets):
        print(f"set {s + 1}: {args.workload}, {args.runs} runs of {bench['run_seconds']} s",
              flush=True)
        sets.append(one_set(bench, args, 1 + s * args.runs))
    bad = [r for runs in sets for r in runs if not r[1]["correct"] or r[1]["failed"]]
    marked = []
    for s, runs in enumerate(sets):
        marked += summarize(bench, runs, f"set {s + 1}")
    if len(sets) == 2:
        print("set 2 against set 1:")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            m1, m2 = (statistics.median(r[1]["metrics"][name]["value"] for r in runs)
                      for runs in sets)
            change = (m2 - m1) / m1
            worse = change if metric["better"] == "lower" else -change
            flag = "  <-- worse by more than bound" if worse > bound else ""
            if flag:
                marked.append(name)
            print(f"  {name:12s} {m1:.6g} -> {m2:.6g} ({change:+.4f}) bound {bound}{flag}")
    if bad:
        print(f"{len(bad)} runs were incorrect or had failed operations")
    if marked or bad:
        print("NOT STEADY: " + ", ".join(sorted(set(marked))))
        sys.exit(1)
    print("steady")


if __name__ == "__main__":
    main()
