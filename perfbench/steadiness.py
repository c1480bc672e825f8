#!/usr/bin/env python3
"""Steadiness report: how much each metric moves between runs.

    python3 perfbench/steadiness.py [--runs 10] [--trace 0|1]

Runs `perfbench/run.py` on every workload of BENCHMARK.json once per seed
(seeds 1, 2, ...), for BENCHMARK.json's `run_seconds`. For each run it
prints one line with the gated metrics and two readings of the host: its
steal time during the run (the share of CPU time the hypervisor gave to
other guests, from the `steal` column of /proc/stat) and the time one
thread takes to copy a 64 MB buffer 16 times just before the run. The copy
slows when other tenants load the host's shared cache and memory, which the
guest does not see as steal time. Then, for every metric, it
prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`), the spread (q3 - q1) / median, and
for end-to-end metrics the spread as a share of the metric's bound. A
spread above a third of the bound is flagged; `setup_s` is listed but its
spread is not held to its bound. Exits with status 1 if any run fails,
prints `correct: false`, or a flagged metric remains.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_ticks():
    """(steal, total) CPU ticks of the host since boot, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted in user and nice.
    return fields[7], sum(fields[:8])


def probe_ms():
    """Milliseconds to copy a 64 MB buffer 16 times on this host now."""
    source = bytearray(64 << 20)
    target = bytearray(len(source))
    start = time.perf_counter()
    for _ in range(16):
        target[:] = source
    return (time.perf_counter() - start) * 1e3


def run_once(workload, seed, seconds, trace):
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    steal_before, total_before = cpu_ticks()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    steal_after, total_after = cpu_ticks()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit status {done.returncode}")
    steal_pct = 100.0 * (steal_after - steal_before) / max(total_after - total_before, 1)
    return json.loads(lines[-1]), steal_pct


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    healthy = True
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"\n{workload}: {args.runs} runs of {seconds} s, trace {args.trace}")
        values = {}
        for seed in range(1, args.runs + 1):
            probe = probe_ms()
            result, steal_pct = run_once(workload, seed, seconds, args.trace)
            if not result["correct"] or result["failed"]:
                print(f"  seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed")
                healthy = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            gated = " ".join(f"{name}={result['metrics'][name]['value']:.4g}"
                             for name in bounds if name in result["metrics"])
            print(f"  seed {seed:>2}: steal {steal_pct:4.1f}%  probe {probe:5.0f} ms  {gated}",
                  flush=True)
        print(f"  {'metric':<38} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'/bound':>7}")
        for name, samples in values.items():
            mid = statistics.median(samples)
            if len(samples) >= 2:
                q1, _, q3 = statistics.quantiles(samples, n=4)
            else:
                q1 = q3 = mid
            spread = (q3 - q1) / abs(mid) if mid else 0.0
            share = ""
            flag = ""
            if name in bounds:
                share = f"{spread / bounds[name]:7.2f}"
                if name != "setup_s" and spread > bounds[name] / 3:
                    flag = "  <-- above a third of the bound"
                    healthy = False
            print(f"  {name:<38} {mid:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {share:>7}{flag}")
    sys.exit(0 if healthy else 1)


if __name__ == "__main__":
    main()
