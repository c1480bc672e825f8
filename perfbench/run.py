#!/usr/bin/env python3
"""Build and run the fleet benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (its own Cargo workspace, which compiles the
repository's crates from source) into `$CARGO_TARGET_DIR`, or `.bench_build`
when that is unset, then runs it. Build output goes to standard error, so
the last line of standard output is the benchmark's JSON result.

After the run the metric names and units the command printed are checked
against `BENCHMARK.json`, so the two cannot drift apart: a mismatch exits
with status 1. Spans of traced runs are written to `perfbench/out/`.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    built = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        fail(f"build failed with status {built.returncode}")
    return os.path.join(target, "release", "perfbench")


def pairs(entries):
    return [(e["name"], e["unit"]) for e in entries]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail(f"cannot read {spec_path}: {error}")

    binary = build()

    command = [
        binary,
        "--workload", args.workload,
        "--seed", args.seed,
        "--seconds", args.seconds,
        "--trace", args.trace,
        "--spans", os.path.join(HERE, "out"),
    ]
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit(run.returncode)

    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else fail("the command printed nothing")
    expected = pairs(spec["per_layer" if args.trace == "1" else "end_to_end"])
    printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if printed != expected:
        fail(f"printed metrics {printed} != BENCHMARK.json {expected}")


if __name__ == "__main__":
    main()
