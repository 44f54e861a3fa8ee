#!/usr/bin/env python3
"""Build and run the HFetch benchmark, then print its result.

Run from the repository root:

    python3 hfbench/run.py --workload sim_large_file --seed 1 --seconds 20 --trace 0

The Rust package next to this file is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build in the current directory). Its
measurements are checked against BENCHMARK.json: with --trace 0 every
end-to-end metric must be measured; with --trace 1 every per-layer metric is
reported, as 0 for a layer the workload does not run. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. A failed build, a broken invariant or a missing metric exits
with a nonzero code and prints no result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Each run must end within 180 s; the measured window is at most 60 s.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"hfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "hfbench")


def measure(exe, args):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}", proc.returncode)
    measured, attempted, failed = {}, None, None
    for line in proc.stdout.splitlines():
        fields = line.split()
        if fields[:1] == ["metric"] and len(fields) == 3:
            measured[fields[1]] = float(fields[2])
        elif fields[:1] == ["ops"] and len(fields) == 3:
            attempted, failed = int(fields[1]), int(fields[2])
    if attempted is None or attempted < 1:
        fail("benchmark reported no operations")
    return measured, attempted, failed


def main():
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found; run from the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if not 0 < args.seconds <= 60:
        fail("--seconds must be in (0, 60]", 2)

    measured, attempted, failed = measure(build(), args)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(measured) - known)
    if unknown:
        fail(f"measured metrics missing from BENCHMARK.json: {unknown}")
    metrics = {}
    for m in declared:
        if m["name"] in measured:
            value = measured[m["name"]]
        elif args.trace:
            value = 0.0  # a layer this workload does not run
        else:
            fail(f"end-to-end metric {m['name']} not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:32} {value:>18.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
