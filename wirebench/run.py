#!/usr/bin/env python3
"""Wire-to-crossbar benchmark entry point.

Run from the repository root:

    python3 wirebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (wirebench/CMakeLists.txt, which compiles ../src)
into $CARGO_TARGET_DIR/wirebench (default .bench_build/wirebench), runs
it with the workload's fixed paced rate, latency limit and accuracy
floor from wirebench/workloads.json, and prints the result as the last
line of standard output. With --trace 0 set-up is also measured in
separate processes, three before and three after the run so they sample
the host over its whole span, and setup_s is the median of all seven
(each scaled to the reference host speed; see README.md). The metric
names and units printed must be exactly those BENCHMARK.json lists for
the mode; anything else, or any failed output check, exits non-zero
without a result line.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 3  # before the run, and again after it
RUN_TIMEOUT_S = 170


def fail(message):
    print("wirebench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; returns the binary."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ next to wirebench/: nothing to build")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "wirebench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j4", "--target", "wirebench"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=850)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "wirebench")


def run(cmd, deadline):
    """Run the benchmark binary; returns (stdout lines, parsed result)."""
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        fail("out of time before: " + " ".join(cmd[1:]))
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=remaining)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail("%s exited with %d" % (" ".join(cmd[1:]), done.returncode))
    return lines, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        fixed = json.load(f)["workloads"].get(args.workload)
    if fixed is None:
        fail("unknown workload " + args.workload)
    expected = bench["per_layer" if args.trace else "end_to_end"]

    binary = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = [binary, "--workload", args.workload]

    setup = []

    def probe_setup():
        for _ in range(SETUP_PROBES if not args.trace else 0):
            _, probe = run(base + ["--setup-only"], deadline)
            setup.append(probe["metrics"]["setup_s"]["value"])

    probe_setup()

    trace_dir = os.path.join(os.path.dirname(binary), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = base + [
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rate", str(fixed["paced_rate"]),
        "--limit-ms", str(fixed["latency_limit_ms"]),
        "--accuracy-floor", str(fixed["accuracy_floor"]),
        "--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed)),
    ]
    lines, result = run(cmd, deadline)
    if not result.get("correct"):
        fail("output check failed")
    probe_setup()

    metrics = result["metrics"]
    if not args.trace:
        setup.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setup)
        lines.insert(-1, "setup_s: median of %s" % " ".join(
            "%.4g" % s for s in setup))
    names = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(names):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(names) - set(metrics)),
            sorted(set(metrics) - set(names))))
    for name, entry in metrics.items():
        value = entry["value"]
        if entry["unit"] != names[name]:
            fail("%s has unit %s, BENCHMARK.json says %s" % (
                name, entry["unit"], names[name]))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("%s is not a finite number" % name)

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
