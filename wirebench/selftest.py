#!/usr/bin/env python3
"""Self-test of the wire-to-crossbar benchmark.

Run from the repository root:

    python3 wirebench/selftest.py [--seconds 3] [--workloads a,b]

Checks, on short runs of each workload:
  * the quantile helper reports its sample count and refuses a p99 with
    fewer than ten samples beyond it (wirebench --selftest);
  * every metric BENCHMARK.json names is emitted with its unit, in both
    modes (run.py refuses a result that differs);
  * the exact figures repeat bit for bit across two runs with the same
    seed: accuracy and energy per image end to end, and the chip, swap,
    ABFT, codec and input-density counts of the ledger.
Exits non-zero on the first failure.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build step)

EXACT_END_TO_END = ("accuracy", "energy_uj_per_image")
EXACT_PREFIXES = ("chip.xbar_evals", "chip.adc", "chip.spikes",
                  "chip.noc_packets", "chip.energy", "serving.swap_pulses",
                  "serving.frame_bytes", "abft.checks", "abft.violations",
                  "snn.input_spike_density")


def exact(name, trace):
    if not trace:
        return name in EXACT_END_TO_END
    return name.startswith(EXACT_PREFIXES) or name.endswith(".input_density")


def measure(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=400)
    if done.returncode != 0:
        raise SystemExit("FAIL: %s exited with %d" % (" ".join(cmd[1:]),
                                                      done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=3.0,
                        help="shortest run; longer where the traced "
                             "pooled p99 needs it")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workloads", default=None)
    args = parser.parse_args()

    binary = run.build()
    if subprocess.run([binary, "--selftest"]).returncode != 0:
        raise SystemExit("FAIL: quantile helper")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    with open(os.path.join(HERE, "workloads.json")) as f:
        rates = {k: v["paced_rate"] for k, v in json.load(f)["workloads"].items()}
    if args.workloads:
        names = args.workloads.split(",")
    for workload in names:
        # The traced run paces half its time and must reach 1100 replies
        # so its pooled p99 has ten samples beyond it.
        seconds = max(args.seconds, math.ceil(2 * 1100 / rates[workload]))
        for trace in (0, 1):
            first = measure(workload, args.seed, seconds, trace)
            second = measure(workload, args.seed, seconds, trace)
            checked = [n for n in first if exact(n, trace)]
            for name in checked:
                a, b = first[name]["value"], second[name]["value"]
                if a != b:
                    raise SystemExit("FAIL: %s %s differs across runs of "
                                     "seed %d: %r vs %r" % (
                                         workload, name, args.seed, a, b))
            print("ok  %-16s trace %d: %d metrics, %d exact and repeated" % (
                workload, trace, len(first), len(checked)))
    print("selftest passed")


if __name__ == "__main__":
    main()
