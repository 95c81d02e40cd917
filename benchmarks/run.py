"""Run the residuehd benchmark.

    python3 benchmarks/run.py --workload roundtrip --seed 1 --seconds 24 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 24 --trace 1

One workload runs in this process; ``--workload all`` runs each workload in
a child process of its own, one after another. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the full record, with
provenance. A metric table goes to standard error. The exit code is not 0
when an answer or a count differs between executions or from an earlier run
of the same program, seed and size.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

WORKLOAD_NAMES = ("roundtrip", "large_modulus", "subset_sum", "scene")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time spent in timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            status = 1
        if not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import harness  # does not import numpy

    # one BLAS thread, set before numpy loads: steadier, and a fixed reduction order
    for var in harness.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    harness.import_library()
    from workloads import WORKLOADS

    record, result = harness.run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.size == "tiny"
    )
    for name, metric in result["metrics"].items():
        print(f"{args.workload:14s} {name:36s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    for error in record["gate_errors"]:
        print(f"gate: {error}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
