"""Check that traced runs are repeatable and that predicted-zero counts are zero.

    python3 bench/check_trace.py [--seed N] [--quick] [WORKLOAD ...]

Runs each workload's traced round twice with the same seed.  Every count
(and every ratio of counts) must be identical between the two runs, every
per-layer metric must be present, and the layers a workload should never
reach must read zero.  Exits 1 on any difference.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import common
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))

# metric-name prefixes that must read zero on a workload (counts and self times)
PREDICTED_ZERO = {
    "gabriel-axioms": ("quiver.", "modlinalg."),
    "subgroup-lattices": ("quiver.", "modlinalg.", "engine.radical_calls"),
    "quiver-reps": ("intlinalg.",),
}


def traced_metrics(workload: str, seed: int, quick: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"] + ["--quick"] * quick
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not report["correct"] or report["failed"]:
        raise SystemExit(f"{workload}: traced run failed: {proc.stderr}")
    return {name: m["value"] for name, m in report["metrics"].items()}


def problems(workload: str, first: dict, second: dict) -> list[str]:
    out = []
    expected = [name for name, _ in tracer.METRICS]
    if sorted(first) != sorted(expected):
        out.append(f"metrics differ from the declared list: {sorted(set(expected) ^ set(first))}")
    for name, unit in tracer.METRICS:
        if unit != "ms" and first.get(name) != second.get(name):
            out.append(f"{name} differs: {first.get(name)} then {second.get(name)}")
        if name.startswith(PREDICTED_ZERO.get(workload, ())) and first.get(name) != 0:
            out.append(f"{name} should be zero, read {first.get(name)}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workloads", nargs="*", default=list(common.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    failed = False
    for workload in args.workloads:
        first = traced_metrics(workload, args.seed, args.quick)
        second = traced_metrics(workload, args.seed, args.quick)
        found = problems(workload, first, second)
        for line in found:
            print(f"{workload}: {line}")
        print(f"{workload}: {'FAIL' if found else 'ok'}")
        failed = failed or bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
