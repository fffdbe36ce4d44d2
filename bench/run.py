"""Benchmark for torsion-lab: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a checkout.  Set-up time is the median of eleven fresh
interpreters that import the program and build the inputs.  The timed phase
runs whole rounds, each in a fresh worker interpreter that runs every item of
the workload once, until the next round would end after S seconds (at least
one round).  Every time is rescaled to a nominal machine speed by a speed
gauge (common.py).  With --trace 1 a single traced round gives the
per-layer metrics instead.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--quick runs reduced-size inputs for the benchmark's own tests.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import common

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_STARTS = 11    # fresh starts timed for setup_s, after one untimed start
TIME_LIMIT_S = 170   # a run never outlives this, whatever the round length


class BenchError(Exception):
    pass


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="reduced-size inputs")
    return parser.parse_args(argv)


class Runner:
    """Starts workers for one (workload, seed) and keeps the run's deadline."""

    def __init__(self, args, run_dir: str):
        self.args = args
        self.run_dir = run_dir
        self.env = common.child_env()
        self.deadline = time.perf_counter() + TIME_LIMIT_S

    def start(self, mode: str, trace: bool = False):
        """(seconds until the worker was ready, its result or None)."""
        cmd = [sys.executable, WORKER, "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--run-dir", self.run_dir, "--mode", mode]
        cmd += ["--trace"] * trace + ["--quick"] * self.args.quick
        begin = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=self.env) as proc:
            try:
                ready = proc.stdout.readline()
                setup = time.perf_counter() - begin
                out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError(f"{mode} worker passed the {TIME_LIMIT_S} s limit") from None
        if ready.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"{mode} worker failed with exit code {proc.returncode}")
        return setup, json.loads(out.strip().splitlines()[-1]) if mode == "run" else None


def tail_percentile(items: int) -> int:
    """Highest whole percentile with at least ten of `items` beyond it."""
    return max(50, math.floor(100 * (1 - 10 / items)))


def nearest_rank(sorted_values, pct: float):
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def measure(args, run_dir: str) -> dict:
    runner = Runner(args, run_dir)
    rounds = []
    if args.trace:
        rounds.append(runner.start("run", trace=True)[1])
    else:
        gauge = common.start_gauge()
        runner.start("setup")  # the first start may compile bytecode
        setups = []
        for _ in range(SETUP_STARTS):
            setups.append(runner.start("setup")[0])
            gauge.sample()
        # one speed for the whole set-up phase, which lasts only a few seconds
        setup_s = (statistics.median(setups) * gauge.nominal_ns
                   / statistics.median(gauge.samples))
        begin = time.perf_counter()
        while True:
            round_begin = time.perf_counter()
            rounds.append(runner.start("run")[1])
            now = time.perf_counter()
            if now - begin + (now - round_begin) > args.seconds:
                break

    per_round = len(rounds[0]["times_ns"])
    times = sorted(t for r in rounds for t in r["times_ns"])
    raised = sum(r["raised"] for r in rounds)
    wrong = sum(r["wrong"] for r in rounds)
    for r in rounds:
        for message in r["messages"]:
            print(f"bench: {message}", file=sys.stderr)
    pct = tail_percentile(per_round)
    rate = (len(times) - raised) / (sum(times) / 1e9)
    wall_rate = (len(times) - raised) / (sum(t for r in rounds for t in r["wall_ns"]) / 1e9)
    print(f"bench: {args.workload} seed={args.seed} trace={args.trace} rounds={len(rounds)} "
          f"items/round={per_round} items/s={rate:.2f} (wall clock {wall_rate:.2f}) "
          f"tail=p{pct}", file=sys.stderr)
    report = {
        "correct": wrong == 0 and all(r["count_ok"] for r in rounds),
        "attempted": len(times),
        "failed": raised + wrong,
    }
    if args.trace:
        report["metrics"] = rounds[0]["per_layer"]
    else:
        report["metrics"] = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": rate, "unit": "1/s"},
            "item_p50_ms": {"value": statistics.median(times) / 1e6, "unit": "ms"},
            "item_tail_ms": {"value": nearest_rank(times, pct) / 1e6, "unit": "ms"},
            "peak_rss_mb": {"value": max(r["rss_kb"] for r in rounds) / 1024, "unit": "MB"},
        }

    with open(os.path.join(run_dir, f"items-{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump([[label, t, wall] for r in rounds
                   for label, t, wall in zip(r["labels"], r["times_ns"], r["wall_ns"])], fh)
    return report


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join("src", "torsion_lab", "__init__.py")):
        print("bench: src/torsion_lab not found; run from the root of a torsion-lab "
              "checkout", file=sys.stderr)
        return 2
    run_dir = os.path.abspath(common.RUN_DIR)
    os.makedirs(run_dir, exist_ok=True)
    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process and every process it starts, so the speed
        # gauge always measures the CPU the measured work runs on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        report = measure(args, run_dir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
