"""Where a workload's time went, from the item file of its last run.

    python3 bench/report.py WORKLOAD

Reads .bench_runs/items-WORKLOAD.json (written by every run: label, rescaled
and wall-clock time of each item) and prints the share of rescaled item time
spent in the ten slowest items and, for the abelian workloads, in groups whose
order has two or more distinct primes.
"""
import json
import os
import statistics
import sys

import common
import oracles


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0] not in common.WORKLOADS:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(common.RUN_DIR, f"items-{argv[0]}.json"), encoding="utf-8") as fh:
        rows = json.load(fh)
    per_item: dict = {}
    for (text, order), ns, _ in rows:
        per_item.setdefault((text, order), []).append(ns)
    cost = {key: statistics.median(v) for key, v in per_item.items()}
    total = sum(cost.values())
    slowest = sorted(cost.items(), key=lambda kv: kv[1], reverse=True)[:10]
    print(f"items: {len(cost)}  item time per round: {total / 1e9:.2f} s")
    print(f"ten slowest items: {sum(v for _, v in slowest) / total:.1%} of item time")
    for (text, _), ns in slowest:
        print(f"  {ns / 1e6:9.1f} ms  {text}")
    multi = sum(v for (_, order), v in cost.items() if order and len(oracles.factor(order)) > 1)
    if any(order for _, order in cost):
        print(f"multi-prime groups: {multi / total:.1%} of item time")
    return 0


if __name__ == "__main__":
    sys.exit(main())
