"""One fresh interpreter running one round of a workload.

    python3 bench/worker.py --workload NAME --seed N --run-dir DIR
                            [--mode setup|run] [--trace] [--quick]

Imports the program from ./src, builds the workload's inputs and prints
`ready`; in `setup` mode it stops there.  In `run` mode it then runs every
item once, timing only the program call and checking each output, and prints
one JSON line: item times (wall, and rescaled by the speed gauge), failures,
peak RSS and, when traced, the per-layer summary.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import sys
import time

import common
import tracer


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, os.path.abspath("src"))
    start = time.perf_counter_ns()
    if args.workload == "cli-requests":
        import torsion_lab.cli  # noqa: F401  (the start-up a CLI user pays)
    else:
        import torsion_lab  # noqa: F401
    import_ns = time.perf_counter_ns() - start
    import workloads

    cli_trace_dir = None
    if args.trace and args.workload == "cli-requests":
        cli_trace_dir = tracer.trace_dir(args.run_dir, args.workload)
        for stale in glob.glob(os.path.join(cli_trace_dir, "child-*")):
            os.remove(stale)
    work = workloads.build(args.workload, args.seed, args.quick, args.run_dir,
                           traced=args.trace)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    spans = None
    if args.trace and cli_trace_dir is None:
        spans = tracer.Tracer()
        tracer.install(spans)
    gauge = common.start_gauge() if args.workload == "cli-requests" else common.loop_gauge()
    times, slices, labels, messages = [], [], [], []
    raised = wrong = 0
    since = 0
    clock = time.perf_counter_ns
    for index, item in enumerate(work.items):
        if spans is not None:
            spans.item = index
        begin = clock()
        try:
            out = work.run(item)
        except Exception as exc:  # an item that raises counts as failed
            raised += 1
            messages.append(f"item {index} raised {exc!r}")
            continue
        finally:
            times.append(clock() - begin)
            slices.append(len(gauge.samples))
            labels.append(work.label(item))
            if spans is not None:
                spans.item = -1
            since += times[-1]
            if since >= common.GAUGE_EVERY_NS:
                gauge.sample()
                since = 0
        try:
            ok = work.check(item, out)
        except Exception as exc:  # a malformed output fails its check
            ok = False
            messages.append(f"item {index} check raised {exc!r}")
        if not ok:
            wrong += 1
            messages.append(f"item {index} wrong output: {labels[-1][0]}")

    gauge.sample()
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-requests" else resource.RUSAGE_SELF
    result = {
        "times_ns": [gauge.scale(t, j) for t, j in zip(times, slices)],
        "wall_ns": times,
        "labels": labels,
        "raised": raised,
        "wrong": wrong,
        "messages": messages[:20],
        "count_ok": work.count_ok,
        "rss_kb": resource.getrusage(who).ru_maxrss,
    }
    if args.trace:
        if spans is not None:
            summary = spans.summary()
            summary["import_ns"] = [import_ns]
            spans.write(os.path.join(tracer.trace_dir(args.run_dir, args.workload), "worker"),
                        summary)
        else:
            children = []
            for path in sorted(glob.glob(os.path.join(cli_trace_dir, "child-*.json"))):
                with open(path, encoding="utf-8") as fh:
                    children.append(json.load(fh)["summary"])
            summary = tracer.merge(children)
        result["per_layer"] = tracer.metrics(summary)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
