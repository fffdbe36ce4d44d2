"""Run one `torsim` command with every layer traced.

    python3 bench/launch.py STEM [torsim arguments...]

Times the import of `torsion_lab.cli`, wraps the layers, runs the command
exactly as the `torsim` entry point does, and writes the spans and their
summary to STEM.spans / STEM.json.  The exit code is the command's.
"""
import sys
import time

import tracer


def main() -> int:
    stem, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter_ns()
    import torsion_lab.cli as cli
    import_ns = time.perf_counter_ns() - start
    spans = tracer.Tracer()
    tracer.install(spans)
    spans.item = 0
    try:
        return cli.main(argv)
    finally:
        summary = spans.summary()
        summary["import_ns"] = [import_ns]
        spans.write(stem, summary)


if __name__ == "__main__":
    sys.exit(main())
