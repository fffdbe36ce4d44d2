"""Names, process settings and the speed gauges shared by run.py and its
workers."""
import math
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("gabriel-axioms", "subgroup-lattices", "quiver-reps", "cli-requests")
RUN_DIR = ".bench_runs"  # per-run outputs and traces, under the checkout root

REFERENCE_NS = 2_500_000       # nominal duration of one reference-loop slice
START_NS = 50_000_000          # nominal duration of one bare interpreter start
GAUGE_EVERY_NS = 100_000_000   # item time between two gauge slices


def child_env() -> dict:
    """Environment for every process the benchmark starts.

    The program is imported from the checkout's `src/`, hash seeds are fixed
    so traced counts repeat, and TORSIM_THREADS is unset (one thread).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("TORSIM_THREADS", None)
    return env


def reference_slice() -> int:
    """Run a fixed mix of interpreter work (about 2.5 ms) and return its duration in ns."""
    begin = time.perf_counter_ns()
    table: dict = {}
    acc = 0
    for i in range(300):
        row = sorted((i * 7919 + j * 104729) % 1009 for j in range(24))
        key = tuple(row[:6])
        table[key] = table.get(key, 0) + math.gcd(row[-1], row[-2] + 1)
        acc += sum(x * x for x in row) % 97
    return time.perf_counter_ns() - begin


def start_slice() -> int:
    """Start and end a bare interpreter (`python3 -c pass`); its duration in ns."""
    begin = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True)
    return time.perf_counter_ns() - begin


class SpeedGauge:
    """Tracks the machine's speed with fixed slices of work taken between items.

    On a shared machine the CPU's speed drifts by 20% within minutes, which
    would swamp any change to the program.  Each measured time is rescaled to
    the nominal speed, at which one slice takes `nominal_ns`, using the median
    of the three slices around it.  The program never runs inside a slice, so
    a change to the program moves its times and not the gauge.
    """

    def __init__(self, slice_fn, nominal_ns: int):
        self.slice_fn = slice_fn
        self.nominal_ns = nominal_ns
        for _ in range(3):  # warm caches and let the interpreter specialise the loop
            slice_fn()
        self.samples = [slice_fn()]

    def sample(self) -> None:
        self.samples.append(self.slice_fn())

    def scale(self, duration_ns: int, after: int) -> int:
        """Rescale a duration measured just before slice number `after`."""
        after = min(after, len(self.samples) - 1)
        window = self.samples[max(0, after - 1):after + 2]
        return round(duration_ns * self.nominal_ns / statistics.median(window))


def loop_gauge() -> SpeedGauge:
    """For work inside one interpreter: the reference loop."""
    return SpeedGauge(reference_slice, REFERENCE_NS)


def start_gauge() -> SpeedGauge:
    """For work that starts an interpreter: a bare interpreter start."""
    return SpeedGauge(start_slice, START_NS)
