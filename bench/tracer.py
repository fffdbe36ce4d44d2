"""Spans and counters recorded around the program's public functions.

`install` wraps, from outside, every public function and method of each layer
module (plus `__init__` and the ring-element operators), and rebinds each
wrapped name wherever the package holds a reference to it: in importing
modules (`engine`'s `factorize`) and in dispatch tables (`cli.COMMANDS`,
`suites.SUITES`).  Every call becomes one span (name, start, end, parent span,
item id) kept in flat arrays and written out when the run ends.  A layer is
one module; its self time is the time of its spans minus their child spans.
"""
from __future__ import annotations

import array
import functools
import inspect
import json
import os
import statistics
import sys
import time
from collections import Counter

PACKAGE = "torsion_lab"
LAYERS = ("intlinalg", "modlinalg", "abelian", "quiver", "engine", "primes",
          "rings", "mccoy", "jsonio", "cli", "suites")
OPERATORS = ("__init__", "__add__", "__sub__", "__mul__", "__neg__", "__pow__")

# per-layer metric -> the wrapped names whose calls it counts
CALL_COUNTS = {
    "intlinalg.smith_calls": ("intlinalg.smith_with_inverses",),
    "intlinalg.lattice_builds": ("intlinalg.ColumnEchelonLattice.__init__",),
    "intlinalg.kernel_basis_calls": ("intlinalg.kernel_basis",),
    "modlinalg.rref_calls": ("modlinalg.rref",),
    "modlinalg.kernel_mod_calls": ("modlinalg.kernel_mod",),
    "abelian.subobject_builds": ("abelian.Subobject.__init__",),
    "abelian.as_module_calls": ("abelian.Subobject.as_module",),
    "abelian.hom_group_calls": ("abelian.hom_group",),
    "abelian.quotient_calls": ("abelian.quotient",),
    "quiver.hom_space_calls": ("quiver.hom_space",),
    "quiver.quotient_rep_calls": ("quiver.quotient_rep",),
    "engine.radical_calls": ("engine.torsion_radical_generated",
                             "engine.torsionfree_coradical_cogenerated"),
    "engine.trace_calls": ("engine.trace",),
    "engine.part_tests": ("engine.AbelianHandle.part_test", "engine.QuiverHandle.part_test"),
    "engine.stable_checks": ("engine.AbelianHandle.sub_stable",
                             "engine.QuiverHandle.sub_stable"),
    "primes.factorize_calls": ("primes.factorize",),
    "mccoy.minors_calls": ("mccoy.minors",),
    "mccoy.apply_calls": ("mccoy.RingMatrix.apply",),
    "suites.instances": ("suites.SuiteResult.check",),
}

# wrapped name -> (counter, how a result adds to it)
RESULT_COUNTS = {
    "abelian.enumerate_submodules": ("abelian.subgroups_enumerated", len),
    "quiver.enumerate_subreps": ("quiver.subreps_enumerated", len),
    "engine.verify_torsion_pair_axioms": ("engine.axiom_checks", len),
    "engine.AbelianHandle.sub_stable": ("engine.stable_passed", bool),
    "engine.QuiverHandle.sub_stable": ("engine.stable_passed", bool),
    "engine.AbelianHandle.part_test": ("engine.parts_found", bool),
    "engine.QuiverHandle.part_test": ("engine.parts_found", bool),
}

# per-layer metrics in report order, with their units
METRICS = (
    ("intlinalg.smith_calls", "count"), ("intlinalg.lattice_builds", "count"),
    ("intlinalg.kernel_basis_calls", "count"), ("intlinalg.self_ms", "ms"),
    ("modlinalg.rref_calls", "count"), ("modlinalg.kernel_mod_calls", "count"),
    ("modlinalg.self_ms", "ms"),
    ("abelian.subgroups_enumerated", "count"), ("abelian.subobject_builds", "count"),
    ("abelian.as_module_calls", "count"), ("abelian.hom_group_calls", "count"),
    ("abelian.quotient_calls", "count"), ("abelian.self_ms", "ms"),
    ("quiver.subreps_enumerated", "count"), ("quiver.hom_space_calls", "count"),
    ("quiver.quotient_rep_calls", "count"), ("quiver.self_ms", "ms"),
    ("engine.radical_calls", "count"), ("engine.trace_calls", "count"),
    ("engine.axiom_checks", "count"), ("engine.part_tests", "count"),
    ("engine.stable_checks", "count"), ("engine.stable_yield", "ratio"),
    ("engine.part_yield", "ratio"), ("engine.self_ms", "ms"),
    ("primes.factorize_calls", "count"), ("primes.self_ms", "ms"),
    ("rings.self_ms", "ms"), ("mccoy.minors_calls", "count"),
    ("mccoy.apply_calls", "count"), ("mccoy.self_ms", "ms"),
    ("jsonio.self_ms", "ms"), ("cli.import_ms", "ms"), ("cli.self_ms", "ms"),
    ("suites.instances", "count"), ("suites.self_ms", "ms"),
)


class Tracer:
    """In-memory span store.

    `item` tags every span opened while it is set; while it is negative (set-up
    and output checks) calls pass through unrecorded.
    """

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_item = array.array("i")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self.counters: Counter = Counter()
        self.item = -1
        self._stack = [-1]

    def wrap(self, fn, name: str, layer: str):
        name_id = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        names, parents, items = self.span_name, self.span_parent, self.span_item
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns
        counter, measure = RESULT_COUNTS.get(name, (None, None))
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.item < 0:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            items.append(self.item)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                counters[counter] += measure(result)
            return result

        return traced

    def summary(self) -> dict:
        """Calls per wrapped name, result counters and self time per layer (ns)."""
        child = [0] * len(self.span_name)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        self_ns = Counter()
        for i, name_id in enumerate(self.span_name):
            self_ns[self.layers[name_id]] += ends[i] - starts[i] - child[i]
        calls = Counter()
        for name_id, count in Counter(self.span_name).items():
            calls[self.names[name_id]] = count
        return {"calls": dict(calls), "counters": dict(self.counters),
                "self_ns": dict(self_ns), "import_ns": []}

    def write(self, stem: str, summary: dict) -> None:
        """Spans as flat binary arrays in `stem.spans`, described by `stem.json`."""
        columns = ("span_name", "span_parent", "span_item", "span_start", "span_end")
        with open(stem + ".spans", "wb") as fh:
            for column in columns:
                getattr(self, column).tofile(fh)
        meta = {"spans": len(self.span_name), "names": self.names, "layers": self.layers,
                "columns": [[c, getattr(self, c).typecode] for c in columns],
                "summary": summary}
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def _wrap_class(tracer: Tracer, cls, layer: str) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") and attr not in OPERATORS:
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(raw, (staticmethod, classmethod)):
            setattr(cls, attr, type(raw)(tracer.wrap(raw.__func__, name, layer)))
        elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
            setattr(cls, attr, tracer.wrap(raw, name, layer))


def install(tracer: Tracer) -> None:
    """Wrap every layer of the already imported package."""
    modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS
               if f"{PACKAGE}.{layer}" in sys.modules}
    wrapped = {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                wrapped[obj] = tracer.wrap(obj, f"{layer}.{attr}", layer)
            elif inspect.isclass(obj):
                _wrap_class(tracer, obj, layer)
    package_modules = [m for n, m in sys.modules.items()
                       if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    for module in package_modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    if inspect.isfunction(value) and value in wrapped:
                        obj[key] = wrapped[value]


def merge(summaries) -> dict:
    """Sum the summaries of several traced processes."""
    total = {"calls": Counter(), "counters": Counter(), "self_ns": Counter(), "import_ns": []}
    for s in summaries:
        for key in ("calls", "counters", "self_ns"):
            total[key].update(s[key])
        total["import_ns"].extend(s["import_ns"])
    return total


def metrics(summary: dict) -> dict:
    """The per-layer metrics of one traced round."""
    calls, counters, self_ns = summary["calls"], summary["counters"], summary["self_ns"]
    values = {metric: sum(calls.get(n, 0) for n in names)
              for metric, names in CALL_COUNTS.items()}
    for counter in ("abelian.subgroups_enumerated", "quiver.subreps_enumerated",
                    "engine.axiom_checks"):
        values[counter] = counters.get(counter, 0)
    checks, tests = values["engine.stable_checks"], values["engine.part_tests"]
    values["engine.stable_yield"] = counters.get("engine.stable_passed", 0) / checks if checks else 0.0
    values["engine.part_yield"] = counters.get("engine.parts_found", 0) / tests if tests else 0.0
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = self_ns.get(layer, 0) / 1e6
    imports = summary["import_ns"]
    values["cli.import_ms"] = statistics.median(imports) / 1e6 if imports else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}


def trace_dir(run_dir: str, workload: str) -> str:
    path = os.path.join(run_dir, f"trace-{workload}")
    os.makedirs(path, exist_ok=True)
    return path
