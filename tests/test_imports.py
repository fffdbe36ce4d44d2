"""Import footprint and public surface of the lazily exporting package.

Each footprint runs in a fresh interpreter and records which `torsion_lab.*`
modules, and which of the costly standard-library modules in HEAVY_STDLIB, are
loaded after each step, so it counts modules, not milliseconds.
"""
import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import torsion_lab

ROOT = Path(__file__).resolve().parents[1]
Z6 = '{"ring":{"kind":"Z"},"generators":1,"relations":[[6]]}'
MCCOY = '{"ring":{"kind":"IntegersMod","n":4},"matrix":[[2]]}'
REP = '{"quiver":{"vertices":2,"arrows":[[0,1]]},"p":2,"dims":[1,1],"maps":[[[1]]]}'
BIPOLY = '{"ring":{"kind":"BiPolyMonomialQuot","p":5,"rels":["xy"]},"ideal":["x"]}'

# the names the package exported when it imported every module eagerly, less
# the deleted `enumerate_subreps` and `SpClosedSubset`, five names that only
# tests called, and the `ConormalReport` and `DeterminantalProfile` classes
# whose functions now return the dicts their commands print
EXPORTED = {
    "abelian": ("PresentedModule", "PrimeSet", "Subobject",
                "associated_primes", "cyclic_module", "direct_sum_module",
                "enumerate_submodules", "finite_abelian_modules", "hom_group",
                "primary_component", "quotient"),
    "engine": ("AbelianHandle", "Morph", "QuiverHandle", "SimplicityReport",
               "TorsionPartSet", "injective_criterion_check", "is_essential",
               "is_torsion_simple", "torsion_parts", "torsion_radical_generated",
               "torsionfree_coradical_cogenerated", "trace",
               "verify_torsion_pair_axioms"),
    "errors": ("ContradictionError", "InputError", "TorsionLabError",
               "UnsupportedRingError", "WorkBudgetError"),
    "mccoy": ("RingMatrix", "check_radical_lemma", "conormal_presentation",
              "hom_I_to_quotient", "mccoy_rank", "nullvector_exhaustive"),
    "quiver": ("Quiver", "QuiverRep", "SubRep", "a_n_quiver", "hom_space",
               "iter_subreps", "quotient_rep"),
    "rings": ("Ideal", "Ring", "RingElem"),
}

# standard-library modules no command needs: `dataclasses` and the `inspect`,
# `ast`, `dis` and `tokenize` it imports cost about 10 ms of every start-up
# when the sources are compiled afresh
HEAVY_STDLIB = ("dataclasses", "inspect")

# steps run in order in one interpreter; after each, the loaded layer modules
# (by their names in the package) and heavy modules (by their own) are recorded
FOOTPRINT_SCRIPT = """
import contextlib, io, json, sys
steps, heavy = json.loads(sys.argv[1]), json.loads(sys.argv[2])
loaded = []
for step in steps:
    if step == "package":
        import torsion_lab
    elif step == "cli":
        import torsion_lab.cli
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            code = torsion_lab.cli.main(step)
        assert code == 0, (step, code)
    loaded.append(sorted(name.split(".", 1)[1] for name in sys.modules
                         if name.startswith("torsion_lab."))
                  + [name for name in heavy if name in sys.modules])
print(json.dumps(loaded))
"""


def footprint(*steps) -> list[set]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT, json.dumps(steps),
                           json.dumps(HEAVY_STDLIB)],
                          capture_output=True, text=True, env=env, cwd=ROOT, check=True)
    return [set(names) for names in json.loads(proc.stdout)]


def test_package_and_cli_import_no_layer_they_do_not_use():
    package, cli = footprint("package", "cli")
    assert package == set()
    assert not cli & {"abelian", "engine", "intlinalg", "quiver", "modlinalg",
                      "mccoy", "suites"}


def test_module_check_loads_no_quiver_mccoy_or_suites():
    *_, after = footprint("package", "cli", ["check", "--module", Z6])
    assert {"abelian", "engine"} <= after
    assert not after & {"quiver", "modlinalg", "mccoy", "suites", "_polyarith"}


@pytest.mark.parametrize("command", ["check", "torsion-parts"])
def test_rep_command_loads_no_module_or_ring_layer(command):
    *_, after = footprint("package", "cli", [command, "--rep", REP])
    assert {"engine", "quiver", "modlinalg"} <= after
    assert not after & {"abelian", "intlinalg", "rings", "_polyarith", "mccoy", "suites"}


def test_mccoy_rank_loads_no_module_or_quiver_layer():
    *_, after, bivariate = footprint("package", "cli", ["mccoy", "rank", MCCOY],
                                     ["hom-conormal", BIPOLY])
    assert "mccoy" in after
    assert not after & {"abelian", "engine", "intlinalg", "quiver", "modlinalg",
                        "suites", "_polyarith"}
    # the F_p[x] and F_p[x,y] arithmetic is the one module a ring past F_p adds
    assert bivariate - after == {"_polyarith"}


@pytest.mark.parametrize("suite,runs,skips", [
    (["morphisms"], {"suites", "mccoy", "rings", "_polyarith"},
     {"abelian", "engine", "intlinalg", "quiver", "modlinalg"}),
    (["gabriel-split", "--max-order", "12"], {"suites", "abelian", "engine", "intlinalg"},
     {"mccoy", "quiver", "modlinalg", "_polyarith"}),
], ids=["morphisms", "gabriel-split"])
def test_verify_loads_only_the_layers_its_suite_runs(suite, runs, skips):
    *_, after = footprint("package", "cli", ["verify", *suite])
    assert runs <= after
    assert not after & skips


def test_commands_import_no_heavy_standard_library_module():
    steps = footprint("package", "cli", ["check", "--module", Z6], ["check", "--rep", REP],
                      ["mccoy", "rank", MCCOY], ["verify", "morphisms"])
    assert len(steps) == 6
    for after in steps:
        assert not after & set(HEAVY_STDLIB)


def test_library_never_imports_dataclasses():
    for path in (ROOT / "src" / "torsion_lab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "dataclasses" for n in names), path.name


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTED.items()
                                         for n in names])
def test_exported_name_is_the_defining_modules_object(module, name):
    defining = importlib.import_module(f"torsion_lab.{module}")
    assert getattr(torsion_lab, name) is getattr(defining, name)
    assert name in dir(torsion_lab)


def test_package_surface_is_the_exported_names():
    names = {n for names in EXPORTED.values() for n in names}
    assert len(names) == 45
    assert set(torsion_lab.__all__) == names
    assert torsion_lab.__version__ == "0.1.0"
    namespace: dict = {}
    exec("from torsion_lab import *", namespace)
    assert names <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        torsion_lab.no_such_name
    from torsion_lab import abelian
    assert abelian is sys.modules["torsion_lab.abelian"]


# exported names that no library code calls: the Hom-module API the README
# documents
UNCALLED_EXPORTS = {"hom_group"}


def test_every_exported_name_is_used_in_the_library():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in (ROOT / "src" / "torsion_lab").glob("*.py")}
    uses = []  # (module, line, name) of every read of a name or an attribute
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((module, node.lineno, node.attr))
    unused = set()
    for module, names in EXPORTED.items():
        for name in names:
            (definition,) = [node for node in trees[module].body
                             if getattr(node, "name", None) == name]
            own = range(definition.lineno, definition.end_lineno + 1)
            if not any(n == name and not (m == module and line in own)
                       for m, line, n in uses):
                unused.add(name)
    assert unused == UNCALLED_EXPORTS


def test_readme_imports_run():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    statements = re.findall(r"^from torsion_lab import (?:\([^)]*\)|.*)$", readme,
                            flags=re.MULTILINE)
    assert len(statements) >= 2
    for statement in statements:
        exec(statement, {})
