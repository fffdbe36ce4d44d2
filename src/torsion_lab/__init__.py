"""torsion-lab: torsion-simplicity, torsion radicals, and McCoy-rank pipelines
for concrete finite-length module categories, with exact arithmetic throughout.

The names below are exported lazily (PEP 562): `import torsion_lab` loads no
layer module, and the first use of a name imports the module that defines it.
"""

import importlib

_EXPORTS = {
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
# exported name -> the module that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
