"""torsion-lab: torsion-simplicity, torsion radicals, and McCoy-rank pipelines
for concrete finite-length module categories, with exact arithmetic throughout.
"""

from .abelian import (PresentedModule, PrimeSet, SpClosedSubset, Subobject,
                      associated_primes, cyclic_module, direct_sum_module,
                      enumerate_submodules, finite_abelian_modules, hom_group,
                      primary_component, quotient)
from .engine import (AbelianHandle, Morph, QuiverHandle, SimplicityReport,
                     TorsionPartSet, injective_criterion_check, is_essential,
                     is_torsion_simple, torsion_parts,
                     torsion_radical_generated,
                     torsionfree_coradical_cogenerated, trace,
                     verify_torsion_pair_axioms)
from .errors import (ContradictionError, InputError, TorsionLabError,
                     UnsupportedRingError, WorkBudgetError)
from .mccoy import (ConormalReport, DeterminantalProfile, RingMatrix,
                    check_radical_lemma, conormal_presentation,
                    determinantal_ideal, hom_I_to_quotient, mccoy_rank,
                    nilpotent_minors_check, nullvector_exhaustive)
from .quiver import (Quiver, QuiverRep, SubRep, a_n_quiver, enumerate_subreps,
                     hom_space, iter_subreps, quotient_rep, simple_rep)
from .rings import Ideal, Ring, RingElem, annihilator, is_nilpotent

__version__ = "0.1.0"
