"""Named verification suites reproducing the classification and pipeline
statements at desk scale.  Every suite is exact: a single failing instance
fails the suite, and failures carry a printable description of the instance.
"""
from __future__ import annotations

import random
from itertools import combinations, product as iproduct

# each suite imports the layers it runs, so `torsim verify` compiles no other
from .errors import InputError


class SuiteResult:
    __slots__ = ("name", "statement", "instances", "failures")

    def __init__(self, name: str, statement: str, instances: int = 0,
                 failures: list[str] | None = None):
        self.name = name
        self.statement = statement
        self.instances = instances
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, description: str) -> None:
        self.instances += 1
        if not ok:
            self.failures.append(description)

    def as_dict(self) -> dict:
        return {
            "suite": self.name,
            "statement": self.statement,
            "instances": self.instances,
            "failures": self.failures,
            "passed": self.passed,
        }


def _all_a2_reps(max_dim: int, p: int = 2):
    from . import quiver as qv
    quiver = qv.a_n_quiver(2)
    reps = []
    for d1 in range(max_dim + 1):
        for d2 in range(max_dim + 1):
            flats = iproduct(range(p), repeat=d1 * d2)
            for flat in flats:
                mat = [[flat[i * d1 + j] for j in range(d1)] for i in range(d2)]
                reps.append(qv.QuiverRep(quiver, p, (d1, d2), [mat]))
    return quiver, reps


# The most A2 representations over F_2 the finite-length suite brute-forces:
# max_dim 3 lists 689 of them, max_dim 4 lists 74,963, at about 17 ms each for
# the 65,536 of dims (4, 4).
FINITE_LENGTH_REP_CAP = 10_000


def finite_length_suite(options) -> SuiteResult:
    """Torsion-simple iff concentrated in a single vertex, brute force vs criterion."""
    from . import engine as eng
    from . import quiver as qv
    res = SuiteResult(
        "finite-length",
        "a finite-length representation is torsion-simple iff it has a unique "
        "simple factor (single-vertex support)")
    max_dim = options.get("max_dim", 3)
    if max_dim > qv.ENUM_DIM_BOUND:
        # refuse before building the 2^(max_dim^2) representations of the top dims
        raise InputError(f"max_dim {max_dim} exceeds the subrepresentation "
                         f"enumeration bound {qv.ENUM_DIM_BOUND}")
    count = sum(2 ** (d1 * d2) for d1 in range(max_dim + 1) for d2 in range(max_dim + 1))
    if count > FINITE_LENGTH_REP_CAP:
        raise InputError(f"max_dim {max_dim} lists {count} A2 representations over F_2 "
                         f"({2 ** (max_dim * max_dim)} of dims ({max_dim}, {max_dim})); "
                         f"the finite-length suite brute-forces at most "
                         f"{FINITE_LENGTH_REP_CAP}")
    quiver, reps = _all_a2_reps(max_dim)
    handle = eng.QuiverHandle(quiver, 2)

    for rep in reps:
        if rep.is_zero():
            continue
        brute = eng.is_torsion_simple(handle, rep, method="brute-force",
                                      prune=False).verdict
        predicate = len(rep.support()) == 1
        res.check(brute == predicate,
                  f"dims={rep.dims} maps={rep.maps}: brute={brute} predicate={predicate}")
    return res


def ass_singleton_suite(options) -> SuiteResult:
    """|torsion parts| = 2 iff the associated primes are a singleton iff p-group."""
    from . import abelian as ab
    from . import engine as eng
    from .primes import prime_divisors
    from .rings import Ring
    res = SuiteResult(
        "ass-singleton",
        "a finite module is torsion-simple iff its associated primes are a "
        "singleton iff it is a p-group")
    max_order = options.get("max_order", 200)
    ring = Ring.integers()
    handle = eng.AbelianHandle(ring)

    for n in range(1, max_order + 1):
        for m in ab.finite_abelian_modules(n, ring):
            parts = eng.torsion_parts(handle, m)
            simple = len(parts) == 2
            ass = ab.associated_primes(m)
            singleton = len(ass) == 1
            p_group = n > 1 and len(prime_divisors(n)) == 1
            res.check(simple == singleton == p_group,
                      f"{m.describe()}: parts={len(parts)} ass={ass.as_list()}")
    return res


def gabriel_split_suite(options) -> SuiteResult:
    """Iterated-trace radical of {Z/p : p in V} = direct sum of p-primary parts."""
    from . import abelian as ab
    from . import engine as eng
    from .rings import Ring
    res = SuiteResult(
        "gabriel-split",
        "the radical of the torsion pair generated by {Z/p : p in V} is the "
        "sum of the p-primary components, and the torsion-pair axioms hold")
    max_order = min(options.get("max_order", 200), 100)
    ring = Ring.integers()
    handle = eng.AbelianHandle(ring)
    subsets = [v for r in range(4) for v in combinations((2, 3, 5), r)]

    for n in range(1, max_order + 1):
        for m in ab.finite_abelian_modules(n, ring):
            for v in subsets:
                sources = [ab.cyclic_module(ring, p) for p in v]
                rad = eng.torsion_radical_generated(handle, sources, m)
                expected = ab.Subobject.zero(m)
                for p in v:
                    expected = expected.sum(ab.primary_component(m, p))
                desc = f"{m.describe()} V={list(v)}"
                res.check(rad.key() == expected.key(), f"{desc}: radical != primary sum")
                axioms = eng.verify_torsion_pair_axioms(handle, sources, [m])
                res.check(all(a.passed for a in axioms), f"{desc}: axioms failed")
    return res


def mccoy_suite(options) -> SuiteResult:
    """Theorem-mode vs exhaustive nullvector verdicts, 500 seeded matrices per modulus."""
    from . import mccoy as mc
    from .rings import Ring
    res = SuiteResult(
        "mccoy",
        "a matrix over Z/n has a non-zero nullvector iff its McCoy rank is "
        "below the column count")
    rng = random.Random(options.get("seed", 0))
    for n in (4, 6, 8, 9, 12):
        ring = Ring.integers_mod(n)
        for _ in range(500):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 3)
            mat = mc.RingMatrix.from_rows(
                ring, [[ring.from_int(rng.randrange(n)) for _ in range(cols)]
                       for _ in range(rows)])
            theorem = mc.has_nullvector_theorem(mat)
            exhaustive = mc.nullvector_exhaustive(mat) is not None
            res.check(theorem == exhaustive,
                      f"Z/{n} matrix {mat.describe_rows()}: theorem={theorem} "
                      f"exhaustive={exhaustive}")
    return res


def morphisms_suite(options) -> SuiteResult:
    """Hom_S(I, S/I) != 0 for proper non-zero ideals of the supported domains."""
    from . import mccoy as mc
    from .rings import Ideal, Ring
    res = SuiteResult(
        "morphisms",
        "Hom_S(I, S/I) is non-zero for every proper non-zero ideal of a "
        "noetherian domain")
    z = Ring.integers()
    for m in range(2, 51):
        rep = mc.hom_I_to_quotient(z, Ideal(z, [z.from_int(m)]))
        res.check(rep["hom_nonzero"], f"Z, I=({m})")
    f2x = Ring.poly_ring(2)
    for deg in range(1, 5):
        for tail in iproduct(range(2), repeat=deg):
            coeffs = list(tail) + [1]
            rep = mc.hom_I_to_quotient(f2x, Ideal(f2x, [f2x.poly(coeffs)]))
            res.check(rep["hom_nonzero"], f"F2[x], I=({coeffs})")
    f2xy = Ring.bivariate_quotient(2, [])
    rep = mc.hom_I_to_quotient(f2xy, Ideal(f2xy, [f2xy.gen_x, f2xy.gen_y]))
    res.check(rep["hom_nonzero"] and rep["kernel_of_transpose"]["free_rank"] == 2,
              "F2[x,y], I=(x,y): expected hom of dimension 2")
    return res


def injective_criterion_suite(options) -> SuiteResult:
    """Multiplication by p on Z/p^k satisfies the no-intermediate-part statement."""
    from . import abelian as ab
    from . import engine as eng
    from .rings import Ring
    res = SuiteResult(
        "injective-criterion",
        "multiplication by p on Z/p^k has essential kernel inside its image and "
        "admits no intermediate proper torsion part")
    ring = Ring.integers()
    handle = eng.AbelianHandle(ring)
    for p in (2, 3):
        for k in range(2, 6):
            m = ab.cyclic_module(ring, p ** k)
            f = handle.multiplication_morph(m, p)
            report = eng.injective_criterion_check(handle, m, f)
            res.check(report.hypotheses_hold, f"Z/{p}^{k}: hypotheses failed")
            parts = eng.torsion_parts(handle, m)
            res.check(len(parts) == 2, f"Z/{p}^{k}: expected trivial torsion parts")
    return res


def pruning_suite(options) -> SuiteResult:
    """Pruning never drops a torsion part.  A representation's candidates are
    its subrepresentations of the dimension vectors that can hold a part, so
    that half compares the Euler-form filter with the unpruned list."""
    from . import abelian as ab
    from . import engine as eng
    from .rings import Ring
    res = SuiteResult(
        "pruning",
        "torsion parts computed with endomorphism-stability pruning equal the "
        "unpruned computation")
    max_order = min(options.get("max_order", 200), 128)
    ring = Ring.integers()
    handle = eng.AbelianHandle(ring)

    for n in range(1, max_order + 1):
        for m in ab.finite_abelian_modules(n, ring):
            pruned = eng.torsion_parts(handle, m, prune=True).keys()
            unpruned = eng.torsion_parts(handle, m, prune=False).keys()
            res.check(pruned == unpruned, f"{m.describe()}: pruning changed the parts")
    quiver, reps = _all_a2_reps(2)
    qhandle = eng.QuiverHandle(quiver, 2)
    for rep in reps:
        pruned = eng.torsion_parts(qhandle, rep, prune=True).keys()
        unpruned = eng.torsion_parts(qhandle, rep, prune=False).keys()
        res.check(pruned == unpruned, f"rep dims={rep.dims} maps={rep.maps}")
    return res


def type_closure_suite(options) -> SuiteResult:
    """Images and in-universe extensions of same-type torsion-simple objects.

    The A2 universe is the representations at one vertex, whose arrow
    matrices are empty, so extensions are recognised by dimension vectors.
    """
    from . import abelian as ab
    from . import engine as eng
    from .rings import Ring
    res = SuiteResult(
        "type-closure",
        "images of morphisms between same-type torsion-simple objects are zero "
        "or torsion-simple of that type; extensions stay torsion-simple of that type")
    ring = Ring.integers()
    handle = eng.AbelianHandle(ring)
    for p in (2, 3):
        universe = []
        power = p
        while power <= 16:
            universe.extend(ab.finite_abelian_modules(power, ring))
            power *= p
        for x in universe:
            for y in universe:
                for f in handle.hom_basis(x, y):
                    rep = eng.is_torsion_simple(handle, handle.image(f).as_module())
                    res.check(rep.type_tag == ("prime", p),
                              f"image of {x.describe()} -> {y.describe()} not "
                              f"torsion-simple of type {p}")
        for x in universe:
            for y in universe:
                total = x.order() * y.order()
                if total > 16:
                    continue
                for z in ab.finite_abelian_modules(total, ring):
                    is_ext = any(
                        w.as_module() == x and ab.quotient(z, w) == y
                        for w in handle.subobjects(z))
                    if not is_ext:
                        continue
                    repz = eng.is_torsion_simple(handle, z)
                    res.check(repz.type_tag == ("prime", p),
                              f"extension {z.describe()} of {y.describe()} by "
                              f"{x.describe()} not torsion-simple of type {p}")
    quiver, reps = _all_a2_reps(2)
    qhandle = eng.QuiverHandle(quiver, 2)
    for v in (0, 1):
        universe = [r for r in reps if not r.is_zero() and r.support() == [v]]
        for x in universe:
            for y in universe:
                for f in qhandle.hom_basis(x, y):
                    rep = eng.is_torsion_simple(qhandle, qhandle.image(f).as_rep())
                    res.check(rep.type_tag == ("vertex", v),
                              f"image between vertex-{v} reps not simple of that type")
        for x in universe:
            for y in universe:
                dims = tuple(a + b for a, b in zip(x.dims, y.dims))
                if max(dims) > 2:
                    continue
                for z in reps:
                    # dims decide isomorphism here, and w ~ x forces z/w ~ y
                    if z.dims != dims or not any(w.dims() == x.dims
                                                 for w in qhandle.subobjects(z)):
                        continue
                    repz = eng.is_torsion_simple(qhandle, z)
                    res.check(repz.type_tag == ("vertex", v),
                              f"extension dims={z.dims} not simple of vertex type {v}")
    return res


def _zmod_module_orders(n: int, max_order: int) -> list[tuple[int, ...]]:
    """The non-decreasing tuples of divisors d > 1 of n with product at most
    max_order, sorted."""
    def tuples(low: int, budget: int):
        yield ()
        for d in range(low, min(n, budget) + 1):
            if n % d == 0:
                yield from ((d,) + rest for rest in tuples(d, budget // d))

    return sorted(tuples(2, max_order))


def localisation_invariance_suite(options) -> SuiteResult:
    """Torsion-part sets agree when a Z/n-module is viewed over Z and over Z/n."""
    from . import abelian as ab
    from . import engine as eng
    from .rings import Ring
    res = SuiteResult(
        "localisation-invariance",
        "for a module annihilated by n, the subobject list and torsion parts "
        "computed over Z and over Z/n coincide")
    max_order = min(options.get("max_order", 200), 64)
    z_handle = eng.AbelianHandle(Ring.integers())

    for n in (4, 6, 8, 9, 12):
        ring_n = Ring.integers_mod(n)
        n_handle = eng.AbelianHandle(ring_n)
        for orders in _zmod_module_orders(n, max_order):
            m_z = ab.direct_sum_module(Ring.integers(), list(orders))
            m_n = ab.direct_sum_module(ring_n, list(orders))
            subs_z = [s.key() for s in z_handle.subobjects(m_z)]
            subs_n = [s.key() for s in n_handle.subobjects(m_n)]
            if subs_z != subs_n:
                res.check(False, f"Z/{n} module {orders}: subobject lists differ")
                continue
            parts_z = eng.torsion_parts(z_handle, m_z).keys()
            parts_n = eng.torsion_parts(n_handle, m_n).keys()
            res.check(parts_z == parts_n, f"Z/{n} module {orders}: torsion parts differ")
    return res


SUITES = {
    "finite-length": finite_length_suite,
    "ass-singleton": ass_singleton_suite,
    "gabriel-split": gabriel_split_suite,
    "mccoy": mccoy_suite,
    "morphisms": morphisms_suite,
    "injective-criterion": injective_criterion_suite,
    "pruning": pruning_suite,
    "type-closure": type_closure_suite,
    "localisation-invariance": localisation_invariance_suite,
}


def run_suite(name: str, options) -> SuiteResult:
    """Run a suite; options that leave it no instance to check are refused,
    since a pass over nothing would certify nothing."""
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    result = SUITES[name](options)
    if not result.instances:
        raise InputError(f"the options leave suite {name!r} no instance to check")
    return result
