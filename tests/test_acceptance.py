"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Each test prints a single PASS line (visible under pytest -s) and enforces the
stated runtime bound where one exists.  All arithmetic is exact; there are no
numeric tolerances anywhere.
"""
import itertools
import random
import time

from torsion_lab.abelian import (Subobject, cyclic_module, finite_abelian_modules,
                                 primary_component)
from torsion_lab.engine import (AbelianHandle, QuiverHandle,
                                injective_criterion_check, is_torsion_simple,
                                torsion_parts, torsion_radical_generated,
                                verify_torsion_pair_axioms)
from torsion_lab.mccoy import (RingMatrix, check_radical_lemma,
                               has_nullvector_theorem, hom_I_to_quotient,
                               nullvector_exhaustive)
from torsion_lab.primes import prime_divisors
from torsion_lab.quiver import QuiverRep, a_n_quiver
from torsion_lab.rings import Ideal, Ring
from torsion_lab.abelian import associated_primes, direct_sum_module

Z = Ring.integers()
A2 = a_n_quiver(2)


def _report(name: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s)")


def _all_a2_reps(max_dim: int, p: int = 2):
    for d1 in range(max_dim + 1):
        for d2 in range(max_dim + 1):
            for flat in itertools.product(range(p), repeat=d1 * d2):
                mat = [[flat[i * d1 + j] for j in range(d1)] for i in range(d2)]
                yield QuiverRep(A2, p, (d1, d2), [mat])


def test_criterion_1_finite_length_classification():
    """Brute-force torsion-simplicity equals single-vertex support, dims <= 3."""
    start = time.monotonic()
    handle = QuiverHandle(A2, 2)
    checked = 0
    for rep in _all_a2_reps(3):
        if rep.is_zero():
            continue
        brute = is_torsion_simple(handle, rep, method="brute-force",
                                  prune=False).verdict
        assert brute == (len(rep.support()) == 1), (rep.dims, rep.maps)
        checked += 1
    elapsed = time.monotonic() - start
    assert checked == 688
    assert elapsed < 60.0, f"criterion 1 exceeded 60s: {elapsed:.1f}s"
    _report("1 finite-length classification", elapsed)


def test_criterion_2_ass_singleton_classification():
    """|torsion parts| = 2 iff Ass is a singleton iff p-group, order <= 200."""
    start = time.monotonic()
    handle = AbelianHandle(Z)
    for n in range(1, 201):
        p_group = n > 1 and len(prime_divisors(n)) == 1
        for mod in finite_abelian_modules(n):
            simple = len(torsion_parts(handle, mod)) == 2
            singleton = len(associated_primes(mod)) == 1
            assert simple == singleton == p_group, (n, mod.describe())
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"criterion 2 exceeded 120s: {elapsed:.1f}s"
    _report("2 Ass-singleton classification", elapsed)


def test_criterion_3_specific_torsion_part_sets():
    """t(Z/6), t(Z/4) and t(P1 over A2) match the expected sets exactly."""
    start = time.monotonic()
    handle = AbelianHandle(Z)
    z6 = cyclic_module(Z, 6)
    parts6 = torsion_parts(handle, z6)
    assert len(parts6) == 4
    assert sorted(w.order() for w in parts6.parts) == [1, 2, 3, 6]
    two = Subobject(z6, [[3]])   # <3> has order 2
    three = Subobject(z6, [[2]])
    keys = parts6.keys()
    assert two.key() in keys and three.key() in keys

    parts4 = torsion_parts(handle, cyclic_module(Z, 4))
    assert len(parts4) == 2
    assert parts4.parts[0].is_zero() and parts4.parts[1].is_full()

    qhandle = QuiverHandle(A2, 2)
    p1 = QuiverRep(A2, 2, [1, 1], [[[1]]])
    partsq = torsion_parts(qhandle, p1)
    assert [w.dims() for w in partsq.parts] == [(0, 0), (0, 1), (1, 1)]
    verdict = is_torsion_simple(qhandle, p1)
    assert verdict.verdict is False
    assert verdict.witness.dims() == (0, 1)
    _report("3 specific torsion-part sets", time.monotonic() - start)


def test_criterion_4_pruning_completeness():
    """Pruned and unpruned torsion parts coincide, order <= 128 and A2 (2,2)."""
    start = time.monotonic()
    handle = AbelianHandle(Z)
    for n in range(1, 129):
        for mod in finite_abelian_modules(n):
            assert (torsion_parts(handle, mod, prune=True).keys()
                    == torsion_parts(handle, mod, prune=False).keys()), mod.describe()
    qhandle = QuiverHandle(A2, 2)
    for rep in _all_a2_reps(2):
        assert (torsion_parts(qhandle, rep, prune=True).keys()
                == torsion_parts(qhandle, rep, prune=False).keys()), rep.dims
    _report("4 pruning completeness", time.monotonic() - start)


def test_criterion_5_gabriel_radical_split():
    """Iterated-trace radical equals the primary-component sum, with axioms."""
    start = time.monotonic()
    handle = AbelianHandle(Z)
    subsets = [v for r in range(4) for v in itertools.combinations((2, 3, 5), r)]
    for n in range(1, 101):
        for mod in finite_abelian_modules(n):
            for v in subsets:
                sources = [cyclic_module(Z, p) for p in v]
                rad = torsion_radical_generated(handle, sources, mod)
                expected = Subobject.zero(mod)
                for p in v:
                    expected = expected.sum(primary_component(mod, p))
                assert rad.key() == expected.key(), (n, v, mod.describe())
                axioms = verify_torsion_pair_axioms(handle, sources, [mod])
                assert all(a.passed for a in axioms), (n, v, mod.describe())
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"criterion 5 exceeded 120s: {elapsed:.1f}s"
    _report("5 Gabriel radical split", elapsed)


def test_criterion_6_mccoy_equivalence():
    """Theorem-mode and exhaustive nullvector verdicts agree, 500 per modulus."""
    start = time.monotonic()
    rng = random.Random(0)
    for n in (4, 6, 8, 9, 12):
        ring = Ring.integers_mod(n)
        for _ in range(500):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 3)
            mat = RingMatrix.from_rows(
                ring, [[ring.from_int(rng.randrange(n)) for _ in range(cols)]
                       for _ in range(rows)])
            theorem = has_nullvector_theorem(mat)
            exhaustive = nullvector_exhaustive(mat) is not None
            assert theorem == exhaustive, (n, mat.describe_rows())
    _report("6 McCoy equivalence", time.monotonic() - start)


def test_criterion_7_morphisms_prop():
    """Hom_S(I, S/I) != 0 over Z, F2[x] and F2[x,y] test families."""
    start = time.monotonic()
    for m in range(2, 51):
        assert hom_I_to_quotient(Z, Ideal(Z, [Z.from_int(m)]))["hom_nonzero"], m
    f2x = Ring.poly_ring(2)
    for deg in range(1, 5):
        for tail in itertools.product(range(2), repeat=deg):
            coeffs = list(tail) + [1]
            assert hom_I_to_quotient(
                f2x, Ideal(f2x, [f2x.poly(coeffs)]))["hom_nonzero"], coeffs
    f2xy = Ring.bivariate_quotient(2, [])
    rep = hom_I_to_quotient(f2xy, Ideal(f2xy, [f2xy.gen_x, f2xy.gen_y]))
    assert rep["hom_nonzero"] and rep["kernel_of_transpose"]["free_rank"] == 2
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 7 exceeded 10s: {elapsed:.1f}s"
    _report("7 morphisms over domains", elapsed)


def test_criterion_8_counterexample_reproduction():
    """F5[x,y]/(xy) with I=(x): hom vanishes and the radical step fails as expected."""
    start = time.monotonic()
    b5 = Ring.bivariate_quotient(5, [(1, 1)])
    ideal = Ideal(b5, [b5.gen_x])
    rep = hom_I_to_quotient(b5, ideal)
    assert rep["hom_nonzero"] is False
    assert rep["presentation_matrix"] == [["y"]]
    lemma = check_radical_lemma(b5, ideal, b5.gen_x + b5.gen_y)
    assert lemma["premise_dI_in_I2"] is True
    assert lemma["conclusion_d_in_radical"] is False
    assert lemma["violation"] is True
    assert lemma["expected_for_non_domain"] is True
    _report("8 counterexample reproduction", time.monotonic() - start)


def test_criterion_9_injective_criterion_truncations():
    """Multiplication by p on Z/p^k: hypotheses hold, no intermediate parts."""
    start = time.monotonic()
    handle = AbelianHandle(Z)
    for p in (2, 3):
        for k in range(2, 6):
            mod = cyclic_module(Z, p ** k)
            f = handle.multiplication_morph(mod, p)
            report = injective_criterion_check(handle, mod, f)
            assert report.kernel_essential and report.kernel_in_image, (p, k)
            assert report.hypotheses_hold
            parts = torsion_parts(handle, mod)
            assert len(parts) == 2, (p, k)
    _report("9 injective-criterion truncations", time.monotonic() - start)


def test_criterion_10_localisation_invariance():
    """Torsion-part sets over Z and over Z/n coincide for Z/n-modules <= 64."""
    start = time.monotonic()
    z_handle = AbelianHandle(Z)
    for n in (4, 6, 8, 9, 12):
        ring_n = Ring.integers_mod(n)
        n_handle = AbelianHandle(ring_n)
        divisors = [d for d in range(2, n + 1) if n % d == 0]
        seen = {()}
        frontier = [((), 1)]
        while frontier:
            nxt = []
            for orders, size in frontier:
                last = orders[-1] if orders else 2
                for d in divisors:
                    if d < last or size * d > 64:
                        continue
                    item = orders + (d,)
                    if item not in seen:
                        seen.add(item)
                        nxt.append((item, size * d))
            frontier = nxt
        for orders in sorted(seen):
            m_z = direct_sum_module(Z, list(orders))
            m_n = direct_sum_module(ring_n, list(orders))
            subs_z = [s.key() for s in z_handle.subobjects(m_z)]
            subs_n = [s.key() for s in n_handle.subobjects(m_n)]
            assert subs_z == subs_n, (n, orders)
            assert (torsion_parts(z_handle, m_z).keys()
                    == torsion_parts(n_handle, m_n).keys()), (n, orders)
    _report("10 localisation invariance", time.monotonic() - start)
