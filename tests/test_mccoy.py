"""Determinantal ideals, McCoy rank, nullvectors, and the conormal pipeline."""
import itertools
import random

import pytest
from conftest import poly_matrix_rank, rational_rank

from torsion_lab import mccoy
from torsion_lab.errors import InputError, UnsupportedRingError
from torsion_lab.mccoy import (ConormalReport, DeterminantalProfile,
                               KernelDescription, RadicalLemmaReport, RingMatrix,
                               check_radical_lemma, conormal_presentation,
                               has_nullvector_theorem, hom_I_to_quotient,
                               matrix_kernel, mccoy_rank, minors,
                               nullvector_exhaustive, quotient_ring)
from torsion_lab.rings import Ideal, Ring

Z = Ring.integers()


def _mat(ring, rows):
    return RingMatrix.from_rows(ring, [[ring.from_int(x) for x in row] for row in rows])


def _determinantal(a, order):
    """D_r(a), the ideal of the r x r minors, as `mccoy_rank` builds it."""
    return Ideal(a.ring, minors(a, order))


def test_determinantal_examples():
    ident = _mat(Z, [[1, 0], [0, 1]])
    assert [g.payload for g in _determinantal(ident, 2).gens] == [1]
    z4 = Ring.integers_mod(4)
    a = _mat(z4, [[2, 0], [0, 2]])
    assert _determinantal(a, 2).is_zero()
    assert [g.payload for g in _determinantal(a, 0).gens] == [1]
    assert _determinantal(a, 5).is_zero()


def test_minor_chain_monotonicity():
    # D_r contains D_{r+1}: every (r+1)-minor lies in the ideal of r-minors
    rng = random.Random(2)
    for _ in range(40):
        ring = Ring.integers_mod(rng.choice([4, 6, 9, 12]))
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        a = _mat(ring, [[rng.randrange(ring.n) for _ in range(cols)]
                        for _ in range(rows)])
        for r in range(min(rows, cols)):
            d_r = _determinantal(a, r)
            for minor in minors(a, r + 1):
                assert d_r.contains(minor)


def test_mccoy_rank_examples():
    assert mccoy_rank(_mat(Z, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))[0] == 3
    z4 = Ring.integers_mod(4)
    rank, profile = mccoy_rank(_mat(z4, [[2]]))
    assert rank == 0
    assert profile.steps[1]["annihilator_is_zero"] is False
    p5 = Ring.poly_ring(5)
    y = RingMatrix(p5, 1, 1, [p5.poly([0, 1])])
    assert mccoy_rank(y)[0] == 1


def test_mccoy_rank_matches_fraction_field_rank_over_z():
    rng = random.Random(4)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        data = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert mccoy_rank(_mat(Z, data))[0] == rational_rank(data)


def test_mccoy_rank_matches_fraction_field_rank_over_fpx():
    rng = random.Random(5)
    ring = Ring.poly_ring(3)
    for _ in range(200):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        polys = [[[rng.randrange(3) for _ in range(rng.randint(0, 3))]
                  for _ in range(cols)] for _ in range(rows)]
        mat = RingMatrix.from_rows(ring, [[ring.poly(c) for c in row] for row in polys])
        want = poly_matrix_rank([[list(mat.at(i, j).payload) for j in range(cols)]
                                 for i in range(rows)], 3)
        assert mccoy_rank(mat)[0] == want


def test_nullvector_examples():
    z4 = Ring.integers_mod(4)
    v = nullvector_exhaustive(_mat(z4, [[2]]))
    assert v is not None and v[0].payload == 2
    z6 = Ring.integers_mod(6)
    assert nullvector_exhaustive(_mat(z6, [[1, 0], [0, 1]])) is None
    v3 = nullvector_exhaustive(_mat(z6, [[3]]))
    assert v3 is not None and (v3[0].payload * 3) % 6 == 0
    with pytest.raises(InputError):
        nullvector_exhaustive(_mat(Z, [[2]]))


def _first_nullvector_mod(rows, n):
    """The first non-zero v in Z/n^cols, in lexicographic order, with rows . v = 0."""
    for vec in itertools.product(range(n), repeat=len(rows[0])):
        if any(vec) and all(sum(a * v for a, v in zip(row, vec)) % n == 0 for row in rows):
            return list(vec)
    return None


def test_nullvector_exhaustive_matches_plain_integer_search():
    rng = random.Random(16)
    for _ in range(300):
        n = rng.randint(2, 12)
        rows = [[rng.randrange(n) for _ in range(rng.randint(1, 3))]]
        rows += [[rng.randrange(n) for _ in rows[0]] for _ in range(rng.randint(0, 2))]
        found = nullvector_exhaustive(_mat(Ring.integers_mod(n), rows))
        want = _first_nullvector_mod(rows, n)
        assert (found if found is None else [e.payload for e in found]) == want, (n, rows)


def test_mccoy_equivalence_seeded():
    rng = random.Random(0)
    for n in (4, 6, 8, 9, 12):
        ring = Ring.integers_mod(n)
        for _ in range(100):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            a = _mat(ring, [[rng.randrange(n) for _ in range(cols)]
                            for _ in range(rows)])
            assert has_nullvector_theorem(a) == (nullvector_exhaustive(a) is not None)


def test_quotient_ring_materialisation():
    assert quotient_ring(Z, Ideal(Z, [Z.from_int(6)])).describe() == "Z/6"
    p2 = Ring.poly_ring(2)
    q = quotient_ring(p2, Ideal(p2, [p2.poly([1, 1, 1])]))
    assert q.kind == "UniPolyQuot" and q.modulus == (1, 1, 1)
    b5 = Ring.bivariate_quotient(5, [(1, 1)])
    q2 = quotient_ring(b5, Ideal(b5, [b5.gen_x]))
    assert q2.rels == ((1, 0),)
    with pytest.raises(UnsupportedRingError):
        quotient_ring(Z, Ideal(Z, [Z.from_int(1)]))
    p5 = Ring.bivariate_quotient(5, [])
    with pytest.raises(UnsupportedRingError):
        quotient_ring(p5, Ideal(p5, [p5.gen_x + p5.gen_y]))


def test_conormal_examples():
    m = conormal_presentation(Z, Ideal(Z, [Z.from_int(6)]))
    assert (m.rows, m.cols) == (1, 0)
    b2 = Ring.bivariate_quotient(2, [])
    m2 = conormal_presentation(b2, Ideal(b2, [b2.gen_x, b2.gen_y]))
    assert (m2.rows, m2.cols) == (2, 1)
    assert all(m2.at(i, 0).is_zero() for i in range(2))
    b5 = Ring.bivariate_quotient(5, [(1, 1)])
    m3 = conormal_presentation(b5, Ideal(b5, [b5.gen_x]))
    assert (m3.rows, m3.cols) == (1, 1)
    assert str(m3.at(0, 0)) == "y"


def test_hom_conormal_examples():
    rep = hom_I_to_quotient(Z, Ideal(Z, [Z.from_int(6)]))
    assert rep.hom_nonzero and rep.kernel.free_rank == 1
    assert rep.quotient_ring == "Z/6"
    b2 = Ring.bivariate_quotient(2, [])
    rep2 = hom_I_to_quotient(b2, Ideal(b2, [b2.gen_x, b2.gen_y]))
    assert rep2.hom_nonzero and rep2.kernel.free_rank == 2
    b5 = Ring.bivariate_quotient(5, [(1, 1)])
    rep3 = hom_I_to_quotient(b5, Ideal(b5, [b5.gen_x]))
    assert rep3.hom_nonzero is False
    assert rep3.matrix == [["y"]]


def test_hom_conormal_zero_ideal():
    rep = hom_I_to_quotient(Z, Ideal(Z, []))
    assert rep.hom_nonzero is False   # Hom(0, S) = 0; no domain contradiction


def test_hom_conormal_monomial_families():
    # non-principal monomial ideals over the polynomial domain whose syzygy
    # matrices stay within the solver's single-relation-row reach: the verdict
    # must be non-zero (domain case)
    b3 = Ring.bivariate_quotient(3, [])
    for gens in ([(2, 0), (1, 1)], [(2, 0), (0, 2)], [(1, 0), (0, 3)]):
        ideal = Ideal(b3, [b3.monomial(*m) for m in gens])
        rep = hom_I_to_quotient(b3, ideal)
        assert rep.hom_nonzero, gens


def test_hom_conormal_beyond_solver_reach():
    # three generators produce several independent relation rows; the pipeline
    # fails fast instead of guessing
    b3 = Ring.bivariate_quotient(3, [])
    ideal = Ideal(b3, [b3.monomial(3, 0), b3.monomial(1, 1), b3.monomial(0, 3)])
    with pytest.raises(UnsupportedRingError):
        hom_I_to_quotient(b3, ideal)


def test_radical_lemma_examples():
    i4 = Ideal(Z, [Z.from_int(4)])
    rep = check_radical_lemma(Z, i4, Z.from_int(4))
    assert rep.premise and rep.conclusion and not rep.violation
    rep2 = check_radical_lemma(Z, i4, Z.from_int(2))
    assert not rep2.premise
    b5 = Ring.bivariate_quotient(5, [(1, 1)])
    rep3 = check_radical_lemma(b5, Ideal(b5, [b5.gen_x]), b5.gen_x + b5.gen_y)
    assert rep3.premise and not rep3.conclusion
    assert rep3.violation and rep3.expected_for_non_domain
    f4 = Ring.poly_quotient(2, [1, 1, 1])
    assert check_radical_lemma(f4, Ideal(f4, [f4.one]), f4.gen_x).domain


def test_radical_lemma_refuses_zero_ideal():
    # dI = 0 lies in I^2 for every d, so I = 0 would report a false violation
    f3x = Ring.poly_ring(3)
    for ring, d in ((Z, Z.from_int(3)), (Z, Z.zero), (f3x, f3x.gen_x)):
        for ideal in (Ideal(ring, []), Ideal(ring, [ring.zero])):
            with pytest.raises(InputError):
                check_radical_lemma(ring, ideal, d)


def test_radical_lemma_never_violates_over_domains():
    rng = random.Random(8)
    for _ in range(300):
        g = rng.randint(2, 60)
        d = rng.randint(0, 60)
        rep = check_radical_lemma(Z, Ideal(Z, [Z.from_int(g)]), Z.from_int(d))
        assert not rep.violation


def test_nilpotent_minors_families():
    # over a domain S and for 0 != I != S, the top-order minors of the conormal
    # presentation of I/I^2 are nilpotent in S/I, and its McCoy rank stays below
    # the generator count
    def nilpotent_minors(s, ideal):
        m = conormal_presentation(s, ideal)
        n = m.rows
        assert all(Ideal(e.ring, []).radical_contains(e) for e in minors(m, n))
        return n, mccoy_rank(m)[0]

    for m in range(2, 51):
        assert nilpotent_minors(Z, Ideal(Z, [Z.from_int(m)])) == (1, 0)
    b2 = Ring.bivariate_quotient(2, [])
    assert nilpotent_minors(b2, Ideal(b2, [b2.gen_x, b2.gen_y])) == (2, 0)
    p2 = Ring.poly_ring(2)
    assert nilpotent_minors(p2, Ideal(p2, [p2.poly([1, 1, 1])])) == (1, 0)
    n, rank = nilpotent_minors(b2, Ideal(b2, [b2.monomial(2, 0), b2.monomial(1, 1),
                                              b2.monomial(0, 2)]))
    assert rank < n


def test_matrix_kernel_refuses_shapes_the_pipeline_never_builds():
    # the conormal pipeline only hands over zero matrices and bivariate ones
    z6 = Ring.integers_mod(6)
    with pytest.raises(UnsupportedRingError):
        matrix_kernel(_mat(z6, [[2]]))
    desc = matrix_kernel(_mat(z6, [[0, 0]]))
    assert desc.nonzero and desc.free_rank == 2


def test_mccoy_unsupported_minor_shapes():
    # a bivariate matrix whose 2x2 minor is no supported ideal-generator shape
    # still has a rank: the minor is non-zero in the domain F_2[x,y]
    b2 = Ring.bivariate_quotient(2, [])
    mat = RingMatrix.from_rows(
        b2, [[b2.monomial(1, 0), b2.monomial(0, 2)],
             [b2.monomial(2, 0), b2.monomial(1, 1)]])
    assert str(minors(mat, 2)[0]) == "x^2y+x^2y^2"
    rank, profile = mccoy_rank(mat)
    assert rank == 2 and [s["annihilator_is_zero"] for s in profile.steps] == [True] * 3


def test_unit_of_a_local_bivariate_ring_has_rank_one():
    # 1 + y is a unit of F_2[x,y]/(x^2, y^2) ((1 + y)^2 = 1), not a monomial
    ring = Ring.bivariate_quotient(2, [(2, 0), (0, 2)])
    mat = RingMatrix.from_rows(ring, [[ring.one + ring.gen_y]])
    assert mccoy_rank(mat)[0] == 1
    assert has_nullvector_theorem(mat) is False and nullvector_exhaustive(mat) is None


# -- the McCoy profile against test-local minors and annihilators --

def _leibniz_minors(rows, order, ring):
    """Every order x order minor of rows by the Leibniz formula."""
    out = []
    for rs in itertools.combinations(range(len(rows)), order):
        for cs in itertools.combinations(range(len(rows[0])), order):
            det = ring.zero
            for perm in itertools.permutations(range(order)):
                term = ring.one
                for i, k in enumerate(perm):
                    term = term * rows[rs[i]][cs[k]]
                inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
                det = det - term if inversions % 2 else det + term
            out.append(det)
    return out


FINITE_RINGS = (
    [Ring.integers_mod(n) for n in (4, 6, 7, 8, 9, 12, 30)]
    + [Ring.prime_field(5),
       Ring.poly_quotient(2, [0, 1, 1]),            # x(x + 1)
       Ring.poly_quotient(2, [1, 0, 0, 1]),         # (x + 1)(x^2 + x + 1)
       Ring.poly_quotient(3, [0, 0, 1]),            # x^2
       Ring.poly_quotient(2, [1, 1, 1]),            # irreducible: F_4
       Ring.poly_quotient(3, [1, 0, 1]),            # irreducible: F_9
       Ring.bivariate_quotient(2, [(2, 0), (0, 2)]),
       Ring.bivariate_quotient(2, [(2, 0), (1, 1), (0, 2)]),
       Ring.bivariate_quotient(3, [(2, 0), (0, 1)]),
       Ring.bivariate_quotient(2, [(3, 0), (1, 1), (0, 2)])])


@pytest.mark.parametrize("ring", FINITE_RINGS, ids=lambda r: r.describe())
def test_mccoy_profile_matches_brute_force_annihilators(ring):
    # annihilator_is_zero at order r says no non-zero c kills every r x r
    # minor; the theorem verdict must match the exhaustive nullvector search
    elements = list(ring.elements())
    nonzero = [c for c in elements if not c.is_zero()]
    rng = random.Random(len(elements))
    for _ in range(40):
        rows = [[rng.choice(elements) for _ in range(rng.randint(1, 3))]]
        rows += [[rng.choice(elements) for _ in rows[0]] for _ in range(rng.randint(0, 2))]
        mat = RingMatrix.from_rows(ring, rows)
        rank, profile = mccoy_rank(mat)
        for step in profile.steps:
            gens = _leibniz_minors(rows, step["order"], ring)
            killed = any(all((c * g).is_zero() for g in gens) for c in nonzero)
            assert step["annihilator_is_zero"] == (not killed), (ring, mat.describe_rows())
        assert has_nullvector_theorem(mat) == (nullvector_exhaustive(mat) is not None)


def _random_bipoly(ring, rng):
    return ring.bipoly([((rng.randint(0, 2), rng.randint(0, 2)), rng.randrange(ring.p))
                        for _ in range(rng.randint(0, 3))])


def _set_to_zero(e, axis):
    """e with the variable `axis` (0 for x, 1 for y) set to 0, as the
    coefficient list of a polynomial in the other variable."""
    coeffs = [0] * 8
    for mono, c in e.payload:
        if mono[axis] == 0:
            coeffs[mono[1 - axis]] = c
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


@pytest.mark.parametrize("rel", [(1, 1), (2, 0), (2, 1), (0, 1)], ids=str)
def test_mccoy_rank_of_one_relation_quotients_from_univariate_branches(rel):
    # F_3[x,y]/(x^a y^b) has the associated primes (x) when a > 0 and (y)
    # when b > 0, with residue fields F_3(y) and F_3(x)
    ring = Ring.bivariate_quotient(3, [rel])
    rng = random.Random(10 * rel[0] + rel[1])
    for _ in range(60):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        mat = RingMatrix.from_rows(ring, [[_random_bipoly(ring, rng) for _ in range(cols)]
                                          for _ in range(rows)])
        branches = [poly_matrix_rank([[_set_to_zero(mat.at(i, j), axis) for j in range(cols)]
                                      for i in range(rows)], 3)
                    for axis in (0, 1) if rel[axis]]
        assert mccoy_rank(mat)[0] == min(branches), mat.describe_rows()


@pytest.mark.parametrize("p", [2, 3])
def test_mccoy_rank_over_bivariate_domain_is_largest_non_zero_minor(p):
    ring = Ring.bivariate_quotient(p, [])
    rng = random.Random(p)
    for _ in range(60):
        rows = [[_random_bipoly(ring, rng) for _ in range(rng.randint(1, 3))]]
        rows += [[_random_bipoly(ring, rng) for _ in rows[0]] for _ in range(rng.randint(0, 2))]
        want = max(r for r in range(min(len(rows), len(rows[0])) + 1)
                   if any(not g.is_zero() for g in _leibniz_minors(rows, r, ring)))
        assert mccoy_rank(RingMatrix.from_rows(ring, rows))[0] == want, rows


def test_theorem_mode_lists_no_minor(monkeypatch):
    # 40 x 40 has about 10^23 minors: has_nullvector_theorem must not list one
    def refuse(*args):
        raise AssertionError("minors listed")

    monkeypatch.setattr(mccoy, "minors", refuse)
    n = 40
    z12, f3x = Ring.integers_mod(12), Ring.poly_quotient(3, [0, 0, 1])
    for ring, zero_divisor in ((z12, z12.from_int(2)), (f3x, f3x.gen_x)):
        elements = list(ring.elements())
        rng = random.Random(n)
        # L U with unitriangular L and U has determinant 1, so McCoy rank n
        low = [[ring.one if i == j else rng.choice(elements) if j < i else ring.zero
                for j in range(n)] for i in range(n)]
        up = [[ring.one if i == j else rng.choice(elements) if j > i else ring.zero
               for j in range(n)] for i in range(n)]
        rows = [[sum((low[i][k] * up[k][j] for k in range(n)), ring.zero) for j in range(n)]
                for i in range(n)]
        assert has_nullvector_theorem(RingMatrix.from_rows(ring, rows)) is False
        # a zero divisor times the first column: its annihilator kills that column
        rows = [[zero_divisor * row[0]] + row[1:] for row in rows]
        assert has_nullvector_theorem(RingMatrix.from_rows(ring, rows)) is True


def test_report_classes_construct_with_defaults_and_fresh_lists():
    a, b = DeterminantalProfile(), DeterminantalProfile()
    assert a.as_dict() == {"steps": [], "mccoy_rank": 0}
    a.steps.append({"order": 0})
    assert b.steps == [] and a.steps is not b.steps
    assert DeterminantalProfile([{"order": 0}], mccoy_rank=1).mccoy_rank == 1
    k1, k2 = KernelDescription(), KernelDescription()
    assert k1.as_dict() == {"free_rank": 0, "invariant_factors": [], "generators": [],
                            "nonzero": False}
    k1.generators.append(["x"])
    assert k2.generators == [] and k2.as_dict()["invariant_factors"] == []
    k = KernelDescription(1, [["x"]], True)
    assert (k.free_rank, k.generators, k.nonzero) == (1, [["x"]], True)
    assert KernelDescription(nonzero=True, free_rank=2).as_dict()["free_rank"] == 2
    conormal = ConormalReport("Z", ["2"], "Z/4", 1, 1, [["2"]], k, True)
    assert conormal.statement.startswith("Hom_S(I, S/I) != 0")
    assert conormal.as_dict()["kernel_of_transpose"] == k.as_dict()
    assert ConormalReport(base_ring="Z", ideal_gens=[], quotient_ring="Z", matrix_rows=0,
                          matrix_cols=0, matrix=[], kernel=k2, hom_nonzero=False,
                          statement="s").as_dict()["statement"] == "s"
    lemma = RadicalLemmaReport(True, False, True, False, True)
    assert lemma.as_dict()["premise_dI_in_I2"] and lemma.as_dict()["expected_for_non_domain"]
    lemma = RadicalLemmaReport(premise=False, conclusion=True, violation=False, domain=True,
                               expected_for_non_domain=False)
    assert lemma.as_dict()["ring_is_domain"] and not lemma.violation
