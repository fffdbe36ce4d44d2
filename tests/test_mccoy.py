"""Determinantal ideals, McCoy rank, nullvectors, and the conormal pipeline."""
import itertools
import random

import pytest
from conftest import poly_matrix_rank, rational_rank

from torsion_lab import mccoy
from torsion_lab.errors import InputError, UnsupportedRingError
from torsion_lab.mccoy import (RingMatrix, check_radical_lemma, conormal_presentation,
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
    rank, steps = mccoy_rank(_mat(z4, [[2]]))
    assert rank == 0
    assert steps[1]["annihilator_is_zero"] is False
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
    assert rep["hom_nonzero"] and rep["kernel_of_transpose"]["free_rank"] == 1
    assert rep["quotient_ring"] == "Z/6"
    b2 = Ring.bivariate_quotient(2, [])
    rep2 = hom_I_to_quotient(b2, Ideal(b2, [b2.gen_x, b2.gen_y]))
    assert rep2["hom_nonzero"] and rep2["kernel_of_transpose"]["free_rank"] == 2
    b5 = Ring.bivariate_quotient(5, [(1, 1)])
    rep3 = hom_I_to_quotient(b5, Ideal(b5, [b5.gen_x]))
    assert rep3["hom_nonzero"] is False
    assert rep3["presentation_matrix"] == [["y"]]


def test_hom_conormal_zero_ideal():
    rep = hom_I_to_quotient(Z, Ideal(Z, []))
    assert rep["hom_nonzero"] is False   # Hom(0, S) = 0; no domain contradiction


def test_hom_conormal_over_a_finite_ring_asks_no_irreducibility(monkeypatch):
    # over F_3[x]/(x^3000 - x), I = (x) has I/I^2 = 0, so Hom = 0; the ring is
    # finite with a proper non-zero ideal, so not a domain, and the test of
    # f's irreducibility (seconds at this degree) is never asked
    from torsion_lab import _polyarith

    def refuse(*args):
        raise AssertionError("irreducibility test asked")

    monkeypatch.setattr(_polyarith, "is_irreducible", refuse)
    s = Ring.poly_quotient(3, [0, -1] + [0] * 2998 + [1])
    rep = hom_I_to_quotient(s, Ideal(s, [s.poly([0, 1])]))
    assert rep["hom_nonzero"] is False and rep["presentation_matrix"] == [["1"]]


def test_hom_conormal_monomial_families():
    # non-principal monomial ideals over the polynomial domain whose syzygy
    # matrices stay within the solver's single-relation-row reach: the verdict
    # must be non-zero (domain case)
    b3 = Ring.bivariate_quotient(3, [])
    for gens in ([(2, 0), (1, 1)], [(2, 0), (0, 2)], [(1, 0), (0, 3)]):
        ideal = Ideal(b3, [b3.monomial(*m) for m in gens])
        rep = hom_I_to_quotient(b3, ideal)
        assert rep["hom_nonzero"], gens


def test_hom_conormal_beyond_solver_reach():
    # three generators produce several independent relation rows; the pipeline
    # fails fast instead of guessing
    b3 = Ring.bivariate_quotient(3, [])
    ideal = Ideal(b3, [b3.monomial(3, 0), b3.monomial(1, 1), b3.monomial(0, 3)])
    with pytest.raises(UnsupportedRingError):
        hom_I_to_quotient(b3, ideal)



# -- Hom_S(I, S/I) over principal ideal rings against a brute force --

def _check_hom_against_brute_force(ring, elements, add, mul, parse, d, d_elem):
    """Compare the `hom-conormal` report for I = (d) in the finite ring S with
    a count of Hom_S(I, S/I): a morphism sends d to some y in S/I with
    ann(d) y in I, so |Hom| counts those y up to I.  elements lists S with 0
    first; the report's generators live in S/I, and parse maps each one's
    text to a representative in S."""
    zero = elements[0]
    ideal = {mul(s, d) for s in elements}
    if len(ideal) == len(elements):
        with pytest.raises(UnsupportedRingError):
            hom_I_to_quotient(ring, Ideal(ring, [d_elem]))
        return
    ann = [s for s in elements if mul(s, d) == zero]
    hom = sum(all(mul(s, y) in ideal for s in ann) for y in elements) // len(ideal)
    rep = hom_I_to_quotient(ring, Ideal(ring, [d_elem]))
    assert rep["hom_nonzero"] == (hom > 1), (ring, d)
    span = set(ideal)
    for (text,) in rep["kernel_of_transpose"]["generators"]:
        gen = parse(text)
        span = {add(a, mul(s, gen)) for a in span for s in elements}
    assert len(span) // len(ideal) == hom, (ring, d, rep)


def _poly_ops(f, p):
    """add, mul and a parser for F_p[x]/(f), f monic, on coefficient tuples."""
    n = len(f) - 1

    def add(a, b):
        return tuple((x + y) % p for x, y in zip(a, b))

    def mul(a, b):
        prod = [0] * (2 * n)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for k in range(2 * n - 1, n - 1, -1):
            c = prod[k] % p
            for i, fc in enumerate(f):
                prod[k - n + i] -= c * fc
        return tuple(c % p for c in prod[:n])

    def parse(text):
        coeffs = [0] * n
        for term in text.split("+"):
            c, x, power = term.partition("x")
            k = (int(power[1:]) if power else 1) if x else 0
            coeffs[k] += int(c) if c else 1
        return tuple(c % p for c in coeffs)

    return add, mul, parse


def test_hom_conormal_over_principal_ideal_rings_matches_brute_force():
    # every generator over Z/n for n <= 60, and over F_p[x]/(f) for p in
    # {2, 3} and monic f of degree <= 3; the unit ideal is refused
    for n in range(2, 61):
        ring = Ring.integers_mod(n)
        elements = list(range(n))
        for d in elements:
            _check_hom_against_brute_force(
                ring, elements, lambda a, b: (a + b) % n, lambda a, b: a * b % n, int,
                d, ring.from_int(d))
    for p in (2, 3):
        for deg in (1, 2, 3):
            for tail in itertools.product(range(p), repeat=deg):
                f = list(tail) + [1]
                ring = Ring.poly_quotient(p, f)
                add, mul, parse = _poly_ops(f, p)
                elements = list(itertools.product(range(p), repeat=deg))
                for d in elements:
                    _check_hom_against_brute_force(ring, elements, add, mul, parse, d,
                                                   ring.poly(list(d)))

def test_radical_lemma_examples():
    i4 = Ideal(Z, [Z.from_int(4)])
    rep = check_radical_lemma(Z, i4, Z.from_int(4))
    assert (rep["premise_dI_in_I2"] and rep["conclusion_d_in_radical"]
            and not rep["violation"])
    rep2 = check_radical_lemma(Z, i4, Z.from_int(2))
    assert not rep2["premise_dI_in_I2"]
    b5 = Ring.bivariate_quotient(5, [(1, 1)])
    rep3 = check_radical_lemma(b5, Ideal(b5, [b5.gen_x]), b5.gen_x + b5.gen_y)
    assert rep3["premise_dI_in_I2"] and not rep3["conclusion_d_in_radical"]
    assert rep3["violation"] and rep3["expected_for_non_domain"]
    f4 = Ring.poly_quotient(2, [1, 1, 1])
    assert check_radical_lemma(f4, Ideal(f4, [f4.one]), f4.gen_x)["ring_is_domain"]


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
        assert not rep["violation"]


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


def test_matrix_kernel_over_a_principal_quotient_ring():
    # g y = 0 in Z/6 iff 6 / gcd(g, 6) divides y; a unit g kills nothing
    z6 = Ring.integers_mod(6)
    assert matrix_kernel(_mat(z6, [[2]])) == {
        "free_rank": 0, "invariant_factors": [], "generators": [["3"]], "nonzero": True}
    assert matrix_kernel(_mat(z6, [[5]]))["generators"] == []
    f3 = Ring.poly_quotient(3, [0, 0, 1])
    assert matrix_kernel(RingMatrix(f3, 1, 1, [f3.gen_x]))["generators"] == [["x"]]
    desc = matrix_kernel(_mat(z6, [[0, 0]]))
    assert desc["nonzero"] and desc["free_rank"] == 2


def test_mccoy_unsupported_minor_shapes():
    # a bivariate matrix whose 2x2 minor is no supported ideal-generator shape
    # still has a rank: the minor is non-zero in the domain F_2[x,y]
    b2 = Ring.bivariate_quotient(2, [])
    mat = RingMatrix.from_rows(
        b2, [[b2.monomial(1, 0), b2.monomial(0, 2)],
             [b2.monomial(2, 0), b2.monomial(1, 1)]])
    assert str(minors(mat, 2)[0]) == "x^2y+x^2y^2"
    rank, steps = mccoy_rank(mat)
    assert rank == 2 and [s["annihilator_is_zero"] for s in steps] == [True] * 3


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
        rank, steps = mccoy_rank(mat)
        for step in steps:
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

