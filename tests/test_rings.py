"""Ring arithmetic, ideals, annihilators, radicals: examples and invariants."""
import itertools
import random

import pytest
from conftest import poly_add, poly_mod, poly_mul

from torsion_lab.errors import InputError, UnsupportedRingError
from torsion_lab.rings import (Ideal, Ring, RingElem, annihilator, is_nilpotent,
                               _element_ann_payloads)

Z = Ring.integers()
B5 = Ring.bivariate_quotient(5, [(1, 1)])        # F5[x,y]/(xy)
P5 = Ring.bivariate_quotient(5, [])              # F5[x,y]


def test_integer_arithmetic():
    assert (Z.from_int(2) + Z.from_int(3)).payload == 5
    assert (Z.from_int(-4) * Z.from_int(6)).payload == -24
    assert (-Z.from_int(9)).payload == -9


def test_relation_kills_product():
    x, y = B5.gen_x, B5.gen_y
    assert (x * y).is_zero()


def test_binomial_square_drops_cross_terms():
    x, y = B5.gen_x, B5.gen_y
    s = x + y
    assert (s * s) == B5.bipoly([((2, 0), 1), ((0, 2), 1)])


def test_mixed_ring_operands_rejected():
    with pytest.raises(InputError):
        Z.from_int(1) + Ring.integers_mod(4).from_int(1)


@pytest.mark.parametrize("ring", [
    Z,
    Ring.integers_mod(12),
    Ring.prime_field(7),
    Ring.poly_ring(3),
    Ring.poly_quotient(2, [1, 1, 1]),
    B5,
    Ring.bivariate_quotient(3, [(2, 0), (0, 3), (1, 1)]),
])
def test_normal_form_idempotence(ring):
    # normalising a normal form is the identity: rebuild each payload
    rng = random.Random(11)
    for _ in range(1000):
        if ring.kind == "Z":
            e = ring.from_int(rng.randint(-10**6, 10**6))
            rebuilt = ring.from_int(e.payload)
        elif ring.kind in ("IntegersMod", "PrimeField"):
            e = ring.from_int(rng.randint(-10**6, 10**6))
            rebuilt = ring.from_int(e.payload)
        elif ring.kind in ("UniPoly", "UniPolyQuot"):
            e = ring.poly([rng.randint(-20, 20) for _ in range(rng.randint(0, 6))])
            rebuilt = ring.poly(list(e.payload))
        else:
            terms = [((rng.randint(0, 4), rng.randint(0, 4)), rng.randint(-6, 6))
                     for _ in range(rng.randint(0, 5))]
            e = ring.bipoly(terms)
            rebuilt = ring.bipoly(list(e.payload))
        assert rebuilt.payload == e.payload


@pytest.mark.parametrize("ring", [Ring.integers_mod(12), Ring.prime_field(5), B5])
def test_ring_axioms_random(ring):
    rng = random.Random(5)

    def rand(ring):
        if ring.kind == "BiPolyMonomialQuot":
            return ring.bipoly([((rng.randint(0, 3), rng.randint(0, 3)),
                                 rng.randint(0, 4)) for _ in range(3)])
        return ring.from_int(rng.randint(0, 30))

    for _ in range(200):
        a, b, c = rand(ring), rand(ring), rand(ring)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_ann_element_examples():
    got = annihilator(Ring.integers_mod(4).from_int(2))
    assert [g.payload for g in got.gens] == [2]
    assert annihilator(Z.from_int(7)).is_zero()
    annx = annihilator(B5.gen_x)
    assert [str(g) for g in annx.gens] == ["y"]


def test_ann_element_brute_force_over_zmod():
    for n in range(2, 61):
        ring = Ring.integers_mod(n)
        for a in range(n):
            ideal = annihilator(ring.from_int(a))
            gen = ideal._pid_generator().payload if ideal.gens else 0
            got = sorted({(gen * k) % n for k in range(n)}) if gen else [0]
            want = sorted(r for r in range(n) if (r * a) % n == 0)
            assert got == want, (n, a)


def test_ann_of_monomial_brute_force():
    # Ann(x) in F5[x,y]/(xy) is (y): no pure x-power or constant kills x,
    # while every monomial involving y does
    x = B5.gen_x
    for deg in range(5):
        for coeff in range(1, 5):
            assert not (B5.monomial(deg, 0, coeff) * x).is_zero()
    for xdeg in range(4):
        for ydeg in range(1, 4):
            m = B5.monomial(xdeg, ydeg)
            if not m.is_zero():
                assert (m * x).is_zero()


def test_binomial_annihilator_matches_brute_force():
    # exhaustive over small finite monomial quotients
    for rels in ([(2, 0), (0, 2)], [(3, 0), (0, 2)], [(2, 0), (0, 2), (1, 1)]):
        ring = Ring.bivariate_quotient(2, rels)
        e = ring.gen_x + ring.gen_y
        gens = [RingElem(ring, t) for t in _element_ann_payloads(e)]
        brute = {z.payload for z in ring.elements() if (z * e).is_zero()}
        # span the ideal generated by gens inside the finite ring
        multiples = {(z * g).payload for g in gens for z in ring.elements()}
        span = {ring.zero.payload}
        changed = True
        while changed:
            changed = False
            for s in list(span):
                for m in multiples:
                    total = (RingElem(ring, s) + RingElem(ring, m)).payload
                    if total not in span:
                        span.add(total)
                        changed = True
        assert span == brute, rels


def test_ann_unsupported_shape():
    bad = B5.bipoly([((1, 0), 1), ((2, 0), 1)])   # x + x^2: not a supported shape
    with pytest.raises(UnsupportedRingError):
        annihilator(bad)


def test_ideal_membership_examples():
    assert Ideal(Z, [Z.from_int(6)]).contains(Z.from_int(18))
    ix = Ideal(B5, [B5.gen_x])
    assert not ix.contains(B5.gen_x + B5.gen_y)
    assert ix.contains(B5.gen_x ** 3)


def test_ideal_generator_shapes():
    # xy + y normalises to the monomial y over rels (xy): accepted
    fine = Ideal(B5, [B5.bipoly([((1, 1), 1), ((0, 1), 1)])])
    assert [str(g) for g in fine.gens] == ["y"]
    # x + x^2 is neither a monomial nor a pure-axes two-term element: rejected
    with pytest.raises(UnsupportedRingError):
        Ideal(P5, [P5.bipoly([((1, 0), 1), ((2, 0), 1)])])


def test_binomial_generator_membership_unsupported():
    d = P5.gen_x + P5.gen_y
    ideal = Ideal(P5, [d])     # allowed shape at construction
    with pytest.raises(UnsupportedRingError):
        ideal.contains(P5.gen_x)


def test_radical_membership_examples():
    i4 = Ideal(Z, [Z.from_int(4)])
    assert i4.radical_contains(Z.from_int(2))
    assert not i4.radical_contains(Z.from_int(3))
    ix = Ideal(B5, [B5.gen_x])
    assert not ix.radical_contains(B5.gen_x + B5.gen_y)
    assert ix.radical_contains(B5.gen_x ** 2)


def test_radical_membership_matches_powers_zmod():
    # d in rad(I) iff d^k in I for some k <= 8 (exhaustive over Z/n, n <= 60)
    for n in range(2, 61):
        ring = Ring.integers_mod(n)
        for g in range(n):
            ideal = Ideal(ring, [ring.from_int(g)])
            for d in range(n):
                elem = ring.from_int(d)
                got = ideal.radical_contains(elem)
                powers = any(ideal.contains(elem ** k) for k in range(1, 9))
                assert got == powers, (n, g, d)


def test_radical_membership_matches_powers_monomial():
    rng = random.Random(3)
    ring = P5
    for _ in range(200):
        gens = [ring.monomial(rng.randint(0, 4), rng.randint(0, 4))
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ideal = Ideal(ring, gens)
        d = ring.monomial(rng.randint(0, 3), rng.randint(0, 3))
        got = ideal.radical_contains(d)
        powers = any(ideal.contains(d ** k) for k in range(1, 9))
        assert got == powers


def test_is_nilpotent_examples():
    z8 = Ring.integers_mod(8)
    assert is_nilpotent(z8.from_int(2))
    f5 = Ring.prime_field(5)
    assert not is_nilpotent(f5.from_int(3))
    assert is_nilpotent(Z.from_int(0))
    assert is_nilpotent(B5.zero)
    q = Ring.poly_quotient(3, [0, 0, 1])
    assert is_nilpotent(q.poly([0, 1]))


def test_ideal_ops_examples():
    prod = Ideal(Z, [Z.from_int(2)]).times(Ideal(Z, [Z.from_int(3)]))
    assert prod._pid_generator().payload == 6
    col = Ideal(P5, [P5.gen_x * P5.gen_y]).colon(Ideal(P5, [P5.gen_x]))
    assert [str(g) for g in col.gens] == ["y"]
    colz = Ideal(Z, [Z.from_int(4)]).colon(Ideal(Z, [Z.from_int(2)]))
    assert colz._pid_generator().payload == 2


def test_colon_exhaustive_monomials():
    # every monomial of degree <= 8 is in (I : J) iff its product with every
    # generator of J is in I
    rng = random.Random(9)
    for _ in range(60):
        gens_i = [P5.monomial(rng.randint(0, 4), rng.randint(0, 4))
                  for _ in range(rng.randint(1, 4))]
        gens_j = [P5.monomial(rng.randint(0, 4), rng.randint(0, 4))
                  for _ in range(rng.randint(1, 4))]
        ideal_i, ideal_j = Ideal(P5, gens_i), Ideal(P5, gens_j)
        col = ideal_i.colon(ideal_j)
        for a in range(9):
            for b in range(9 - a):
                m = P5.monomial(a, b)
                direct = all(ideal_i.contains(m * g) for g in ideal_j.gens)
                assert col.contains(m) == direct, (gens_i, gens_j, a, b)


def test_colon_in_proper_quotient():
    ring = Ring.bivariate_quotient(5, [(2, 0), (0, 2)])
    ix = Ideal(ring, [ring.gen_x])
    iy = Ideal(ring, [ring.gen_y])
    col = ix.colon(iy)
    # r*y in (x) + (x^2, y^2) iff r in (x, y)
    for a in range(3):
        for b in range(3):
            m = ring.monomial(a, b)
            if m.is_zero():
                continue
            direct = ix.contains(m * ring.gen_y)
            assert col.contains(m) == direct


# -- contains, radical_contains, annihilator and colon on principal ideals against
# their set definitions, with test-local arithmetic on plain ints and lists --


def _check_principal_ideals(ring, elements, mul, add, zero):
    """Every principal ideal (a) of a finite ring, a running over `elements`
    (so the zero and the unit ideal are included), against:
    (a) = {r*a}; rad(a) = {d : d^k in (a) for some k >= 1};
    Ann(a) = {r : r*a = 0}; ((a) : (b)) = {r : r*b in (a)}."""
    ideal_set = {a: frozenset(mul(r, a) for r in elements) for a in elements}

    def span(ideal):
        sets = [ideal_set[g.payload] for g in ideal.gens] or [{zero}]
        out = set(sets[0])
        for extra in sets[1:]:
            out = {add(s, m) for s in out for m in extra}
        return out

    ideals = {a: Ideal(ring, [RingElem(ring, a)]) for a in elements}
    for a, ideal in ideals.items():
        members = ideal_set[a]
        for e in elements:
            assert ideal.contains(RingElem(ring, e)) == (e in members), (ring, a, e)
            powers, x = set(), e
            while x not in powers:
                powers.add(x)
                x = mul(x, e)
            assert ideal.radical_contains(RingElem(ring, e)) == bool(powers & members), (ring, a, e)
        assert span(ideal.annihilator()) == {r for r in elements if mul(r, a) == zero}, (ring, a)
        for b, other in ideals.items():
            want = {r for r in elements if mul(r, b) in members}
            assert span(ideal.colon(other)) == want, (ring, a, b)


def _polys(p, max_deg):
    """All polynomials of degree <= max_deg over F_p as normalised tuples."""
    return [tuple(poly_add(list(c), [], p))
            for c in itertools.product(range(p), repeat=max_deg + 1)]


def test_principal_ideals_of_zmod_match_definitions():
    for n in range(2, 31):
        _check_principal_ideals(Ring.integers_mod(n), list(range(n)),
                                lambda x, y, n=n: (x * y) % n,
                                lambda x, y, n=n: (x + y) % n, 0)


@pytest.mark.parametrize("p", [2, 3])
def test_principal_ideals_of_poly_quotients_match_definitions(p):
    for deg in (1, 2, 3):
        for tail in itertools.product(range(p), repeat=deg):
            f = list(tail) + [1]
            table = {(x, y): tuple(poly_mod(poly_mul(list(x), list(y), p), f, p))
                     for x in _polys(p, deg - 1) for y in _polys(p, deg - 1)}
            _check_principal_ideals(Ring.poly_quotient(p, f), _polys(p, deg - 1),
                                    lambda x, y, t=table: t[x, y],
                                    lambda x, y: tuple(poly_add(list(x), list(y), p)), ())


def test_principal_ideals_of_integers_match_definitions():
    # window |a|, |b|, |d| <= 40; a prime power dividing a non-zero |a| <= 40
    # has exponent <= 5, so d^k for k <= 6 decides d in rad(a)
    window = range(-40, 41)

    def member(e, g):
        return e % g == 0 if g else e == 0

    def gen(ideal):
        return ideal.gens[0].payload if ideal.gens else 0

    ideals = {a: Ideal(Z, [Z.from_int(a)]) for a in window}
    for a, ideal in ideals.items():
        for d in window:
            assert ideal.contains(Z.from_int(d)) == member(d, a), (a, d)
            assert ideal.radical_contains(Z.from_int(d)) == any(
                member(d ** k, a) for k in range(1, 7)), (a, d)
        ann = gen(ideal.annihilator())
        assert all(member(r, ann) == (r * a == 0) for r in window), a
        for b, other in ideals.items():
            col = gen(ideal.colon(other))
            assert all(member(r, col) == member(r * b, a) for r in window), (a, b)


@pytest.mark.parametrize("p", [2, 3])
def test_principal_ideals_of_poly_ring_match_definitions(p):
    # window: every polynomial of degree <= 3.  A generator of (a : b) divides a
    # (or is 1), so it has degree <= 3 and the window determines the ideal; a
    # prime power dividing a has exponent <= deg a <= 3
    ring = Ring.poly_ring(p)
    window = _polys(p, 3)

    def mul(x, y):
        return poly_mul(list(x), list(y), p)

    def member(e, g):
        return not poly_mod(list(e), list(g), p) if g else not e

    def gen(ideal):
        return ideal.gens[0].payload if ideal.gens else ()

    ideals = {a: Ideal(ring, [RingElem(ring, a)]) for a in window}
    for a, ideal in ideals.items():
        for d in window:
            assert ideal.contains(RingElem(ring, d)) == member(d, a), (a, d)
            powers = [list(d)]
            for _ in range(3):
                powers.append(mul(powers[-1], d))
            assert ideal.radical_contains(RingElem(ring, d)) == any(
                member(x, a) for x in powers), (a, d)
        ann = gen(ideal.annihilator())
        assert all(member(r, ann) == (not mul(r, a)) for r in window), a
    # the colon on monic or zero generators: (a : b) depends on a and b up to units
    monic = [a for a in window if not a or a[-1] == 1]
    products = {(r, b): mul(r, b) for r in window for b in monic}
    for a in monic:
        for b in monic:
            col = gen(ideals[a].colon(ideals[b]))
            assert all(member(r, col) == member(products[r, b], a) for r in window), (a, b)


def test_ring_validation():
    with pytest.raises(InputError):
        Ring.integers_mod(1)
    with pytest.raises(InputError):
        Ring.prime_field(6)
    with pytest.raises(InputError):
        Ring.poly_quotient(2, [1, 2])        # not monic mod 2
    with pytest.raises(InputError):
        Ring.bivariate_quotient(5, [(0, 0)])  # unit relation -> zero ring


def test_finite_ring_enumeration():
    assert len(list(Ring.integers_mod(12).elements())) == 12
    q = Ring.poly_quotient(2, [1, 1, 1])
    assert len(list(q.elements())) == 4
    b = Ring.bivariate_quotient(2, [(2, 0), (0, 2)])
    assert len(list(b.elements())) == 16
    with pytest.raises(InputError):
        list(Z.elements())
