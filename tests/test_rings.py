"""Ring arithmetic, ideals, radicals: examples and invariants."""
import itertools
import random

import pytest
from conftest import poly_add, poly_mod, poly_mul, poly_quotient_has_zero_divisors

from torsion_lab.errors import InputError, UnsupportedRingError
from torsion_lab.rings import Ideal, Ring, RingElem

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
    with pytest.raises(InputError):
        Ring.integers_mod(4).one * Ring.integers_mod(6).one
    # equal rings built apart are one ring
    assert (Ring.integers_mod(4).from_int(3) * Ring.integers_mod(4).from_int(3)).payload == 1


@pytest.mark.parametrize("p,max_deg", [(2, 4), (3, 4), (5, 3)])
def test_poly_quotient_is_domain_iff_no_zero_divisors(p, max_deg):
    for deg in range(1, max_deg + 1):
        for tail in itertools.product(range(p), repeat=deg):
            f = list(tail) + [1]
            assert Ring.poly_quotient(p, f).is_domain == (
                not poly_quotient_has_zero_divisors(f, p)), f


def test_bivariate_quotient_is_domain_iff_relations_among_x_and_y():
    domains = ([], [(1, 0)], [(0, 1)], [(1, 0), (0, 1)])
    others = ([(2, 0)], [(0, 2)], [(1, 1)], [(1, 0), (0, 2)], [(2, 0), (1, 1), (0, 3)])
    for rels in domains:
        assert Ring.bivariate_quotient(3, rels).is_domain, rels
    for rels in others:
        assert not Ring.bivariate_quotient(3, rels).is_domain, rels


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


def test_ideal_membership_examples():
    assert Ideal(Z, [Z.from_int(6)]).contains(Z.from_int(18))
    ix = Ideal(B5, [B5.gen_x])
    assert not ix.contains(B5.gen_x + B5.gen_y)
    assert ix.contains(B5.gen_x ** 3)


def test_ideal_generator_shapes():
    # xy + y normalises to the monomial y over rels (xy): accepted
    fine = Ideal(B5, [B5.bipoly([((1, 1), 1), ((0, 1), 1)])])
    assert [str(g) for g in fine.gens] == ["y"]
    # x + x^2 is not a monomial: rejected
    with pytest.raises(UnsupportedRingError):
        Ideal(P5, [P5.bipoly([((1, 0), 1), ((2, 0), 1)])])


def test_binomial_generator_is_refused_at_construction():
    with pytest.raises(UnsupportedRingError, match="not a monomial"):
        Ideal(P5, [P5.gen_x + P5.gen_y])


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
    def is_nilpotent(e):
        return Ideal(e.ring, []).radical_contains(e)

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


def test_equal_ideals_hash_equal_and_collapse_in_a_set():
    f3x = Ring.poly_ring(3)
    f2xy = Ring.bivariate_quotient(2, [])
    x, y = f2xy.gen_x, f2xy.gen_y
    equal = [
        (Ideal(Z, [Z.from_int(2)]), Ideal(Z, [Z.from_int(4), Z.from_int(6)])),
        (Ideal(Z, [Z.from_int(-3)]), Ideal(Z, [Z.from_int(3), Z.from_int(9)])),
        # x^2 + 2 = (x + 2)(x + 1) over F_3, and 2x + 1 = 2(x + 2)
        (Ideal(f3x, [f3x.poly([2, 0, 1]), f3x.poly([2, 1])]), Ideal(f3x, [f3x.poly([1, 2])])),
        (Ideal(f2xy, [x]), Ideal(f2xy, [x, x * y])),
        (Ideal(f2xy, [y, x * x]), Ideal(f2xy, [x * x * y, x * x, y, y * y])),
    ]
    for a, b in equal:
        assert a == b and hash(a) == hash(b), (a, b)
        assert len({a, b}) == 1, (a, b)
    unequal = [Ideal(Z, [Z.from_int(2)]), Ideal(Z, [Z.from_int(3)]), Ideal(Z, []),
               Ideal(f3x, [f3x.poly([2, 1])]), Ideal(f3x, [f3x.poly([1, 1])]),
               Ideal(f2xy, [x]), Ideal(f2xy, [y])]
    for a, b in itertools.combinations(unequal, 2):
        assert a != b, (a, b)
    assert len(set(unequal)) == len(unequal)


# -- contains and radical_contains on principal ideals against their set
# definitions, with test-local arithmetic on plain ints and lists --


def _check_principal_ideals(ring, elements, mul):
    """Every principal ideal (a) of a finite ring, a running over `elements`
    (so the zero and the unit ideal are included), against:
    (a) = {r*a}; rad(a) = {d : d^k in (a) for some k >= 1}."""
    ideal_set = {a: frozenset(mul(r, a) for r in elements) for a in elements}
    for a in elements:
        ideal = Ideal(ring, [RingElem(ring, a)])
        members = ideal_set[a]
        for e in elements:
            assert ideal.contains(RingElem(ring, e)) == (e in members), (ring, a, e)
            powers, x = set(), e
            while x not in powers:
                powers.add(x)
                x = mul(x, e)
            assert ideal.radical_contains(RingElem(ring, e)) == bool(powers & members), (ring, a, e)


def _polys(p, max_deg):
    """All polynomials of degree <= max_deg over F_p as normalised tuples."""
    return [tuple(poly_add(list(c), [], p))
            for c in itertools.product(range(p), repeat=max_deg + 1)]


def test_principal_ideals_of_zmod_match_definitions():
    for n in range(2, 31):
        _check_principal_ideals(Ring.integers_mod(n), list(range(n)),
                                lambda x, y, n=n: (x * y) % n)


@pytest.mark.parametrize("p", [2, 3])
def test_principal_ideals_of_poly_quotients_match_definitions(p):
    for deg in (1, 2, 3):
        for tail in itertools.product(range(p), repeat=deg):
            f = list(tail) + [1]
            table = {(x, y): tuple(poly_mod(poly_mul(list(x), list(y), p), f, p))
                     for x in _polys(p, deg - 1) for y in _polys(p, deg - 1)}
            _check_principal_ideals(Ring.poly_quotient(p, f), _polys(p, deg - 1),
                                    lambda x, y, t=table: t[x, y])


def test_principal_ideals_of_integers_match_definitions():
    # window |a|, |d| <= 40; a prime power dividing a non-zero |a| <= 40
    # has exponent <= 5, so d^k for k <= 6 decides d in rad(a)
    window = range(-40, 41)

    def member(e, g):
        return e % g == 0 if g else e == 0

    for a in window:
        ideal = Ideal(Z, [Z.from_int(a)])
        for d in window:
            assert ideal.contains(Z.from_int(d)) == member(d, a), (a, d)
            assert ideal.radical_contains(Z.from_int(d)) == any(
                member(d ** k, a) for k in range(1, 7)), (a, d)


@pytest.mark.parametrize("p", [2, 3])
def test_principal_ideals_of_poly_ring_match_definitions(p):
    # window: every polynomial of degree <= 3; a prime power dividing a has
    # exponent <= deg a <= 3
    ring = Ring.poly_ring(p)
    window = _polys(p, 3)

    def mul(x, y):
        return poly_mul(list(x), list(y), p)

    def member(e, g):
        return not poly_mod(list(e), list(g), p) if g else not e

    for a in window:
        ideal = Ideal(ring, [RingElem(ring, a)])
        for d in window:
            assert ideal.contains(RingElem(ring, d)) == member(d, a), (a, d)
            powers = [list(d)]
            for _ in range(3):
                powers.append(mul(powers[-1], d))
            assert ideal.radical_contains(RingElem(ring, d)) == any(
                member(x, a) for x in powers), (a, d)


def test_non_integral_inputs_are_refused():
    # operator.index reads every integer input: a float or a numeric string is
    # refused, where int() truncated or parsed it and pnorm stored a float
    f2xy = Ring.bivariate_quotient(2, [])
    refused = [
        lambda: Ring.bivariate_quotient(2, [(1.7, 0), (0, 2)]),
        lambda: Z.from_int(2.9),
        lambda: Ring.integers_mod(6).from_int("5"),
        lambda: Ring.poly_ring(3).poly([1.5, 2]),
        lambda: Ring.poly_quotient(2, [1.0, 0, 1]),
        lambda: f2xy.monomial(1.5, 0),
        lambda: f2xy.monomial(1, 0, "1"),
        lambda: f2xy.bipoly([((0, 1), 1.0)]),
        lambda: Ring.prime_field(5.0),
        lambda: Ring.poly_ring("3"),
    ]
    for build in refused:
        with pytest.raises(InputError):
            build()
    # ints and bools work as before
    assert Ring.integers_mod(6).from_int(True).payload == 1
    assert Ring.poly_ring(3).poly([True, 5]).payload == (1, 2)
    assert str(f2xy.monomial(True, 2)) == "xy^2"
    assert Ring.bivariate_quotient(2, [(True, 0)]).rels == ((1, 0),)
    assert Ring.prime_field(5).describe() == "F_5"


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


# one builder per ring kind; each call builds a new, equal ring
RING_BUILDERS = (Ring.integers, lambda: Ring.integers_mod(6), lambda: Ring.prime_field(5),
                 lambda: Ring.poly_ring(3), lambda: Ring.poly_quotient(2, [1, 1, 1]),
                 lambda: Ring.bivariate_quotient(5, [(1, 1)]))


def test_rings_compare_and_hash_by_value():
    rings = [build() for build in RING_BUILDERS]
    assert len({r.kind for r in rings}) == 6
    index = {r: i for i, r in enumerate(rings)}
    assert len(index) == 6
    for i, build in enumerate(RING_BUILDERS):
        again = build()
        assert again is not rings[i]
        assert again == rings[i] and not again != rings[i]
        assert hash(again) == hash(rings[i])
        assert index[again] == i
    for a, b in itertools.combinations(rings, 2):
        assert a != b
    assert Ring.integers_mod(4) != Ring.integers_mod(6)
    for r in rings:
        assert r != r.one
        assert r != (r.kind, r.n, r.p, r.modulus, r.rels)


def test_ring_elements_compare_and_hash_by_value():
    for build in RING_BUILDERS:
        a, b = build(), build()
        assert a.one == b.one and hash(a.one) == hash(b.one)
        assert a.one != a.zero and a.one != b.zero
        assert len({a.one, b.one, a.zero, b.zero}) == 2
    assert Ring.integers_mod(4).one != Ring.integers_mod(6).one
    assert Z.one != (Z, 1)


def test_ring_and_element_construction():
    assert Ring("Z", 0) == Ring(kind="Z", n=0) == Z
    r = Ring("UniPoly", p=3)
    assert (r.kind, r.n, r.p, r.modulus, r.rels) == ("UniPoly", None, 3, None, None)
    assert Ring("PrimeField", 5, 5) == Ring.prime_field(5)
    assert Ring("UniPolyQuot", None, 2, (1, 1, 1)) == Ring.poly_quotient(2, [1, 1, 1])
    assert Ring("BiPolyMonomialQuot", p=5, rels=((1, 1),)) == \
        Ring.bivariate_quotient(5, [(1, 1)])
    assert RingElem(Z, 3) == RingElem(ring=Z, payload=3) == Z.from_int(3)
    assert repr(Z) == "Ring(Z)" and repr(Z.from_int(3)) == "<3 in Z>"
