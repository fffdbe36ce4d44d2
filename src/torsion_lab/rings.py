"""Exact arithmetic, ideals, annihilators and radicals for the coefficient rings.

Supported rings: the integers Z, quotients Z/n, prime fields F_p, univariate
polynomial rings F_p[x] and their quotients F_p[x]/(f), and bivariate monomial
quotients F_p[x,y]/(monomials).  Every element carries a unique canonical
payload, so equality is payload equality and values hash.

Z is held as Z/0 (n = 0) and F_p[x] as F_p[x]/(0) (modulus ()), and reduction
by a zero modulus does nothing, so arithmetic and ideal operations take one
path per family: `ring.n is not None` (Z, Z/n, F_p), `ring.modulus is not
None` (F_p[x], F_p[x]/(f)), and otherwise bivariate.  The kind only names the
ring: `describe` and the JSON kinds are unchanged.

Bivariate rings are deliberately restricted: relation ideals are monomial,
ideal generators are monomials or a two-term combination c*x^a + c'*y^b, and
anything outside those shapes raises UnsupportedRingError instead of guessing.
Within the restriction, membership, colon, radical and annihilator are exact
monomial combinatorics with no Groebner machinery.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Iterator, Optional

from .errors import InputError, UnsupportedRingError
from .primes import is_prime, prime_divisors

# ---------------------------------------------------------------------------
# univariate polynomial helpers (coefficient tuples, ascending degree, over F_p)
# ---------------------------------------------------------------------------


def _pnorm(coeffs, p: int) -> tuple[int, ...]:
    cs = [c % p for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _padd(a, b, p):
    n = max(len(a), len(b))
    return _pnorm([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)], p)


def _pneg(a, p):
    return tuple((-c) % p for c in a)


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _pnorm(out, p)


def _pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    lead_inv = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        f = (a[-1] * lead_inv) % p
        shift = len(a) - len(b)
        q[shift] = f
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - f * c) % p
        while a and a[-1] == 0:
            a.pop()
    return _pnorm(q, p), _pnorm(a, p)


def _pmod(a, b, p):
    """a mod b; the zero modulus () of F_p[x] leaves a as it is."""
    return _pdivmod(a, b, p)[1] if b else a


def _zmod(k: int, n: int) -> int:
    """k mod n; the zero modulus of Z leaves k as it is."""
    return k % n if n else k


def _pgcd(a, b, p):
    a, b = _pnorm(a, p), _pnorm(b, p)
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple((c * inv) % p for c in a)
    return a


def _ppow(a, k, p, modulus):
    result = (1,)
    base = a
    while k:
        if k & 1:
            result = _pmod(_pmul(result, base, p), modulus, p)
        base = _pmod(_pmul(base, base, p), modulus, p)
        k >>= 1
    return result


def _is_irreducible(f, p) -> bool:
    """Rabin's test for a monic f of degree n >= 1 over F_p: f is irreducible
    iff x^(p^n) = x mod f and gcd(x^(p^(n/q)) - x mod f, f) = 1 for every
    prime q | n (Rabin 1980, "Probabilistic algorithms in finite fields")."""
    n = len(f) - 1

    def frobenius_minus_x(k):
        return _pmod(_padd(_ppow((0, 1), p ** k, p, f), (0, p - 1), p), f, p)

    return (not frobenius_minus_x(n)
            and all(_pgcd(frobenius_minus_x(n // q), f, p) == (1,) for q in prime_divisors(n)))


# ---------------------------------------------------------------------------
# bivariate monomial helpers (monomials are exponent pairs (a, b))
# ---------------------------------------------------------------------------

Mono = tuple[int, int]


def _mono_divides(d: Mono, m: Mono) -> bool:
    return d[0] <= m[0] and d[1] <= m[1]


def _mono_mul(a: Mono, b: Mono) -> Mono:
    return (a[0] + b[0], a[1] + b[1])


def _mono_lcm(a: Mono, b: Mono) -> Mono:
    return (max(a[0], b[0]), max(a[1], b[1]))


def _mono_gcd(a: Mono, b: Mono) -> Mono:
    return (min(a[0], b[0]), min(a[1], b[1]))


def _mono_div(a: Mono, b: Mono) -> Mono:
    return (a[0] - b[0], a[1] - b[1])


def _minimalize(monos) -> tuple[Mono, ...]:
    """Minimal generating set of the monomial ideal generated by `monos`."""
    out = []
    for m in sorted(set(monos)):
        # a divisor of m is lexicographically <= m, so it was seen before m
        if not any(_mono_divides(g, m) for g in out):
            out.append(m)
    return tuple(out)


def _in_mono_ideal(m: Mono, gens) -> bool:
    return any(_mono_divides(g, m) for g in gens)


def _mono_colon(gens, u: Mono) -> tuple[Mono, ...]:
    """(gens : u) for a monomial ideal, exact:  generated by g / gcd(g, u)."""
    return _minimalize(_mono_div(g, _mono_gcd(g, u)) for g in gens)


def _mono_intersect(gens_a, gens_b) -> tuple[Mono, ...]:
    """Intersection of monomial ideals: generated by pairwise lcms."""
    return _minimalize(_mono_lcm(a, b) for a in gens_a for b in gens_b)


def _mono_radical(gens) -> tuple[Mono, ...]:
    return _minimalize((min(a, 1), min(b, 1)) for a, b in gens)


# bivariate payloads: sorted tuples of ((ax, ay), coeff) with coeff in [1, p)


def _bnorm(terms, p: int, rels) -> tuple:
    acc: dict[Mono, int] = {}
    for mono, c in terms:
        c %= p
        if not c:
            continue
        if rels and _in_mono_ideal(mono, rels):
            continue
        acc[mono] = (acc.get(mono, 0) + c) % p
    return tuple(sorted((m, c) for m, c in acc.items() if c))


def _badd(a, b, p, rels):
    return _bnorm(list(a) + list(b), p, rels)


def _bneg(a, p):
    return tuple((m, (-c) % p) for m, c in a)


def _bmul(a, b, p, rels):
    terms = []
    for ma, ca in a:
        for mb, cb in b:
            terms.append((_mono_mul(ma, mb), ca * cb))
    return _bnorm(terms, p, rels)


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------

KIND_Z = "Z"
KIND_ZMOD = "IntegersMod"
KIND_FP = "PrimeField"
KIND_POLY = "UniPoly"
KIND_POLYQUOT = "UniPolyQuot"
KIND_BIPOLY = "BiPolyMonomialQuot"

# the most elements an exhaustive search may enumerate: ring elements, and
# vectors of them in the nullvector search
ENUM_LIMIT = 1_000_000


@dataclass(frozen=True)
class Ring:
    kind: str
    n: Optional[int] = None  # the modulus of Z/n; 0 for Z and p for F_p
    p: Optional[int] = None
    modulus: Optional[tuple[int, ...]] = None  # f of F_p[x]/(f); () for F_p[x]
    rels: Optional[tuple[Mono, ...]] = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def integers() -> "Ring":
        return Ring(KIND_Z, n=0)

    @staticmethod
    def integers_mod(n: int) -> "Ring":
        if not isinstance(n, int) or n < 2:
            raise InputError(f"Z/n requires an integer n >= 2, got {n!r}")
        return Ring(KIND_ZMOD, n=n)

    @staticmethod
    def prime_field(p: int) -> "Ring":
        if not is_prime(p):
            raise InputError(f"prime field needs a prime characteristic, got {p!r}")
        return Ring(KIND_FP, n=p, p=p)

    @staticmethod
    def poly_ring(p: int) -> "Ring":
        if not is_prime(p):
            raise InputError(f"F_p[x] needs a prime p, got {p!r}")
        return Ring(KIND_POLY, p=p, modulus=())

    @staticmethod
    def poly_quotient(p: int, modulus) -> "Ring":
        if not is_prime(p):
            raise InputError(f"F_p[x]/(f) needs a prime p, got {p!r}")
        f = _pnorm(modulus, p)
        if len(f) < 2:
            raise InputError("quotient modulus must have degree >= 1")
        if f[-1] != 1:
            raise InputError("quotient modulus must be monic")
        return Ring(KIND_POLYQUOT, p=p, modulus=f)

    @staticmethod
    def bivariate_quotient(p: int, rels=()) -> "Ring":
        if not is_prime(p):
            raise InputError(f"F_p[x,y] quotient needs a prime p, got {p!r}")
        gens = []
        for m in rels:
            a, b = int(m[0]), int(m[1])
            if a < 0 or b < 0:
                raise InputError(f"monomial exponents must be >= 0, got {m!r}")
            gens.append((a, b))
        mins = _minimalize(gens) if gens else ()
        if (0, 0) in mins:
            raise InputError("relation 1 would make the zero ring")
        return Ring(KIND_BIPOLY, p=p, rels=mins)

    # -- structure predicates ----------------------------------------------

    @property
    def is_domain(self) -> bool:
        if self.n is not None:
            return self.n == 0 or is_prime(self.n)
        if self.modulus is not None:
            return not self.modulus or _is_irreducible(self.modulus, self.p)
        # a monomial quotient is a domain iff its relations are among x and y
        return set(self.rels or ()) <= {(1, 0), (0, 1)}

    # -- element construction ----------------------------------------------

    def from_int(self, k: int) -> "RingElem":
        if self.n is not None:
            return RingElem(self, _zmod(int(k), self.n))
        if self.modulus is not None:
            return self.poly([k])
        return RingElem(self, _bnorm([((0, 0), k)], self.p, self.rels))

    @property
    def zero(self) -> "RingElem":
        return self.from_int(0)

    @property
    def one(self) -> "RingElem":
        return self.from_int(1)

    def poly(self, coeffs) -> "RingElem":
        if self.modulus is None:
            raise InputError(f"{self.kind} has no univariate elements")
        return RingElem(self, _pmod(_pnorm(coeffs, self.p), self.modulus, self.p))

    @property
    def gen_x(self) -> "RingElem":
        if self.modulus is not None:
            return self.poly([0, 1])
        if self.kind == KIND_BIPOLY:
            return self.monomial(1, 0)
        raise InputError(f"{self.kind} has no variable x")

    @property
    def gen_y(self) -> "RingElem":
        if self.kind == KIND_BIPOLY:
            return self.monomial(0, 1)
        raise InputError(f"{self.kind} has no variable y")

    def monomial(self, a: int, b: int, coeff: int = 1) -> "RingElem":
        if self.kind != KIND_BIPOLY:
            raise InputError(f"{self.kind} has no bivariate monomials")
        return RingElem(self, _bnorm([((a, b), coeff)], self.p, self.rels))

    def bipoly(self, terms) -> "RingElem":
        """terms: iterable of ((a, b), coeff)."""
        if self.kind != KIND_BIPOLY:
            raise InputError(f"{self.kind} has no bivariate elements")
        return RingElem(self, _bnorm(list(terms), self.p, self.rels))

    # -- enumeration (finite rings only) ------------------------------------

    def is_finite(self) -> bool:
        if self.n is not None:
            return self.n != 0
        if self.modulus is not None:
            return self.modulus != ()
        rels = self.rels or ()
        return any(b == 0 for a, b in rels) and any(a == 0 for a, b in rels)

    def normal_monomials(self) -> list[Mono]:
        """All monomials outside the relation ideal (bivariate, finite case)."""
        if self.kind != KIND_BIPOLY or not self.is_finite():
            raise UnsupportedRingError("normal monomial basis requires a finite bivariate quotient")
        xb = min(a for a, b in self.rels if b == 0)
        yb = min(b for a, b in self.rels if a == 0)
        return [(a, b) for a in range(xb) for b in range(yb)
                if not _in_mono_ideal((a, b), self.rels)]

    def elements(self) -> Iterator["RingElem"]:
        """Iterate all ring elements in a fixed canonical order (finite rings).

        A ring with more than ENUM_LIMIT elements is refused before the first
        element is built.
        """
        if not self.is_finite():
            raise InputError(f"cannot enumerate the infinite ring {self.describe()}")
        if self.n is not None:
            count, payloads = self.n, range(self.n)
        elif self.modulus is not None:
            deg = len(self.modulus) - 1
            count = self.p ** deg
            payloads = (_pnorm(c, self.p) for c in iter_product(range(self.p), repeat=deg))
        else:
            basis = self.normal_monomials()
            count = self.p ** len(basis)
            payloads = (_bnorm(list(zip(basis, c)), self.p, self.rels)
                        for c in iter_product(range(self.p), repeat=len(basis)))
        if count > ENUM_LIMIT:
            raise InputError(f"finite ring too large to enumerate: {self.describe()} "
                             f"has {count} elements, more than {ENUM_LIMIT}")
        for payload in payloads:
            yield RingElem(self, payload)

    # -- misc ----------------------------------------------------------------

    def describe(self) -> str:
        if self.kind == KIND_Z:
            return "Z"
        if self.kind == KIND_ZMOD:
            return f"Z/{self.n}"
        if self.kind == KIND_FP:
            return f"F_{self.p}"
        if self.kind == KIND_POLY:
            return f"F_{self.p}[x]"
        if self.kind == KIND_POLYQUOT:
            return f"F_{self.p}[x]/({_poly_str(self.modulus)})"
        rels = ", ".join(_mono_str(m) for m in self.rels) if self.rels else ""
        return f"F_{self.p}[x,y]" + (f"/({rels})" if rels else "")

    def __repr__(self) -> str:
        return f"Ring({self.describe()})"


def _mono_str(m: Mono) -> str:
    a, b = m
    if a == 0 and b == 0:
        return "1"
    out = ""
    if a:
        out += "x" if a == 1 else f"x^{a}"
    if b:
        out += "y" if b == 1 else f"y^{b}"
    return out


def _poly_str(coeffs) -> str:
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            xs = "x" if i == 1 else f"x^{i}"
            parts.append(xs if c == 1 else f"{c}{xs}")
    return "+".join(reversed(parts))


@dataclass(frozen=True)
class RingElem:
    ring: Ring
    payload: object

    def _check(self, other: "RingElem") -> None:
        # identity first: operands of one ring nearly always share its object
        if not isinstance(other, RingElem) or (other.ring is not self.ring
                                               and other.ring != self.ring):
            raise InputError("mixed-ring operands")

    def __add__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        r = self.ring
        if r.n is not None:
            return RingElem(r, _zmod(self.payload + other.payload, r.n))
        if r.modulus is not None:
            return RingElem(r, _padd(self.payload, other.payload, r.p))
        return RingElem(r, _badd(self.payload, other.payload, r.p, r.rels))

    def __neg__(self) -> "RingElem":
        r = self.ring
        if r.n is not None:
            return RingElem(r, _zmod(-self.payload, r.n))
        if r.modulus is not None:
            return RingElem(r, _pneg(self.payload, r.p))
        return RingElem(r, _bneg(self.payload, r.p))

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def __mul__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        r = self.ring
        if r.n is not None:
            return RingElem(r, _zmod(self.payload * other.payload, r.n))
        if r.modulus is not None:
            return RingElem(r, _pmod(_pmul(self.payload, other.payload, r.p), r.modulus, r.p))
        return RingElem(r, _bmul(self.payload, other.payload, r.p, r.rels))

    def __pow__(self, k: int) -> "RingElem":
        if k < 0:
            raise InputError("negative powers are not defined here")
        out = self.ring.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return not self.payload

    def __bool__(self) -> bool:
        return not self.is_zero()

    def sort_key(self):
        return (repr(self.payload),)

    def __str__(self) -> str:
        r = self.ring
        if r.n is not None:
            return str(self.payload)
        if r.modulus is not None:
            return _poly_str(self.payload)
        if not self.payload:
            return "0"
        parts = []
        for m, c in self.payload:
            ms = _mono_str(m)
            if m == (0, 0):
                parts.append(str(c))
            elif c == 1:
                parts.append(ms)
            else:
                parts.append(f"{c}{ms}")
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"<{self} in {self.ring.describe()}>"


# ---------------------------------------------------------------------------
# bivariate element shapes
# ---------------------------------------------------------------------------

SHAPE_ZERO = "zero"
SHAPE_MONOMIAL = "monomial"
SHAPE_BINOMIAL = "binomial"          # c*x^a + c'*y^b with a, b >= 1
SHAPE_OTHER = "other"


def bivariate_shape(e: RingElem) -> str:
    terms = e.payload
    if not terms:
        return SHAPE_ZERO
    if len(terms) == 1:
        return SHAPE_MONOMIAL
    if len(terms) == 2:
        (m1, _), (m2, _) = terms
        axes = sorted([m1, m2])
        if axes[0][0] == 0 and axes[0][1] >= 1 and axes[1][1] == 0 and axes[1][0] >= 1:
            return SHAPE_BINOMIAL
    return SHAPE_OTHER


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------


class Ideal:
    """Finitely generated ideal with canonical generator list."""

    __slots__ = ("ring", "gens")

    def __init__(self, ring: Ring, gens) -> None:
        self.ring = ring
        cleaned = []
        for g in gens:
            if not isinstance(g, RingElem) or g.ring != ring:
                raise InputError("ideal generators must belong to the ring")
            if g.is_zero():
                continue
            if ring.kind == KIND_BIPOLY:
                shape = bivariate_shape(g)
                if shape not in (SHAPE_MONOMIAL, SHAPE_BINOMIAL):
                    raise UnsupportedRingError(
                        f"bivariate ideal generator {g} is neither a monomial nor "
                        "a pure x-power plus y-power combination")
            cleaned.append(g)
        seen = set()
        unique = []
        for g in sorted(cleaned, key=lambda e: e.sort_key()):
            if g.payload not in seen:
                seen.add(g.payload)
                unique.append(g)
        self.gens = tuple(unique)

    # -- helpers -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.gens

    def _pid_generator(self) -> RingElem:
        """Single generator on the principal-ideal rings (Z, Z/n, F_p, F_p[x], F_p[x]/f):
        the gcd of the generators and the modulus, reduced by the modulus."""
        r = self.ring
        if r.n is not None:
            g = r.n
            for e in self.gens:
                g = math.gcd(g, e.payload)
            return RingElem(r, _zmod(g, r.n))
        if r.modulus is not None:
            g = r.modulus
            for e in self.gens:
                g = _pgcd(g, e.payload, r.p)
            return RingElem(r, _pmod(g, r.modulus, r.p))
        raise UnsupportedRingError(f"{r.describe()} is not treated as a principal ideal ring")

    def _monomial_gens(self) -> tuple[Mono, ...]:
        """Exponent pairs when every generator is a monomial; raise otherwise."""
        out = []
        for g in self.gens:
            if bivariate_shape(g) != SHAPE_MONOMIAL:
                raise UnsupportedRingError(
                    f"operation needs a monomial ideal; generator {g} is not a monomial")
            out.append(g.payload[0][0])
        return _minimalize(out)

    def all_monomial(self) -> bool:
        return all(bivariate_shape(g) == SHAPE_MONOMIAL for g in self.gens)

    # -- membership, radical, annihilator -------------------------------------

    def contains(self, e: RingElem) -> bool:
        if e.ring != self.ring:
            raise InputError("element and ideal live over different rings")
        if e.is_zero():
            return True
        r = self.ring
        if r.kind != KIND_BIPOLY:
            g = self._pid_generator().payload
            if not g:
                return False  # the zero ideal, and e != 0
            if r.n is not None:
                return e.payload % g == 0
            return not _pmod(e.payload, g, r.p)
        if self.is_zero():
            return e.is_zero()
        if not self.all_monomial():
            raise UnsupportedRingError(
                "membership in bivariate ideals is supported for monomial generators only")
        gens = self._monomial_gens()
        return all(_in_mono_ideal(m, gens) for m, _ in e.payload)

    def radical_contains(self, d: RingElem) -> bool:
        """True iff some power of d lies in the ideal."""
        if d.ring != self.ring:
            raise InputError("element and ideal live over different rings")
        r = self.ring
        if r.kind != KIND_BIPOLY:
            # the zero ideal of Z/n is generated by n (f for F_p[x]/(f)); only Z
            # and F_p[x] are left with g = 0
            g = self._pid_generator().payload or (r.modulus if r.n is None else r.n)
            if not g:
                return d.is_zero()
            # d is in rad(g) iff g divides d^k, where k is the largest exponent of
            # a prime power q^k dividing g.  The generator g divides n, so it is
            # the one modulus to use, and q^k <= g gives k < g.bit_length(); for
            # polynomials k * deg q <= deg g gives k <= deg g
            if r.n is not None:
                return pow(d.payload, max(1, g.bit_length()), g) == 0
            return not _ppow(d.payload, max(1, len(g) - 1), r.p, g)
        # bivariate: radical of a monomial ideal is the squarefree-part ideal,
        # together with the squarefree parts of the ring relations (nilpotents).
        if not self.all_monomial():
            raise UnsupportedRingError(
                "radical membership in bivariate ideals needs monomial generators")
        gens = [g.payload[0][0] for g in self.gens]
        gens.extend(r.rels or ())
        rad = _mono_radical(gens) if gens else ()
        if not rad:
            return d.is_zero()
        return all(_in_mono_ideal(m, rad) for m, _ in d.payload)

    def annihilator(self) -> "Ideal":
        """Ann(I) = {r : r*I = 0}, exact on the supported shapes."""
        gens = annihilator_payloads(self)
        return Ideal(self.ring, [RingElem(self.ring, g) for g in gens])

    # -- products, colon -------------------------------------------------------

    def times(self, other: "Ideal") -> "Ideal":
        self._same_ring(other)
        return Ideal(self.ring, [a * b for a in self.gens for b in other.gens])

    def colon(self, other: "Ideal") -> "Ideal":
        """(self : other) = {r : r*other subset of self}."""
        self._same_ring(other)
        r = self.ring
        if r.kind != KIND_BIPOLY:
            # (a : b) = a / gcd(a, b), reading a zero generator as n (or f), which
            # generates the zero ideal of Z/n.  For Z and F_p[x] that reading is
            # 0 again: b = 0 gives the unit ideal, and a = 0 gives 0 / b = 0
            zero = r.modulus if r.n is None else r.n
            a = self._pid_generator().payload or zero
            b = other._pid_generator().payload or zero
            if not b:
                return Ideal(r, [r.one])
            if r.n is not None:
                return Ideal(r, [r.from_int(a // math.gcd(a, b))])
            return Ideal(r, [r.poly(_pdivmod(a, _pgcd(a, b, r.p), r.p)[0])])
        if not (self.all_monomial() and other.all_monomial()):
            raise UnsupportedRingError("colon of bivariate ideals needs monomial generators")
        # compute upstairs: ((I + rels) : J) then read generators in the quotient
        lhs = tuple(self._monomial_gens()) + tuple(self.ring.rels or ())
        if other.is_zero():
            return Ideal(r, [r.one])
        if not lhs:
            # (0 : J): the annihilator of the monomial ideal J
            return other.annihilator()
        acc: Optional[tuple[Mono, ...]] = None
        for g in other._monomial_gens():
            cur = _mono_colon(lhs, g)
            acc = cur if acc is None else _mono_intersect(acc, cur)
        gens = [r.monomial(a, b) for a, b in (acc or ()) if not _in_mono_ideal((a, b), r.rels or ())]
        return Ideal(r, gens)

    def _same_ring(self, other: "Ideal") -> None:
        if not isinstance(other, Ideal) or other.ring != self.ring:
            raise InputError("ideal operands live over different rings")

    def _canonical(self):
        """What equality and hashing compare: the PID generator's payload, else
        the minimal monomial exponents, else the generator payloads."""
        if self.ring.kind != KIND_BIPOLY:
            return self._pid_generator().payload
        try:
            return self._monomial_gens()
        except UnsupportedRingError:
            return tuple(g.payload for g in self.gens)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Ideal) and other.ring == self.ring
                and self._canonical() == other._canonical())

    def __hash__(self) -> int:
        return hash((self.ring, self._canonical()))

    def __repr__(self) -> str:
        inner = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({inner}) of {self.ring.describe()}"


# ---------------------------------------------------------------------------
# annihilators
# ---------------------------------------------------------------------------


def annihilator_payloads(ideal: Ideal) -> list:
    """Raw canonical payloads generating Ann(ideal); [] means the zero annihilator."""
    r = ideal.ring
    if ideal.is_zero():
        return [r.one.payload]
    if r.kind != KIND_BIPOLY:
        return _element_ann_payloads(ideal._pid_generator())
    # intersect element annihilators; monomial parts stay combinatorial
    acc_mono: Optional[tuple[Mono, ...]] = None
    extra: list = []
    for g in ideal.gens:
        payloads = _element_ann_payloads(g)
        if not payloads:
            return []
        monos = [t[0][0] for t in payloads if len(t) == 1]
        rest = [t for t in payloads if len(t) != 1]
        if rest:
            extra.extend(rest)
        cur = _minimalize(monos) if monos else ()
        acc_mono = cur if acc_mono is None else _mono_intersect(acc_mono, cur)
    if extra:
        if len(ideal.gens) == 1:
            return extra + [((m, 1),) for m in (acc_mono or ())]
        raise UnsupportedRingError(
            "annihilator of a multi-generator bivariate ideal with non-monomial "
            "annihilator components is not expressible here")
    gens = [m for m in (acc_mono or ()) if not _in_mono_ideal(m, r.rels or ())]
    return [((m, 1),) for m in gens]


def annihilator(e: RingElem) -> Ideal:
    """Ann(e) = {r : r*e = 0} as an ideal."""
    return Ideal(e.ring, [RingElem(e.ring, t) for t in _element_ann_payloads(e)])


def _element_ann_payloads(e: RingElem) -> list:
    r = e.ring
    if e.is_zero():
        return [r.one.payload]
    # Ann(e) = (n / gcd(n, e)), which is 0 over the domains Z and F_p[x]
    if r.n is not None:
        g = _zmod(r.n // math.gcd(r.n, e.payload), r.n)
        return [g] if g else []
    if r.modulus is not None:
        g = _pmod(_pdivmod(r.modulus, _pgcd(e.payload, r.modulus, r.p), r.p)[0], r.modulus, r.p)
        return [g] if g else []
    shape = bivariate_shape(e)
    if shape == SHAPE_MONOMIAL:
        rels = r.rels or ()
        m = e.payload[0][0]
        gens = [g for g in _mono_colon(rels, m) if not _in_mono_ideal(g, rels)] if rels else []
        return [((g, 1),) for g in _minimalize(gens)] if gens else []
    if shape == SHAPE_BINOMIAL:
        return _binomial_ann_payloads(e)
    raise UnsupportedRingError(
        f"annihilator of bivariate element {e} (neither monomial nor pure "
        "x-power + y-power) is unsupported")


def _binomial_ann_payloads(e: RingElem) -> list:
    """Ann(ca*x^a + cb*y^b) over F_p[x,y]/(monomial rels), exactly.

    An annihilating element decomposes into monomials killed by both x^a and
    y^b, plus 'chain' vectors: a monomial whose y^b-image dies in the relations
    starts a chain m -> m*x^a/y^b of forced coefficient cancellations, which
    must terminate by having its last x^a-image die.  Heads only need to be
    scanned up to the relation exponents (membership saturates beyond them,
    making larger chains translates of smaller ones).
    """
    r = e.ring
    p = r.p
    rels = r.rels or ()
    (m1, c1), (m2, c2) = sorted(e.payload)
    # m1 is the pure-y term, m2 the pure-x term after sorting
    b, a = m1[1], m2[0]
    cb, ca = c1, c2
    if not rels:
        return []
    in_r = lambda m: _in_mono_ideal(m, rels)
    out: list = []
    # monomial annihilators: (rels : x^a) intersect (rels : y^b)
    mono = _mono_intersect(_mono_colon(rels, (a, 0)), _mono_colon(rels, (0, b)))
    for m in mono:
        if not in_r(m):
            out.append(((m, 1),))
    sx = max((g[0] for g in rels), default=0)
    ty = max((g[1] for g in rels), default=0)
    ratio = (-ca * pow(cb, p - 2, p)) % p  # coefficient step: r_{k+1} = -(ca/cb) r_k
    for s in range(sx + 1):
        for t in range(ty + 1):
            head = (s, t)
            if in_r(head):
                continue
            if not in_r((s, t + b)):
                continue  # head's y-image survives: coefficient forced elsewhere
            chain = [head]
            cur = head
            closed = False
            while True:
                image = (cur[0] + a, cur[1])
                if in_r(image):
                    closed = True
                    break
                if image[1] < b:
                    break
                partner = (image[0], image[1] - b)
                if in_r(partner):
                    break
                chain.append(partner)
                cur = partner
            if not closed:
                continue
            coeff = 1
            terms = []
            for m in chain:
                terms.append((m, coeff))
                coeff = (coeff * ratio) % p
            out.append(_bnorm(terms, p, rels))
    # deduplicate and drop anything that normalised to zero
    uniq = []
    seen = set()
    for t in out:
        if t and t not in seen:
            seen.add(t)
            uniq.append(t)
    return sorted(uniq)


def is_nilpotent(e: RingElem) -> bool:
    return Ideal(e.ring, []).radical_contains(e)
