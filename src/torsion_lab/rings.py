"""Exact arithmetic, ideals and radicals for the coefficient rings.

Supported rings: the integers Z, quotients Z/n, prime fields F_p, univariate
polynomial rings F_p[x] and their quotients F_p[x]/(f), and bivariate monomial
quotients F_p[x,y]/(monomials).  Every element carries a unique canonical
payload, so equality is payload equality and values hash.

Z is held as Z/0 (n = 0) and F_p[x] as F_p[x]/(0) (modulus ()), and reduction
by a zero modulus does nothing, so arithmetic and ideal operations take one
path per family: `ring.n is not None` (Z, Z/n, F_p), `ring.modulus is not
None` (F_p[x], F_p[x]/(f)), and otherwise bivariate.  The kind only names the
ring: `describe` and the JSON kinds are unchanged.

Bivariate rings are deliberately restricted: relation ideals and ideals are
monomial, and `Ideal` refuses any other generator with UnsupportedRingError
instead of guessing.  Within the restriction, membership and radical are
exact monomial combinatorics with no Groebner machinery.
Integer inputs are read with `operator.index`: a float or a numeric string
is refused with InputError, not truncated or stored.
"""
from __future__ import annotations

import math
from itertools import product as iter_product
from typing import TYPE_CHECKING, Iterator, Optional

from .errors import InputError, UnsupportedRingError, decimal, integer
from .primes import is_prime

if TYPE_CHECKING:
    from ._polyarith import Mono

# `_polyarith`, the F_p[x] and F_p[x,y] arithmetic, bound by the first ring
# that is not Z, Z/n or F_p: a run over the integer rings never compiles it
pa = None


def _load_polyarith() -> None:
    global pa
    if pa is None:
        from . import _polyarith as pa


def _prime(p, what: str) -> int:
    p = integer(p, f"{what} characteristic")
    if not is_prime(p):
        raise InputError(f"{what} needs a prime characteristic, got {p!r}")
    return p


def _zmod(k: int, n: int) -> int:
    """k mod n; the zero modulus of Z leaves k as it is."""
    return k % n if n else k


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


class Ring:
    """A ring, equal and hashed by its fields; build one with the constructors."""

    __slots__ = ("kind", "n", "p", "modulus", "rels")

    def __init__(self, kind: str, n: Optional[int] = None, p: Optional[int] = None,
                 modulus: Optional[tuple[int, ...]] = None,
                 rels: Optional[tuple[Mono, ...]] = None):
        if n is None:
            _load_polyarith()
        self.kind = kind
        self.n = n  # the modulus of Z/n; 0 for Z and p for F_p
        self.p = p
        self.modulus = modulus  # f of F_p[x]/(f); () for F_p[x]
        self.rels = rels

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.kind, self.n, self.p, self.modulus, self.rels)
                == (other.kind, other.n, other.p, other.modulus, other.rels))

    def __hash__(self) -> int:
        return hash((self.kind, self.n, self.p, self.modulus, self.rels))

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
        p = _prime(p, "prime field")
        return Ring(KIND_FP, n=p, p=p)

    @staticmethod
    def poly_ring(p: int) -> "Ring":
        return Ring(KIND_POLY, p=_prime(p, "F_p[x]"), modulus=())

    @staticmethod
    def poly_quotient(p: int, modulus) -> "Ring":
        p = _prime(p, "F_p[x]/(f)")
        _load_polyarith()
        f = pa.pnorm([integer(c, "modulus coefficient") for c in modulus], p)
        if len(f) < 2:
            raise InputError("quotient modulus must have degree >= 1")
        if f[-1] != 1:
            raise InputError("quotient modulus must be monic")
        return Ring(KIND_POLYQUOT, p=p, modulus=f)

    @staticmethod
    def bivariate_quotient(p: int, rels=()) -> "Ring":
        p = _prime(p, "F_p[x,y] quotient")
        gens = [(integer(m[0], "monomial exponent"), integer(m[1], "monomial exponent"))
                for m in rels]
        if any(min(m) < 0 for m in gens):
            raise InputError(f"monomial exponents must be >= 0, got {gens!r}")
        _load_polyarith()
        mins = pa.minimalize(gens) if gens else ()
        if (0, 0) in mins:
            raise InputError("relation 1 would make the zero ring")
        return Ring(KIND_BIPOLY, p=p, rels=mins)

    # -- structure predicates ----------------------------------------------

    @property
    def is_domain(self) -> bool:
        if self.n is not None:
            return self.n == 0 or is_prime(self.n)
        if self.modulus is not None:
            return not self.modulus or pa.is_irreducible(self.modulus, self.p)
        # a monomial quotient is a domain iff its relations are among x and y
        return set(self.rels or ()) <= {(1, 0), (0, 1)}

    # -- element construction ----------------------------------------------

    def from_int(self, k: int) -> "RingElem":
        if self.n is not None:
            return RingElem(self, _zmod(integer(k, "ring element"), self.n))
        if self.modulus is not None:
            return self.poly([k])
        return self.bipoly([((0, 0), k)])

    @property
    def zero(self) -> "RingElem":
        return self.from_int(0)

    @property
    def one(self) -> "RingElem":
        return self.from_int(1)

    def poly(self, coeffs) -> "RingElem":
        if self.modulus is None:
            raise InputError(f"{self.kind} has no univariate elements")
        coeffs = [integer(c, "coefficient") for c in coeffs]
        return RingElem(self, pa.pmod(pa.pnorm(coeffs, self.p), self.modulus, self.p))

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
        return self.bipoly([((a, b), coeff)])

    def bipoly(self, terms) -> "RingElem":
        """terms: iterable of ((a, b), coeff)."""
        if self.kind != KIND_BIPOLY:
            raise InputError(f"{self.kind} has no bivariate elements")
        terms = [((integer(a, "monomial exponent"), integer(b, "monomial exponent")),
                  integer(c, "coefficient")) for (a, b), c in terms]
        return RingElem(self, pa.bnorm(terms, self.p, self.rels))

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
                if not pa.in_mono_ideal((a, b), self.rels)]

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
            payloads = (pa.pnorm(c, self.p) for c in iter_product(range(self.p), repeat=deg))
        else:
            basis = self.normal_monomials()
            count = self.p ** len(basis)
            payloads = (pa.bnorm(list(zip(basis, c)), self.p, self.rels)
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


class RingElem:
    """An element of `ring`, equal and hashed by (ring, payload)."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring: Ring, payload: object):
        self.ring = ring
        self.payload = payload

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ring, self.payload) == (other.ring, other.payload)

    def __hash__(self) -> int:
        return hash((self.ring, self.payload))

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
            return RingElem(r, pa.padd(self.payload, other.payload, r.p))
        return RingElem(r, pa.badd(self.payload, other.payload, r.p, r.rels))

    def __neg__(self) -> "RingElem":
        r = self.ring
        if r.n is not None:
            return RingElem(r, _zmod(-self.payload, r.n))
        if r.modulus is not None:
            return RingElem(r, pa.pneg(self.payload, r.p))
        return RingElem(r, pa.bneg(self.payload, r.p))

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def __mul__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        r = self.ring
        if r.n is not None:
            return RingElem(r, _zmod(self.payload * other.payload, r.n))
        if r.modulus is not None:
            return RingElem(r, pa.pmod(pa.pmul(self.payload, other.payload, r.p), r.modulus, r.p))
        return RingElem(r, pa.bmul(self.payload, other.payload, r.p, r.rels))

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
        # repr of an int is its decimal string, refused past the int-string limit
        return (decimal(self.payload) if self.ring.n is not None else repr(self.payload),)

    def __str__(self) -> str:
        r = self.ring
        if r.n is not None:
            return decimal(self.payload)
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
            if ring.kind == KIND_BIPOLY and len(g.payload) > 1:
                raise UnsupportedRingError(
                    f"bivariate ideal generator {g} is not a monomial")
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
                g = pa.pgcd(g, e.payload, r.p)
            return RingElem(r, pa.pmod(g, r.modulus, r.p))
        raise UnsupportedRingError(f"{r.describe()} is not treated as a principal ideal ring")

    def _monomial_gens(self) -> tuple[Mono, ...]:
        """The minimal exponent pairs of a bivariate ideal's monomial generators."""
        return pa.minimalize([g.payload[0][0] for g in self.gens])

    # -- membership, radical -------------------------------------------------

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
            return not pa.pmod(e.payload, g, r.p)
        if self.is_zero():
            return e.is_zero()
        gens = self._monomial_gens()
        return all(pa.in_mono_ideal(m, gens) for m, _ in e.payload)

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
            return not pa.ppow(d.payload, max(1, len(g) - 1), r.p, g)
        # bivariate: radical of a monomial ideal is the squarefree-part ideal,
        # together with the squarefree parts of the ring relations (nilpotents).
        gens = [g.payload[0][0] for g in self.gens]
        gens.extend(r.rels or ())
        rad = pa.mono_radical(gens) if gens else ()
        if not rad:
            return d.is_zero()
        return all(pa.in_mono_ideal(m, rad) for m, _ in d.payload)

    # -- products --------------------------------------------------------------

    def times(self, other: "Ideal") -> "Ideal":
        self._same_ring(other)
        return Ideal(self.ring, [a * b for a in self.gens for b in other.gens])

    def _same_ring(self, other: "Ideal") -> None:
        if not isinstance(other, Ideal) or other.ring != self.ring:
            raise InputError("ideal operands live over different rings")

    def _canonical(self):
        """What equality and hashing compare: the PID generator's payload, else
        the minimal monomial exponents."""
        if self.ring.kind != KIND_BIPOLY:
            return self._pid_generator().payload
        return self._monomial_gens()

    def __eq__(self, other) -> bool:
        return (isinstance(other, Ideal) and other.ring == self.ring
                and self._canonical() == other._canonical())

    def __hash__(self) -> int:
        return hash((self.ring, self._canonical()))

    def __repr__(self) -> str:
        inner = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({inner}) of {self.ring.describe()}"
