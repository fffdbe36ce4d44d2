"""Arithmetic of F_p[x] and of the bivariate monomial quotients F_p[x,y]/(monomials).

A univariate payload is a coefficient tuple in ascending degree, reduced mod
p, with no trailing zero.  A monomial is its exponent pair (a, b), and a
bivariate payload is the sorted tuple of its ((a, b), coeff) terms with coeff
in [1, p).  `rings` and `mccoy` import this module the first time a ring
other than Z, Z/n or F_p needs it, so integer commands never compile it.
"""
from __future__ import annotations

from .primes import prime_divisors

# ---------------------------------------------------------------------------
# univariate polynomial helpers (coefficient tuples, ascending degree, over F_p)
# ---------------------------------------------------------------------------


def pnorm(coeffs, p: int) -> tuple[int, ...]:
    cs = [c % p for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def padd(a, b, p):
    n = max(len(a), len(b))
    return pnorm([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)], p)


def pneg(a, p):
    return tuple((-c) % p for c in a)


def pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return pnorm(out, p)


def pdivmod(a, b, p):
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
    return pnorm(q, p), pnorm(a, p)


def pmod(a, b, p):
    """a mod b; the zero modulus () of F_p[x] leaves a as it is."""
    return pdivmod(a, b, p)[1] if b else a


def pgcd(a, b, p):
    a, b = pnorm(a, p), pnorm(b, p)
    while b:
        a, b = b, pmod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple((c * inv) % p for c in a)
    return a


def ppow(a, k, p, modulus):
    result = (1,)
    base = a
    while k:
        if k & 1:
            result = pmod(pmul(result, base, p), modulus, p)
        base = pmod(pmul(base, base, p), modulus, p)
        k >>= 1
    return result


def is_irreducible(f, p) -> bool:
    """Rabin's test for a monic f of degree n >= 1 over F_p: f is irreducible
    iff x^(p^n) = x mod f and gcd(x^(p^(n/q)) - x mod f, f) = 1 for every
    prime q | n (Rabin 1980, "Probabilistic algorithms in finite fields")."""
    n = len(f) - 1

    def frobenius_minus_x(k):
        return pmod(padd(ppow((0, 1), p ** k, p, f), (0, p - 1), p), f, p)

    return (not frobenius_minus_x(n)
            and all(pgcd(frobenius_minus_x(n // q), f, p) == (1,) for q in prime_divisors(n)))


# ---------------------------------------------------------------------------
# bivariate monomial helpers (monomials are exponent pairs (a, b))
# ---------------------------------------------------------------------------

Mono = tuple[int, int]


def mono_divides(d: Mono, m: Mono) -> bool:
    return d[0] <= m[0] and d[1] <= m[1]


def mono_mul(a: Mono, b: Mono) -> Mono:
    return (a[0] + b[0], a[1] + b[1])


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return (max(a[0], b[0]), max(a[1], b[1]))


def mono_gcd(a: Mono, b: Mono) -> Mono:
    return (min(a[0], b[0]), min(a[1], b[1]))


def mono_div(a: Mono, b: Mono) -> Mono:
    return (a[0] - b[0], a[1] - b[1])


def minimalize(monos) -> tuple[Mono, ...]:
    """Minimal generating set of the monomial ideal generated by `monos`."""
    out = []
    for m in sorted(set(monos)):
        # a divisor of m is lexicographically <= m, so it was seen before m
        if not any(mono_divides(g, m) for g in out):
            out.append(m)
    return tuple(out)


def in_mono_ideal(m: Mono, gens) -> bool:
    return any(mono_divides(g, m) for g in gens)


def mono_colon(gens, u: Mono) -> tuple[Mono, ...]:
    """(gens : u) for a monomial ideal, exact:  generated by g / gcd(g, u)."""
    return minimalize(mono_div(g, mono_gcd(g, u)) for g in gens)


def mono_radical(gens) -> tuple[Mono, ...]:
    return minimalize((min(a, 1), min(b, 1)) for a, b in gens)


# bivariate payloads: sorted tuples of ((ax, ay), coeff) with coeff in [1, p)


def bnorm(terms, p: int, rels) -> tuple:
    acc: dict[Mono, int] = {}
    for mono, c in terms:
        c %= p
        if not c:
            continue
        if rels and in_mono_ideal(mono, rels):
            continue
        acc[mono] = (acc.get(mono, 0) + c) % p
    return tuple(sorted((m, c) for m, c in acc.items() if c))


def badd(a, b, p, rels):
    return bnorm(list(a) + list(b), p, rels)


def bneg(a, p):
    return tuple((m, (-c) % p) for m, c in a)


def bmul(a, b, p, rels):
    terms = []
    for ma, ca in a:
        for mb, cb in b:
            terms.append((mono_mul(ma, mb), ca * cb))
    return bnorm(terms, p, rels)
