"""Primality testing and integer factorisation for invariant-factor analysis.

Deterministic Miller-Rabin below 3.3e24, trial division plus Pollard rho
beyond the small range.  All arithmetic is arbitrary precision.
"""
from __future__ import annotations

import math

from .errors import WorkBudgetError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Witness set proven sufficient for n < 3.317e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Brent-rho steps allowed per composite cofactor: enough for any prime factor
# below about 1e11, and about a second of work on a 128-bit cofactor.
_RHO_BUDGET = 1_000_000

# rho steps whose differences are multiplied together before one gcd
_GCD_BATCH = 128


def _pollard_rho(n: int) -> int:
    """A non-trivial factor of the odd composite n, by Brent's rho (BIT 20, 1980).

    Raises WorkBudgetError naming n when _RHO_BUDGET steps, counted over every
    polynomial x^2 + c tried, find no factor.
    """
    steps = 0
    c = 1
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps > _RHO_BUDGET:
                raise WorkBudgetError(
                    f"could not split the composite cofactor {n} within "
                    f"{_RHO_BUDGET} Pollard rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_GCD_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _GCD_BATCH
            steps += 2 * r
            r *= 2
        if g == n:
            # the batch overshot: redo its steps one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 41
    while p * p <= n and p < 100000:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def prime_divisors(n: int) -> list[int]:
    """Sorted distinct prime divisors of |n| (n != 0)."""
    return sorted(factorize(abs(n)))


def p_adic_valuation(n: int, p: int) -> int:
    """The exponent of p in n != 0; p < 2 is refused, since p = 1 would never
    stop dividing."""
    if p < 2:
        raise ValueError("valuation needs a base p >= 2")
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
