"""Independent arithmetic used to check the program's outputs.

Nothing here imports torsion_lab: every expected value is computed from first
principles (trial division, partition counts, Gaussian binomials, brute-force
determinants), so a fault in the program cannot also hide in its check.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from math import prod


def factor(n: int) -> dict[int, int]:
    """Prime factorisation of n >= 1 by trial division (orders stay small)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def is_prime_power(n: int) -> bool:
    return len(factor(n)) == 1


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (first thirteen prime bases)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n


# -- abelian groups ----------------------------------------------------------


def partitions(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n into parts <= cap, each as a non-increasing tuple."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, cap), 0, -1)
            for rest in partitions(n - k, k)]


def group_types(n: int) -> list[tuple[int, ...]]:
    """Every abelian group of order n, as its sorted list of prime-power orders."""
    types = [()]
    for p, e in sorted(factor(n).items()):
        types = [t + tuple(p ** k for k in lam) for t in types for lam in partitions(e)]
    return types


def group_count(n: int) -> int:
    """Number of abelian groups of order n: the product of partition counts."""
    return prod(len(partitions(e)) for e in factor(n).values())


def _conjugate(lam) -> list[int]:
    return [sum(1 for x in lam if x > i) for i in range(max(lam, default=0))]


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _contained_partitions(lam: tuple[int, ...]):
    def rec(i: int, cap: int):
        if i == len(lam):
            yield ()
            return
        for m in range(min(lam[i], cap), -1, -1):
            for rest in rec(i + 1, m):
                yield (m,) + rest

    for mu in rec(0, lam[0] if lam else 0):
        yield tuple(x for x in mu if x)


@lru_cache(maxsize=None)
def p_group_subgroup_count(lam: tuple[int, ...], p: int) -> int:
    """Subgroups of the abelian p-group of type lam (Birkhoff's formula).

    Sums, over every type mu contained in lam, the number of subgroups of type
    mu: prod_i p^(mu'_{i+1} (lam'_i - mu'_i)) [lam'_i - mu'_{i+1}, mu'_i - mu'_{i+1}]_p.
    """
    lc = _conjugate(lam)
    total = 0
    for mu in _contained_partitions(lam):
        mc = _conjugate(mu) + [0] * (len(lc) + 1)
        term = 1
        for i, li in enumerate(lc):
            nxt = mc[i + 1]
            term *= p ** (nxt * (li - mc[i])) * _gaussian_binomial(li - nxt, mc[i] - nxt, p)
        total += term
    return total


def subgroup_count(orders) -> int:
    """Subgroups of the direct sum of cyclic groups of prime-power orders."""
    by_prime: dict[int, list[int]] = {}
    for q in orders:
        ((p, e),) = factor(q).items()
        by_prime.setdefault(p, []).append(e)
    return prod(p_group_subgroup_count(tuple(sorted(es, reverse=True)), p)
                for p, es in by_prime.items())


# -- quiver representations --------------------------------------------------


def a2_rep_count(max_dim: int, p: int = 2) -> int:
    """Non-zero A2 representations with per-vertex dimension <= max_dim."""
    return sum(p ** (d1 * d2) for d1 in range(max_dim + 1)
               for d2 in range(max_dim + 1)) - 1


# -- matrices over Z/n -------------------------------------------------------


def _det_mod(mat: list[list[int]], n: int) -> int:
    """Determinant mod n by the Leibniz sum (matrices here are at most 3x3)."""
    size = len(mat)
    total = 0
    for perm in permutations(range(size)):
        inversions = sum(1 for i, j in combinations(range(size), 2) if perm[i] > perm[j])
        term = prod(mat[i][perm[i]] for i in range(size))
        total += -term if inversions % 2 else term
    return total % n


def mccoy_rank_mod(mat: list[list[int]], n: int) -> int:
    """Largest r whose r x r minors have zero annihilator in Z/n (brute force)."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    rank = 0
    for r in range(min(rows, cols) + 1):
        if r == 0:
            minors = [1]
        else:
            minors = [_det_mod([[mat[i][j] for j in cs] for i in rs], n)
                      for rs in combinations(range(rows), r)
                      for cs in combinations(range(cols), r)]
        if not any(all(a * m % n == 0 for m in minors) for a in range(1, n)):
            rank = r
    return rank


def apply_mod(mat: list[list[int]], vec: list[int], n: int) -> list[int]:
    return [sum(a * v for a, v in zip(row, vec)) % n for row in mat]
