"""Shared independent oracles for the test suite.

Everything in here deliberately avoids the library's production code paths:
brute-force closures, exhaustive map enumeration, and test-local polynomial
arithmetic, so the cross-checks mean something.
"""
from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

from hypothesis import strategies as st


def brute_subgroups(deltas: list[int]) -> set[frozenset]:
    """All subgroups of Z/d_1 + ... + Z/d_k as frozensets of element tuples.

    BFS over one-generator extensions; extending a subgroup H by g only needs
    the union of the cosets H + j*g, which keeps the closure linear in the
    result size.
    """
    all_elems = list(itertools.product(*[range(d) for d in deltas]))
    zero = tuple(0 for _ in deltas)

    def add(a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, deltas))

    def extend(h: frozenset, g) -> frozenset:
        out = set(h)
        shift = g
        while shift not in out:
            out.update(add(x, shift) for x in h)
            shift = add(shift, g)
        return frozenset(out)

    trivial = frozenset([zero])
    subs = {trivial}
    frontier = [trivial]
    while frontier:
        new = []
        for h in frontier:
            for g in all_elems:
                if g in h:
                    continue
                key = extend(h, g)
                if key not in subs:
                    subs.add(key)
                    new.append(key)
        frontier = new
    return subs


def brute_additive_maps(a: int, b: int) -> int:
    """Number of additive maps Z/a -> Z/b by checking full value tables."""
    tables = set()
    for c in range(b):
        table = tuple((k * c) % b for k in range(a))
        if all(table[(i + j) % a] == (table[i] + table[j]) % b
               for i in range(a) for j in range(a)):
            tables.add(table)
    return len(tables)


def brute_set_maps_additive(a: int, b: int) -> int:
    """Exhaustive search over all set maps Z/a -> Z/b (tiny cases only)."""
    count = 0
    for values in itertools.product(range(b), repeat=a):
        if values[0] != 0:
            continue
        if all(values[(i + j) % a] == (values[i] + values[j]) % b
               for i in range(a) for j in range(a)):
            count += 1
    return count


def _unimodular(rng, n: int) -> list[list[int]]:
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = rng.randint(-3, 3)
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        if rng.random() < 0.3:
            m[i] = [-a for a in m[i]]
    return m


def dense_relations(rng, orders) -> tuple[int, list[list[int]]]:
    """(n, U diag(d) V) for random unimodular U and V, where d is `orders`
    shuffled with up to one unit factor: a dense presentation of the sum of
    the Z/d_i (an order 0 is a free summand)."""
    d = list(orders) + [1] * rng.randint(0, 1)
    rng.shuffle(d)
    n = len(d)
    u, v = _unimodular(rng, n), _unimodular(rng, n)
    ud = [[u[i][k] * d[k] for k in range(n)] for i in range(n)]
    return n, [[sum(ud[i][k] * v[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]


# divisors of n for the rings Z/n that dense_module_data draws from
ZMOD_ORDERS = {n: [d for d in range(1, n + 1) if n % d == 0] for n in (4, 6, 8, 9, 12, 36)}


@st.composite
def dense_module_data(draw, groups):
    """(n, orders, gens, relations) of a dense presentation of the sum of the
    Z/d for d in orders: over Z (n = 0) with orders drawn from `groups`, or
    over Z/n with at most two factors."""
    n = draw(st.sampled_from([0, *ZMOD_ORDERS]))
    if n:
        orders = draw(st.lists(st.sampled_from(ZMOD_ORDERS[n]), min_size=1, max_size=2))
    else:
        orders = draw(st.sampled_from(groups))
    return (n, orders, *dense_relations(random.Random(draw(st.integers(0, 2 ** 32))), orders))


def rational_rank(rows: list[list[int]]) -> int:
    """Rank over Q by fraction Gaussian elimination (oracle for integer matrices)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    rank = 0
    for col in range(n):
        piv = None
        for r in range(rank, m):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(m):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


# -- tiny standalone polynomial arithmetic over F_p (oracle for F_p[x] ranks) --


def poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_add(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
           for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by a non-zero b over F_p (schoolbook long division)."""
    out = [c % p for c in a]
    inv = pow(b[-1], p - 2, p)
    while out and out[-1] == 0:
        out.pop()
    while len(out) >= len(b):
        f = (out[-1] * inv) % p
        shift = len(out) - len(b)
        for i, c in enumerate(b):
            out[shift + i] = (out[shift + i] - f * c) % p
        while out and out[-1] == 0:
            out.pop()
    return out


def poly_quotient_has_zero_divisors(f: list[int], p: int) -> bool:
    """Whether F_p[x]/(f), f monic, has non-zero a, b with a*b = 0.

    Leading coefficients and constants are units, so the search runs over
    the monic a, b of degree 1 .. deg f - 1.
    """
    monic = [list(tail) + [1] for deg in range(1, len(f) - 1)
             for tail in itertools.product(range(p), repeat=deg)]
    return any(not poly_mod(poly_mul(a, b, p), f, p)
               for i, a in enumerate(monic) for b in monic[i:])


def poly_matrix_rank(rows: list[list[list[int]]], p: int) -> int:
    """Rank of a matrix of F_p[x] polynomials over the fraction field,
    via the largest order with a non-vanishing minor (Laplace, test-local)."""
    m = len(rows)
    n = len(rows[0]) if m else 0

    def det(rs, cs):
        if len(rs) == 1:
            return rows[rs[0]][cs[0]]
        acc: list[int] = []
        sign = 1
        for pos, c in enumerate(cs):
            term = poly_mul(rows[rs[0]][c], det(rs[1:], cs[:pos] + cs[pos + 1:]), p)
            if sign < 0:
                term = [(-x) % p for x in term]
            acc = poly_add(acc, term, p)
            sign = -sign
        return acc

    best = 0
    for order in range(1, min(m, n) + 1):
        found = False
        for rs in itertools.combinations(range(m), order):
            for cs in itertools.combinations(range(n), order):
                if det(rs, cs):
                    found = True
                    break
            if found:
                break
        if found:
            best = order
    return best


# -- subrepresentations by exhaustive subset search (oracle for iter_subreps) --

# small acyclic quivers for the property tests: (vertex count, (source, target) arrows)
QUIVER_SHAPES = {
    "A2": (2, ((0, 1),)),
    "A3": (3, ((0, 1), (1, 2))),
    "sink": (3, ((0, 2), (1, 2))),
    "source": (3, ((2, 0), (2, 1))),
    "double-arrow": (2, ((0, 1), (0, 1))),
    "triangle": (3, ((0, 1), (1, 2), (0, 2))),
}


@st.composite
def small_rep_data(draw, max_dim=None):
    """(vertex count, arrows, p, dims, maps) of a random representation of one of
    the QUIVER_SHAPES over F_2 or F_3; dims <= max_dim[p] (default 3 over F_2, 2 over F_3)."""
    max_dim = max_dim or {2: 3, 3: 2}
    vertex_count, arrows = draw(st.sampled_from(list(QUIVER_SHAPES.values())))
    p = draw(st.sampled_from(sorted(max_dim)))
    dims = draw(st.lists(st.integers(0, max_dim[p]),
                         min_size=vertex_count, max_size=vertex_count))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    maps = [[[rng.randrange(p) for _ in range(dims[s])] for _ in range(dims[t])]
            for s, t in arrows]
    return vertex_count, arrows, p, dims, maps


@functools.lru_cache(maxsize=None)
def _closed_subsets(p: int, d: int) -> tuple[frozenset, ...]:
    """Every subset of F_p^d that contains 0 and is closed under + and scaling.

    Checks all 2^(p^d - 1) candidate subsets, so only for p^d <= 9.
    """
    vectors = list(itertools.product(range(p), repeat=d))
    zero, others = vectors[0], vectors[1:]
    out = []
    for mask in itertools.product((False, True), repeat=len(others)):
        subset = frozenset([zero] + [v for v, keep in zip(others, mask) if keep])
        sums = {tuple((a + b) % p for a, b in zip(u, v)) for u in subset for v in subset}
        multiples = {tuple((c * a) % p for a in u) for u in subset for c in range(p)}
        if sums <= subset and multiples <= subset:
            out.append(subset)
    return tuple(out)


def brute_subreps(quiver, p: int, dims, maps) -> set[tuple[frozenset, ...]]:
    """All subrepresentations as tuples of per-vertex vector sets.

    Per vertex, every subset of F_p^d closed under addition and scaling; then
    the tuples whose arrow maps send each vector of the source set into the
    target set.  `quiver.arrows` lists (source, target) pairs and `maps[k]` is
    the (dims[target] x dims[source]) matrix of arrow k.
    """
    def apply(mat, vec):
        return tuple(sum(row[j] * vec[j] for j in range(len(vec))) % p for row in mat)

    out = set()
    for choice in itertools.product(*[_closed_subsets(p, d) for d in dims]):
        if all(apply(maps[k], u) in choice[t]
               for k, (s, t) in enumerate(quiver.arrows) for u in choice[s]):
            out.add(choice)
    return out


def span(sp, p: int) -> frozenset:
    """All vectors of the row space of a subspace (its `rows` of length
    `dim`), by linear combinations computed here."""
    return frozenset(
        tuple(sum(c * row[i] for c, row in zip(coeffs, sp.rows)) % p for i in range(sp.dim))
        for coeffs in itertools.product(range(p), repeat=len(sp.rows)))


def simple_rep(quiver, p: int, vertex: int):
    """The simple representation at `vertex`: F_p there, 0 elsewhere, zero maps.
    A builder of test inputs, not an oracle."""
    from torsion_lab.quiver import QuiverRep
    dims = [1 if v == vertex else 0 for v in range(quiver.vertex_count)]
    maps = [[[0] * dims[s] for _ in range(dims[t])] for s, t in quiver.arrows]
    return QuiverRep(quiver, p, dims, maps)
