"""Exact linear algebra over the integers: a Smith form that decomposes modules,
and a Hermite echelon form that answers kernels, preimages and membership.

Matrices are lists of row lists of Python ints, so everything is arbitrary
precision.  Sizes in this project stay small (a handful of generators), which
keeps the classical algorithms comfortably fast.
"""
from __future__ import annotations

import math

Matrix = list[list[int]]


def zeros(m: int, n: int) -> Matrix:
    return [[0] * n for _ in range(m)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def matmul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = len(a), len(a[0]) if a else 0
    # a matrix without rows carries no column count, so it matches any b
    if a and len(b) != ca:
        raise ValueError(f"matmul needs {ca} rows in the right factor, got {len(b)}")
    cb = len(b[0]) if b else 0
    out = zeros(ra, cb)
    for i in range(ra):
        arow = a[i]
        orow = out[i]
        for k in range(ca):
            x = arow[k]
            if x:
                brow = b[k]
                for j in range(cb):
                    orow[j] += x * brow[j]
    return out


def mat_vec(a: Matrix, v: list[int]) -> list[int]:
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if len(a) != len(b):
        raise ValueError(f"hstack needs equal row counts, got {len(a)} and {len(b)}")
    return [ra + rb for ra, rb in zip(a, b)]


def columns(a: Matrix) -> list[list[int]]:
    if not a or not a[0]:
        return []
    return [list(col) for col in zip(*a)]


def from_columns(cols: list[list[int]], rows: int) -> Matrix:
    if any(len(c) != rows for c in cols):
        raise ValueError(f"from_columns needs columns of length {rows}, "
                         f"got {sorted({len(c) for c in cols})}")
    if not cols:
        return [[] for _ in range(rows)]
    return [[c[i] for c in cols] for i in range(rows)]


def smith_with_inverses(a: Matrix):
    """Return (U, Uinv, D) with U @ a @ V == D in Smith form for some unimodular
    V, which is not tracked: kernels are read off the Hermite form instead."""
    m = len(a)
    n = len(a[0]) if m else 0
    d = [row[:] for row in a]
    u, ui = identity(m), identity(m)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for row in ui:
            row[i], row[j] = row[j], row[i]

    def neg_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for row in ui:
            row[i] = -row[i]

    def add_row(i, j, c):
        # row_i += c * row_j
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for row in ui:
            row[j] -= c * row[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]

    def add_col(i, j, c):
        # col_i += c * col_j
        for row in d:
            row[i] += c * row[j]

    size = min(m, n)
    s = 0
    while s < size:
        # locate a pivot of minimal absolute value in the trailing block
        piv = None
        best = None
        for i in range(s, m):
            for j in range(s, n):
                x = d[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != s:
            swap_rows(s, piv[0])
        if piv[1] != s:
            swap_cols(s, piv[1])
        if d[s][s] < 0:
            neg_row(s)
        while True:
            # clear column s
            restart = False
            for i in range(s + 1, m):
                if d[i][s]:
                    q = d[i][s] // d[s][s]
                    add_row(i, s, -q)
                    if d[i][s]:
                        swap_rows(s, i)
                        restart = True
                        break
            if restart:
                continue
            # clear row s
            for j in range(s + 1, n):
                if d[s][j]:
                    q = d[s][j] // d[s][s]
                    add_col(j, s, -q)
                    if d[s][j]:
                        swap_cols(s, j)
                        restart = True
                        break
            if restart:
                continue
            # force divisibility of the remaining block by the pivot
            offender = None
            p = d[s][s]
            for i in range(s + 1, m):
                for j in range(s + 1, n):
                    if d[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(s, offender, 1)
        s += 1
    return u, ui, d


def diagonal_of(d: Matrix) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def kernel_basis(a: Matrix) -> list[list[int]]:
    """Basis (as column vectors) of {x : a @ x == 0} over the integers.

    Read off the Hermite form of the graph lattice spanned by the columns
    (a e_j ; e_j) on m + n rows (Cohen, GTM 138, 2.4.3).  Basis columns are
    zero above their pivots, so those with pivot at row m or below span
    {(0 ; x) : a x = 0}, and their lower parts are a basis of the kernel.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    graph = ColumnEchelonLattice(
        m + n, [[row[j] for row in a] + [int(i == j) for i in range(n)] for j in range(n)])
    return [list(col[m:]) for col, r in zip(graph.basis, graph.pivots) if r >= m]


def preimage(a_cols: list[list[int]], b_cols: list[list[int]], rows: int) -> list[list[int]]:
    """Basis of {c : A @ c in span B} for the columns A, B of length `rows`.

    The c-part of the kernel of [A | B]: A c + B d = 0 puts A c = B(-d) in the
    span of B.  Intersections, preimages and submodule relations are all this.
    """
    return [k[:len(a_cols)] for k in kernel_basis(from_columns([*a_cols, *b_cols], rows))]


class ColumnEchelonLattice:
    """Canonical column-echelon (Hermite-style) basis of an integer column span.

    basis[k] is the k-th basis column; pivot rows are strictly increasing,
    pivots positive, and every entry in a pivot row of an earlier column is
    reduced into [0, pivot).  The form is unique per lattice, so the basis,
    a tuple of tuples that `key` returns, is a canonical identifier, and a
    lattice can be shared.
    """

    __slots__ = ("rows", "basis", "pivots")

    def __init__(self, rows: int, cols: list[list[int]]):
        self.rows = rows
        # insert the columns one at a time; at[r] is the column whose pivot
        # sits at row r, and every column is zero above its pivot
        at: list = [None] * rows
        for col in cols:
            v = col
            for r in range(rows):
                x = v[r]
                if not x:
                    continue
                b = at[r]
                if b is None:
                    at[r] = list(v) if x > 0 else [-y for y in v]
                    break
                p = b[r]
                if x % p:
                    # unimodular step: with s*p + t*x = g = gcd(p, x) the
                    # pivot becomes g, and v loses row r
                    g = math.gcd(p, x)
                    p, x = p // g, x // g
                    t = pow(x, -1, p)
                    s = (1 - t * x) // p
                    at[r] = [s * z + t * y for z, y in zip(b, v)]
                    v = [p * y - x * z for y, z in zip(v, b)]
                else:
                    q = x // p
                    v = [y - q * z for y, z in zip(v, b)]
        pivots = [r for r in range(rows) if at[r] is not None]
        basis = [at[r] for r in pivots]
        # canonical reduction of earlier columns against later pivots
        for k in range(len(basis)):
            for later in range(k + 1, len(basis)):
                r = pivots[later]
                q = basis[k][r] // basis[later][r]
                if q:
                    basis[k] = [x - q * y for x, y in zip(basis[k], basis[later])]
        self.basis = tuple(map(tuple, basis))
        self.pivots = pivots

    @property
    def rank(self) -> int:
        return len(self.basis)

    def key(self) -> tuple:
        return self.basis

    def contains(self, vec: list[int]) -> bool:
        v = list(vec)
        for k, r in enumerate(self.pivots):
            if v[r]:
                piv = self.basis[k][r]
                if v[r] % piv:
                    return False
                q = v[r] // piv
                v = [x - q * y for x, y in zip(v, self.basis[k])]
        return not any(v)

    def contains_all(self, cols: list[list[int]]) -> bool:
        return all(self.contains(c) for c in cols)

    def determinant_index(self) -> int:
        """Product of pivots: the group order of Z^rows / lattice when full rank."""
        out = 1
        for k, _ in enumerate(self.pivots):
            out *= self.basis[k][self.pivots[k]]
        return out
