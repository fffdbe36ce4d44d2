"""Dense linear algebra over prime fields F_p, plus subspace enumeration.

Vectors are tuples of ints in [0, p); subspaces are canonical row-reduced
echelon bases, so two subspaces of F_p^d are equal iff their rows are.
"""
from __future__ import annotations

from itertools import combinations, product

Vec = tuple[int, ...]


def mat_vec_mod(mat, v: Vec, p: int) -> Vec:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) % p for row in mat)


def matmul_mod(a, b, p: int):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            x = a[i][k] % p
            if x:
                for j in range(cols):
                    out[i][j] = (out[i][j] + x * b[k][j]) % p
    return out


def rref(rows_in, p: int) -> tuple[list[list[int]], list[int]]:
    """Row-reduced echelon form; returns (nonzero rows, pivot column list)."""
    mat = [list(map(lambda x: x % p, r)) for r in rows_in]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


def kernel_mod(mat, p: int) -> list[Vec]:
    """Basis of the right kernel {x : mat @ x == 0 mod p}."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    red, pivots = rref(mat, p)
    free = [c for c in range(n) if c not in pivots]
    out = []
    for c in free:
        vec = [0] * n
        vec[c] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-red[r][c]) % p
        out.append(tuple(vec))
    return out


class Subspace:
    """Subspace of F_p^dim held as a canonical RREF row basis; compare `rows`."""

    __slots__ = ("p", "dim", "rows", "pivots")

    def __init__(self, p: int, dim: int, vectors) -> None:
        self.p = p
        self.dim = dim
        red, piv = rref([list(v) for v in vectors], p) if vectors else ([], [])
        self.rows = tuple(tuple(r) for r in red)
        self.pivots = tuple(piv)

    @classmethod
    def full(cls, p: int, dim: int) -> "Subspace":
        # the identity rows are already reduced, with pivot i in row i
        space = cls(p, dim, [])
        space.rows = tuple(tuple(int(j == i) for j in range(dim)) for i in range(dim))
        space.pivots = tuple(range(dim))
        return space

    @classmethod
    def zero(cls, p: int, dim: int) -> "Subspace":
        return cls(p, dim, [])

    @property
    def rank(self) -> int:
        return len(self.rows)

    def quotient_functionals(self) -> list[list[int]]:
        """Rows e_c - sum_r rows[r][c] e_{pivots[r]}, one per non-pivot column c.

        Together they cut out the subspace: a vector u lies in it iff every row
        vanishes on u, and then u = sum_r u[pivots[r]] rows[r].  As a matrix
        they are the projection onto F_p^dim / subspace in the coordinates of
        the non-pivot columns.
        """
        out = []
        for c in range(self.dim):
            if c in self.pivots:
                continue
            row = [0] * self.dim
            row[c] = 1
            for r, pc in enumerate(self.pivots):
                row[pc] = (-self.rows[r][c]) % self.p
            out.append(row)
        return out

    def contains(self, vec) -> bool:
        v = [x % self.p for x in vec]
        for r, pc in enumerate(self.pivots):
            if v[pc]:
                f = v[pc]
                v = [(x - f * y) % self.p for x, y in zip(v, self.rows[r])]
        return not any(v)

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace(self.p, self.dim, list(self.rows) + list(other.rows))

    def preimage(self, mat, src_dim: int) -> "Subspace":
        """{u in F_p^src_dim : mat @ u in self} for a dim x src_dim matrix.

        The kernel of quotient_functionals() @ mat; the whole source when the
        subspace is everything and there are no functionals.
        """
        functionals = self.quotient_functionals()
        if not functionals:
            return Subspace.full(self.p, src_dim)
        return Subspace(self.p, src_dim,
                        kernel_mod(matmul_mod(functionals, mat, self.p), self.p))

    def intersect(self, other: "Subspace") -> "Subspace":
        # x = A^T c with A^T c in other: the image of other's preimage under A^T
        at = [[row[r] for row in self.rows] for r in range(self.dim)]
        coeffs = other.preimage(at, len(self.rows))
        return Subspace(self.p, self.dim, [mat_vec_mod(at, c, self.p) for c in coeffs.rows])

    def __repr__(self) -> str:
        return f"Subspace(p={self.p}, dim={self.dim}, rank={self.rank})"


def all_subspaces(p: int, dim: int) -> list[Subspace]:
    """Every subspace of F_p^dim, enumerated via canonical RREF matrices."""
    out = [Subspace.zero(p, dim)]
    for k in range(1, dim + 1):
        for pivot_cols in combinations(range(dim), k):
            free_positions = []
            for r in range(k):
                for c in range(pivot_cols[r] + 1, dim):
                    if c not in pivot_cols:
                        free_positions.append((r, c))
            for fill in product(range(p), repeat=len(free_positions)):
                rows = [[0] * dim for _ in range(k)]
                for r in range(k):
                    rows[r][pivot_cols[r]] = 1
                for (r, c), val in zip(free_positions, fill):
                    rows[r][c] = val
                out.append(Subspace(p, dim, rows))
    return out
