"""Finite-dimensional representations of finite acyclic quivers over prime fields.

A representation assigns F_p^d to each vertex and a (target x source) matrix
to each arrow.  Subrepresentations are per-vertex subspaces stable under all
arrow maps; their canonical form is the tuple of RREF bases, which gives
deterministic enumeration order and cheap equality.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct

from .errors import InputError
from .modlinalg import Subspace, all_subspaces, kernel_mod, mat_vec_mod
from .primes import is_prime

ENUM_DIM_BOUND = 4
ENUM_PRIMES = (2, 3, 5)


class Quiver:
    __slots__ = ("vertex_count", "arrows")

    def __init__(self, vertex_count: int, arrows):
        if vertex_count < 1:
            raise InputError("a quiver needs at least one vertex")
        arr = []
        for s, t in arrows:
            s, t = int(s), int(t)
            if not (0 <= s < vertex_count and 0 <= t < vertex_count):
                raise InputError(f"arrow ({s},{t}) references a missing vertex")
            arr.append((s, t))
        self.vertex_count = vertex_count
        self.arrows = tuple(arr)
        if not self._is_acyclic():
            raise InputError("quiver has a directed cycle")

    def _is_acyclic(self) -> bool:
        # Kahn: strip vertices without incoming arrows until none is left
        indeg = [0] * self.vertex_count
        for _, t in self.arrows:
            indeg[t] += 1
        ready = [v for v in range(self.vertex_count) if indeg[v] == 0]
        stripped = 0
        while ready:
            v = ready.pop()
            stripped += 1
            for s, t in self.arrows:
                if s == v:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        ready.append(t)
        return stripped == self.vertex_count

    def __eq__(self, other):
        return (isinstance(other, Quiver) and other.vertex_count == self.vertex_count
                and other.arrows == self.arrows)

    def __hash__(self):
        return hash((self.vertex_count, self.arrows))

    def __repr__(self):
        return f"Quiver({self.vertex_count} vertices, arrows={list(self.arrows)})"


def a_n_quiver(n: int) -> Quiver:
    """The linearly oriented A_n quiver 0 -> 1 -> ... -> n-1."""
    return Quiver(n, [(i, i + 1) for i in range(n - 1)])


@lru_cache(maxsize=64)
def _is_prime_field(p: int) -> bool:
    """is_prime, once per characteristic: quotients and subrepresentations
    built inside the torsion-part loop all share their ambient's p."""
    return is_prime(p)


class QuiverRep:
    __slots__ = ("quiver", "p", "dims", "maps")

    def __init__(self, quiver: Quiver, p: int, dims, maps):
        if not _is_prime_field(p):
            raise InputError(f"representations need a prime field, got p={p!r}")
        dims = tuple(int(d) for d in dims)
        if len(dims) != quiver.vertex_count:
            raise InputError("one dimension per vertex required")
        if any(d < 0 for d in dims):
            raise InputError("dimensions must be >= 0")
        if len(maps) != len(quiver.arrows):
            raise InputError("one matrix per arrow required")
        norm_maps = []
        for (s, t), mat in zip(quiver.arrows, maps):
            rows = [tuple(int(x) % p for x in row) for row in mat]
            if len(rows) != dims[t] or any(len(r) != dims[s] for r in rows):
                raise InputError(
                    f"arrow ({s},{t}) needs a {dims[t]}x{dims[s]} matrix")
            norm_maps.append(tuple(rows))
        self.quiver = quiver
        self.p = p
        self.dims = dims
        self.maps = tuple(norm_maps)

    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def support(self) -> list[int]:
        return [v for v, d in enumerate(self.dims) if d > 0]

    def key(self):
        return (self.dims, self.maps)

    def __eq__(self, other):
        return (isinstance(other, QuiverRep) and other.quiver == self.quiver
                and other.p == self.p and other.key() == self.key())

    def __hash__(self):
        return hash((self.quiver, self.p, self.key()))

    def __repr__(self):
        return f"QuiverRep(p={self.p}, dims={self.dims})"


def simple_rep(quiver: Quiver, p: int, vertex: int) -> QuiverRep:
    dims = [1 if v == vertex else 0 for v in range(quiver.vertex_count)]
    maps = [[[0] * dims[s] for _ in range(dims[t])] for s, t in quiver.arrows]
    return QuiverRep(quiver, p, dims, maps)


class SubRep:
    """A subrepresentation: one canonical `Subspace` per vertex of the ambient.

    Only the library builds one (`iter_subreps`, `zero`/`full`, `sum`/
    `intersect` and the quiver handle), so it is stored as given.  Arrow
    stability is tested where a tuple is used: the enumeration prunes on it,
    and `_adapted_blocks` refuses an unstable tuple before anything is built.
    """

    __slots__ = ("ambient", "spaces")

    def __init__(self, ambient: QuiverRep, spaces):
        self.ambient = ambient
        self.spaces = tuple(spaces)

    @staticmethod
    def zero(ambient: QuiverRep) -> "SubRep":
        return SubRep(ambient, [Subspace.zero(ambient.p, d) for d in ambient.dims])

    @staticmethod
    def full(ambient: QuiverRep) -> "SubRep":
        return SubRep(ambient, [Subspace.full(ambient.p, d) for d in ambient.dims])

    def dims(self) -> tuple[int, ...]:
        return tuple(sp.rank for sp in self.spaces)

    def total_dim(self) -> int:
        return sum(sp.rank for sp in self.spaces)

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def is_full(self) -> bool:
        return self.dims() == self.ambient.dims

    def key(self):
        return tuple(sp.rows for sp in self.spaces)

    def sort_token(self):
        return (self.total_dim(), self.dims(), self.key())

    def contains(self, other: "SubRep") -> bool:
        return all(a.contains_space(b) for a, b in zip(self.spaces, other.spaces))

    def sum(self, other: "SubRep") -> "SubRep":
        return SubRep(self.ambient, [a.sum(b) for a, b in zip(self.spaces, other.spaces)])

    def intersect(self, other: "SubRep") -> "SubRep":
        return SubRep(self.ambient,
                      [a.intersect(b) for a, b in zip(self.spaces, other.spaces)])

    def as_rep(self) -> QuiverRep:
        """The subrepresentation on its own subspace bases: the upper-left
        blocks of `_adapted_blocks`, so an unstable tuple is refused."""
        amb = self.ambient
        sub_maps, _, _ = _adapted_blocks(amb, self)
        return QuiverRep(amb.quiver, amb.p, self.dims(), sub_maps)

    def __eq__(self, other):
        return (isinstance(other, SubRep) and other.ambient == self.ambient
                and other.key() == self.key())

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"SubRep(dims={self.dims()} of {self.ambient.dims})"


def hom_space(x: QuiverRep, y: QuiverRep) -> list[tuple]:
    """Basis of Hom(x, y): each morphism is a tuple of per-vertex matrices.

    Solves the commuting-square system f_t X_a = Y_a f_s for all arrows.
    """
    if x.quiver != y.quiver or x.p != y.p:
        raise InputError("hom needs the same quiver and prime field")
    p = x.p
    nv = x.quiver.vertex_count
    offsets = []
    total = 0
    for v in range(nv):
        offsets.append(total)
        total += x.dims[v] * y.dims[v]
    if total == 0:
        return []
    rows = []
    for k, (s, t) in enumerate(x.quiver.arrows):
        xa, ya = x.maps[k], y.maps[k]
        for i in range(y.dims[t]):
            for j in range(x.dims[s]):
                row = [0] * total
                # (f_t X_a)_{i,j} = sum_m f_t[i][m] * X_a[m][j]
                for m in range(x.dims[t]):
                    row[offsets[t] + i * x.dims[t] + m] = (row[offsets[t] + i * x.dims[t] + m]
                                                           + xa[m][j]) % p
                # (Y_a f_s)_{i,j} = sum_m Y_a[i][m] * f_s[m][j]
                for m in range(y.dims[s]):
                    row[offsets[s] + m * x.dims[s] + j] = (row[offsets[s] + m * x.dims[s] + j]
                                                           - ya[i][m]) % p
                if any(row):
                    rows.append(row)
    basis_vecs = kernel_mod(rows, p) if rows else [
        tuple(1 if i == j else 0 for i in range(total)) for j in range(total)]
    out = []
    for vec in basis_vecs:
        mats = []
        for v in range(nv):
            mat = [[vec[offsets[v] + i * x.dims[v] + j] for j in range(x.dims[v])]
                   for i in range(y.dims[v])]
            mats.append(tuple(tuple(r) for r in mat))
        out.append(tuple(mats))
    return out


@lru_cache(maxsize=None)
def _subspaces_by_rank(p: int, d: int) -> tuple[tuple[Subspace, ...], ...]:
    """The subspaces of F_p^d, entry e holding those of rank e sorted by rows.

    Built once per (p, d) and per process; callers only read the shared
    Subspace objects.  ENUM_PRIMES and ENUM_DIM_BOUND keep the keys few.
    """
    by_rank: list[list[Subspace]] = [[] for _ in range(d + 1)]
    for sp in all_subspaces(p, d):
        by_rank[sp.rank].append(sp)
    return tuple(tuple(sorted(spaces, key=lambda sp: sp.rows)) for spaces in by_rank)


def iter_subreps(x: QuiverRep):
    """All arrow-stable subspace tuples, lazily, in `SubRep.sort_token` order.

    The bounds are checked here, at the call, and not at the first next():
    a refusal must come before callers build anything else.
    """
    if x.p not in ENUM_PRIMES:
        raise InputError(f"subrepresentation enumeration supports p in {ENUM_PRIMES}")
    if any(d > ENUM_DIM_BOUND for d in x.dims):
        raise InputError(
            f"per-vertex dimension exceeds the enumeration bound {ENUM_DIM_BOUND}")
    return _subreps_in_order(x)


def _subreps_in_order(x: QuiverRep):
    # sort_token is (total_dim, dims, key) and key is the tuple of per-vertex
    # rows, so walking the rank vectors by (total, vector) and, for each, the
    # vertices in index order over subspaces sorted by rows emits sorted keys
    p = x.p
    n = x.quiver.vertex_count
    tables = [_subspaces_by_rank(p, d) for d in x.dims]
    # each arrow is checked once both of its ends are chosen
    checks: list[list[tuple]] = [[] for _ in range(n)]
    for k, (s, t) in enumerate(x.quiver.arrows):
        checks[max(s, t)].append((x.maps[k], s, t))
    chosen: list = [None] * n

    def fill(v: int, ranks):
        if v == n:
            yield SubRep(x, chosen)
            return
        for sp in tables[v][ranks[v]]:
            chosen[v] = sp
            if all(chosen[t].contains(mat_vec_mod(mat, vec, p))
                   for mat, s, t in checks[v] for vec in chosen[s].rows):
                yield from fill(v + 1, ranks)

    for ranks in sorted(iproduct(*(range(d + 1) for d in x.dims)),
                        key=lambda e: (sum(e), e)):
        yield from fill(0, ranks)


def quotient_rep(x: QuiverRep, sub: SubRep):
    """(quotient representation, per-vertex projection matrices).

    The quotient's arrows are the lower-right blocks of `_adapted_blocks` and
    the projections its quotient functionals; a sub of another ambient, or an
    unstable tuple, is refused.
    """
    _, quo_maps, projections = _adapted_blocks(x, sub)
    q = QuiverRep(x.quiver, x.p, [len(proj) for proj in projections], quo_maps)
    return q, projections


def _adapted_blocks(x: QuiverRep, sub: SubRep):
    """Each arrow matrix of x in the basis adapted to sub, cut into blocks.

    At each vertex the basis is sub's RREF rows followed by the unit vectors
    of the non-pivot columns.  A vector u has coordinates u[pivot] on the rows
    and the values of sub's quotient functionals on the unit vectors, so an
    arrow s -> t with matrix M, and r_j the source rows of sub, has
      - upper left: M r_j read at the target pivots (the sub's arrow);
      - lower left: the target functionals on M r_j, zero iff sub is stable;
      - lower right: the target functionals on M e_c for each non-pivot
        source column c (the quotient's arrow).
    Returns (sub maps, quotient maps, per-vertex quotient functionals), maps
    as tuples of row tuples; raises InputError if sub lives in another
    representation or a lower-left block is not zero.
    """
    if sub.ambient is not x and sub.ambient != x:
        raise InputError("subrepresentation does not live in the given representation")
    p = x.p
    spaces = sub.spaces
    functionals = [sp.quotient_functionals() for sp in spaces]
    sub_maps, quo_maps = [], []
    for (s, t), mat in zip(x.quiver.arrows, x.maps):
        source, target, proj = spaces[s], spaces[t], functionals[t]
        images = [mat_vec_mod(mat, row, p) for row in source.rows]
        if any(any(mat_vec_mod(proj, img, p)) for img in images):
            raise InputError("subspaces are not stable under the arrow maps")
        sub_maps.append(tuple(tuple(img[c] for img in images) for c in target.pivots))
        free = [c for c in range(x.dims[s]) if c not in source.pivots]
        quo_maps.append(tuple(
            tuple(sum(f[i] * mat[i][c] for i in range(len(f))) % p for c in free)
            for f in proj))
    return tuple(sub_maps), tuple(quo_maps), functionals


def single_vertex_support(x: QuiverRep) -> bool:
    """True iff the representation is concentrated in one vertex."""
    return len(x.support()) == 1
