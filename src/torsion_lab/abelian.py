"""Finitely generated modules over Z and Z/n presented by integer relation matrices.

A module is the cokernel of the column map of its relation matrix.  Over Z/n
the lattice of relations always contains n*Z^g, so the same integer machinery
serves both rings; this is also what makes the Z vs Z/n comparison suites
meaningful (identical canonical forms on both sides).
"""
from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import NamedTuple

from . import intlinalg as la
from .errors import InputError, decimal, integer
from .primes import factorize, is_prime, p_adic_valuation, prime_divisors
from .rings import KIND_Z, KIND_ZMOD, Ring

Matrix = list[list[int]]


def _integer_rows(rows, what: str) -> Matrix:
    """rows as lists of ints of one length; an entry that is not an integer
    (a float, a numeric string) is refused, where int() would truncate or parse it."""
    try:
        out = [list(map(operator.index, row)) for row in rows]
    except TypeError:
        raise InputError(f"{what} entries must be integers") from None
    if len(set(map(len, out))) > 1:
        raise InputError(f"{what} rows must have equal length")
    return out


def _divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1 in ascending order, built from its factorisation."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


class PrimeSet:
    """A finite set of associated primes of Spec Z (or Spec Z/n)."""

    __slots__ = ("primes", "includes_zero")

    def __init__(self, primes, includes_zero: bool = False):
        self.primes = tuple(sorted(set(primes)))
        self.includes_zero = includes_zero

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.primes, self.includes_zero) == (other.primes, other.includes_zero)

    def __hash__(self) -> int:
        return hash((self.primes, self.includes_zero))

    def __len__(self) -> int:
        return len(self.primes) + (1 if self.includes_zero else 0)

    def as_list(self) -> list:
        out: list = [0] if self.includes_zero else []
        return out + list(self.primes)


# The most presentations whose Smith decomposition, and separately whose
# relation lattice, one process keeps.  An entry is a pure function of the
# exact presentation and holds no verdict.  On a handful of generators it
# takes about 1 KB, so the two caches stay under about 10 MB; the 656 items
# of the gabriel-axioms benchmark fill 1,101 and 283 entries.
PRESENTATION_CACHE_SIZE = 4096


def _full_relation_matrix(presentation: tuple) -> Matrix:
    """Relations plus n*I over Z/n, so the lattice is the true relation lattice."""
    ring, gens, relations = presentation
    rels = [list(row) for row in relations]
    if ring.n:
        return la.hstack(rels, [[ring.n if i == j else 0 for j in range(gens)]
                                for i in range(gens)])
    return rels


class _Decomposition(NamedTuple):
    """The Smith decomposition of one presentation; see PresentedModule._decomposition."""

    u: tuple
    ui: tuple
    coords: tuple
    ui_is_identity: bool
    free: int
    factors: tuple


@lru_cache(maxsize=PRESENTATION_CACHE_SIZE)
def _decompose(presentation: tuple) -> _Decomposition:
    """PresentedModule._decomposition of the module with this presentation."""
    u, ui, d = la.smith_with_inverses(_full_relation_matrix(presentation))
    diag = la.diagonal_of(d)
    gens = presentation[1]
    deltas = [diag[i] if i < len(diag) else 0 for i in range(gens)]
    coords = tuple((i, delta) for i, delta in enumerate(deltas) if delta != 1)
    return _Decomposition(tuple(map(tuple, u)), tuple(map(tuple, ui)), coords,
                          ui == la.identity(gens), deltas.count(0),
                          tuple(delta for delta in deltas if delta >= 2))


@lru_cache(maxsize=PRESENTATION_CACHE_SIZE)
def _relation_lattice(presentation: tuple) -> la.ColumnEchelonLattice:
    """PresentedModule.relation_lattice of the module with this presentation."""
    return la.ColumnEchelonLattice(presentation[1],
                                   la.columns(_full_relation_matrix(presentation)))


class PresentedModule:
    """Cokernel of an integer relation matrix (g generators, columns = relations)."""

    __slots__ = ("ring", "gens", "relations", "_dec", "_rel_lattice", "_halls")

    def __init__(self, ring: Ring, gens: int, relations: Matrix):
        if ring.kind not in (KIND_Z, KIND_ZMOD):
            raise InputError("presented modules live over Z or Z/n")
        gens = integer(gens, "generator count")
        if gens < 0:
            raise InputError("generator count must be an integer >= 0")
        rels = _integer_rows(relations, "relation matrix")
        if len(rels) != gens:
            raise InputError(f"relation matrix must have {gens} rows, got {len(rels)}")
        if ring.n:
            rels = [[x % ring.n for x in row] for row in rels]
        self.ring = ring
        self.gens = gens
        self.relations = rels
        self._dec = None
        self._rel_lattice = None
        self._halls = None

    # -- presentation-level helpers -----------------------------------------

    def relation_lattice(self) -> la.ColumnEchelonLattice:
        """The Hermite basis of the relations (plus n*Z^g over Z/n), shared by
        every module with the same presentation; callers only read it."""
        if self._rel_lattice is None:
            self._rel_lattice = _relation_lattice(self.presentation())
        return self._rel_lattice

    def _decomposition(self) -> _Decomposition:
        """(u, ui, coords, ui_is_identity, free, factors) for the Smith form
        U M V = D of the full relation matrix M, with ui = U^-1.

        coords = ((index, delta), ...) for delta != 1; delta = 0 marks a free
        coordinate.  The module is the direct sum of Z/delta (resp. Z) over
        coords, and an element with coordinate vector x has generator
        coordinates Uinv @ pad(x).  free and factors are the free rank and
        the invariant factors.  Shared, as tuples, by every module with the
        same presentation.
        """
        if self._dec is None:
            self._dec = _decompose(self.presentation())
        return self._dec

    # -- structure invariants --------------------------------------------------

    def canonical_decomposition(self) -> tuple[int, list[int]]:
        """(free_rank, invariant_factors) with 1 < d1 | d2 | ..."""
        dec = self._decomposition()
        return dec.free, list(dec.factors)

    def is_finite(self) -> bool:
        return self._decomposition().free == 0

    def order(self) -> int:
        if not self.is_finite():
            raise InputError("module is infinite")
        return math.prod(self._decomposition().factors)

    def is_zero(self) -> bool:
        return not self._decomposition().coords

    def coords_to_generators(self, coeffs: list[int]) -> list[int]:
        """Generator coordinates of the element with decomposition coords `coeffs`."""
        dec = self._decomposition()
        vec = [0] * self.gens
        for (idx, _), c in zip(dec.coords, coeffs):
            vec[idx] = c
        return vec if dec.ui_is_identity else la.mat_vec(dec.ui, vec)

    def presentation(self) -> tuple:
        """(ring, gens, relations) as a hashable value, equal exactly for equal
        presentations; subobjects live in generator coordinates, so they are
        shared only between modules with the same presentation."""
        return (self.ring, self.gens, tuple(map(tuple, self.relations)))

    def __eq__(self, other) -> bool:
        # equality of modules, not of presentations
        if not isinstance(other, PresentedModule) or self.ring != other.ring:
            return False
        dec, other_dec = self._decomposition(), other._decomposition()
        return (dec.free, dec.factors) == (other_dec.free, other_dec.factors)

    def __hash__(self):
        dec = self._decomposition()
        return hash((self.ring, dec.free, dec.factors))

    def describe(self) -> str:
        dec = self._decomposition()
        parts = ["Z"] * dec.free + ["Z/" + decimal(d) for d in dec.factors]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"PresentedModule({self.describe()} over {self.ring.describe()})"


# -----------------------------------------------------------------------------
# subobjects
# -----------------------------------------------------------------------------


class Subobject:
    """A submodule given by generator-coordinate columns inside a fixed ambient."""

    __slots__ = ("ambient", "embedding", "_lattice", "_module", "_order")

    def __init__(self, ambient: PresentedModule, embedding: Matrix):
        if len(embedding) != ambient.gens:
            raise InputError("embedding matrix must have one row per ambient generator")
        self.ambient = ambient
        self.embedding = _integer_rows(embedding, "embedding matrix")
        self._lattice = None
        self._module = None
        self._order = None

    @property
    def lattice(self) -> la.ColumnEchelonLattice:
        """Canonical basis of the embedding columns plus the relations, built on
        first use: a subobject that is only summed, composed or tested for
        inclusion in another never needs its own."""
        if self._lattice is None:
            cols = la.columns(self.embedding) + list(self.ambient.relation_lattice().basis)
            self._lattice = la.ColumnEchelonLattice(self.ambient.gens, cols)
        return self._lattice

    @staticmethod
    def zero(ambient: PresentedModule) -> "Subobject":
        """No embedding column; its lattice is the ambient's relation lattice."""
        sub = Subobject(ambient, [[] for _ in range(ambient.gens)])
        sub._lattice = ambient.relation_lattice()
        return sub

    @staticmethod
    def full(ambient: PresentedModule) -> "Subobject":
        return Subobject(ambient, la.identity(ambient.gens))

    @staticmethod
    def from_lattice(ambient: PresentedModule, lattice: la.ColumnEchelonLattice) -> "Subobject":
        """The subobject spanned by a lattice that already contains the
        ambient's relation lattice; it keeps that lattice as its own."""
        sub = Subobject(ambient, la.from_columns(lattice.basis, ambient.gens))
        sub._lattice = lattice
        return sub

    def key(self) -> tuple:
        return self.lattice.key()

    def is_zero(self) -> bool:
        """Order 1 when the order is known in closed form (`_split_subobject`,
        `enumerate_submodules`); otherwise every embedding column is a
        relation: membership in the ambient's shared relation lattice, so no
        lattice of the subobject is built."""
        if self._order is not None:
            return self._order == 1
        return self.ambient.relation_lattice().contains_all(la.columns(self.embedding))

    def is_full(self) -> bool:
        """The whole ambient.  A subobject whose order is known in closed form
        is full exactly when the ambient is finite of that order (a split
        subobject of an infinite ambient is torsion, so never full); otherwise
        its lattice is all of Z^g."""
        if self._order is not None:
            return self.ambient.is_finite() and self._order == self.ambient.order()
        lattice = self.lattice
        return lattice.rank == self.ambient.gens and lattice.determinant_index() == 1

    def contains(self, other: "Subobject") -> bool:
        _require_ambient(self.ambient, other)
        return self.lattice.contains_all(la.columns(other.embedding))

    def order(self) -> int:
        """|w| for a finite ambient: the closed-form order when
        `_split_subobject` or `enumerate_submodules` recorded one, otherwise
        the index of the relation lattice in the subobject's lattice."""
        if not self.ambient.is_finite():
            raise InputError("subobject order needs a finite ambient module")
        if self._order is not None:
            return self._order
        return abs(self.ambient.relation_lattice().determinant_index()
                   // self.lattice.determinant_index())

    def as_module(self) -> PresentedModule:
        """The subobject presented on its own embedding columns, built on first
        use (or preset by `enumerate_submodules`) and kept.  Its relations
        span the preimage of the ambient's relation lattice."""
        if self._module is None:
            emb_cols = la.columns(self.embedding)
            rels = la.preimage(emb_cols, self.ambient.relation_lattice().basis,
                               self.ambient.gens)
            self._module = PresentedModule(self.ambient.ring, len(emb_cols),
                                           la.from_columns(rels, len(emb_cols)))
        return self._module

    def sum(self, other: "Subobject") -> "Subobject":
        _require_ambient(self.ambient, other)
        return Subobject(self.ambient, la.hstack(self.embedding, other.embedding))

    def intersect(self, other: "Subobject") -> "Subobject":
        _require_ambient(self.ambient, other)
        a, gens = self.lattice.basis, self.ambient.gens
        coeffs = la.preimage(a, other.lattice.basis, gens)
        return Subobject(self.ambient,
                         la.matmul(la.from_columns(a, gens), la.from_columns(coeffs, len(a))))

    def sort_token(self):
        """(order, key): the canonical order of the subobjects of a finite module."""
        return (self.order(), self.key())

    def __eq__(self, other) -> bool:
        # the key is in generator coordinates, so the ambients must be the same
        # presentation, not merely isomorphic modules
        return (isinstance(other, Subobject)
                and self.ambient.presentation() == other.ambient.presentation()
                and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Subobject({self.as_module().describe()} in {self.ambient.describe()})"


# -----------------------------------------------------------------------------
# operations
# -----------------------------------------------------------------------------


def _require_ambient(module: PresentedModule, sub: Subobject) -> None:
    """Refuse a subobject of another presentation: its embedding is in that
    presentation's generator coordinates, so its columns mean other elements
    of module, even when the two modules are isomorphic."""
    if sub.ambient is not module and sub.ambient.presentation() != module.presentation():
        raise InputError("the subobject does not live in the given module")


def quotient(module: PresentedModule, sub: Subobject) -> PresentedModule:
    _require_ambient(module, sub)
    return PresentedModule(module.ring, module.gens,
                           la.hstack(module.relations, sub.embedding))


def _subgroup_matrices(deltas: list[int]):
    """(T, S) for all canonical lower-triangular lattice bases T with
    diag(deltas) <= span(T), where T S = diag(deltas).

    Enumerates each subgroup of  Z/d_1 + ... + Z/d_k  exactly once, by solving
    the divisibility congruences row by row instead of filtering a product
    space.  `sols[j]` tracks the partial solution of T x = d_j e_j, and its
    final value is column j of S.  T c lies in span(diag(deltas)) exactly
    when c = T^-1 diag(deltas) y = S y, so the columns of S are the
    relations of the subgroup on the columns of T.
    """
    k = len(deltas)
    results: list[tuple[Matrix, Matrix]] = []

    def extend(i: int, rows: list[list[int]], sols: list[list[int]]):
        if i == k:
            results.append(([row[:] for row in rows],
                            [[sol[r] for sol in sols] for r in range(k)]))
            return
        for t in _divisors(deltas[i]):
            row = [0] * k
            row[i] = t

            def pick(j: int):
                if j < 0:
                    new_rows = rows + [row[:]]
                    new_sols = []
                    for jj, sol in enumerate(sols):
                        total = sum(row[l] * sol[l] for l in range(jj, i))
                        new_sols.append(sol + [(-total) // t])
                    new_sols.append([0] * i + [deltas[i] // t])
                    extend(i + 1, new_rows, new_sols)
                    return
                sol = sols[j]
                a = sol[j]
                c = (-sum(row[l] * sol[l] for l in range(j + 1, i))) % t
                g = math.gcd(a % t, t)
                if c % g:
                    return
                m = t // g
                a_red = (a % t) // g
                c_red = (c // g) % m
                base = (c_red * pow(a_red, -1, m)) % m if m > 1 else 0
                for step in range(g):
                    row[j] = base + step * m
                    pick(j - 1)
                row[j] = 0

            pick(i - 1)

    extend(0, [], [])
    return results


def _finite_deltas(module: PresentedModule) -> list[int]:
    """The cyclic orders delta_i of a finite module; infinite modules are refused."""
    if not module.is_finite():
        raise InputError(
            "submodule enumeration needs a finite module; for infinite modules "
            "use the associated-prime criterion instead")
    return [delta for _, delta in module._decomposition().coords]


def enumerate_submodules(module: PresentedModule) -> list[Subobject]:
    """Every submodule exactly once, sorted by (order, canonical lattice key).

    Each one comes with its order, lattice and presentation in closed form,
    read off the basis T with T S = diag(delta) that the enumeration solved:
    - the order is prod delta_i / prod T_ii, the index of span(T) in Z^k
      taken modulo diag(delta);
    - the lattice is the Hermite basis of U^-1 T plus the columns U^-1 e_i of
      the unit coordinates (delta_i = 1).  The relation lattice is
      span{U^-1 delta_i e_i}, and diag(delta) <= span(T), so no relation
      column is needed; when U^-1 = I and no coordinate is a unit, T is
      already in Hermite form;
    - `as_module()` returns the relations S, and solves no kernel."""
    deltas = _finite_deltas(module)
    k, gens = len(deltas), module.gens
    dec = module._decomposition()
    kept = {idx for idx, _ in dec.coords}
    units = [[row[i] for row in dec.ui] for i in range(gens) if i not in kept]
    order = math.prod(deltas)
    subs = []
    for t_mat, s_mat in _subgroup_matrices(deltas):
        cols = [module.coords_to_generators([t_mat[r][c] for r in range(k)])
                for c in range(k)]
        sub = Subobject(module, la.from_columns(cols, gens))
        sub._order = order // math.prod(t_mat[i][i] for i in range(k))
        sub._lattice = la.ColumnEchelonLattice(gens, cols + units)
        sub._module = PresentedModule(module.ring, k, s_mat)
        subs.append(sub)
    subs.sort(key=lambda s: s.sort_token())
    return subs


def subgroup_classes(module: PresentedModule) -> list:
    """[(join, rep)], one entry per isomorphism class of the submodules of
    the finite module, in the order in which the enumeration first meets the
    class.

    One pass over the (T, S) that `enumerate_submodules` walks, building no
    Subobject, module or lattice per subgroup:
    - the class of span(T) is the invariant factors of its relations S, one
      Smith form per distinct S in the presentation cache;
    - rep is the class's catalogue presentation, the one that
      `finite_abelian_modules` gives, so a class met as a subgroup and the
      same group met as an object share their presentation;
    - join is the sum of the class's members, kept as its embedding without
      the lattice: the Hermite basis of U^-1 times every T column of the
      class, at most one column per coordinate.  A subobject's lattice
      holds the relations, so the unit columns U^-1 e_i need not be added.
    """
    deltas = _finite_deltas(module)
    ring, k, gens = module.ring, len(deltas), module.gens
    members: dict = {}
    for t_mat, s_mat in _subgroup_matrices(deltas):
        if ring.n:
            s_mat = [[x % ring.n for x in row] for row in s_mat]
        factors = _decompose((ring, k, tuple(map(tuple, s_mat)))).factors
        members.setdefault(factors, set()).update(zip(*t_mat))
    table = []
    for factors, cols in members.items():
        lattice = la.ColumnEchelonLattice(
            gens, [module.coords_to_generators(list(col)) for col in cols])
        table.append((Subobject(module, la.from_columns(lattice.basis, gens)),
                      _catalogue_module(ring, factors)))
    return table


def _catalogue_module(ring: Ring, factors: tuple) -> PresentedModule:
    """The finite module with these invariant factors as `finite_abelian_modules`
    presents it: + Z/p^e over its elementary divisors, primes ascending and
    exponents descending."""
    powers: dict = {}
    for d in factors:
        for p, e in factorize(d).items():
            powers.setdefault(p, []).append(p ** e)
    return direct_sum_module(ring, [q for p in sorted(powers)
                                    for q in sorted(powers[p], reverse=True)])


def _split_subobject(module: PresentedModule, parts: list[int]) -> Subobject:
    """+ <delta_i / parts_i e_i> over the coordinates e_i of the decomposition
    with parts_i > 1, where delta_i is the order of e_i, parts_i | delta_i,
    and parts_i = 1 on a free coordinate.  The generator coordinates of e_i
    are a column of Uinv, so no matrix product is formed.

    The sum is  + Z/parts_i, so its order prod parts_i is recorded on the
    subobject: `order`, `is_zero` and `is_full` then build no lattice."""
    dec = module._decomposition()
    cols = [[delta // part * row[idx] for row in dec.ui]
            for (idx, delta), part in zip(dec.coords, parts) if part > 1]
    sub = Subobject(module, la.from_columns(cols, module.gens))
    sub._order = math.prod(parts)
    return sub


def torsion_submodule(module: PresentedModule) -> Subobject:
    """tors(x), the sum of the finite coordinates of the decomposition, with
    its order recorded (see `_split_subobject`)."""
    return _split_subobject(module, [delta or 1 for _, delta in module._decomposition().coords])


def hall_submodules(module: PresentedModule) -> list[Subobject]:
    """The sums  + _{p in S} x_p  of primary components, one for each set S of
    primes of |x|, sorted like `enumerate_submodules`.

    For finite w <= x, Hom(w, x/w) = 0 iff gcd(|w|, |x/w|) = 1, iff w is such
    a sum (a Hall submodule), so these 2^k subobjects are exactly the torsion
    parts of a finite module.  The sum over S is + <delta_i / s_i e_i> in the
    decomposition x = + Z/delta_i, with s_i the S-part of delta_i, and its
    order is the product over p in S of p^{v_p(|x|)}.  Distinct S have
    distinct orders, so ordering by that closed form is the (order, key)
    order, and no lattice is built to sort.  Each subobject carries that
    order (see `_split_subobject`), so the part test, `is_zero` and
    `is_full` build no lattice either; only `key` and `as_module` do.  The
    sorted subobjects are kept on the module and each call returns a fresh
    list of them, so `torsion_parts` and `is_torsion_simple` on one module
    share the subobjects and whatever lattice or module they build.
    """
    deltas = _finite_deltas(module)
    if module._halls is None:
        halls = [(1, [1] * len(deltas))]
        for p in prime_divisors(deltas[-1]) if deltas else ():
            p_parts = [p ** p_adic_valuation(delta, p) for delta in deltas]
            order_p = math.prod(p_parts)
            halls += [(order * order_p, [s * q for s, q in zip(parts, p_parts)])
                      for order, parts in halls]
        halls.sort(key=lambda hall: hall[0])
        module._halls = [_split_subobject(module, parts) for _, parts in halls]
    return list(module._halls)


# -- hom groups ---------------------------------------------------------------


def _hom_summands(src: PresentedModule, dst: PresentedModule):
    """Cyclic summands of Hom(src, dst): (src coord, dst coord, order, coeff).

    order 0 encodes an infinite cyclic summand.  The generator morphism sends
    src coordinate i to coeff times dst coordinate j.
    """
    out = []
    for i, da in src._decomposition().coords:
        for j, db in dst._decomposition().coords:
            if da == 0 and db == 0:
                out.append((i, j, 0, 1))
            elif da == 0:
                out.append((i, j, db, 1))
            elif db == 0:
                continue  # Hom(Z/a, Z) = 0
            else:
                g = math.gcd(da, db)
                if g > 1:
                    out.append((i, j, g, db // g))
    return out


def hom_basis(src: PresentedModule, dst: PresentedModule) -> list[Matrix]:
    """Lifted matrices of the generators of Hom(src, dst), one per cyclic summand.

    basis[k] is a dst.gens x src.gens integer matrix describing the k-th
    generator morphism on generator coordinates.
    """
    if src.ring != dst.ring:
        raise InputError("hom requires modules over the same ring")
    u_s, ui_d = src._decomposition().u, dst._decomposition().ui
    return [[[ui_d[r][j] * coeff * u_s[i][s] for s in range(src.gens)]
             for r in range(dst.gens)]
            for i, j, _, coeff in _hom_summands(src, dst)]


def hom_group(src: PresentedModule, dst: PresentedModule):
    """(H, hom_basis(src, dst)): H presents Hom(src, dst) as a module on the
    basis morphisms."""
    basis = hom_basis(src, dst)
    orders = [order for _, _, order, _ in _hom_summands(src, dst)]
    count = len(orders)
    rel_cols = []
    for idx, order in enumerate(orders):
        if order:
            col = [0] * count
            col[idx] = order
            rel_cols.append(col)
    h = PresentedModule(src.ring, count, la.from_columns(rel_cols, count))
    return h, basis


# -- associated primes and primary parts ---------------------------------------


def associated_primes(module: PresentedModule) -> PrimeSet:
    dec = module._decomposition()
    primes: set[int] = set()
    for d in dec.factors:
        primes.update(prime_divisors(d))
    return PrimeSet(tuple(sorted(primes)), includes_zero=dec.free > 0)


def primary_component(module: PresentedModule, p: int) -> Subobject:
    """Largest submodule annihilated by a power of p: the p-primary torsion part.

    p must be prime; any other integer is refused."""
    if not isinstance(p, int) or not is_prime(p):
        raise InputError(f"a primary component needs a prime, got {p!r}")
    return _split_subobject(module, [p ** p_adic_valuation(delta, p) if delta else 1
                                     for _, delta in module._decomposition().coords])


def multiplication_endo(module: PresentedModule, c: int) -> Matrix:
    """Generator-coordinate matrix of multiplication by c."""
    return [[c if i == j else 0 for j in range(module.gens)] for i in range(module.gens)]


# -- catalogues (used by suites and tests) --------------------------------------


def _partitions(n: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    out = []

    def rec(remaining, cap, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, cap), 0, -1):
            rec(remaining - part, part, acc + [part])

    rec(n, n, [])
    return out


def cyclic_module(ring: Ring, d: int) -> PresentedModule:
    return PresentedModule(ring, 1, [[d]])


def direct_sum_module(ring: Ring, orders: list[int]) -> PresentedModule:
    k = len(orders)
    rels = [[orders[i] if i == j else 0 for j in range(k)] for i in range(k)]
    return PresentedModule(ring, k, rels)


def finite_abelian_modules(order: int, ring: Ring | None = None) -> list[PresentedModule]:
    """One presentation per isomorphism class of abelian groups of this order."""
    ring = ring or Ring.integers()
    order = integer(order, "group order")
    if order < 1:
        raise InputError("order must be >= 1")
    if order == 1:
        return [PresentedModule(ring, 0, [])]
    factorisation = factorize(order)
    per_prime = []
    for p in sorted(factorisation):
        e = factorisation[p]
        per_prime.append([[p ** part for part in lam] for lam in _partitions(e)])
    groups = [[]]
    for options in per_prime:
        groups = [g + choice for g in groups for choice in options]
    return [direct_sum_module(ring, orders) for orders in groups]
