"""Matrices over commutative rings: determinantal ideals, McCoy rank, and the
conormal pipeline deciding whether Hom_S(I, S/I) vanishes.

The McCoy rank of A is the largest r with Ann(D_r) = 0, D_r the ideal of the
r x r minors.  Over a noetherian ring R, Ann(D_r) = 0 iff D_r lies in no
associated prime (McCoy 1942; Kaplansky, Commutative Rings, Thm 82), so the
rank is min over P in Ass(R) of rank_kappa(P)(A mod P), kappa(P) = Frac(R/P).

The pipeline presents I/I^2 over S/I by an explicit relation matrix M
(generators of I index the rows), dualises, and reads Hom_S(I, S/I) off the
kernel of the transpose.  Over a domain with 0 != I != S that kernel is
provably non-zero; the code raises ContradictionError if a computation ever
disagrees, and reproduces the expected failure over the non-domain
F_p[x,y]/(xy) with I = (x).
Every transpose the pipeline builds is zero or lives over a bivariate
quotient, so `matrix_kernel` answers only those two shapes.
"""
from __future__ import annotations

import math

from .errors import ContradictionError, InputError, UnsupportedRingError
from .rings import ENUM_LIMIT, KIND_BIPOLY, KIND_POLY, KIND_Z, Ideal, Ring, RingElem

# `_polyarith`, which only the F_p[x] and bivariate branches use: bound by the
# first of them, so McCoy ranks over Z/n never compile it
pa = None


def _load_polyarith() -> None:
    global pa
    if pa is None:
        from . import _polyarith as pa


class RingMatrix:
    """Dense matrix with entries in one of the supported exact rings."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: Ring, rows: int, cols: int, entries):
        entries = list(entries)
        if len(entries) != rows * cols:
            raise InputError(f"expected {rows * cols} entries, got {len(entries)}")
        for e in entries:
            if not isinstance(e, RingElem) or e.ring != ring:
                raise InputError("matrix entries must be canonical elements of the ring")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)

    @staticmethod
    def from_rows(ring: Ring, rows_data) -> "RingMatrix":
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        flat = [e for row in rows_data for e in row]
        return RingMatrix(ring, rows, cols, flat)

    def at(self, i: int, j: int) -> RingElem:
        return self.entries[i * self.cols + j]

    def transpose(self) -> "RingMatrix":
        flat = [self.at(i, j) for j in range(self.cols) for i in range(self.rows)]
        return RingMatrix(self.ring, self.cols, self.rows, flat)

    def describe_rows(self) -> list[list[str]]:
        return [[str(self.at(i, j)) for j in range(self.cols)] for i in range(self.rows)]

    def __repr__(self):
        return f"RingMatrix({self.rows}x{self.cols} over {self.ring.describe()})"


def minors(a: RingMatrix, order: int) -> list[RingElem]:
    """All order x order minors, Laplace expansion, lexicographic index order."""
    if order == 0:
        return [a.ring.one]
    if order > min(a.rows, a.cols):
        return []
    from itertools import combinations
    memo: dict = {}

    def det(rs: tuple, cs: tuple) -> RingElem:
        if len(rs) == 1:
            return a.at(rs[0], cs[0])
        key = (rs, cs)
        if key in memo:
            return memo[key]
        acc = a.ring.zero
        r0 = rs[0]
        rest = rs[1:]
        for pos, c in enumerate(cs):
            sub_cols = cs[:pos] + cs[pos + 1:]
            term = a.at(r0, c) * det(rest, sub_cols)
            acc = acc + term if pos % 2 == 0 else acc - term
        memo[key] = acc
        return acc

    out = []
    for rs in combinations(range(a.rows), order):
        for cs in combinations(range(a.cols), order):
            out.append(det(rs, cs))
    return out


class DeterminantalProfile:
    """The chain D_0 >= D_1 >= ... by its minors, and the McCoy rank.

    Step r's `annihilator_is_zero` (Ann(D_r) = 0) is r <= mccoy_rank: the
    annihilators grow with r, so the flag is exact without a per-order test.
    """

    __slots__ = ("steps", "mccoy_rank")

    def __init__(self, steps: list[dict] | None = None, mccoy_rank: int = 0):
        self.steps = [] if steps is None else steps
        self.mccoy_rank = mccoy_rank

    def as_dict(self) -> dict:
        return {"steps": self.steps, "mccoy_rank": self.mccoy_rank}


def _exact_quotient(e: RingElem, d: RingElem) -> RingElem:
    """e / d in Z or F_p[x], where d divides e."""
    r = e.ring
    if r.n is not None:
        return RingElem(r, e.payload // d.payload)
    return RingElem(r, pa.pdivmod(e.payload, d.payload, r.p)[0])


def _split_modulus(ring: Ring, a: RingElem) -> tuple[Ring, ...]:
    """R/(g) and R/(m/g) for g = gcd(a, m) != 1, or () when a is a unit mod m."""
    if ring.n is not None:
        g = math.gcd(a.payload, ring.n)
        return () if g == 1 else (Ring.integers_mod(g), Ring.integers_mod(ring.n // g))
    g = pa.pgcd(a.payload, ring.modulus, ring.p)
    return () if g == (1,) else tuple(Ring.poly_quotient(ring.p, f) for f in (
        g, pa.pdivmod(ring.modulus, g, ring.p)[0]))


def _euclidean_rank(ring: Ring, rows: list[list[RingElem]]) -> int:
    """min over the primes P >= (m) of rank_{R/P}(A mod P) for A over R/(m),
    R = Z or F_p[x]; the rank over Frac(R) when m = 0.  Fraction-free
    elimination with complete pivoting: rows are scaled by the pivot, a unit
    mod m (non-zero when m = 0), and for m = 0 new entries are then divided
    by the previous pivot, so they stay minors of A (Bareiss 1968).  A pivot a that is not a unit
    mod m splits m into gcd(a, m) and m / gcd(a, m), and the smaller branch
    rank wins (dynamic evaluation: Della Dora, Dicrescenzo, Duval 1985); m is
    never factored."""
    if ring.n is None:
        _load_polyarith()
    m = ring.n if ring.n is not None else ring.modulus
    rank, prev = 0, ring.one
    while True:
        pivot = next(((i, j) for i, row in enumerate(rows) for j, e in enumerate(row) if e), None)
        if pivot is None:
            return rank
        i, j = pivot
        a = rows[i][j]
        branches = _split_modulus(ring, a) if m else ()
        if branches:
            return rank + min(_euclidean_rank(sub, [
                [(sub.from_int if sub.n is not None else sub.poly)(e.payload) for e in row]
                for row in rows]) for sub in branches)
        top = rows.pop(i)
        rows = [[a * e - row[j] * t for k, (e, t) in enumerate(zip(row, top)) if k != j]
                for row in rows]
        if not m:
            rows = [[_exact_quotient(e, prev) for e in row] for row in rows]
            prev = a
        rank += 1


def _residue_rank(a: RingMatrix) -> int:
    """rk_McCoy(a) = min over P in Ass(R) of rank_kappa(P)(a mod P).

    For R = F_p[x,y]/J, J monomial, each P is a branch over F_p[t]:
    - J with two or more minimal generators: (x, y) is associated (x and y
      kill x^(c-1) y^(b-1) for adjacent generators x^a y^b, x^c y^d) and holds
      every other P, so the rank is that of the constant terms;
    - J = (x^a y^b): (x) is associated iff a > 0, with kappa = F_p(t = y),
      and likewise (y);
    - J = 0: x -> t^N, y -> t, N above every minor's y-degree, keeps each
      minor non-zero (Kronecker substitution).
    """
    ring = a.ring
    rows = [list(a.entries[i * a.cols:(i + 1) * a.cols]) for i in range(a.rows)]
    if ring.kind != KIND_BIPOLY:
        return _euclidean_rank(ring, rows)
    rels = ring.rels or ()
    # (wx, wy) maps x^i y^j to t^(i wx + j wy); a zero weight sets its variable to 0
    if len(rels) > 1:
        weights = [(0, 0)]
    elif rels:
        (ex, ey), = rels
        weights = [(0, 1)] * (ex > 0) + [(1, 0)] * (ey > 0)
    else:
        ydeg = max((m[1] for e in a.entries for m, _ in e.payload), default=0)
        weights = [(min(a.rows, a.cols) * ydeg + 1, 1)]
    t_ring = Ring.poly_ring(ring.p)

    def substitute(e: RingElem, wx: int, wy: int) -> RingElem:
        return sum((t_ring.poly([0] * (i * wx + j * wy) + [c]) for (i, j), c in e.payload
                    if (wx or not i) and (wy or not j)), t_ring.zero)

    return min(_euclidean_rank(t_ring, [[substitute(e, wx, wy) for e in row] for row in rows])
               for wx, wy in weights)


def mccoy_rank(a: RingMatrix) -> tuple[int, DeterminantalProfile]:
    """Largest r with Ann(D_r) = 0, plus the profile, which lists every minor.

    An m x n matrix has sum_r C(m, r) C(n, r) = C(m + n, m) minors, order 0
    included (Vandermonde); more than ENUM_LIMIT of them are refused before
    the first is listed.
    """
    count = math.comb(a.rows + a.cols, a.rows)
    if count > ENUM_LIMIT:
        raise InputError(f"the McCoy profile of a {a.rows}x{a.cols} matrix would list "
                         f"{count} minors, more than {ENUM_LIMIT}")
    rank = _residue_rank(a)
    steps = [{"order": r, "generators": [str(g) for g in minors(a, r)],
              "annihilator_is_zero": r <= rank}
             for r in range(min(a.rows, a.cols) + 1)]
    return rank, DeterminantalProfile(steps, rank)


def has_nullvector_theorem(a: RingMatrix) -> bool:
    """McCoy's criterion: a non-zero nullvector exists iff the rank is below n.
    No minor is listed, so this answers at any size."""
    return _residue_rank(a) < a.cols


def nullvector_exhaustive(a: RingMatrix):
    """The first non-zero nullvector in `Ring.elements()` order, or None.

    An oracle independent of the rank code: each candidate is multiplied out
    row by row and dropped at its first non-zero row.  A ring or vector space
    of more than ENUM_LIMIT elements is refused first.
    """
    if not a.ring.is_finite():
        raise InputError("exhaustive nullvector search needs a finite ring")
    from itertools import product as iproduct
    pool = list(a.ring.elements())
    if len(pool) ** a.cols > ENUM_LIMIT:
        raise InputError("vector space too large for exhaustive search")
    zero = a.ring.zero
    rows = [a.entries[i * a.cols:(i + 1) * a.cols] for i in range(a.rows)]
    for combo in iproduct(pool, repeat=a.cols):
        if all(e.is_zero() for e in combo):
            continue
        if all(sum((m * e for m, e in zip(row, combo)), zero).is_zero() for row in rows):
            return list(combo)
    return None


# ---------------------------------------------------------------------------
# conormal pipeline
# ---------------------------------------------------------------------------


def quotient_ring(s: Ring, ideal: Ideal) -> Ring:
    """Materialise S/I for the rings conormal_presentation admits (Z, F_p[x]
    and the bivariate quotients); the unit ideal is refused."""
    if ideal.ring != s:
        raise InputError("ideal does not live over the given ring")
    if ideal.contains(s.one):
        raise UnsupportedRingError("the quotient by the unit ideal is the zero ring")
    if ideal.is_zero():
        return s
    if s.kind == KIND_Z:
        return Ring.integers_mod(ideal._pid_generator().payload)
    if s.kind == KIND_POLY:
        return Ring.poly_quotient(s.p, ideal._pid_generator().payload)
    return Ring.bivariate_quotient(s.p, tuple(s.rels or ()) + ideal._monomial_gens())


def conormal_generators(s: Ring, ideal: Ideal) -> list[RingElem]:
    """The generator list of I used to present I/I^2 (rows of M)."""
    if s.kind == KIND_BIPOLY:
        return [s.monomial(a, b) for a, b in ideal._monomial_gens()]
    gen = ideal._pid_generator()
    return [] if gen.is_zero() else [gen]


def conormal_presentation(s: Ring, ideal: Ideal) -> RingMatrix:
    """Relation matrix M over S/I presenting I/I^2 on the rows' generators.

    Principal ideals of a domain give the n x 0 matrix (I/I^2 free of rank 1).
    Monomial ideals contribute one column per lcm pair syzygy and one per
    annihilator generator of each monomial against the ring relations, all
    reduced modulo I.
    """
    if s.kind not in (KIND_Z, KIND_POLY, KIND_BIPOLY):
        raise UnsupportedRingError(
            f"conormal presentations are not supported over {s.describe()}")
    gens = conormal_generators(s, ideal)
    n = len(gens)
    q = quotient_ring(s, ideal)
    if n == 0:
        return RingMatrix(q, 0, 0, [])
    if s.kind in (KIND_Z, KIND_POLY):
        # principal ideal of a PID domain: I/I^2 is free of rank one over S/I
        return RingMatrix(q, 1, 0, [])
    # bivariate monomial case: pair syzygies then annihilator syzygies
    _load_polyarith()
    monos = [g.payload[0][0] for g in gens]
    rels = s.rels or ()
    cols: list[list[RingElem]] = []
    for i in range(n):
        for j in range(i + 1, n):
            w = pa.mono_lcm(monos[i], monos[j])
            col = [q.zero] * n
            col[i] = q.monomial(*pa.mono_div(w, monos[i]))
            col[j] = -q.monomial(*pa.mono_div(w, monos[j]))
            cols.append(col)
    for i in range(n):
        if not rels:
            continue
        for z in pa.mono_colon(rels, monos[i]):
            if pa.in_mono_ideal(z, rels):
                continue
            col = [q.zero] * n
            col[i] = q.monomial(*z)
            cols.append(col)
    flat = [cols[c][r] for r in range(n) for c in range(len(cols))]
    return RingMatrix(q, n, len(cols), flat)


class KernelDescription:
    """ker(M^t) over S/I: free rank and generator vectors.  The report keeps an
    empty "invariant_factors" list, since no kernel computed here has one."""

    __slots__ = ("free_rank", "generators", "nonzero")

    def __init__(self, free_rank: int = 0, generators: list[list[str]] | None = None,
                 nonzero: bool = False):
        self.free_rank = free_rank
        self.generators = [] if generators is None else generators
        self.nonzero = nonzero

    def as_dict(self) -> dict:
        return {
            "free_rank": self.free_rank,
            "invariant_factors": [],
            "generators": self.generators,
            "nonzero": self.nonzero,
        }


def _kernel_over_bipoly(mt: RingMatrix) -> KernelDescription:
    _load_polyarith()
    q = mt.ring
    # matrix_kernel has already answered the all-zero matrix
    live_rows = [i for i in range(mt.rows)
                 if any(not mt.at(i, j).is_zero() for j in range(mt.cols))]
    if len(live_rows) > 1:
        raise UnsupportedRingError(
            "kernel computation over bivariate quotients supports at most one "
            "non-zero relation row")
    # every non-zero entry of M^t is a monomial that conormal_presentation built
    row = [mt.at(live_rows[0], j) for j in range(mt.cols)]
    rels = q.rels or ()
    gens: list[list[RingElem]] = []
    n = len(row)
    for j, e in enumerate(row):
        if e.is_zero():
            vec = [q.zero] * n
            vec[j] = q.one
            gens.append(vec)
    live = [(j, row[j].payload[0][0], row[j].payload[0][1])
            for j in range(n) if not row[j].is_zero()]
    p = q.p
    for idx, (j, mono, coeff) in enumerate(live):
        for z in pa.mono_colon(rels, mono) if rels else ():
            if pa.in_mono_ideal(z, rels):
                continue
            vec = [q.zero] * n
            vec[j] = q.monomial(*z)
            if any(not e.is_zero() for e in vec):
                gens.append(vec)
        for j2, mono2, coeff2 in live[idx + 1:]:
            w = pa.mono_lcm(mono, mono2)
            inv1 = pow(coeff, p - 2, p)
            inv2 = pow(coeff2, p - 2, p)
            vec = [q.zero] * n
            vec[j] = q.monomial(*pa.mono_div(w, mono), inv1)
            vec[j2] = -q.monomial(*pa.mono_div(w, mono2), inv2)
            if any(not e.is_zero() for e in vec):
                gens.append(vec)
    return KernelDescription(0, [[str(e) for e in vec] for vec in gens], bool(gens))


def matrix_kernel(mt: RingMatrix) -> KernelDescription:
    """Kernel description of a zero matrix or of one over a bivariate quotient."""
    if mt.rows == 0 or all(mt.at(i, j).is_zero()
                           for i in range(mt.rows) for j in range(mt.cols)):
        return KernelDescription(mt.cols, [["1" if j == k else "0" for j in range(mt.cols)]
                                           for k in range(mt.cols)], mt.cols > 0)
    # hom_I_to_quotient passes nothing else: over Z and F_p[x] the conormal
    # presentation is n x 0, so M^t has no rows; over a bivariate quotient that
    # is a field every entry of M is a non-constant monomial (lcm/m_i for
    # minimal generators m_i, or an annihilator monomial z != 1 since m_i is
    # not in rels), and each one vanishes in F_p
    if mt.ring.kind != KIND_BIPOLY:
        raise UnsupportedRingError(
            f"kernel computation over {mt.ring.describe()} is not supported")
    return _kernel_over_bipoly(mt)


class ConormalReport:
    __slots__ = ("base_ring", "ideal_gens", "quotient_ring", "matrix_rows", "matrix_cols",
                 "matrix", "kernel", "hom_nonzero", "statement")

    def __init__(self, base_ring: str, ideal_gens: list[str], quotient_ring: str,
                 matrix_rows: int, matrix_cols: int, matrix: list[list[str]],
                 kernel: KernelDescription, hom_nonzero: bool,
                 statement: str = "Hom_S(I, S/I) != 0 for a proper non-zero ideal "
                                  "of a noetherian domain"):
        self.base_ring = base_ring
        self.ideal_gens = ideal_gens
        self.quotient_ring = quotient_ring
        self.matrix_rows = matrix_rows
        self.matrix_cols = matrix_cols
        self.matrix = matrix
        self.kernel = kernel
        self.hom_nonzero = hom_nonzero
        self.statement = statement

    def as_dict(self) -> dict:
        return {
            "base_ring": self.base_ring,
            "ideal_generators": self.ideal_gens,
            "quotient_ring": self.quotient_ring,
            "presentation_rows_are_generators": self.matrix_rows,
            "presentation_cols_are_relations": self.matrix_cols,
            "presentation_matrix": self.matrix,
            "kernel_of_transpose": self.kernel.as_dict(),
            "hom_nonzero": self.hom_nonzero,
            "statement": self.statement,
        }


def hom_I_to_quotient(s: Ring, ideal: Ideal) -> ConormalReport:
    """Decide Hom_S(I, S/I) != 0 via the kernel of the transposed presentation."""
    m = conormal_presentation(s, ideal)
    mt = m.transpose()
    kernel = matrix_kernel(mt)
    verdict = kernel.nonzero
    report = ConormalReport(
        base_ring=s.describe(),
        ideal_gens=[str(g) for g in ideal.gens],
        quotient_ring=m.ring.describe(),
        matrix_rows=m.rows,
        matrix_cols=m.cols,
        matrix=m.describe_rows(),
        kernel=kernel,
        hom_nonzero=verdict,
    )
    if s.is_domain and not ideal.is_zero() and not verdict:
        raise ContradictionError(
            "Hom_S(I, S/I) computed zero for a proper non-zero ideal of a domain")
    return report


class RadicalLemmaReport:
    __slots__ = ("premise", "conclusion", "violation", "domain", "expected_for_non_domain")

    def __init__(self, premise: bool, conclusion: bool, violation: bool, domain: bool,
                 expected_for_non_domain: bool):
        self.premise = premise          # d*I subset of I^2
        self.conclusion = conclusion    # d in rad(I)
        self.violation = violation
        self.domain = domain
        self.expected_for_non_domain = expected_for_non_domain

    def as_dict(self) -> dict:
        return {
            "premise_dI_in_I2": self.premise,
            "conclusion_d_in_radical": self.conclusion,
            "violation": self.violation,
            "ring_is_domain": self.domain,
            "expected_for_non_domain": self.expected_for_non_domain,
            "statement": "d*I in I^2 forces d in rad(I) over a noetherian domain",
        }


def check_radical_lemma(s: Ring, ideal: Ideal, d: RingElem) -> RadicalLemmaReport:
    if d.ring != s or ideal.ring != s:
        raise InputError("mismatched ring for the radical check")
    if ideal.is_zero():
        # dI = 0 lies in I^2 for every d, so the lemma is about non-zero ideals
        raise InputError("the radical lemma needs a non-zero ideal")
    i_squared = ideal.times(ideal)
    premise = all(i_squared.contains(d * g) for g in ideal.gens)
    conclusion = ideal.radical_contains(d)
    violation = premise and not conclusion
    if violation and s.is_domain:
        raise ContradictionError(
            "dI in I^2 with d outside rad(I) over a domain: statement violated")
    return RadicalLemmaReport(premise, conclusion, violation, s.is_domain,
                              violation and not s.is_domain)
