"""Matrices over commutative rings: determinantal ideals, McCoy rank, and the
conormal pipeline deciding whether Hom_S(I, S/I) vanishes.

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

from dataclasses import dataclass, field

from .errors import ContradictionError, InputError, UnsupportedRingError
from .rings import (ENUM_LIMIT, KIND_BIPOLY, KIND_POLY, KIND_Z, SHAPE_MONOMIAL,
                    Ideal, Ring, RingElem, _in_mono_ideal, _mono_colon, _mono_div,
                    _mono_lcm, annihilator_payloads, bivariate_shape, is_nilpotent)


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


def determinantal_ideal(a: RingMatrix, order: int) -> Ideal:
    """D_r(a): the ideal generated by all r x r minors; D_0 is the unit ideal."""
    if order < 0:
        raise InputError("minor order must be >= 0")
    gens = minors(a, order)
    try:
        return Ideal(a.ring, gens)
    except UnsupportedRingError as exc:
        raise UnsupportedRingError(
            f"minor ideal D_{order} not expressible: {exc}") from exc


@dataclass
class DeterminantalProfile:
    """The chain D_0 >= D_1 >= ... with annihilator status and the McCoy rank."""

    steps: list[dict] = field(default_factory=list)
    mccoy_rank: int = 0

    def as_dict(self) -> dict:
        return {"steps": self.steps, "mccoy_rank": self.mccoy_rank}


def _ideal_ann_is_zero(ring: Ring, gens: list[RingElem], context: str) -> bool:
    try:
        return not annihilator_payloads(Ideal(ring, gens))
    except UnsupportedRingError as exc:
        raise UnsupportedRingError(f"{context}: {exc}") from exc


def mccoy_rank(a: RingMatrix) -> tuple[int, DeterminantalProfile]:
    """Largest r with Ann(D_r) = 0, plus the full determinantal profile."""
    profile = DeterminantalProfile()
    rank = 0
    for r in range(min(a.rows, a.cols) + 1):
        gens = minors(a, r)
        ann_zero = _ideal_ann_is_zero(
            a.ring, gens, f"annihilator of the order-{r} minor ideal")
        profile.steps.append({
            "order": r,
            "generators": [str(g) for g in gens],
            "annihilator_is_zero": ann_zero,
        })
        if ann_zero:
            rank = r
    profile.mccoy_rank = rank
    return rank, profile


def has_nullvector_theorem(a: RingMatrix) -> bool:
    """McCoy's criterion: a non-zero nullvector exists iff the rank is below n."""
    return mccoy_rank(a)[0] < a.cols


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
    """Materialise S/I as a supported ring kind, or fail fast."""
    if ideal.ring != s:
        raise InputError("ideal does not live over the given ring")
    # a bivariate unit generator is a constant monomial: x^a + y^b never is one
    if (s.kind != KIND_BIPOLY or ideal.all_monomial()) and ideal.contains(s.one):
        raise UnsupportedRingError("the quotient by the unit ideal is the zero ring")
    if ideal.is_zero():
        return s
    if s.kind == KIND_Z:
        return Ring.integers_mod(ideal._pid_generator().payload)
    if s.kind == KIND_POLY:
        return Ring.poly_quotient(s.p, ideal._pid_generator().payload)
    if s.kind == KIND_BIPOLY:
        if not ideal.all_monomial():
            raise UnsupportedRingError(
                "the quotient by a non-monomial bivariate ideal is not a supported ring")
        ms = ideal._monomial_gens()
        return Ring.bivariate_quotient(s.p, tuple(s.rels or ()) + tuple(ms))
    raise UnsupportedRingError(
        f"conormal pipeline does not materialise quotients of {s.describe()}")


def conormal_generators(s: Ring, ideal: Ideal) -> list[RingElem]:
    """The generator list of I used to present I/I^2 (rows of M)."""
    if s.kind == KIND_BIPOLY:
        if not ideal.all_monomial():
            if len(ideal.gens) == 1 and s.is_domain:
                return list(ideal.gens)
            raise UnsupportedRingError(
                "conormal presentations over bivariate rings need monomial ideals")
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
    monos = [g.payload[0][0] for g in gens]
    rels = s.rels or ()
    cols: list[list[RingElem]] = []
    for i in range(n):
        for j in range(i + 1, n):
            w = _mono_lcm(monos[i], monos[j])
            col = [q.zero] * n
            col[i] = q.monomial(*_mono_div(w, monos[i]))
            col[j] = -q.monomial(*_mono_div(w, monos[j]))
            cols.append(col)
    for i in range(n):
        if not rels:
            continue
        for z in _mono_colon(rels, monos[i]):
            if _in_mono_ideal(z, rels):
                continue
            col = [q.zero] * n
            col[i] = q.monomial(*z)
            cols.append(col)
    flat = [cols[c][r] for r in range(n) for c in range(len(cols))]
    return RingMatrix(q, n, len(cols), flat)


@dataclass
class KernelDescription:
    """ker(M^t) over S/I: free rank, cyclic invariant factors, generator vectors."""

    free_rank: int = 0
    invariant_factors: list[int] = field(default_factory=list)
    generators: list[list[str]] = field(default_factory=list)
    nonzero: bool = False

    def as_dict(self) -> dict:
        return {
            "free_rank": self.free_rank,
            "invariant_factors": self.invariant_factors,
            "generators": self.generators,
            "nonzero": self.nonzero,
        }


def _kernel_over_bipoly(mt: RingMatrix) -> KernelDescription:
    q = mt.ring
    # matrix_kernel has already answered the all-zero matrix
    live_rows = [i for i in range(mt.rows)
                 if any(not mt.at(i, j).is_zero() for j in range(mt.cols))]
    if len(live_rows) > 1:
        raise UnsupportedRingError(
            "kernel computation over bivariate quotients supports at most one "
            "non-zero relation row")
    row = [mt.at(live_rows[0], j) for j in range(mt.cols)]
    for e in row:
        if not e.is_zero() and bivariate_shape(e) != SHAPE_MONOMIAL:
            raise UnsupportedRingError(
                "kernel over a bivariate quotient needs monomial entries")
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
        for z in _mono_colon(rels, mono) if rels else ():
            if _in_mono_ideal(z, rels):
                continue
            vec = [q.zero] * n
            vec[j] = q.monomial(*z)
            if any(not e.is_zero() for e in vec):
                gens.append(vec)
        for j2, mono2, coeff2 in live[idx + 1:]:
            w = _mono_lcm(mono, mono2)
            inv1 = pow(coeff, p - 2, p)
            inv2 = pow(coeff2, p - 2, p)
            vec = [q.zero] * n
            vec[j] = q.monomial(*_mono_div(w, mono), inv1)
            vec[j2] = -q.monomial(*_mono_div(w, mono2), inv2)
            if any(not e.is_zero() for e in vec):
                gens.append(vec)
    desc = KernelDescription()
    desc.generators = [[str(e) for e in vec] for vec in gens]
    desc.nonzero = bool(gens)
    return desc


def matrix_kernel(mt: RingMatrix) -> KernelDescription:
    """Kernel description of a zero matrix or of one over a bivariate quotient."""
    if mt.rows == 0 or all(mt.at(i, j).is_zero()
                           for i in range(mt.rows) for j in range(mt.cols)):
        desc = KernelDescription(free_rank=mt.cols)
        desc.generators = [["1" if j == k else "0" for j in range(mt.cols)]
                           for k in range(mt.cols)]
        desc.nonzero = mt.cols > 0
        return desc
    # hom_I_to_quotient passes nothing else: over Z and F_p[x] the conormal
    # presentation is n x 0, so M^t has no rows; over a bivariate quotient that
    # is a field every entry of M is a non-constant monomial (lcm/m_i for
    # minimal generators m_i, or an annihilator monomial z != 1 since m_i is
    # not in rels), and each one vanishes in F_p
    if mt.ring.kind != KIND_BIPOLY:
        raise UnsupportedRingError(
            f"kernel computation over {mt.ring.describe()} is not supported")
    return _kernel_over_bipoly(mt)


@dataclass
class ConormalReport:
    base_ring: str
    ideal_gens: list[str]
    quotient_ring: str
    matrix_rows: int
    matrix_cols: int
    matrix: list[list[str]]
    kernel: KernelDescription
    hom_nonzero: bool
    statement: str = "Hom_S(I, S/I) != 0 for a proper non-zero ideal of a noetherian domain"

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


@dataclass
class RadicalLemmaReport:
    premise: bool          # d*I subset of I^2
    conclusion: bool       # d in rad(I)
    violation: bool
    domain: bool
    expected_for_non_domain: bool

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


@dataclass
class NilpotentMinorsReport:
    generator_count: int
    matrix_cols: int
    top_minors_checked: int
    all_top_minors_nilpotent: bool
    mccoy_rank: int
    rank_below_generators: bool

    def as_dict(self) -> dict:
        return {
            "generator_count": self.generator_count,
            "relation_count": self.matrix_cols,
            "top_minors_checked": self.top_minors_checked,
            "all_top_minors_nilpotent": self.all_top_minors_nilpotent,
            "mccoy_rank": self.mccoy_rank,
            "rank_below_generators": self.rank_below_generators,
            "statement": "top-order minors of the conormal presentation are nilpotent "
                         "and its McCoy rank stays below the generator count",
        }


def nilpotent_minors_check(s: Ring, ideal: Ideal) -> NilpotentMinorsReport:
    if not s.is_domain:
        raise InputError("the nilpotent-minors check assumes a domain base ring")
    if ideal.is_zero():
        raise InputError("the check needs a non-zero proper ideal")
    m = conormal_presentation(s, ideal)
    n = m.rows
    top = minors(m, n)
    all_nil = all(is_nilpotent(e) for e in top)
    if not all_nil:
        raise ContradictionError("a top-order minor of the presentation is not nilpotent")
    rank, _ = mccoy_rank(m)
    if rank >= n:
        raise ContradictionError("McCoy rank reached the generator count")
    return NilpotentMinorsReport(n, m.cols, len(top), all_nil, rank, rank < n)
