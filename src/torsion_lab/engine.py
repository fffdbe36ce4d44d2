"""Torsion machinery over abstract finite-length universes.

The engine never looks inside objects: it talks to a handle that knows how to
enumerate subobjects and the endomorphism-stable ones, compute hom bases, form
quotients with projections, and pull subobjects back along morphisms.  Two
handles are provided, one for finitely generated modules over Z or Z/n and one
for quiver representations.

A subobject w of x is a torsion part iff Hom(w, x/w) = 0; the engine computes
the set of all torsion parts, decides torsion-simplicity, and evaluates the
iterated trace/reject constructions for radicals and coradicals of generated
and cogenerated torsion pairs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import abelian as ab
from . import intlinalg as la
from .errors import ContradictionError, InputError
from .rings import KIND_Z, KIND_ZMOD, Ring

# `quiver` and `modlinalg`, bound by the first QuiverHandle: a run that only
# handles modules never imports them
qv = ml = None


@dataclass(frozen=True)
class Morph:
    """Handle-specific morphism: matrix (modules) or per-vertex matrices (quivers)."""

    src: object
    dst: object
    data: object


@dataclass
class TorsionPartSet:
    obj: object
    parts: list
    pruned: bool

    def __len__(self) -> int:
        return len(self.parts)

    def keys(self) -> list:
        return [w.key() for w in self.parts]


@dataclass
class SimplicityReport:
    verdict: bool
    method: str
    witness: Optional[object] = None
    type_tag: Optional[tuple] = None


@dataclass
class InjectiveCriterionReport:
    kernel_essential: bool
    kernel_in_image: bool
    hypotheses_hold: bool
    checked_parts: int = 0


@dataclass
class AxiomCheckResult:
    object_desc: str
    orthogonal: bool
    maximal: bool
    idempotent: bool

    @property
    def passed(self) -> bool:
        return self.orthogonal and self.maximal and self.idempotent


# ---------------------------------------------------------------------------
# handles
# ---------------------------------------------------------------------------


# The most subobjects one handle's tables hold in all.  A cached subobject
# takes about 0.6 KB (an abelian one on at most 5 generators, without its
# lattice) or 0.3 KB (a representation of dimension <= 3 per vertex), so the
# tables stay under about 6 MB.
SUBOBJECT_TABLE_CAP = 10_000


class _SubobjectTables:
    """The subobject tables of one handle, read by verify_torsion_pair_axioms.

    The table of x is [(w, rep)] for every subobject w of x in the order of
    handle.subobjects(x), where rep is the interned object equal to
    sub_as_object(w): one per isomorphism class of modules, one per identical
    representation.  Tables are keyed by presentation, never by isomorphism
    class, because subobjects are coordinates in the presentation: a
    PresentedModule by presentation(), a QuiverRep by itself (it compares by
    its maps).  A table holds no verdict, so it serves every source set.
    Past SUBOBJECT_TABLE_CAP subobjects the oldest presentation goes first,
    and a presentation with more subobjects than the cap is not kept.
    """

    def __init__(self):
        self.tables: dict = {}
        self.classes: dict = {}
        self.size = 0

    def get(self, handle, x) -> list:
        key = x.presentation() if isinstance(x, ab.PresentedModule) else x
        table = self.tables.get(key)
        if table is None:
            table = []
            for w in handle.subobjects(x):
                obj = handle.sub_as_object(w)
                if isinstance(w, ab.Subobject):
                    # the maximality loop reads only w's embedding, so keep a
                    # copy without the lattice the enumeration built to sort
                    w = ab.Subobject(w.ambient, w.embedding)
                table.append((w, self.classes.setdefault(obj, obj)))
            self._store(key, table)
        return table

    def _store(self, key, table: list) -> None:
        dropped = len(table) > SUBOBJECT_TABLE_CAP
        if not dropped:
            while self.size + len(table) > SUBOBJECT_TABLE_CAP:
                self.size -= len(self.tables.pop(next(iter(self.tables))))
                dropped = True
            self.tables[key] = table
            self.size += len(table)
        if dropped:
            # keep only the representatives that a kept table still uses
            self.classes = {rep: rep for t in self.tables.values() for _, rep in t}


class AbelianHandle:
    """Finitely generated modules over Z or Z/n as a torsion universe."""

    def __init__(self, ring: Ring):
        if ring.kind not in (KIND_Z, KIND_ZMOD):
            raise InputError("the module handle works over Z or Z/n")
        self.ring = ring
        self._subobject_tables = _SubobjectTables()

    # objects are PresentedModule, subobjects are ab.Subobject

    def enumerable(self, x) -> bool:
        return x.is_finite()

    def subobjects(self, x):
        return ab.enumerate_submodules(x)

    def stable_subobjects(self, x):
        """The fully invariant subgroups of the finite x, in closed form (Baer;
        Kaplansky), so no endomorphism is consulted."""
        return ab.fully_invariant_submodules(x)

    def zero_sub(self, x):
        return ab.Subobject.zero(x)

    def full_sub(self, x):
        return ab.Subobject.full(x)

    def sub_as_object(self, w):
        return w.as_module()

    def quotient(self, x, w):
        q = ab.quotient(x, w)
        return q, Morph(x, q, la.identity(x.gens))

    def hom_basis(self, a, b):
        _, basis = ab.hom_group(a, b)
        return [Morph(a, b, m) for m in basis]

    def multiplication_morph(self, x, c: int):
        return Morph(x, x, ab.multiplication_endo(x, c))

    def image(self, f: Morph):
        return ab.Subobject(f.dst, f.data)

    def pull_sub(self, f: Morph, w):
        cols = la.preimage(la.columns(f.data), w.lattice.basis, f.dst.gens)
        return ab.Subobject(f.src, la.from_columns(cols, f.src.gens))

    def compose_sub(self, x, w, inner):
        emb = la.matmul(w.embedding, inner.embedding)
        return ab.Subobject(x, emb)

    def part_test(self, x, w) -> bool:
        """Hom(w, x/w) = 0 by the coprime-order rule; parts are only tested on
        enumerated subobjects, so x is finite."""
        order_w = w.order()
        return math.gcd(order_w, x.order() // order_w) == 1

    def describe(self, x) -> str:
        return x.describe()


class QuiverHandle:
    """Finite-dimensional representations of a fixed acyclic quiver over F_p."""

    def __init__(self, quiver: qv.Quiver, p: int):
        global qv, ml
        if qv is None:
            from . import modlinalg as ml
            from . import quiver as qv
        self.quiver = quiver
        self.p = p
        self._subobject_tables = _SubobjectTables()

    def enumerable(self, x) -> bool:
        return True

    def subobjects(self, x):
        return qv.iter_subreps(x)

    def stable_subobjects(self, x):
        """The subrepresentations that every endomorphism maps into themselves,
        lazily: End(x) is built only once the enumeration bound has passed."""
        subs = self.subobjects(x)
        endos = self.hom_basis(x, x)
        for w in subs:
            if self.sub_stable(x, w, endos):
                yield w

    def zero_sub(self, x):
        return qv.SubRep.zero(x)

    def full_sub(self, x):
        return qv.SubRep.full(x)

    def sub_as_object(self, w):
        return w.as_rep()

    def quotient(self, x, w):
        q, projections = qv.quotient_rep(x, w)
        return q, Morph(x, q, tuple(tuple(tuple(r) for r in m) for m in projections))

    def hom_basis(self, a, b):
        return [Morph(a, b, mats) for mats in qv.hom_space(a, b)]

    def image(self, f: Morph):
        return self.push_sub(f, self.full_sub(f.src))

    def push_sub(self, f: Morph, w):
        return qv.SubRep(f.dst, [
            ml.Subspace(self.p, d, [ml.mat_vec_mod(mat, vec, self.p) for vec in sp.rows])
            for d, mat, sp in zip(f.dst.dims, f.data, w.spaces)])

    def pull_sub(self, f: Morph, w):
        return qv.SubRep(f.src, [w.spaces[v].preimage(f.data[v], f.src.dims[v])
                                 for v in range(f.src.quiver.vertex_count)])

    def compose_sub(self, x, w, inner):
        """inner, a subrepresentation of w's own representation, pushed along
        the inclusion of w into x: at each vertex w's RREF rows transposed,
        since inner's rows are coordinates on w's rows."""
        inclusion = tuple(tuple(zip(*sp.rows)) for sp in w.spaces)
        return self.push_sub(Morph(inner.ambient, x, inclusion), inner)

    def part_test(self, x, w) -> bool:
        """Hom(w, x/w) = 0, with w and x/w read off one pass over x in the
        basis adapted to w, which also refuses an unstable w."""
        sub_maps, quo_maps, functionals = qv._adapted_blocks(x, w)
        sub = qv.QuiverRep(x.quiver, x.p, w.dims(), sub_maps)
        quo = qv.QuiverRep(x.quiver, x.p, [len(f) for f in functionals], quo_maps)
        return not qv.hom_space(sub, quo)

    def sub_stable(self, x, w, endos) -> bool:
        """Every f in endos maps w into w: the filter of stable_subobjects."""
        for f in endos:
            if not w.contains(self.push_sub(f, w)):
                return False
        return True

    def describe(self, x) -> str:
        return f"rep dims={list(x.dims)} over F_{self.p}"


# ---------------------------------------------------------------------------
# generic torsion machinery
# ---------------------------------------------------------------------------


def _candidates(handle, x, prune: bool):
    """The subobjects of x that may be torsion parts, in canonical order.

    A torsion part w is stable under every endomorphism, since Hom(w, x/w) = 0,
    so with pruning these are the handle's `stable_subobjects`: for a finite
    module its fully invariant subgroups in closed form, for a representation
    the subrepresentations that pass `QuiverHandle.sub_stable`.
    """
    return handle.stable_subobjects(x) if prune else handle.subobjects(x)


def torsion_parts(handle, x, prune: bool = True) -> TorsionPartSet:
    """All subobjects w with Hom(w, x/w) = 0, in canonical order."""
    parts = [w for w in _candidates(handle, x, prune) if handle.part_test(x, w)]
    return TorsionPartSet(x, parts, prune)


def _first_proper_part(handle, x, prune: bool):
    """The first torsion part other than 0 and x in canonical order, or None.

    0 and x are always torsion parts (Hom(0, -) = 0 and Hom(x, 0) = 0), so x is
    torsion-simple exactly when this finds none, i.e. when torsion_parts has
    two elements; the part test runs only up to the first proper part.
    """
    for w in _candidates(handle, x, prune):
        if not w.is_zero() and not w.is_full() and handle.part_test(x, w):
            return w
    return None


def is_torsion_simple(handle, x, method: str = "auto", prune: bool = True) -> SimplicityReport:
    if x.is_zero():
        raise InputError("torsion-simplicity is defined for non-zero objects")
    if method == "auto":
        method = "brute-force" if handle.enumerable(x) else "ass-criterion"
    if method == "brute-force":
        witness = _first_proper_part(handle, x, prune)
        verdict = witness is None
        return SimplicityReport(verdict, "brute-force", witness,
                                _type_tag(handle, x) if verdict else None)
    if method == "ass-criterion":
        if not isinstance(handle, AbelianHandle):
            raise InputError("the ass-criterion method applies to modules only")
        ass = ab.associated_primes(x)
        if len(ass) == 1:
            return SimplicityReport(True, "ass-criterion", None, _type_tag(handle, x))
        # witness: the p-primary torsion part for a maximal associated prime
        p = min(ass.primes)
        witness = ab.primary_component(x, p)
        q, _ = handle.quotient(x, witness)
        if handle.hom_basis(handle.sub_as_object(witness), q):
            raise ContradictionError(
                "primary torsion part failed its hom-vanishing recheck")
        return SimplicityReport(False, "ass-criterion", witness)
    if method == "single-vertex-criterion":
        if not isinstance(handle, QuiverHandle):
            raise InputError("the single-vertex-criterion method applies to "
                             "representations only")
        verdict = qv.single_vertex_support(x)
        witness = None if verdict else _first_proper_part(handle, x, prune)
        return SimplicityReport(verdict, "single-vertex-criterion", witness,
                                _type_tag(handle, x) if verdict else None)
    raise InputError(f"unknown simplicity method {method!r}")


def _instance(handle, sources, x) -> str:
    """x and the source set, as named in refusals and postcondition failures."""
    return f"{handle.describe(x)} with sources [{', '.join(map(handle.describe, sources))}]"


def trace(handle, sources, x):
    """Smallest subobject of x containing the image of every morphism from sources."""
    acc = handle.zero_sub(x)
    for s in sources:
        for f in handle.hom_basis(s, x):
            acc = acc.sum(handle.image(f))
    return acc


def torsion_radical_generated(handle, sources, x, check: bool = True):
    """t(x) for the torsion pair generated by `sources`, by stabilising iterated trace."""
    t = handle.zero_sub(x)
    while True:
        q, proj = handle.quotient(x, t)
        tr = trace(handle, sources, q)
        if tr.is_zero():
            break
        t_new = handle.pull_sub(proj, tr)
        if t_new.key() == t.key():
            break
        t = t_new
    if check:
        q, _ = handle.quotient(x, t)
        if handle.hom_basis(handle.sub_as_object(t), q):
            raise ContradictionError("radical postcondition Hom(t(x), x/t(x)) = 0 failed "
                                     f"for {_instance(handle, sources, x)}")
        if not trace(handle, sources, q).is_zero():
            raise ContradictionError("radical postcondition t(x/t(x)) = 0 failed "
                                     f"for {_instance(handle, sources, x)}")
    return t


def reject(handle, sources, x):
    """Intersection of kernels of all morphisms from x to the sources."""
    r = handle.full_sub(x)
    for s in sources:
        for f in handle.hom_basis(x, s):
            r = r.intersect(handle.pull_sub(f, handle.zero_sub(f.dst)))
    return r


def torsionfree_coradical_cogenerated(handle, sources, x):
    """(t(x), x/t(x)) for the torsion pair cogenerated by `sources`.

    The torsion radical is the stabilised iterated reject; the returned object
    is the torsion-free coradical x/t(x).  Whether the reject of an iterate is
    all of it, and the isomorphism class of that reject, depend only on the
    iterate's isomorphism class.  So once an iterate is isomorphic to an
    earlier one the descent is periodic and never stabilises (Z with source
    Z/2 gives Z > 2Z > 4Z > ...), and the input is refused.  A finitely
    generated module has finitely many isomorphism classes of subobjects, and
    each step lowers a representation's dimension, so the loop is bounded.
    The postcondition Hom(t(x), source) = 0 is checked on every call.
    """
    cur = handle.full_sub(x)
    seen = set()
    while True:
        obj = handle.sub_as_object(cur)
        if obj in seen:
            raise InputError(f"the iterated reject of {_instance(handle, sources, x)} "
                             "repeats an isomorphism class without stabilising")
        seen.add(obj)
        r = reject(handle, sources, obj)
        if r.is_full():
            break
        cur = handle.compose_sub(x, cur, r)
    tobj = handle.sub_as_object(cur)
    for s in sources:
        if handle.hom_basis(tobj, s):
            raise ContradictionError("coradical postcondition Hom(t(x), source) = 0 "
                                     f"failed for {_instance(handle, sources, x)}")
    coradical, _ = handle.quotient(x, cur)
    return cur, coradical


def is_essential(handle, w, x) -> bool:
    """True iff w meets every non-zero subobject of x non-trivially."""
    for u in handle.subobjects(x):
        if u.is_zero():
            continue
        if w.intersect(u).is_zero():
            return False
    return True


def injective_criterion_check(handle, x, f: Morph) -> InjectiveCriterionReport:
    """Check the no-intermediate-torsion-part statement for an endomorphism.

    Hypotheses: ker f essential in x, ker f contained in im f.  When they hold,
    every torsion part T with ker f <= T <= im f must be x itself; a violation
    raises ContradictionError.
    """
    if f.src != x or f.dst != x:
        raise InputError("the criterion needs an endomorphism of x")
    ker = handle.pull_sub(f, handle.zero_sub(f.dst))
    im = handle.image(f)
    h1 = is_essential(handle, ker, x)
    h2 = im.contains(ker)
    report = InjectiveCriterionReport(h1, h2, h1 and h2)
    if not report.hypotheses_hold:
        return report
    parts = torsion_parts(handle, x)
    for t in parts.parts:
        report.checked_parts += 1
        if t.is_full():
            continue
        if t.contains(ker) and im.contains(t):
            raise ContradictionError(
                "found a proper torsion part between ker f and im f, "
                "contradicting the injective criterion")
    return report


def _type_tag(handle, x) -> tuple:
    """Type tag of an object already known to be torsion-simple."""
    if isinstance(handle, AbelianHandle):
        ass = ab.associated_primes(x)
        return ("prime", 0 if ass.includes_zero else ass.primes[0])
    return ("vertex", x.support()[0])


def verify_torsion_pair_axioms(handle, sources, sample) -> list[AxiomCheckResult]:
    """For each sample object: orthogonality, largest-subobject maximality, idempotence.

    Maximality asks whether some subobject w of x is torsion (its own radical
    is all of w) without lying inside t = t(x).  A w with t.contains(w)
    cannot break maximality, so its radical is never computed.  Two memos
    keep the rest cheap:

    - the handle's subobject table of x (see _SubobjectTables) lists every w
      with its object sub_as_object(w), built once per presentation and read
      by every later call with any source set.  It is keyed by presentation
      because subobjects are coordinates in it, and it holds no verdict, so
      each call still tests t.contains(w) for every w and asks every radical
      of its own sources;
    - "is w torsion" is memoised for the duration of one call, keyed by that
      object.  Torsion classes are closed under isomorphism, so any key
      equality that implies isomorphism is sound.  PresentedModule compares
      by (ring, canonical decomposition), so each isomorphism class costs one
      radical; QuiverRep compares by (quiver, p, dims, maps), so only
      identical representations share an entry.
    """
    results = []
    for x in sample:
        t = torsion_radical_generated(handle, sources, x, check=False)
        q, _ = handle.quotient(x, t)
        orthogonal = not handle.hom_basis(handle.sub_as_object(t), q)
        idempotent = trace(handle, sources, q).is_zero()
        maximal = True
        is_torsion: dict = {}
        for w, wobj in handle._subobject_tables.get(handle, x):
            if t.contains(w):
                continue
            torsion = is_torsion.get(wobj)
            if torsion is None:
                tw = torsion_radical_generated(handle, sources, wobj, check=False)
                torsion = is_torsion[wobj] = tw.is_full()
            if torsion:
                maximal = False
                break
        results.append(AxiomCheckResult(handle.describe(x), orthogonal, maximal, idempotent))
    return results
