"""Torsion machinery over abstract finite-length universes.

The engine never looks inside objects: it talks to a handle that knows how to
enumerate subobjects and a shorter list that still holds every torsion part,
compute hom bases, form quotients with projections, and pull subobjects back
along morphisms.  Two handles are provided, one for finitely generated modules
over Z or Z/n and one for quiver representations.

A subobject w of x is a torsion part iff Hom(w, x/w) = 0; the engine computes
the set of all torsion parts, decides torsion-simplicity, and evaluates the
iterated trace/reject constructions for radicals and coradicals of generated
and cogenerated torsion pairs.
"""
from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

from .errors import ContradictionError, InputError

if TYPE_CHECKING:
    from .rings import Ring

# `abelian` and `intlinalg`, bound by the first AbelianHandle, and `quiver` and
# `modlinalg`, bound by the first QuiverHandle: a run imports only the layers
# of the objects it handles
ab = la = qv = ml = None


class Morph:
    """Handle-specific morphism: matrix (modules) or per-vertex matrices (quivers)."""

    __slots__ = ("src", "dst", "data")

    def __init__(self, src, dst, data):
        self.src = src
        self.dst = dst
        self.data = data

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.src, self.dst, self.data) == (other.src, other.dst, other.data)

    def __hash__(self) -> int:
        return hash((self.src, self.dst, self.data))


class TorsionPartSet:
    __slots__ = ("obj", "parts", "pruned")

    def __init__(self, obj, parts: list, pruned: bool):
        self.obj = obj
        self.parts = parts
        self.pruned = pruned

    def __len__(self) -> int:
        return len(self.parts)

    def keys(self) -> list:
        return [w.key() for w in self.parts]


class SimplicityReport:
    __slots__ = ("verdict", "method", "witness", "type_tag")

    def __init__(self, verdict: bool, method: str, witness=None,
                 type_tag: tuple | None = None):
        self.verdict = verdict
        self.method = method
        self.witness = witness
        self.type_tag = type_tag


class InjectiveCriterionReport:
    __slots__ = ("kernel_essential", "kernel_in_image", "hypotheses_hold", "checked_parts")

    def __init__(self, kernel_essential: bool, kernel_in_image: bool,
                 hypotheses_hold: bool, checked_parts: int = 0):
        self.kernel_essential = kernel_essential
        self.kernel_in_image = kernel_in_image
        self.hypotheses_hold = hypotheses_hold
        self.checked_parts = checked_parts

    # the one report compared by value: checks of one endomorphism in two
    # equal presentations agree
    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.kernel_essential, self.kernel_in_image, self.hypotheses_hold,
                 self.checked_parts)
                == (other.kernel_essential, other.kernel_in_image, other.hypotheses_hold,
                    other.checked_parts))

    __hash__ = None


class AxiomCheckResult:
    __slots__ = ("object_desc", "orthogonal", "maximal", "idempotent")

    def __init__(self, object_desc: str, orthogonal: bool, maximal: bool, idempotent: bool):
        self.object_desc = object_desc
        self.orthogonal = orthogonal
        self.maximal = maximal
        self.idempotent = idempotent

    @property
    def passed(self) -> bool:
        return self.orthogonal and self.maximal and self.idempotent


# ---------------------------------------------------------------------------
# handles
# ---------------------------------------------------------------------------


# The most (join, class) entries one handle's tables hold in all, and the
# most radicals its memo holds.  An entry takes about 0.9 KB (an abelian one:
# a Hermite basis on at most 5 generators and a catalogue module) or 0.6 KB
# (a representation of dimension <= 2 per vertex), so the tables stay under
# about 9 MB; a memo entry (key, radical and the lattice and module its
# checks built) took 1.5 KB on average over a gabriel-axioms round, so the
# memo stays under about 15 MB.
SUBOBJECT_TABLE_CAP = 10_000


def _evict_oldest(memo: dict, held: int, weigh) -> int:
    """Drop memo's oldest values, of weigh(value) entries each, until at most
    SUBOBJECT_TABLE_CAP of its `held` entries are left; the entries left."""
    while held > SUBOBJECT_TABLE_CAP:
        held -= weigh(memo.pop(next(iter(memo))))
    return held


class _SubobjectTables:
    """The subobject tables and the radical memo of one handle.

    The table of x is [(join, rep)], one entry per class of the subobjects w
    of x, as handle.subobject_classes(x) lists them.  rep is the object of
    the class, equal to sub_as_object(w): for modules in the catalogue
    presentation that finite_abelian_modules gives, for representations the
    identical one.  join is the sum of every w of that class.  Any subobject
    t of x holds every w of the class iff it holds their join, so the table
    answers "is some w of this class outside t" with one inclusion test.
    Tables are keyed by handle.coordinates(x), never by isomorphism class,
    and hold no verdict, so they serve every source set;
    verify_torsion_pair_axioms reads them.  Once the tables hold more than
    SUBOBJECT_TABLE_CAP entries the oldest presentation goes first.

    The radical memo maps (tuple(sources), handle.coordinates(x)) to the
    subobject t(x) that torsion_radical_generated's iterated trace stopped
    at.  It is sound because t(x) is fixed by x and by the torsion class the
    sources generate, which depends only on their isomorphism classes (and
    sources compare by isomorphism class or by value), and t is a subobject
    in the coordinates of x.  Every rep of one module class has the same
    presentation, so the subobjects of one class share an entry, and share
    it with the same group met as an object in its catalogue presentation.
    The memo holds at most SUBOBJECT_TABLE_CAP radicals and drops the oldest
    first.  It saves only the loop: torsion_radical_generated checks its
    postconditions on every call.
    """

    def __init__(self):
        self.tables: dict = {}
        self.entries = 0
        self.radicals: dict = {}

    def get(self, handle, x) -> list:
        key = handle.coordinates(x)
        table = self.tables.get(key)
        if table is None:
            table = self.tables[key] = handle.subobject_classes(x)
            self.entries = _evict_oldest(self.tables, self.entries + len(table), len)
        return table

    def radical(self, handle, sources, x):
        key = (tuple(sources), handle.coordinates(x))
        t = self.radicals.get(key)
        if t is None:
            t = self.radicals[key] = _iterated_trace(handle, sources, x)
            _evict_oldest(self.radicals, len(self.radicals), lambda _: 1)
        return t


class AbelianHandle:
    """Finitely generated modules over Z or Z/n as a torsion universe."""
    criterion_name = "ass-criterion"

    def __init__(self, ring: Ring):
        global ab, la
        if ab is None:
            from . import abelian as ab
            from . import intlinalg as la
        from .rings import KIND_Z, KIND_ZMOD
        if ring.kind not in (KIND_Z, KIND_ZMOD):
            raise InputError("the module handle works over Z or Z/n")
        self.ring = ring
        self._subobject_tables = _SubobjectTables()

    # objects are PresentedModule, subobjects are ab.Subobject

    def coordinates(self, x):
        """What the subobjects of x are coordinates in: its presentation, since
        module equality is isomorphism."""
        return x.presentation()

    def enumerable(self, x) -> bool:
        return x.is_finite()

    def subobjects(self, x):
        return ab.enumerate_submodules(x)

    def subobject_classes(self, x):
        """One pass over the subgroup matrices of the finite x: each class in
        its catalogue presentation, and its join as a Hermite basis, at most
        one column per generator, since the maximality loop reads only the
        join's embedding (see abelian.subgroup_classes)."""
        return ab.subgroup_classes(x)

    def part_candidates(self, x):
        """The 2^k sums of primary components of the finite x, ordered by their
        closed-form orders: exactly its torsion parts, so no endomorphism is
        consulted and no lattice is built to sort them."""
        return ab.hall_submodules(x)

    def zero_sub(self, x):
        return ab.Subobject.zero(x)

    def full_sub(self, x):
        return ab.Subobject.full(x)

    def cogenerated_start(self, x, sources):
        """A subobject of finite length that holds the radical t(x) of the pair
        cogenerated by the sources: x when x is finite or every source is 0,
        otherwise its torsion submodule.

        Let s be a non-zero source and w <= x of positive rank.  Then w maps
        onto Z, and Z maps non-zero into s, so Hom(w, s) != 0 and w is not
        torsion.  So t(x), which is torsion, has rank 0: t(x) <= tors(x).
        """
        if x.is_finite() or all(s.is_zero() for s in sources):
            return ab.Subobject.full(x)
        return ab.torsion_submodule(x)

    def sub_as_object(self, w):
        return w.as_module()

    def quotient(self, x, w):
        q = ab.quotient(x, w)
        return q, Morph(x, q, la.identity(x.gens))

    def hom_basis(self, a, b):
        return [Morph(a, b, m) for m in ab.hom_basis(a, b)]

    def multiplication_morph(self, x, c: int):
        return Morph(x, x, ab.multiplication_endo(x, c))

    def image(self, f: Morph):
        return ab.Subobject(f.dst, f.data)

    def pull_sub(self, f: Morph, w):
        if f.data == la.identity(f.src.gens):
            # the quotient projection (x and x/t share generator coordinates):
            # the preimage of w.lattice under the identity is w.lattice, which
            # holds f.src's relations because f is a morphism
            return ab.Subobject.from_lattice(f.src, w.lattice)
        cols = la.preimage(la.columns(f.data), w.lattice.basis, f.dst.gens)
        return ab.Subobject(f.src, la.from_columns(cols, f.src.gens))

    def compose_sub(self, x, w, inner):
        emb = la.matmul(w.embedding, inner.embedding)
        return ab.Subobject(x, emb)

    def part_test(self, x, w) -> bool:
        """Hom(w, x/w) = 0 by the coprime-order rule; parts are only tested on
        enumerated subobjects, so x is finite.  A pruned candidate carries its
        closed-form order, and so does an enumerated subgroup, so testing
        either builds no lattice.  A w of another
        presentation is refused: its columns mean other elements in x."""
        ab._require_ambient(x, w)
        order_w = w.order()
        return math.gcd(order_w, x.order() // order_w) == 1

    def criterion(self, x):
        """Ass(x) is one prime, the type tag ((0) as 0); otherwise the primary
        component at the least associated prime is a proper part."""
        ass = ab.associated_primes(x)
        if len(ass) == 1:
            return True, None, ("prime", 0 if ass.includes_zero else ass.primes[0])
        return False, ab.primary_component(x, min(ass.primes)), None

    def describe(self, x) -> str:
        return x.describe()


class QuiverHandle:
    """Finite-dimensional representations of a fixed acyclic quiver over F_p;
    each computation reads p from its representations, not from the handle."""
    criterion_name = "single-vertex-criterion"

    def __init__(self, quiver: qv.Quiver, p: int):
        global qv, ml
        if qv is None:
            from . import modlinalg as ml
            from . import quiver as qv
        self.quiver = quiver
        self._subobject_tables = _SubobjectTables()

    def coordinates(self, x):
        """A representation compares by its maps, so it is its own coordinates."""
        return x

    def enumerable(self, x) -> bool:
        return qv.enumerable(x)

    def subobjects(self, x):
        return qv.iter_subreps(x)

    def subobject_classes(self, x):
        """Every subrepresentation w, grouped by w.as_rep(): a representation
        compares by its maps, so only identical ones share a class.  A join
        holds only its spaces, which `SubRep.sum` row-reduces, so it is kept
        as it is."""
        members: dict = {}
        for w in qv.iter_subreps(x):
            members.setdefault(w.as_rep(), []).append(w)
        return [(functools.reduce(lambda a, b: a.sum(b), ws), rep)
                for rep, ws in members.items()]

    def part_candidates(self, x):
        """The subrepresentations whose dimension vector m can hold a part:
        those of a vector with U > E (see part_test) are skipped before any is
        built.  Filtering by End(x) costs more part tests than it saves on the
        representations the enumeration bound admits."""
        return qv.iter_subreps(x, prune=True)

    def zero_sub(self, x):
        return qv.SubRep.zero(x)

    def full_sub(self, x):
        return qv.SubRep.full(x)

    def cogenerated_start(self, x, sources):
        """x itself, which has finite dimension."""
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
            ml.Subspace(f.dst.p, d, [ml.mat_vec_mod(mat, vec, f.dst.p) for vec in sp.rows])
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
        """Hom(w, x/w) = 0, on the blocks of x in the basis adapted to w: one
        pass, which also refuses an unstable w, and no representation of w or
        x/w is built.

        With m = dim w and n = dim x/w, the Hom system has U = sum_v m_v n_v
        unknowns and E = sum_{a: s->t} m_s n_t equations.  U = 0 leaves only
        the zero map, so w is a part; U > E leaves a kernel of dimension at
        least U - E = <m, n> (the Euler form), so w is not.  Only U <= E
        needs the solve.
        """
        sub_maps, quo_maps, functionals = qv._adapted_blocks(x, w)
        m = w.dims()
        n = [len(f) for f in functionals]
        unknowns, equations = qv._hom_system_size(x.quiver, m, n)
        if not unknowns:
            return True
        if unknowns > equations:
            return False
        return not qv._hom_space(x.quiver, x.p, m, sub_maps, n, quo_maps)

    def criterion(self, x):
        """The support is one vertex, the type tag, as the simples are the S_v.
        Otherwise the witness is the first proper part where x is enumerable,
        else W = x_v at a sink v of the support, a part as (x/W)_v = 0.  W and
        its recheck write a d x d basis at each vertex, so the sum of d^2 - 256
        is refused past the arrow-map entries counted at both ends."""
        support = x.support()
        if len(support) == 1:
            return True, None, ("vertex", support[0])
        if self.enumerable(x):
            return False, _first_proper_part(self, x, True), None
        entries = sum(x.dims[s] * x.dims[t] for s, t in x.quiver.arrows)
        if sum(d * d - 256 for d in x.dims) > 2 * entries:
            raise InputError(f"the sink witness of {self.describe(x)} outgrows its arrow maps")
        v = next(v for v in support
                 if all(t not in support for s, t in x.quiver.arrows if s == v))
        return False, qv.SubRep(x, [(ml.Subspace.full if u == v else ml.Subspace.zero)(x.p, d)
                                    for u, d in enumerate(x.dims)]), None

    def describe(self, x) -> str:
        return f"rep dims={list(x.dims)} over F_{x.p}"


# ---------------------------------------------------------------------------
# generic torsion machinery
# ---------------------------------------------------------------------------


def _candidates(handle, x, prune: bool):
    """A list of subobjects of x in canonical order that holds every torsion part.

    With pruning it is the handle's `part_candidates`, otherwise every
    subobject.  A finite module's torsion parts are the w with coprime |w|
    and |x/w|, so its candidates are the sums of its primary components,
    one per set of primes of |x|; a representation's are its
    subrepresentations of the dimension vectors m with U <= E (see
    QuiverHandle.part_test).  `part_test` still runs on every candidate.
    """
    return handle.part_candidates(x) if prune else handle.subobjects(x)


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
    """Brute force seeks a first proper part; the handle's closed-form criterion,
    auto's choice where x cannot be enumerated, has its witness rechecked."""
    if x.is_zero():
        raise InputError("torsion-simplicity is defined for non-zero objects")
    if method == "auto":
        method = "brute-force" if handle.enumerable(x) else handle.criterion_name
    if method == "brute-force":
        witness = _first_proper_part(handle, x, prune)
        if witness is not None:
            return SimplicityReport(False, method, witness)
        verdict, _, type_tag = handle.criterion(x)
        if not verdict:
            raise ContradictionError(f"the {handle.criterion_name} disagrees with brute force")
        return SimplicityReport(True, method, None, type_tag)
    if method != handle.criterion_name:
        raise InputError(f"the {method} method does not apply to {handle.describe(x)}: "
                         f"the criterion that applies to it is {handle.criterion_name}")
    verdict, witness, type_tag = handle.criterion(x)
    if witness is not None and not _quotient_orthogonal(handle, x, witness)[1]:
        raise ContradictionError(f"the {method} witness failed its hom-vanishing recheck")
    return SimplicityReport(verdict, method, witness, type_tag)


def _quotient_orthogonal(handle, x, w):
    """(x/w, whether Hom(w, x/w) = 0), the hom-vanishing test by hom basis."""
    q, _ = handle.quotient(x, w)
    return q, not handle.hom_basis(handle.sub_as_object(w), q)


def _radical_axioms(handle, sources, x, t) -> tuple[bool, bool]:
    """(Hom(t, x/t) = 0, t(x/t) = 0) for the radical t of x."""
    q, orthogonal = _quotient_orthogonal(handle, x, t)
    return orthogonal, trace(handle, sources, q).is_zero()


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


def torsion_radical_generated(handle, sources, x):
    """t(x) for the torsion pair generated by `sources`, by stabilising iterated
    trace, which runs once per source set and coordinates of x in the
    handle's radical memo (see _SubobjectTables).  Its postconditions
    Hom(t(x), x/t(x)) = 0 and t(x/t(x)) = 0 run on every call, a memo hit included."""
    t = handle._subobject_tables.radical(handle, sources, x)
    orthogonal, idempotent = _radical_axioms(handle, sources, x, t)
    for holds, axiom in ((orthogonal, "Hom(t(x), x/t(x)) = 0"), (idempotent, "t(x/t(x)) = 0")):
        if not holds:
            raise ContradictionError(f"radical postcondition {axiom} failed "
                                     f"for {_instance(handle, sources, x)}")
    return t


def _iterated_trace(handle, sources, x):
    """t_0 = 0 and t_{k+1} the preimage in x of the trace of the sources in
    x/t_k, until the trace is zero or the preimage stops growing."""
    t = handle.zero_sub(x)
    while True:
        q, proj = handle.quotient(x, t)
        tr = trace(handle, sources, q)
        if tr.is_zero():
            return t
        t_new = handle.pull_sub(proj, tr)
        if t_new.key() == t.key():
            return t
        t = t_new


def reject(handle, sources, x):
    """Intersection of kernels of all morphisms from x to the sources."""
    r = handle.full_sub(x)
    for s in sources:
        for f in handle.hom_basis(x, s):
            r = r.intersect(handle.pull_sub(f, handle.zero_sub(f.dst)))
    return r


def torsionfree_coradical_cogenerated(handle, sources, x):
    """(t(x), x/t(x)) for the torsion pair cogenerated by `sources`, whose
    torsion class is {T : Hom(T, s) = 0 for every source s}.

    The torsion radical is the iterated reject, started at the handle's
    `cogenerated_start(x, sources)`, a subobject of finite length that holds
    t(x); the returned object is the torsion-free coradical x/t(x).  Each
    reject of an iterate above t(x) is again above t(x), since every map from
    t(x) to a source is 0, and an iterate equal to its own reject is torsion,
    so inside t(x).  So the descent can only stop at t(x), and it does stop,
    since each step that goes on makes an object of finite length smaller.  The
    postcondition Hom(t(x), source) = 0 is checked on every call.
    """
    cur = handle.cogenerated_start(x, sources)
    while True:
        obj = handle.sub_as_object(cur)
        r = reject(handle, sources, obj)
        if r.is_full():
            break
        cur = handle.compose_sub(x, cur, r)
    for s in sources:
        if handle.hom_basis(obj, s):
            raise ContradictionError("coradical postcondition Hom(t(x), source) = 0 "
                                     f"failed for {_instance(handle, sources, x)}")
    coradical, _ = handle.quotient(x, cur)
    return cur, coradical


def is_essential(handle, w, x) -> bool:
    """True iff w meets every non-zero subobject of x non-trivially."""
    if handle.coordinates(w.ambient) != handle.coordinates(x):
        raise InputError("the subobject does not live in the given object")
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
    if not handle.coordinates(f.src) == handle.coordinates(f.dst) == handle.coordinates(x):
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


def verify_torsion_pair_axioms(handle, sources, sample) -> list[AxiomCheckResult]:
    """For each sample object: orthogonality, largest-subobject maximality, idempotence.

    Orthogonality and idempotence are the postconditions that
    torsion_radical_generated raises on, reported here.

    Maximality asks whether some subobject w of x is torsion (its own radical
    is all of w) without lying inside t = t(x).  A w with t.contains(w)
    cannot break maximality, so its radical is never asked.  Torsion classes
    are closed under isomorphism, so only the class of w matters: maximality
    fails iff some class is torsion and has a member outside t.  In a
    subobject lattice t holds every member of a class iff it holds their
    join, so one inclusion test per class decides which classes have a
    member outside t, and each of those asks its radical once.  Two memos of
    the handle (see _SubobjectTables) keep the rest cheap:

    - the subobject table of x lists each class of subobjects with the join
      of its members and the object sub_as_object(w), built once
      per presentation and read by every later call with any source set.
      It is keyed by presentation because subobjects are coordinates in it,
      and it holds no verdict, so each call still tests t.contains(join)
      for every class;
    - the radical memo, read directly for t = t(x) and for each class, runs
      the iterated trace once per source set and coordinates, across calls:
      t(x) is a hit when the caller already asked for the radical of x, as
      the gabriel-split suite does.  The
      objects in a table are catalogue presentations, so for modules each
      isomorphism class of w costs one loop per source set; QuiverRep compares by
      (quiver, p, dims, maps), so only identical representations share an
      entry.
    """
    tables = handle._subobject_tables
    results = []
    for x in sample:
        t = tables.radical(handle, sources, x)
        orthogonal, idempotent = _radical_axioms(handle, sources, x, t)
        outside = [cls for join, cls in tables.get(handle, x) if not t.contains(join)]
        maximal = not any(tables.radical(handle, sources, cls).is_full() for cls in outside)
        results.append(AxiomCheckResult(handle.describe(x), orthogonal, maximal, idempotent))
    return results
