"""Torsion parts, simplicity verdicts, radicals, coradicals, criterion checks."""
import functools
import itertools
import math
import random
import re
import time
from pathlib import Path
from unittest import mock

import pytest
from conftest import (QUIVER_SHAPES, brute_subgroups, dense_module_data, dense_relations,
                      simple_rep, small_rep_data)
from hypothesis import example, given, settings, strategies as st

from torsion_lab import abelian, engine, modlinalg
from torsion_lab import intlinalg as la
from torsion_lab.abelian import (PresentedModule, Subobject, cyclic_module,
                                 direct_sum_module, enumerate_submodules,
                                 finite_abelian_modules, hom_group,
                                 primary_component, quotient)
from torsion_lab.engine import (AbelianHandle, QuiverHandle,
                                injective_criterion_check, is_essential,
                                is_torsion_simple, torsion_parts,
                                torsion_radical_generated,
                                torsionfree_coradical_cogenerated, trace,
                                verify_torsion_pair_axioms)
from torsion_lab.errors import ContradictionError, InputError
from torsion_lab.intlinalg import columns, mat_vec
from torsion_lab.quiver import Quiver, QuiverRep, a_n_quiver, iter_subreps
from torsion_lab.rings import Ring

Z = Ring.integers()
H = AbelianHandle(Z)
A2 = a_n_quiver(2)
QH = QuiverHandle(A2, 2)
P1 = QuiverRep(A2, 2, [1, 1], [[[1]]])


def test_torsion_parts_z6():
    parts = torsion_parts(H, cyclic_module(Z, 6))
    assert len(parts) == 4
    assert sorted(w.order() for w in parts.parts) == [1, 2, 3, 6]


def test_torsion_parts_z4():
    parts = torsion_parts(H, cyclic_module(Z, 4))
    assert len(parts) == 2
    assert parts.parts[0].is_zero() and parts.parts[1].is_full()


def test_torsion_parts_p1():
    parts = torsion_parts(QH, P1)
    assert [w.dims() for w in parts.parts] == [(0, 0), (0, 1), (1, 1)]


def test_trivial_parts_always_present():
    for mod in [cyclic_module(Z, 4), direct_sum_module(Z, [2, 2]),
                direct_sum_module(Z, [2, 3])]:
        keys = torsion_parts(H, mod).keys()
        assert Subobject.zero(mod).key() in keys
        assert Subobject.full(mod).key() in keys


def _endo_stable(endos, w):
    """Every endomorphism matrix maps each embedding column of w into w.lattice."""
    return all(w.lattice.contains(mat_vec(f, col))
               for f in endos for col in columns(w.embedding))


def test_every_part_is_hom_orthogonal_and_stable():
    for orders in ([6], [2, 2], [12], [4, 2]):
        mod = direct_sum_module(Z, orders)
        parts = torsion_parts(H, mod)
        _, endos = hom_group(mod, mod)
        for w in parts.parts:
            assert not hom_group(w.as_module(), quotient(mod, w))[1]
            assert _endo_stable(endos, w)


def test_is_torsion_simple_examples():
    assert is_torsion_simple(H, cyclic_module(Z, 8)).verdict
    rep = is_torsion_simple(QH, P1)
    assert not rep.verdict
    assert rep.witness.dims() == (0, 1)
    mixed = PresentedModule(Z, 2, [[0], [2]])   # Z + Z/2
    rep2 = is_torsion_simple(H, mixed)
    assert not rep2.verdict and rep2.method == "ass-criterion"
    assert rep2.witness.as_module().canonical_decomposition() == (0, [2])
    # witness is independently re-checkable
    assert not hom_group(rep2.witness.as_module(), quotient(mixed, rep2.witness))[1]


def test_is_torsion_simple_zero_object_rejected():
    with pytest.raises(InputError):
        is_torsion_simple(H, PresentedModule(Z, 0, []))


def test_free_module_is_torsion_simple():
    assert is_torsion_simple(H, PresentedModule(Z, 1, [[]])).verdict
    assert is_torsion_simple(H, PresentedModule(Z, 2, [[], []])).verdict


def test_trace_examples():
    z2 = cyclic_module(Z, 2)
    z4 = cyclic_module(Z, 4)
    assert trace(H, [z2], z4).order() == 2
    assert trace(H, [z4], z4).is_full()
    assert trace(H, [z2], cyclic_module(Z, 3)).is_zero()


def test_radical_examples():
    z2 = cyclic_module(Z, 2)
    assert torsion_radical_generated(H, [z2], cyclic_module(Z, 4)).is_full()
    assert torsion_radical_generated(H, [z2], cyclic_module(Z, 3)).is_zero()


def test_radical_matches_primary_components():
    for n in (12, 30, 60, 72, 90, 100):
        for mod in finite_abelian_modules(n):
            for v in ((2,), (3,), (5,), (2, 3), (2, 5), (3, 5), (2, 3, 5)):
                sources = [cyclic_module(Z, p) for p in v]
                rad = torsion_radical_generated(H, sources, mod)
                expected = Subobject.zero(mod)
                for p in v:
                    expected = expected.sum(primary_component(mod, p))
                assert rad.key() == expected.key(), (n, v)


def test_coradical_examples():
    z2 = cyclic_module(Z, 2)
    z4 = cyclic_module(Z, 4)
    t, cor = torsionfree_coradical_cogenerated(H, [z2], z4)
    assert t.is_zero() and cor.canonical_decomposition() == (0, [4])
    t, cor = torsionfree_coradical_cogenerated(H, [z4], z4)
    assert t.is_zero()
    t, cor = torsionfree_coradical_cogenerated(H, [cyclic_module(Z, 3)], z4)
    assert t.is_full() and cor.is_zero()


def test_coradical_of_mixed_module():
    # S = {Z/2}: t = 2-divisible-free? iterated reject of Z/12 against Z/2
    z12 = cyclic_module(Z, 12)
    t, cor = torsionfree_coradical_cogenerated(H, [cyclic_module(Z, 2)], z12)
    # morphisms Z/12 -> Z/2 kill 2Z/12; reject stabilises at 4Z/12 = Z/3
    assert t.as_module().canonical_decomposition() == (0, [3])
    assert cor.canonical_decomposition() == (0, [4])


@pytest.mark.parametrize("orders, source, radical, coradical", [
    # the reject of Z + Z/3 by Z/100 is 100Z + Z/3, again isomorphic to it, so
    # the descent starts at the torsion submodule Z/3 instead
    ([0, 3], 100, (0, [3]), (1, [])),
    # the reject of Z by Z/2 is 2Z, then 4Z, ...
    ([0], 2, (0, []), (1, [])),
    ([0, 0, 12], 2, (0, [3]), (2, [4])),
    # with only zero sources the whole module is torsion
    ([0, 3], 1, (1, [3]), (0, [])),
])
def test_coradical_of_an_infinite_module_by_a_finite_source(orders, source, radical,
                                                            coradical):
    x = direct_sum_module(Z, orders)
    t, cor = torsionfree_coradical_cogenerated(H, [cyclic_module(Z, source)], x)
    assert t.as_module().canonical_decomposition() == radical
    assert cor.canonical_decomposition() == coradical


def _prime_factors(n: int) -> set[int]:
    """The primes of n >= 1 by trial division (test-local)."""
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    return out | {n} if n > 1 else out


def _part(d: int, primes) -> int:
    """The largest divisor of d >= 1 whose primes lie in `primes`."""
    out = 1
    for p in primes:
        while d % p == 0:
            out, d = out * p, d // p
    return out


def _invariant_factors(orders: list[int]) -> list[int]:
    """1 < d_1 | d_2 | ... of the sum of the Z/d for d in orders (test-local):
    the i-th largest prime powers of each prime multiply to the i-th largest."""
    powers: dict = {}
    for d in orders:
        for p in _prime_factors(d):
            powers.setdefault(p, []).append(_part(d, (p,)))
    length = max(map(len, powers.values()), default=0)
    cols = [sorted(v, reverse=True) + [1] * (length - len(v)) for v in powers.values()]
    return sorted(math.prod(col[i] for col in cols) for i in range(length))


@pytest.mark.parametrize("mode", ["generated", "cogenerated"])
def test_radicals_over_z_match_the_closed_form(mode):
    # x = Z^r + T, and P is the set of primes of the torsion orders of the
    # sources (Gabriel 1962; Dickson 1966).  Generated: t(x) = x if some
    # source is infinite, otherwise the sum of the p-parts of T for p in P.
    # Cogenerated: t(x) = x if every source is 0, otherwise the sum of the
    # p-parts of T for p outside P.  Radical and quotient are compared
    # through invariants computed here from the orders alone.
    rng = random.Random(30)
    handle = AbelianHandle(Z)
    source_kinds = ([], [2], [3], [4], [5], [6], [9], [12], [0], [0, 2], [0, 0, 3])
    infinite_answers = 0
    for _ in range(300):
        free = rng.randint(0, 2)
        torsion = [rng.choice((2, 3, 4, 5, 6, 8, 9, 12, 15, 30))
                   for _ in range(rng.randint(0, 3))]
        x = _dense_presentation(rng, [0] * free + torsion)
        source_orders = [rng.choice(source_kinds) for _ in range(rng.randint(0, 3))]
        sources = [_dense_presentation(rng, orders) for orders in source_orders]
        primes = {p for orders in source_orders for d in orders if d for p in _prime_factors(d)}
        inside = [_part(d, primes) for d in torsion]
        outside = [d // part for d, part in zip(torsion, inside)]
        if mode == "generated":
            whole = any(0 in orders for orders in source_orders)
            t = torsion_radical_generated(handle, sources, x)
            q, _ = handle.quotient(x, t)
            radical, rest = inside, outside
        else:
            whole = not any(source_orders)
            t, q = torsionfree_coradical_cogenerated(handle, sources, x)
            radical, rest = outside, inside
        if whole:
            expected = ((free, _invariant_factors(torsion)), (0, []))
        else:
            expected = ((0, _invariant_factors(radical)), (free, _invariant_factors(rest)))
            infinite_answers += free > 0
        got = (t.as_module().canonical_decomposition(), q.canonical_decomposition())
        assert got == expected, (x.describe(), [s.describe() for s in sources])
    assert infinite_answers > 100


def _broken_trace(zero_on_call):
    """Patch in a trace that is 0 on the calls `zero_on_call` picks, true elsewhere."""
    calls = []

    def broken(handle, sources, x):
        calls.append(x)
        if zero_on_call(len(calls)):
            return handle.zero_sub(x)
        return trace(handle, sources, x)

    return mock.patch.object(engine, "trace", broken)


@pytest.mark.parametrize("zero_on_call, failed", [
    # t stops at 2Z/4, which maps onto x/t = Z/2
    (lambda k: k > 1, r"Hom\(t\(x\), x/t\(x\)\) = 0"),
    # t stops at 0, but x/t = x still receives Z/2
    (lambda k: k == 1, r"t\(x/t\(x\)\) = 0"),
])
def test_radical_postconditions_name_the_object_and_sources(zero_on_call, failed):
    # a fresh handle: on a warm one the radical memo answers t(Z/4) without
    # running the broken loop
    with _broken_trace(zero_on_call), pytest.raises(
            ContradictionError, match=failed + r" failed for Z/4 with sources \[Z/2\]$"):
        torsion_radical_generated(AbelianHandle(Z), [cyclic_module(Z, 2)], cyclic_module(Z, 4))


@pytest.mark.parametrize("zero_on_call, orthogonal, idempotent", [
    (lambda k: k > 1, False, True), (lambda k: k == 1, True, False)])
def test_axioms_report_what_the_radical_raises_on(zero_on_call, orthogonal, idempotent):
    # the broken loops of the test above: the axioms report the failed
    # postcondition instead of raising
    with _broken_trace(zero_on_call):
        [result] = verify_torsion_pair_axioms(AbelianHandle(Z), [cyclic_module(Z, 2)],
                                              [cyclic_module(Z, 4)])
    assert (result.orthogonal, result.idempotent) == (orthogonal, idempotent)


def test_coradical_postcondition_names_the_object_and_sources():
    # coradicals take no trace: break the reject instead, so t(x) = x = Z/4
    with mock.patch.object(engine, "reject", lambda handle, sources, x: handle.full_sub(x)):
        with pytest.raises(ContradictionError,
                           match=r"failed for Z/4 with sources \[Z/3, Z/2\]$"):
            torsionfree_coradical_cogenerated(
                H, [cyclic_module(Z, 3), cyclic_module(Z, 2)], cyclic_module(Z, 4))



def test_cogenerated_radical_pulls_back_along_many_maps_fast():
    # Hom((1, 1, 1), (500, 0, 1)) on A3 has 500 basis maps, each pulled back
    # along a 500 x 1 matrix: no 500 x 500 product per map
    a3 = a_n_quiver(3)
    x = QuiverRep(a3, 2, [1, 1, 1], [[[1]], [[1]]])
    source = QuiverRep(a3, 2, [500, 0, 1], [[], [[]]])
    start = time.perf_counter()
    t, coradical = torsionfree_coradical_cogenerated(QuiverHandle(a3, 2), [source], x)
    assert time.perf_counter() - start < 3
    assert t.dims() == (0, 1, 1) and coradical.dims == (1, 0, 0)

def test_essential_examples():
    z4 = cyclic_module(Z, 4)
    mid = [s for s in H.subobjects(z4) if s.order() == 2][0]
    assert is_essential(H, mid, z4)
    k4 = direct_sum_module(Z, [2, 2])
    line = [s for s in H.subobjects(k4) if s.order() == 2][0]
    assert not is_essential(H, line, k4)
    assert is_essential(H, Subobject.full(z4), z4)


def test_injective_criterion_examples():
    z8 = cyclic_module(Z, 8)
    rep = injective_criterion_check(H, z8, H.multiplication_morph(z8, 2))
    assert rep.hypotheses_hold and rep.checked_parts == 2
    rep_id = injective_criterion_check(H, z8, H.multiplication_morph(z8, 1))
    assert not rep_id.kernel_essential
    z6 = cyclic_module(Z, 6)
    rep6 = injective_criterion_check(H, z6, H.multiplication_morph(z6, 2))
    assert not rep6.kernel_essential


def test_criterion_and_essentiality_refuse_another_presentation():
    # x and y are both Z/2 + Z/4, so they compare equal, but a subobject of y
    # is a coordinate column in y's presentation and means another subgroup in x
    x = PresentedModule(Z, 2, [[4, 0], [0, 2]])
    y = PresentedModule(Z, 2, [[2, 0], [0, 4]])
    assert x == y
    m = [[1, 0], [0, 0]]
    assert m in hom_group(y, y)[1]
    assert not injective_criterion_check(H, y, engine.Morph(y, y, m)).kernel_essential
    with pytest.raises(InputError):
        injective_criterion_check(H, x, engine.Morph(y, y, m))
    not_essential = [w for w in H.subobjects(y) if not is_essential(H, w, y)]
    assert len(not_essential) == 6
    for w in not_essential:
        with pytest.raises(InputError):
            is_essential(H, w, x)
    # a fresh module with x's presentation shares x's coordinates
    fresh = PresentedModule(Z, 2, [[4, 0], [0, 2]])
    assert [is_essential(H, w, fresh) for w in H.subobjects(x)] == \
        [is_essential(H, w, x) for w in H.subobjects(x)]
    rep = injective_criterion_check(H, x, engine.Morph(fresh, fresh, m))
    assert rep == injective_criterion_check(H, x, engine.Morph(x, x, m))


def test_criterion_and_essentiality_refuse_another_representation():
    # same dims as P1, another arrow map
    z = QuiverRep(A2, 2, [1, 1], [[[0]]])
    line = [w for w in iter_subreps(z) if w.dims() == (1, 0)][0]
    with pytest.raises(InputError):
        is_essential(QH, line, P1)
    with pytest.raises(InputError):
        injective_criterion_check(QH, P1, engine.Morph(z, z, (((1,),), ((1,),))))
    same = QuiverRep(A2, 2, [1, 1], [[[1]]])
    assert [is_essential(QH, w, P1) for w in iter_subreps(same)] == [False, True, True]


def test_type_examples():
    assert is_torsion_simple(H, cyclic_module(Z, 9)).type_tag == ("prime", 3)
    assert is_torsion_simple(H, PresentedModule(Z, 1, [[]])).type_tag == ("prime", 0)
    assert is_torsion_simple(QH, simple_rep(A2, 2, 1)).type_tag == ("vertex", 1)
    assert is_torsion_simple(H, cyclic_module(Z, 6)).type_tag is None


def test_axioms_small_sample():
    z2 = cyclic_module(Z, 2)
    sample = []
    for n in range(1, 17):
        sample.extend(finite_abelian_modules(n))
    results = verify_torsion_pair_axioms(H, [z2], sample)
    assert all(r.passed for r in results)


def test_axioms_empty_sources():
    sample = [cyclic_module(Z, 6), direct_sum_module(Z, [2, 2])]
    for x in sample:
        t = torsion_radical_generated(H, [], x)
        assert t.is_zero()
    results = verify_torsion_pair_axioms(H, [], sample)
    assert all(r.passed for r in results)


def test_axioms_quiver_sample():
    s2 = simple_rep(A2, 2, 1)
    sample = [P1, simple_rep(A2, 2, 0), s2,
              QuiverRep(A2, 2, [2, 2], [[[1, 0], [0, 1]]]),
              QuiverRep(A2, 2, [2, 2], [[[0, 0], [0, 0]]]),
              QuiverRep(A2, 2, [1, 2], [[[1], [0]]])]
    results = verify_torsion_pair_axioms(QH, [s2], sample)
    assert all(r.passed for r in results)


def test_pruning_agrees_small():
    for n in range(1, 33):
        for mod in finite_abelian_modules(n):
            assert (torsion_parts(H, mod, prune=True).keys()
                    == torsion_parts(H, mod, prune=False).keys())


def test_pruning_agrees_on_a2_and_a3_reps():
    import itertools
    for quiver in (A2, a_n_quiver(3)):
        handle = QuiverHandle(quiver, 2)
        arrow_shapes = [(s, t) for s, t in quiver.arrows]
        for dims in itertools.product(range(3), repeat=quiver.vertex_count):
            sizes = [dims[t] * dims[s] for s, t in arrow_shapes]
            for flat in itertools.product(range(2), repeat=sum(sizes)):
                mats = []
                pos = 0
                for (s, t), size in zip(arrow_shapes, sizes):
                    chunk = flat[pos:pos + size]
                    pos += size
                    mats.append([[chunk[i * dims[s] + j] for j in range(dims[s])]
                                 for i in range(dims[t])])
                rep = QuiverRep(quiver, 2, dims, mats)
                assert (torsion_parts(handle, rep, prune=True).keys()
                        == torsion_parts(handle, rep, prune=False).keys()), dims


def _random_reps(quiver, p, max_dim, count, rng):
    for _ in range(count):
        dims = [rng.randint(0, max_dim) for _ in range(quiver.vertex_count)]
        yield QuiverRep(quiver, p, dims, [[[rng.randrange(p) for _ in range(dims[s])]
                                           for _ in range(dims[t])]
                                          for s, t in quiver.arrows])


@pytest.mark.parametrize("shape", sorted(QUIVER_SHAPES))
@pytest.mark.parametrize("p, max_dim", [(2, 3), (3, 2), (5, 2)])
def test_pruned_quiver_parts_match_the_unpruned_ones(shape, p, max_dim):
    quiver = Quiver(*QUIVER_SHAPES[shape])
    handle = QuiverHandle(quiver, p)
    for x in _random_reps(quiver, p, max_dim, 30, random.Random(f"{shape}/{p}")):
        assert (torsion_parts(handle, x, prune=True).keys()
                == torsion_parts(handle, x, prune=False).keys()), x
        if not x.is_zero():
            _assert_brute_force_matches_torsion_parts(handle, x)


def test_pruned_quiver_candidates_skip_only_vectors_without_a_part():
    x = QuiverRep(A2, 2, [3, 3], [[[1, 0, 0], [0, 1, 0], [0, 0, 0]]])
    every = list(iter_subreps(x))
    kept = {w.key() for w in QH.part_candidates(x)}
    assert (len(every), len(kept), len(torsion_parts(QH, x))) == (87, 8, 5)
    skipped = [w for w in every if w.key() not in kept]
    for w in skipped:
        m = w.dims()
        n = [d - k for d, k in zip(x.dims, m)]
        # U > E for the vector of every skipped w, and none of them is a part
        assert sum(a * b for a, b in zip(m, n)) > m[0] * n[1]
        assert not QH.part_test(x, w)
    # the kept vectors are skipped by none of their subrepresentations
    assert {w.dims() for w in skipped}.isdisjoint(w.dims() for w in QH.part_candidates(x))


def test_simplicity_matches_unique_factor_over_z():
    # a finite abelian group has a single composition factor Z/p exactly when
    # its order is a power of p (test-local trial division)
    for n in range(2, 61):
        prime_power = len({d for d in range(2, n + 1)
                           if n % d == 0 and all(d % e for e in range(2, d))}) == 1
        for mod in finite_abelian_modules(n):
            assert is_torsion_simple(H, mod).verdict == prime_power, (n, mod.describe())


def test_sp_closed_subsets_drive_the_radical():
    # the radical for the set V of maximal primes is the whole module exactly
    # when the associated primes of the module lie inside V; (0) lies in V only
    # when an infinite source makes V the whole spectrum
    from torsion_lab.abelian import associated_primes

    def inside(v, whole_spectrum, ass):
        return whole_spectrum or (not ass.includes_zero and set(ass.primes) <= set(v))

    for n in (4, 6, 12, 30, 36):
        for mod in finite_abelian_modules(n):
            for v in ((2,), (3,), (2, 3), (2, 3, 5), ()):
                sources = [cyclic_module(Z, p) for p in v]
                rad = torsion_radical_generated(H, sources, mod)
                assert rad.is_full() == inside(v, False, associated_primes(mod))
    free = PresentedModule(Z, 1, [[]])
    finite = [cyclic_module(Z, 2), cyclic_module(Z, 3)]
    for sources, v, whole_spectrum in (([free], (), True), (finite, (2, 3), False)):
        assert (torsion_radical_generated(H, sources, free).is_full()
                == inside(v, whole_spectrum, associated_primes(free)) == whole_spectrum)


def test_simplicity_methods_agree_on_quiver():
    import itertools
    for d1, d2 in itertools.product(range(3), repeat=2):
        for flat in itertools.product(range(2), repeat=d1 * d2):
            mat = [[flat[i * d1 + j] for j in range(d1)] for i in range(d2)]
            rep = QuiverRep(A2, 2, (d1, d2), [mat])
            if rep.is_zero():
                continue
            brute = is_torsion_simple(QH, rep, method="brute-force", prune=False)
            for prune in (True, False):
                # the criterion ignores prune: the pruned walk's first part is
                # the unpruned walk's
                crit = is_torsion_simple(QH, rep, method="single-vertex-criterion",
                                         prune=prune)
                assert (brute.verdict, brute.type_tag) == (crit.verdict, crit.type_tag)
                keys = [r.witness and r.witness.key() for r in (brute, crit)]
                assert keys[0] == keys[1]


def _radical_zero_on(target):
    """Patch in a broken radical memo read: 0 on `target`, the true radical
    elsewhere."""
    real = engine._SubobjectTables.radical

    def broken(tables, handle, sources, x):
        if x is target:
            return handle.zero_sub(x)
        return real(tables, handle, sources, x)

    return mock.patch.object(engine._SubobjectTables, "radical", broken)


@pytest.mark.parametrize("handle, sources, sample", [
    (H, [cyclic_module(Z, 2)], cyclic_module(Z, 4)),
    # three Z/2 lines share one memo entry (a miss, then hits) before Z/3 is torsion
    (H, [cyclic_module(Z, 3)], direct_sum_module(Z, [2, 2, 3])),
    (QH, [simple_rep(A2, 2, 1)], P1),
])
def test_axioms_detect_a_radical_that_is_too_small(handle, sources, sample):
    with _radical_zero_on(sample):
        [result] = verify_torsion_pair_axioms(handle, sources, [sample])
    assert not result.maximal


def test_axioms_compute_one_radical_per_iso_class(monkeypatch):
    calls = []
    real = engine._SubobjectTables.radical

    def counting(tables, handle, sources, x):
        calls.append(x)
        return real(tables, handle, sources, x)

    monkeypatch.setattr(engine._SubobjectTables, "radical", counting)
    x = direct_sum_module(Z, [2] * 5)
    [result] = verify_torsion_pair_axioms(H, [cyclic_module(Z, 3)], [x])
    assert result.passed
    # one for t(x) = 0, then one per class (Z/2)^k, k = 1..5; the zero
    # subobject lies inside t(x) and costs nothing
    assert len(calls) == 6
    assert sorted(m.canonical_decomposition() for m in calls[1:]) == [
        (0, [2] * k) for k in range(1, 6)]


def _dense_presentation(rng, orders, ring=Z):
    return PresentedModule(ring, *dense_relations(rng, orders))


def _unmemoised_maximal(sources, x, t):
    for w in H.subobjects(x):
        if (H._subobject_tables.radical(H, sources, w.as_module()).is_full()
                and not t.contains(w)):
            return False
    return True


_GROUPS = [mod.canonical_decomposition()[1] for n in range(2, 33)
           for mod in finite_abelian_modules(n)]
_SOURCE_SETS = [(2,), (3,), (2, 3), (4,), (2, 5), ()]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(orders=st.sampled_from(_GROUPS), primes=st.sampled_from(_SOURCE_SETS),
       seed=st.integers(0, 2 ** 32), broken=st.booleans())
def test_memoised_maximality_matches_unmemoised_loop(orders, primes, seed, broken):
    x = _dense_presentation(random.Random(seed), orders)
    assert x.canonical_decomposition() == (0, orders)
    sources = [cyclic_module(Z, q) for q in primes]
    with _radical_zero_on(x if broken else None):
        [result] = verify_torsion_pair_axioms(H, sources, [x])
    t = H.zero_sub(x) if broken else torsion_radical_generated(H, sources, x)
    assert result.maximal == _unmemoised_maximal(sources, x, t)


# one handle for every example, so later examples read earlier examples' tables
_TABLE_HANDLE = AbelianHandle(Z)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(orders=st.sampled_from(_GROUPS), seeds=st.tuples(st.integers(0, 2 ** 32),
                                                        st.integers(0, 2 ** 32)),
       broken=st.sampled_from([None, 0, 1, 2]))
def test_table_maximality_matches_unmemoised_loop(orders, seeds, broken):
    dense = _dense_presentation(random.Random(seeds[0]), orders)
    # a fresh instance of the same presentation, then another presentation of the class
    xs = [dense, PresentedModule(Z, dense.gens, dense.relations),
          _dense_presentation(random.Random(seeds[1]), orders)]
    for primes in _SOURCE_SETS:
        sources = [cyclic_module(Z, q) for q in primes]
        for i, x in enumerate(xs):
            with _radical_zero_on(x if i == broken else None):
                [result] = verify_torsion_pair_axioms(_TABLE_HANDLE, sources, [x])
            t = (H.zero_sub(x) if i == broken
                 else torsion_radical_generated(H, sources, x))
            assert result.maximal == _unmemoised_maximal(sources, x, t)


def _record_calls(monkeypatch, name: str) -> list:
    """The modules that the abelian function `name` is called on, in order."""
    calls = []
    real = getattr(abelian, name)

    def counting(module):
        calls.append(module)
        return real(module)

    monkeypatch.setattr(abelian, name, counting)
    return calls


@pytest.fixture
def enumerations(monkeypatch):
    """The modules that abelian.enumerate_submodules is called on, in order."""
    return _record_calls(monkeypatch, "enumerate_submodules")


@pytest.fixture
def table_builds(monkeypatch):
    """The modules whose subobject table abelian.subgroup_classes builds, in
    order; the table path never calls enumerate_submodules."""
    calls = _record_calls(monkeypatch, "subgroup_classes")
    monkeypatch.setattr(abelian, "enumerate_submodules", None)
    return calls


_GABRIEL_SOURCE_SETS = [v for r in range(4) for v in itertools.combinations((2, 3, 5), r)]


def test_one_enumeration_per_presentation(table_builds):
    handle = AbelianHandle(Z)
    for v in _GABRIEL_SOURCE_SETS:
        # a fresh module each time, as the gabriel-split suite builds them
        [result] = verify_torsion_pair_axioms(handle, [cyclic_module(Z, p) for p in v],
                                              [direct_sum_module(Z, [2, 6])])
        assert result.passed
    assert len(_GABRIEL_SOURCE_SETS) == 8 and len(table_builds) == 1
    rng = random.Random(3)
    a, b = _dense_presentation(rng, [2, 4]), _dense_presentation(rng, [2, 4])
    assert a == b and a.presentation() != b.presentation()
    table_builds.clear()
    for v in _GABRIEL_SOURCE_SETS:
        results = verify_torsion_pair_axioms(handle, [cyclic_module(Z, p) for p in v], [a, b])
        assert all(r.passed for r in results)
    assert table_builds == [a, b]


def test_a_table_hit_still_asks_every_radical(table_builds):
    handle = AbelianHandle(Z)
    sources = [cyclic_module(Z, 2)]
    [first] = verify_torsion_pair_axioms(handle, sources, [cyclic_module(Z, 4)])
    again = cyclic_module(Z, 4)
    with _radical_zero_on(again):
        [second] = verify_torsion_pair_axioms(handle, sources, [again])
    assert first.maximal and not second.maximal
    assert len(table_builds) == 1


def test_oracles_enumerate_on_every_call(enumerations):
    handle = AbelianHandle(Z)
    x = direct_sum_module(Z, [2, 4])
    verify_torsion_pair_axioms(handle, [cyclic_module(Z, 2)], [x])
    assert not enumerations
    for _ in range(2):
        torsion_parts(handle, x, prune=False)
        is_essential(handle, handle.full_sub(x), x)
        handle.subobjects(x)
    assert len(enumerations) == 6


def test_tables_hold_one_module_per_class_and_no_lattices():
    handle = AbelianHandle(Z)
    x = direct_sum_module(Z, [2, 2, 4])
    verify_torsion_pair_axioms(handle, [cyclic_module(Z, 2)], [x])
    tables = handle._subobject_tables
    table = tables.tables[x.presentation()]
    subs = handle.subobjects(x)
    # 27 subgroups, and the table holds one (join, class) entry per subgroup
    # type, the 7 partitions inside (2, 1, 1)
    assert len(subs) == 27
    assert tables.entries == len(table) == len({rep for _, rep in table}) == 7
    assert {rep for _, rep in table} == {w.as_module() for w in subs}
    # each class is in its catalogue presentation
    catalogue = {m.presentation() for n in (1, 2, 4, 8, 16) for m in finite_abelian_modules(n)}
    assert all(rep.presentation() in catalogue for _, rep in table)
    # the loop asked no join for its lattice (key() below builds it), and each
    # join is its Hermite basis, at most one column per generator
    assert all(join._lattice is None and len(columns(join.embedding)) <= x.gens
               for join, _ in table)
    for join, rep in table:
        members = [w for w in subs if w.as_module() == rep]
        assert join.key() == functools.reduce(Subobject.sum, members).key()


def test_subgroup_classes_share_radicals_with_catalogue_objects(monkeypatch):
    """A class met as a subgroup is in its catalogue presentation, so the
    radical that the maximality loop asks of it is a memo hit for the same
    group met as an object from finite_abelian_modules."""
    handle = AbelianHandle(Z)
    sources = [cyclic_module(Z, 3)]
    # t = 0, and no class is torsion, so the loop asks every non-zero class
    [result] = verify_torsion_pair_axioms(handle, sources, [direct_sum_module(Z, [2, 4])])
    assert result.passed
    monkeypatch.setattr(engine, "_iterated_trace", None)
    for m in finite_abelian_modules(2) + finite_abelian_modules(4) + [
            direct_sum_module(Z, [4, 2])]:
        assert torsion_radical_generated(handle, sources, m).is_zero()


def test_tables_evict_the_oldest_presentation_past_the_cap(table_builds, monkeypatch):
    monkeypatch.setattr(engine, "SUBOBJECT_TABLE_CAP", 10)
    handle = AbelianHandle(Z)
    k4, z8, z4z2, z2z8 = (direct_sum_module(Z, orders)
                          for orders in ([2, 2], [8], [4, 2], [2, 8]))
    # the entries, one per class: z2z8 has 11 subgroups, more than the cap,
    # in 7 classes
    assert [len(abelian.subgroup_classes(m)) for m in (k4, z8, z4z2, z2z8)] == [3, 4, 5, 7]
    table_builds.clear()
    for sample in ([k4], [z8], [k4, z8], [z4z2], [z8], [k4], [z2z8], [z2z8]):
        verify_torsion_pair_axioms(handle, [cyclic_module(Z, 2)], sample)
    # z4z2 evicts k4; k4 then evicts z8, and z2z8 evicts z4z2
    assert table_builds == [k4, z8, z4z2, k4, z2z8]
    tables = handle._subobject_tables
    assert tables.entries == 10 and list(tables.tables) == [k4.presentation(), z2z8.presentation()]


def test_a_table_past_ten_thousand_subgroups_is_kept(table_builds):
    """Z/2 + Z/2 + Z/4 + Z/8 + Z/16 has 18,600 subgroups in 56 classes: its
    table holds 56 entries, so a second source set reads it again."""
    handle = AbelianHandle(Z)
    x = direct_sum_module(Z, [2, 2, 4, 8, 16])
    for primes in ((2,), (3,)):
        [result] = verify_torsion_pair_axioms(handle, [cyclic_module(Z, p) for p in primes], [x])
        assert result.passed
    assert table_builds == [x] and handle._subobject_tables.entries == 56


def _reference_axioms(handle, sources, x, t, subs, torsion: dict):
    """(orthogonal, maximal, idempotent) of x for the radical t, with the
    maximality loop asking every subobject in `subs` (the subobjects of x)
    on its own: no subobject table, no join and no radical memo.  `torsion`
    keeps whether each (sources, object) is torsion, a verdict that depends
    only on the object."""
    q, _ = handle.quotient(x, t)
    orthogonal = not handle.hom_basis(handle.sub_as_object(t), q)
    idempotent = trace(handle, sources, q).is_zero()
    maximal = True
    for w in subs:
        if t.contains(w):
            continue
        key = (tuple(sources), handle.sub_as_object(w))
        if key not in torsion:
            torsion[key] = engine._iterated_trace(handle, sources, key[1]).is_full()
        if torsion[key]:
            maximal = False
            break
    return orthogonal, maximal, idempotent


def _check_maximality_against_reference(handle, source_sets, xs) -> int:
    """verify_torsion_pair_axioms on one warm handle against the reference on
    every x and source set; where t(x) != 0, also under a radical that
    answers 0 on x, which both sides must find not maximal.  The count of
    broken radicals checked."""
    torsion: dict = {}
    broken = 0
    for x in xs:
        subs = list(handle.subobjects(x))
        for sources in source_sets:
            t = engine._iterated_trace(handle, sources, x)
            [result] = verify_torsion_pair_axioms(handle, sources, [x])
            assert ((result.orthogonal, result.maximal, result.idempotent)
                    == _reference_axioms(handle, sources, x, t, subs, torsion)), (x, sources)
            if t.is_zero():
                continue
            with _radical_zero_on(x):
                [result] = verify_torsion_pair_axioms(handle, sources, [x])
            zero = handle.zero_sub(x)
            assert not result.maximal
            assert not _reference_axioms(handle, sources, x, zero, subs, torsion)[1]
            broken += 1
    return broken


def test_maximality_matches_a_per_subobject_reference_on_modules():
    """Every group of order <= 32, enumerated and densely presented, under
    the 8 source sets {Z/p : p in V}, V a subset of {2, 3, 5}."""
    rng = random.Random(34)
    xs = []
    for n in range(1, 33):
        for mod in finite_abelian_modules(n):
            xs += [mod, _dense_presentation(rng, mod.canonical_decomposition()[1])]
    source_sets = [[cyclic_module(Z, p) for p in v] for v in _GABRIEL_SOURCE_SETS]
    assert _check_maximality_against_reference(AbelianHandle(Z), source_sets, xs) > 300


def test_maximality_matches_a_per_subobject_reference_on_a2_reps():
    """Every A2 representation over F_2 with dimensions <= 2, under 4 source sets."""
    xs = [QuiverRep(A2, 2, [a, b], [[[(i >> (r * a + c)) & 1 for c in range(a)]
                                    for r in range(b)]])
          for a in range(3) for b in range(3) for i in range(2 ** (a * b))]
    source_sets = [[], [simple_rep(A2, 2, 0)], [simple_rep(A2, 2, 1)], [P1]]
    assert len(xs) == 31
    assert _check_maximality_against_reference(QuiverHandle(A2, 2), source_sets, xs) > 20


def _element_order_profile(elements, deltas) -> tuple:
    """The sorted element orders of a subgroup of Z/d_1 + ... + Z/d_k given as
    a set of elements: equal exactly for isomorphic finite abelian groups."""
    return tuple(sorted(math.lcm(*(d // math.gcd(e, d) for e, d in zip(elem, deltas)))
                        for elem in elements))


def test_maximality_tests_one_inclusion_per_class(monkeypatch):
    """A gabriel-axioms style sample, groups of order <= 16 under the 8 source
    sets: Subobject.contains runs once per isomorphism class of subgroups
    (counted by brute force), not once per subgroup."""
    calls = []
    real = Subobject.contains
    monkeypatch.setattr(Subobject, "contains", lambda self, other: calls.append(other)
                        or real(self, other))
    handle = AbelianHandle(Z)
    classes = subgroups = 0
    for n in range(1, 17):
        for mod in finite_abelian_modules(n):
            deltas = mod.canonical_decomposition()[1]
            brute = brute_subgroups(deltas)
            for v in _GABRIEL_SOURCE_SETS:
                x = direct_sum_module(Z, deltas)
                sources = [cyclic_module(Z, p) for p in v]
                torsion_radical_generated(handle, sources, x)
                [result] = verify_torsion_pair_axioms(handle, sources, [x])
                assert result.passed
                classes += len({_element_order_profile(h, deltas) for h in brute})
                subgroups += len(brute)
    assert (len(calls), subgroups) == (classes, 1720) and classes == 768


def _radical_and_axioms(handle, sources, x):
    t = torsion_radical_generated(handle, sources, x)
    [result] = verify_torsion_pair_axioms(handle, sources, [x])
    return t.key(), (result.orthogonal, result.maximal, result.idempotent)


def test_a_warm_radical_memo_answers_as_a_fresh_handle():
    warm = AbelianHandle(Z)
    rng = random.Random(27)
    for n in range(1, 25):
        for mod in finite_abelian_modules(n):
            # the enumerated presentation and a dense one of the same class
            for x in (mod, _dense_presentation(rng, mod.canonical_decomposition()[1])):
                for v in _GABRIEL_SOURCE_SETS:
                    sources = [cyclic_module(Z, p) for p in v]
                    assert (_radical_and_axioms(warm, sources, x)
                            == _radical_and_axioms(AbelianHandle(Z), sources, x)), (n, v)
    assert warm._subobject_tables.radicals


def test_quiver_handle_computes_over_the_objects_prime():
    # a handle built with F_2 computes over the F_3 of its representations
    handle = QuiverHandle(A2, 2)
    x = QuiverRep(A2, 3, (1, 1), [[[2]]])
    assert trace(handle, [QuiverRep(A2, 3, (1, 1), [[[1]]])], x).dims() == (1, 1)
    assert handle.describe(x) == "rep dims=[1, 1] over F_3"
    # the sink witness of a representation past the enumeration bound
    big = QuiverRep(A2, 3, (5, 5), [[[2 * (i == j) for j in range(5)] for i in range(5)]])
    report = is_torsion_simple(handle, big)
    assert report.method == "single-vertex-criterion" and not report.verdict
    assert [space.p for space in report.witness.spaces] == [3, 3]


def test_a_warm_radical_memo_answers_as_a_fresh_quiver_handle():
    warm = QuiverHandle(A2, 2)
    reps = [QuiverRep(A2, 2, [a, b], [[[(i >> (r * a + c)) & 1 for c in range(a)]
                                      for r in range(b)]])
            for a in range(3) for b in range(3) for i in range(2 ** (a * b))]
    for sources in ([simple_rep(A2, 2, 0)], [simple_rep(A2, 2, 1)], [P1], []):
        for x in reps:
            assert (_radical_and_axioms(warm, sources, x)
                    == _radical_and_axioms(QuiverHandle(A2, 2), sources, x)), x


def test_a_radical_memo_hit_runs_no_trace_loop():
    handle = AbelianHandle(Z)
    x = direct_sum_module(Z, [2, 4, 3])
    first = torsion_radical_generated(handle, [cyclic_module(Z, 2)], x)
    # Z/2 presented on two generators, and x built afresh: isomorphic
    # sources and an equal presentation hit the memo
    sources = [PresentedModule(Z, 2, [[2, 0], [0, 1]])]
    assert sources[0] == cyclic_module(Z, 2)
    assert sources[0].presentation() != cyclic_module(Z, 2).presentation()
    again = direct_sum_module(Z, [2, 4, 3])
    with mock.patch.object(engine, "trace", wraps=trace) as traced:
        assert handle._subobject_tables.radical(handle, sources, again) is first
        assert traced.call_count == 0
        # the checked call runs its postcondition's one trace, and no loop
        assert torsion_radical_generated(handle, sources, again) is first
        assert traced.call_count == 1
        # another presentation of x is another key: the loop runs again
        other = _dense_presentation(random.Random(5), [2, 12])
        assert torsion_radical_generated(handle, sources, other).key() != first.key()
        assert traced.call_count > 2


def test_a_radical_memo_hit_still_checks_the_postconditions():
    handle = AbelianHandle(Z)
    sources, x = [cyclic_module(Z, 2)], direct_sum_module(Z, [4, 3])
    t = torsion_radical_generated(handle, sources, x)
    assert t.order() == 4
    with mock.patch.object(engine, "trace", lambda h, srcs, q: h.full_sub(q)):
        # a miss under this trace stops at t = x and passes both checks, so
        # only a hit that still checks can fail
        assert torsion_radical_generated(AbelianHandle(Z), sources, x).is_full()
        with pytest.raises(ContradictionError, match=r"t\(x/t\(x\)\) = 0 failed "
                           r"for Z/12 with sources \[Z/2\]$"):
            torsion_radical_generated(handle, sources, x)


def test_the_radical_memo_evicts_the_oldest_past_the_cap(monkeypatch):
    monkeypatch.setattr(engine, "SUBOBJECT_TABLE_CAP", 3)
    handle = AbelianHandle(Z)
    sources = [cyclic_module(Z, 2)]
    modules = [cyclic_module(Z, n) for n in range(2, 9)]
    radicals = handle._subobject_tables.radicals
    for m in modules + modules[:2]:
        # t(Z/n) is the 2-part of Z/n
        assert torsion_radical_generated(handle, sources, m).order() == m.order() & -m.order()
        assert len(radicals) <= 3
    # Z/2 and Z/3 were dropped and asked again, so they are the newest
    assert list(radicals) == [
        (tuple(sources), m.presentation()) for m in (modules[-1], *modules[:2])]
    # the subobject tables keep their own count under the same cap
    verify_torsion_pair_axioms(handle, sources, [direct_sum_module(Z, [2, 2, 2])])
    assert len(handle._subobject_tables.radicals) <= 3
    assert handle._subobject_tables.entries <= 3


@st.composite
def _dense_modules(draw):
    """A dense presentation over Z (order <= 32) or over Z/n (at most two factors)."""
    n, orders, gens, rels = draw(dense_module_data(_GROUPS))
    m = PresentedModule(Ring.integers_mod(n) if n else Z, gens, rels)
    assert m.order() == math.prod(orders)
    return m


@functools.lru_cache(maxsize=None)
def _brute_coprime_index_count(deltas: tuple) -> int:
    """How many subgroups H of + Z/delta_i have gcd(|H|, |x|/|H|) = 1, by brute force."""
    order = math.prod(deltas)
    return sum(math.gcd(len(h), order // len(h)) == 1 for h in brute_subgroups(list(deltas)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(m=_dense_modules())
@example(m=PresentedModule(Z, 0, []))
@example(m=PresentedModule(Ring.integers_mod(6), 0, []))
def test_part_candidates_are_the_coprime_index_subgroups(m):
    """The candidates are the subgroups w of the unpruned enumeration with
    gcd(|w|, |x/w|) = 1, in its order: one per set of primes of |x|."""
    order = m.order()
    want = [w.key() for w in enumerate_submodules(m)
            if math.gcd(w.order(), order // w.order()) == 1]
    candidates = AbelianHandle(m.ring).part_candidates(m)
    assert [w.key() for w in candidates] == want
    primes = [p for p in range(2, order + 1)
              if order % p == 0 and all(p % q for q in range(2, p))]
    assert len(candidates) == 2 ** len(primes)
    if order <= 64:  # the brute force did not finish Z/36 + Z/36 in two minutes
        assert len(candidates) == _brute_coprime_index_count(
            tuple(m.canonical_decomposition()[1]))


def test_part_candidates_build_no_lattice_and_no_endomorphism_basis(monkeypatch):
    """The candidates carry their closed-form orders, so listing them, testing
    them and deciding torsion-simplicity build no Hermite form, and the pruned
    path builds no End(x) basis."""
    real_init, real_hom = la.ColumnEchelonLattice.__init__, abelian.hom_basis
    builds, calls = [], []

    def init_counting(self, rows, cols):
        builds.append(rows)
        real_init(self, rows, cols)

    def hom_counting(a, b):
        calls.append((a, b))
        return real_hom(a, b)

    modules = [direct_sum_module(Z, orders) for orders in ([4, 2], [2] * 8, [4, 2, 3, 9, 5])]
    modules.append(_dense_presentation(random.Random(11), [2, 6, 12]))
    monkeypatch.setattr(la.ColumnEchelonLattice, "__init__", init_counting)
    counts = [len(H.part_candidates(m)) for m in modules]
    assert counts == [2, 2, 8, 4] and not builds
    answers = [(len(torsion_parts(H, m)), is_torsion_simple(H, m).verdict) for m in modules]
    assert answers == [(2, True), (2, True), (8, False), (4, False)] and not builds
    monkeypatch.setattr(abelian, "hom_basis", hom_counting)
    m = modules[1]
    assert len(torsion_parts(H, m)) == 2
    assert is_torsion_simple(H, m).verdict
    assert not any(a is m and b is m for a, b in calls)


def test_identity_pull_back_matches_the_general_preimage():
    """The quotient projection pulls back along the identity, which returns w's
    own lattice; the general path is the preimage of w under [I | B]."""
    rng = random.Random(34)
    for orders in ([2, 4], [6, 4], [3, 9, 2], [2, 2, 2], [5, 10]):
        x = _dense_presentation(rng, orders)
        subs = enumerate_submodules(x)
        for t in rng.sample(subs, min(4, len(subs))):
            q, proj = H.quotient(x, t)
            assert proj.data == la.identity(x.gens)
            for w in H.subobjects(q):
                fast = H.pull_sub(proj, w)
                cols = la.preimage(columns(proj.data), w.lattice.basis, q.gens)
                slow = Subobject(x, la.from_columns(cols, x.gens))
                assert fast.key() == slow.key() and fast.lattice is w.lattice
                assert t.sum(fast).key() == fast.key()


def _zero_by_key(w) -> bool:
    """The zero test by Hermite keys, on a copy that builds its own lattice."""
    return Subobject(w.ambient, w.embedding).key() == w.ambient.relation_lattice().key()


def test_zero_test_by_membership_matches_the_key():
    rng = random.Random(38)
    z12 = Ring.integers_mod(12)
    cases = [(Z, [2, 4]), (Z, [6, 4]), (Z, [3, 9, 2]), (Z, [2, 2, 3]),
             (z12, [2, 6]), (z12, [0, 4]), (Ring.integers_mod(8), [4, 8])]
    seen = set()
    for ring, orders in cases * 3:
        handle = AbelianHandle(ring)
        x = _dense_presentation(rng, orders, ring)
        sources = [_dense_presentation(rng, [p], ring) for p in (2, 3)]
        subs = enumerate_submodules(x)
        checked = subs + [Subobject.zero(x), trace(handle, sources, x)]
        for t in rng.sample(subs, min(5, len(subs))):
            q, proj = handle.quotient(x, t)
            tr = trace(handle, sources, q)
            checked += [Subobject.zero(q), tr, handle.pull_sub(proj, tr)]
            checked += [handle.image(f) for f in handle.hom_basis(sources[0], q)]
            for f in handle.hom_basis(x, q)[:3]:
                checked += [handle.pull_sub(f, handle.zero_sub(q)), handle.pull_sub(f, tr)]
        for w in checked:
            assert w.is_zero() == _zero_by_key(w), (ring, orders, w.embedding)
            seen.add(w.is_zero())
    assert seen == {False, True}


def _vector_set(cols, n: int, gens: int) -> frozenset:
    """The subgroup of (Z/n)^gens that the columns generate, closed by search."""
    steps = {tuple(x % n for x in col) for col in cols}
    out = {(0,) * gens}
    frontier = list(out)
    while frontier:
        new = []
        for v in frontier:
            for step in steps:
                u = tuple((a + b) % n for a, b in zip(v, step))
                if u not in out:
                    out.add(u)
                    new.append(u)
        frontier = new
    return frozenset(out)


def test_compose_sub_on_enumerated_subgroups_matches_vector_sets():
    # an element of x is a class of Z^g mod its relations, which contain n Z^g
    # for n = |x|, so a subgroup is a set of vectors mod n closed under +;
    # the subgroups of w's own module land one to one on subgroups inside w,
    # with their orders, exactly when w.as_module() presents w
    rng = random.Random(39)
    cases = [(Z, [2, 4]), (Z, [2, 6]), (Z, [3, 3]), (Z, [4]),
             (Ring.integers_mod(4), [0, 2]), (Ring.integers_mod(6), [6, 2])]
    for ring, orders in cases:
        handle = AbelianHandle(ring)
        x = _dense_presentation(rng, orders, ring)
        n = x.order()
        rels = columns(x.relations) + [[ring.n * (i == j) for i in range(x.gens)]
                                       for j in range(x.gens) if ring.n]
        zero = _vector_set(rels, n, x.gens)
        for w in enumerate_submodules(x):
            inside = _vector_set(columns(w.embedding) + rels, n, x.gens)
            inners = enumerate_submodules(w.as_module())
            landed = [_vector_set(columns(handle.compose_sub(x, w, inner).embedding) + rels,
                                  n, x.gens) for inner in inners]
            assert all(s <= inside for s in landed)
            assert len(set(landed)) == len(inners) and inside in landed
            assert [len(s) // len(zero) for s in landed] == [u.order() for u in inners]


def test_handle_contract_is_the_readme_list():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = readme.split("these handle methods:", 1)[1].split("Those are 17 methods.", 1)[0]
    names = set(re.findall(r"`(\w+)`", listed))
    assert len(names) == 17 and "subobject_classes" in names
    # each handle's own helpers, outside the contract
    helpers = {AbelianHandle: {"multiplication_morph"},
               QuiverHandle: {"push_sub"}}
    for cls, own in helpers.items():
        public = {n for n, v in vars(cls).items() if not n.startswith("_") and callable(v)}
        assert own <= public and public - own == names, cls


def test_pruned_path_never_enumerates_every_submodule(monkeypatch):
    def refuse(module):
        raise AssertionError("the pruned path enumerated every submodule")

    monkeypatch.setattr(abelian, "enumerate_submodules", refuse)
    rng = random.Random(5)
    for orders, parts, simple in (([6], 4, False), ([8], 2, True), ([2] * 8, 2, True),
                                  ([2, 4, 3, 9], 4, False), ([5, 25, 125], 2, True)):
        m = _dense_presentation(rng, orders)
        assert len(torsion_parts(H, m)) == parts
        assert is_torsion_simple(H, m).verdict is simple


def test_full_subspaces_skip_row_reduction(monkeypatch):
    for p, dim in itertools.product((2, 3), range(4)):
        full = modlinalg.Subspace.full(p, dim)
        reduced = modlinalg.Subspace(p, dim, [[int(i == j) for j in range(dim)]
                                              for i in range(dim)])
        assert (full.rows, full.pivots) == (reduced.rows, reduced.pivots)
    real = modlinalg.rref
    calls = []

    def counting(rows, p):
        calls.append(rows)
        return real(rows, p)

    monkeypatch.setattr(modlinalg, "rref", counting)
    x = QuiverRep(A2, 2, [2, 2], [[[1, 0], [0, 1]]])
    t = torsion_radical_generated(QH, [simple_rep(A2, 2, 1)], x)
    assert [s.rank for s in t.spaces] == [0, 2]
    # row-reducing every full subspace makes 8 calls
    assert len(calls) < 8


def _first_proper_key(parts):
    proper = [w for w in parts.parts if not w.is_zero() and not w.is_full()]
    return proper[0].key() if proper else None


def _assert_brute_force_matches_torsion_parts(handle, x):
    for prune in (False, True):
        report = is_torsion_simple(handle, x, method="brute-force", prune=prune)
        parts = torsion_parts(handle, x, prune=prune)
        assert report.verdict == (len(parts) == 2)
        assert (report.witness.key() if report.witness else None) == _first_proper_key(parts)


def _handle_and_rep(data):
    vertex_count, arrows, p, dims, maps = data
    handle = QuiverHandle(Quiver(vertex_count, arrows), p)
    return handle, QuiverRep(handle.quiver, p, dims, maps)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=small_rep_data({2: 2, 3: 2}).filter(lambda d: any(d[3])).map(_handle_and_rep))
def test_brute_force_stops_at_the_first_proper_part_of_a_rep(case):
    _assert_brute_force_matches_torsion_parts(*case)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=_dense_modules().filter(lambda m: not m.is_zero()))
def test_brute_force_stops_at_the_first_proper_part_of_a_module(m):
    _assert_brute_force_matches_torsion_parts(AbelianHandle(m.ring), m)


def test_brute_force_builds_subreps_only_up_to_the_first_proper_part(monkeypatch):
    handle = QuiverHandle(A2, 2)
    x = QuiverRep(A2, 2, [3, 3], [[[1, 0, 0], [0, 1, 0], [0, 0, 0]]])
    yielded = []

    def counting(rep):
        for w in QuiverHandle.subobjects(handle, rep):
            yielded.append(w.key())
            yield w

    monkeypatch.setattr(handle, "subobjects", counting)
    report = is_torsion_simple(handle, x, method="brute-force", prune=False)
    keys = [w.key() for w in iter_subreps(x)]
    assert not report.verdict
    assert yielded == keys[:keys.index(report.witness.key()) + 1]
    assert len(yielded) < len(keys)


def test_brute_force_tests_parts_only_up_to_the_first_proper_one(monkeypatch):
    handle = QuiverHandle(A2, 2)
    calls = []

    def counting(x, w):
        calls.append(w.dims())
        return QuiverHandle.part_test(handle, x, w)

    monkeypatch.setattr(handle, "part_test", counting)
    assert len(list(handle.subobjects(P1))) == 3
    for prune in (False, True):
        calls.clear()
        report = is_torsion_simple(handle, P1, method="brute-force", prune=prune)
        assert not report.verdict and report.witness.dims() == (0, 1)
        assert calls == [(0, 1)]


def test_morphisms_compare_by_value():
    x, y = cyclic_module(Z, 6), cyclic_module(Z, 6)
    f = engine.Morph(x, x, [[5]])
    assert f == engine.Morph(src=x, dst=x, data=[[5]])
    assert f == engine.Morph(y, y, [[5]])   # x == y: modules compare up to isomorphism
    assert f != engine.Morph(x, x, [[1]])
    assert f != (x, x, [[5]])
    g = engine.Morph(x, x, ((5,),))
    assert hash(g) == hash(engine.Morph(y, y, ((5,),)))


def test_engine_value_classes_construct_with_defaults():
    x = cyclic_module(Z, 6)
    f = engine.Morph(x, cyclic_module(Z, 3), [[1]])
    assert (f.src, f.dst.order(), f.data) == (x, 3, [[1]])
    parts = engine.TorsionPartSet(obj=x, parts=[Subobject.zero(x)], pruned=False)
    assert (parts.obj, len(parts), parts.pruned) == (x, 1, False)
    assert parts.keys() == [Subobject.zero(x).key()]
    report = engine.SimplicityReport(True, "parts")
    assert (report.verdict, report.method, report.witness, report.type_tag) == \
        (True, "parts", None, None)
    report = engine.SimplicityReport(verdict=False, method="m", witness=x, type_tag=("prime", 2))
    assert (report.witness, report.type_tag) == (x, ("prime", 2))
    crit = engine.InjectiveCriterionReport(True, False, False)
    assert (crit.kernel_essential, crit.kernel_in_image, crit.hypotheses_hold,
            crit.checked_parts) == (True, False, False, 0)
    assert engine.InjectiveCriterionReport(True, True, True, checked_parts=4).checked_parts == 4
    axioms = engine.AxiomCheckResult("Z/6", True, True, False)
    assert (axioms.object_desc, axioms.passed) == ("Z/6", False)
    assert engine.AxiomCheckResult(object_desc="0", orthogonal=True, maximal=True,
                                   idempotent=True).passed


def test_module_part_test_refuses_another_presentation():
    z6 = cyclic_module(Z, 6)
    foreign = Subobject(cyclic_module(Z, 4), [[2]])
    with pytest.raises(InputError, match="does not live"):
        H.part_test(z6, foreign)
    # Z/2 + Z/3 is Z/6, but its coordinates are not z6's
    with pytest.raises(InputError):
        H.part_test(z6, Subobject(direct_sum_module(Z, [2, 3]), [[1, 0], [0, 0]]))
    # a module with the same presentation shares its coordinates
    z4, twin = cyclic_module(Z, 4), cyclic_module(Z, 4)
    assert [H.part_test(z4, Subobject(twin, [[c]])) for c in range(4)] == \
        [H.part_test(z4, Subobject(z4, [[c]])) for c in range(4)] == [True, True, False, True]
