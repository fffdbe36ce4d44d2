"""Quiver representations: hom spaces, subrepresentation lattices, quotients."""
import itertools
import time

import pytest
from conftest import QUIVER_SHAPES, brute_subreps, simple_rep, small_rep_data, span
from hypothesis import given, settings, strategies as st

from torsion_lab.engine import QuiverHandle
from torsion_lab.errors import InputError
from torsion_lab.modlinalg import Subspace, all_subspaces
from torsion_lab.quiver import (Quiver, QuiverRep, SubRep, _adapted_blocks, a_n_quiver,
                                hom_space, iter_subreps, quotient_rep)

A2 = a_n_quiver(2)
S1 = simple_rep(A2, 2, 0)
S2 = simple_rep(A2, 2, 1)
P1 = QuiverRep(A2, 2, [1, 1], [[[1]]])


def _subrep(x, rows):
    """A SubRep of x from raw per-vertex row lists, which need not be arrow-stable."""
    return SubRep(x, [Subspace(x.p, d, r) for d, r in zip(x.dims, rows)])


def _apply(mat, vec, p):
    return tuple(sum(mat[i][j] * vec[j] for j in range(len(vec))) % p for i in range(len(mat)))


def _arrow_stable(w):
    """Test-local stability oracle: every arrow maps every vector of the source
    span into the target span."""
    x = w.ambient
    spans = [span(sp, x.p) for sp in w.spaces]
    return all(_apply(mat, u, x.p) in spans[t]
               for (s, t), mat in zip(x.quiver.arrows, x.maps) for u in spans[s])


def test_acyclicity_enforced():
    with pytest.raises(InputError):
        Quiver(2, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        Quiver(1, [(0, 0)])
    with pytest.raises(InputError):
        Quiver(4, [(3, 1), (1, 2), (2, 3)])


@pytest.mark.parametrize("vertices", [2 ** 63, 3_000_000])
def test_acyclicity_check_costs_only_the_arrows(vertices):
    # a vertex on no arrow is on no cycle, so no per-vertex table is built
    start = time.perf_counter()
    q = Quiver(vertices, [(0, 1), (vertices - 1, 1)])
    assert time.perf_counter() - start < 1
    assert q.vertex_count == vertices
    with pytest.raises(InputError, match="one dimension per vertex required"):
        QuiverRep(q, 2, [1, 1], [[[1]], [[1]]])


def test_hom_examples():
    assert len(hom_space(S1, P1)) == 0
    assert len(hom_space(P1, S1)) == 1
    assert len(hom_space(P1, P1)) >= 1
    assert len(hom_space(S2, P1)) == 1


def _all_a2_reps(max_d1, max_d2, p=2):
    for d1 in range(max_d1 + 1):
        for d2 in range(max_d2 + 1):
            for flat in itertools.product(range(p), repeat=d1 * d2):
                mat = [[flat[i * d1 + j] for j in range(d1)] for i in range(d2)]
                yield QuiverRep(A2, p, (d1, d2), [mat])


def _brute_hom_count(x, y):
    """Exhaustive enumeration of commuting matrix tuples over F_2."""
    p = 2
    count = 0
    for aflat in itertools.product(range(p), repeat=x.dims[0] * y.dims[0]):
        f1 = [[aflat[i * x.dims[0] + j] for j in range(x.dims[0])]
              for i in range(y.dims[0])]
        for bflat in itertools.product(range(p), repeat=x.dims[1] * y.dims[1]):
            f2 = [[bflat[i * x.dims[1] + j] for j in range(x.dims[1])]
                  for i in range(y.dims[1])]
            xa, ya = x.maps[0], y.maps[0]
            ok = True
            for i in range(y.dims[1]):
                for j in range(x.dims[0]):
                    lhs = sum(f2[i][m] * xa[m][j] for m in range(x.dims[1])) % p
                    rhs = sum(ya[i][m] * f1[m][j] for m in range(y.dims[0])) % p
                    if lhs != rhs:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                count += 1
    return count


def test_hom_dimension_matches_brute_force():
    # exhaustive over all commuting matrix tuples, for every pair of reps of
    # total dimension <= 4 over F_2
    reps = [r for r in _all_a2_reps(4, 4) if r.total_dim() <= 4]
    assert len(reps) == 51
    for x in reps:
        for y in reps:
            assert 2 ** len(hom_space(x, y)) == _brute_hom_count(x, y), (x.dims, y.dims)


def test_subrep_counts():
    assert len(list(iter_subreps(P1))) == 3
    assert len(list(iter_subreps(S1))) == 2
    zero_arrow = QuiverRep(A2, 2, [1, 1], [[[0]]])
    assert len(list(iter_subreps(zero_arrow))) == 4
    assert len(list(iter_subreps(QuiverRep(A2, 2, [0, 0], [[]])))) == 1


def test_p1_subreps_are_the_expected_three():
    subs = list(iter_subreps(P1))
    assert [s.dims() for s in subs] == [(0, 0), (0, 1), (1, 1)]


def test_subrep_lattice_closure_and_stability():
    for x in [P1, QuiverRep(A2, 2, [2, 2], [[[1, 0], [0, 1]]]),
              QuiverRep(A2, 3, [1, 2], [[[1], [2]]])]:
        subs = list(iter_subreps(x))
        keys = {s.key() for s in subs}
        for s in subs:
            assert _arrow_stable(s)
            for t in subs:
                assert s.sum(t).key() in keys
                assert s.intersect(t).key() in keys


def test_length_additivity():
    for x in [P1, QuiverRep(A2, 2, [2, 1], [[[1, 0]]]),
              QuiverRep(A2, 2, [2, 2], [[[1, 1], [0, 1]]])]:
        for s in iter_subreps(x):
            q, _ = quotient_rep(x, s)
            assert x.total_dim() == s.total_dim() + q.total_dim()


def test_enumeration_preconditions():
    with pytest.raises(InputError):
        list(iter_subreps(QuiverRep(A2, 7, [1, 0], [[]])))
    big = QuiverRep(A2, 2, [5, 0], [[]])
    with pytest.raises(InputError) as err:
        list(iter_subreps(big))
    assert "4" in str(err.value)   # the bound appears in the message


def test_lazy_enumeration_refuses_at_the_call():
    # the refusal comes from iter_subreps itself, before any next()
    with pytest.raises(InputError):
        iter_subreps(QuiverRep(A2, 7, [1, 0], [[]]))
    with pytest.raises(InputError) as err:
        iter_subreps(QuiverRep(A2, 2, [5, 0], [[]]))
    assert "4" in str(err.value)


def test_quotient_examples():
    line = [s for s in iter_subreps(P1) if s.dims() == (0, 1)][0]
    q, _ = quotient_rep(P1, line)
    assert q.dims == (1, 0)
    zero = SubRep.zero(P1)
    q0, _ = quotient_rep(P1, zero)
    assert q0.dims == P1.dims and q0.maps == P1.maps
    qfull, _ = quotient_rep(P1, SubRep.full(P1))
    assert qfull.is_zero()


def test_unstable_subspaces_rejected():
    with pytest.raises(InputError):
        # the vertex-0 line is not arrow-stable in P1
        quotient_rep(P1, _subrep(P1, [[[1]], []]))


def test_composition_factors():
    handle = QuiverHandle(A2, 2)
    assert handle.criterion(S1) == (True, None, ("vertex", 0))
    assert handle.criterion(S2) == (True, None, ("vertex", 1))
    verdict, witness, tag = handle.criterion(P1)
    assert (verdict, witness.dims(), tag) == (False, (0, 1), None)
    assert handle.criterion(QuiverRep(A2, 2, [0, 0], [[]])) == (False, None, None)


def test_dims_decide_isomorphism_for_one_vertex_a2_reps():
    # every sub and quotient of a representation at one vertex of A2 has only
    # empty arrow matrices, so it is the representation of its dims
    for v, d in itertools.product((0, 1), (1, 2)):
        dims = (d, 0) if v == 0 else (0, d)
        z = QuiverRep(A2, 2, dims, [[[]] * dims[1]])
        for w in iter_subreps(z):
            for part in (w.as_rep(), quotient_rep(z, w)[0]):
                assert all(not row for mat in part.maps for row in mat)
                assert part == QuiverRep(A2, 2, part.dims, [[[]] * part.dims[1]])


def test_a3_quiver_subreps():
    a3 = a_n_quiver(3)
    # the projective at vertex 0: k -> k -> k with identity maps
    p = QuiverRep(a3, 2, [1, 1, 1], [[[1]], [[1]]])
    subs = list(iter_subreps(p))
    assert [s.dims() for s in subs] == [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]


def test_non_prime_fields_refused():
    for p in (4, 1):
        with pytest.raises(InputError):
            QuiverRep(A2, p, [1, 1], [[[1]]])
    # the field check still accepts primes after refusing
    assert QuiverRep(A2, 3, [1, 1], [[[2]]]).p == 3


def test_non_integral_quiver_inputs_refused():
    # a float, a numeric string or a float p is refused, not truncated or parsed
    for args in [(2, [1, 1], [[[1.5]]]), (2, [1, 1], [[["1"]]]), (2, [1, 1], [[[3.0]]]),
                 (2, [1.0, 1], [[[1]]]), (2, ["1", 1], [[[1]]]), (2.0, [1, 1], [[[1]]]),
                 ("2", [1, 1], [[[1]]]), (2, [1, 1], [[1]])]:
        with pytest.raises(InputError):
            QuiverRep(A2, *args)
    for count, arrows in [(2, [(0.5, 1)]), (2, [(0, "1")]), (2.0, [(0, 1)]), ("2", [])]:
        with pytest.raises(InputError):
            Quiver(count, arrows)
    # ints still work, entries reduced mod p
    assert Quiver(2, [(0, 1)]) == A2
    assert QuiverRep(A2, 2, [1, 1], [[[3]]]).maps == (((1,),),)


def test_malformed_quiver_shapes_refused():
    # an arrow that is no pair, dims or maps that are no sequence: once a bare
    # TypeError or ValueError
    for count, arrows in [(2, [5]), (2, [(0, 1, 1)]), (2, 5)]:
        with pytest.raises(InputError):
            Quiver(count, arrows)
    for dims, maps in [(5, [[[1]]]), ([1, 1], 5)]:
        with pytest.raises(InputError):
            QuiverRep(A2, 2, dims, maps)


def test_as_rep_refuses_unstable_subspaces():
    with pytest.raises(InputError):
        _subrep(P1, [[[1]], []]).as_rep()
    line = _subrep(P1, [[], [[1]]])
    assert line.as_rep().dims == (0, 1)
    assert SubRep.full(P1).as_rep() == P1


def _rep(data):
    vertex_count, arrows, p, dims, maps = data
    return QuiverRep(Quiver(vertex_count, arrows), p, dims, maps)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(x=small_rep_data().map(_rep))
def test_subreps_match_exhaustive_subset_search(x):
    subs = list(iter_subreps(x))
    spans = [tuple(span(sp, x.p) for sp in s.spaces) for s in subs]
    assert set(spans) == brute_subreps(x.quiver, x.p, x.dims, x.maps)
    assert len(set(spans)) == len(spans)
    tokens = [s.sort_token() for s in subs]
    assert tokens == sorted(tokens)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(x=small_rep_data({2: 3, 3: 2, 5: 2}).map(_rep))
def test_lazy_enumeration_yields_the_sorted_stable_tuples(x):
    # reference: every tuple of per-vertex subspaces, kept when the test-local
    # oracle finds it arrow-stable, then sorted; over F_5 too, which the subset
    # search cannot reach
    tuples = (SubRep(x, spaces)
              for spaces in itertools.product(*[all_subspaces(x.p, d) for d in x.dims]))
    want = sorted((s.sort_token() for s in tuples if _arrow_stable(s)))
    lazy = [s.sort_token() for s in iter_subreps(x)]
    assert lazy == want
    assert [s.sort_token() for s in iter_subreps(x)] == want


def _random_subrep(rng, x):
    """A SubRep of x from random per-vertex row lists (0-2 rows each), not arrow-stable."""
    return _subrep(x, [[[rng.randrange(x.p) for _ in range(d)] for _ in range(rng.randrange(3))]
                       for d in x.dims])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(x=small_rep_data().map(_rep))
def test_every_part_is_stable_under_every_endomorphism_on_vector_sets(x):
    # Hom(w, x/w) = 0 makes every endomorphism map w into w; the candidates are
    # not filtered by it, so it is checked here on the parts themselves
    from torsion_lab.engine import QuiverHandle, torsion_parts
    endos = hom_space(x, x)
    for w in torsion_parts(QuiverHandle(x.quiver, x.p), x).parts:
        spans = [span(sp, x.p) for sp in w.spaces]
        assert all(_apply(f[v], u, x.p) in span
                   for f in endos for v, span in enumerate(spans) for u in span), w.key()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(x=small_rep_data().map(_rep), seed=st.integers(0, 2 ** 16))
def test_subrep_intersect_matches_vector_sets(x, seed):
    import random
    rng = random.Random(seed)
    subs = list(iter_subreps(x))
    pairs = [(_random_subrep(rng, x), _random_subrep(rng, x)) for _ in range(4)]
    pairs += [(rng.choice(subs), rng.choice(subs)) for _ in range(4)]
    for a, b in pairs:
        meet = a.intersect(b)
        for v in range(x.quiver.vertex_count):
            want = span(a.spaces[v], x.p) & span(b.spaces[v], x.p)
            assert span(meet.spaces[v], x.p) == want, (x, v)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(x=small_rep_data().map(_rep), seed=st.integers(0, 2 ** 16))
def test_quiver_pull_sub_matches_vector_sets(x, seed):
    import random

    from torsion_lab.engine import QuiverHandle
    rng = random.Random(seed)
    handle = QuiverHandle(x.quiver, x.p)
    morphs = handle.hom_basis(x, x)
    _, proj = handle.quotient(x, rng.choice(list(iter_subreps(x))))
    for f in morphs[:4] + [proj]:
        for w in (_random_subrep(rng, f.dst), SubRep.zero(f.dst)):
            pulled = handle.pull_sub(f, w)
            for v in range(x.quiver.vertex_count):
                target = span(w.spaces[v], x.p)
                want = frozenset(u for u in itertools.product(range(x.p), repeat=x.dims[v])
                                 if _apply(f.data[v], u, x.p) in target)
                assert span(pulled.spaces[v], x.p) == want, (x, v)


_BLOCK_SHAPES = [QUIVER_SHAPES[name] for name in ("A2", "A3", "source", "triangle")]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(x=small_rep_data().filter(lambda d: d[:2] in _BLOCK_SHAPES).map(_rep),
       seed=st.integers(0, 2 ** 16))
def test_quiver_compose_sub_matches_vector_sets(x, seed):
    import random

    from torsion_lab.engine import QuiverHandle
    rng = random.Random(seed)
    handle = QuiverHandle(x.quiver, x.p)
    subs = list(iter_subreps(x))
    for w in [rng.choice(subs) for _ in range(3)] + [SubRep.full(x)]:
        inners = list(iter_subreps(w.as_rep()))
        for inner in [rng.choice(inners) for _ in range(3)]:
            composed = handle.compose_sub(x, w, inner)
            for v, (sp, rows) in enumerate(zip(inner.spaces, (s.rows for s in w.spaces))):
                # inner's vectors are coordinates on w's rows
                want = frozenset(tuple(sum(c * row[i] for c, row in zip(u, rows)) % x.p
                                       for i in range(x.dims[v]))
                                 for u in span(sp, x.p))
                assert span(composed.spaces[v], x.p) == want, (x, v)
            assert _arrow_stable(composed)


# -- the adapted basis against separate sub and quotient constructions --------


def _reference_as_rep(w):
    """The subrepresentation by its own algorithm: each arrow image of a row of
    w, read at the target's pivot columns."""
    amb = w.ambient
    dims = [sp.rank for sp in w.spaces]
    maps = []
    for k, (s, t) in enumerate(amb.quiver.arrows):
        cols = [[_apply(amb.maps[k], row, amb.p)[c] for c in w.spaces[t].pivots]
                for row in w.spaces[s].rows]
        maps.append([[cols[j][i] for j in range(dims[s])] for i in range(dims[t])])
    return QuiverRep(amb.quiver, amb.p, dims, maps)


def _reference_quotient(x, w):
    """The quotient by its own algorithm: each non-pivot column of an arrow
    matrix, projected by the target's quotient functionals."""
    projections = [sp.quotient_functionals() for sp in w.spaces]
    maps = []
    for k, (s, t) in enumerate(x.quiver.arrows):
        free = [c for c in range(x.dims[s]) if c not in w.spaces[s].pivots]
        cols = [_apply(projections[t], [row[c] for row in x.maps[k]], x.p) for c in free]
        maps.append([[col[i] for col in cols] for i in range(len(projections[t]))])
    return QuiverRep(x.quiver, x.p, [len(f) for f in projections], maps), projections


@settings(max_examples=200, deadline=None, derandomize=True)
@given(x=small_rep_data({2: 3, 3: 2, 5: 2}).filter(lambda d: d[:2] in _BLOCK_SHAPES).map(_rep))
def test_adapted_blocks_match_separate_sub_and_quotient(x):
    for w in iter_subreps(x):
        sub = _reference_as_rep(w)
        q, projections = _reference_quotient(x, w)
        assert _adapted_blocks(x, w) == (sub.maps, q.maps, projections)
        assert w.as_rep() == sub
        assert quotient_rep(x, w) == (q, projections)


def test_part_test_matches_exhaustive_hom_count():
    from torsion_lab.engine import QuiverHandle
    handle = QuiverHandle(A2, 2)
    for x in _all_a2_reps(4, 4):
        if x.total_dim() > 4:
            continue
        for w in iter_subreps(x):
            sub = _reference_as_rep(w)
            q, _ = _reference_quotient(x, w)
            vanishes = 2 ** len(hom_space(sub, q)) == 1
            assert vanishes == (_brute_hom_count(sub, q) == 1), (x, w)
            assert handle.part_test(x, w) == vanishes, (x, w)


def test_part_test_refuses_unstable_and_foreign_subspaces():
    from torsion_lab.engine import QuiverHandle
    handle = QuiverHandle(A2, 2)
    with pytest.raises(InputError):
        handle.part_test(P1, _subrep(P1, [[[1]], []]))
    with pytest.raises(InputError):
        handle.part_test(P1, SubRep.zero(S1))
    with pytest.raises(InputError):
        quotient_rep(P1, SubRep.zero(S1))


def test_subrep_operations_refuse_another_representation():
    # two A2 representations of the same dimensions: containment answered True
    r1, r2 = QuiverRep(A2, 2, [1, 1], [[[1]]]), QuiverRep(A2, 2, [1, 1], [[[0]]])
    full1, full2 = SubRep.full(r1), SubRep.full(r2)
    for op in (full1.contains, full1.sum, full1.intersect):
        with pytest.raises(InputError, match="does not live"):
            op(full2)
    # an equal representation shares the coordinates
    twin = SubRep.full(QuiverRep(A2, 2, [1, 1], [[[1]]]))
    assert full1.contains(twin) and full1.sum(twin).is_full()
    assert full1.intersect(SubRep.zero(twin.ambient)).is_zero()


# -- the part test solves Hom(w, x/w) on the adapted blocks -------------------


@settings(max_examples=120, deadline=None, derandomize=True)
@given(x=small_rep_data({2: 3, 3: 2, 5: 2}).filter(lambda d: d[:2] in _BLOCK_SHAPES).map(_rep))
def test_part_test_matches_hom_space_of_built_sub_and_quotient(x):
    from torsion_lab.engine import QuiverHandle
    handle = QuiverHandle(x.quiver, x.p)
    for w in iter_subreps(x):
        assert handle.part_test(x, w) == (not hom_space(w.as_rep(), quotient_rep(x, w)[0]))


def _dimension_count(x, w):
    """(U, E): the unknowns and equations of the Hom(w, x/w) system, counted
    from the dimension vectors m of w and n of x/w."""
    m = w.dims()
    n = [d - e for d, e in zip(x.dims, m)]
    return (sum(a * b for a, b in zip(m, n)),
            sum(m[s] * n[t] for s, t in x.quiver.arrows))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(x=small_rep_data({2: 3, 3: 2, 5: 2}).map(_rep))
def test_dimension_count_never_contradicts_the_solver(x):
    # every quiver shape, sink and double-arrow included: dim Hom(w, x/w) is at
    # least U - E, it is 0 when U = 0, and the part test agrees with the solver
    from torsion_lab.engine import QuiverHandle
    handle = QuiverHandle(x.quiver, x.p)
    for w in iter_subreps(x):
        unknowns, equations = _dimension_count(x, w)
        hom = hom_space(w.as_rep(), quotient_rep(x, w)[0])
        assert len(hom) >= unknowns - equations, (x, w)
        if unknowns == 0:
            assert not hom, (x, w)
        assert handle.part_test(x, w) == (not hom), (x, w)


def _a2_round():
    reps = [r for r in _all_a2_reps(3, 3) if not r.is_zero()]
    assert len(reps) == 688
    return reps


def test_unpruned_brute_force_solves_only_what_the_count_leaves_open(monkeypatch):
    import torsion_lab.quiver as qv
    from torsion_lab.engine import QuiverHandle, is_torsion_simple

    class SolvingHandle(QuiverHandle):
        def part_test(self, x, w):
            sub_maps, quo_maps, functionals = _adapted_blocks(x, w)
            return not qv._hom_space(x.quiver, x.p, w.dims(), sub_maps,
                                     [len(f) for f in functionals], quo_maps)

    def outcomes(handle):
        reports = [is_torsion_simple(handle, x, prune=False) for x in reps]
        return ([r.verdict for r in reports],
                [r.witness and r.witness.key() for r in reports])

    reps = _a2_round()
    real = qv._hom_space
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(qv, "_hom_space", counting)
    solved = outcomes(SolvingHandle(A2, 2))
    assert len(calls) == 9766
    calls.clear()
    counted = outcomes(QuiverHandle(A2, 2))
    # the count decides all but 659 of the 9,766 part tests
    assert len(calls) == 659
    assert counted == solved
    assert counted[0].count(True) == 6


def test_unpruned_brute_force_builds_no_representation(monkeypatch):
    from torsion_lab.engine import QuiverHandle, is_torsion_simple
    handle = QuiverHandle(A2, 2)
    reps = _a2_round()
    real = QuiverRep.__init__
    built = []

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(QuiverRep, "__init__", counting)
    verdicts = [is_torsion_simple(handle, x, prune=False).verdict for x in reps]
    assert built == []
    # S_0^d and S_1^d for d = 1, 2, 3: the representations at one vertex
    assert verdicts.count(True) == 6
