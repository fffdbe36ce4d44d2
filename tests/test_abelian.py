"""Presented modules: decomposition, submodule lattices, hom groups, Ass."""
import functools
import itertools
import math
import random

import pytest
from conftest import (brute_additive_maps, brute_set_maps_additive, brute_subgroups,
                      dense_module_data, dense_relations)
from hypothesis import given, settings

from torsion_lab import abelian
from torsion_lab import intlinalg as la
from torsion_lab.abelian import (PresentedModule, PrimeSet, Subobject,
                                 associated_primes, cyclic_module,
                                 direct_sum_module, enumerate_submodules,
                                 finite_abelian_modules, hall_submodules,
                                 hom_basis, hom_group, primary_component,
                                 quotient)
from torsion_lab.errors import InputError
from torsion_lab.rings import Ring

Z = Ring.integers()


def test_decomposition_examples():
    assert PresentedModule(Z, 2, [[2, 0], [0, 3]]).canonical_decomposition() == (0, [6])
    assert PresentedModule(Z, 1, [[]]).canonical_decomposition() == (1, [])
    assert PresentedModule(Z, 2, [[2, 0], [0, 2]]).canonical_decomposition() == (0, [2, 2])


def test_decomposition_is_presentation_invariant():
    a = PresentedModule(Z, 2, [[2, 0], [0, 3]])
    b = cyclic_module(Z, 6)
    assert a == b
    c = PresentedModule(Z, 3, [[2, 0, 4], [0, 3, 3], [0, 0, 1]])
    assert c.canonical_decomposition() == a.canonical_decomposition()


def test_zmod_presentation_reduces_entries():
    ring = Ring.integers_mod(4)
    m = PresentedModule(ring, 1, [[6]])
    assert m.relations == [[2]]
    assert m.canonical_decomposition() == (0, [2])


def test_submodule_counts_examples():
    assert len(enumerate_submodules(direct_sum_module(Z, [2, 2]))) == 5
    assert len(enumerate_submodules(cyclic_module(Z, 4))) == 3
    assert len(enumerate_submodules(PresentedModule(Z, 0, []))) == 1


def test_submodule_enumeration_matches_brute_force():
    # exhaustive element-closure oracle for every abelian group of order <= 64
    for n in range(1, 65):
        for orders in _order_lists(n):
            mod = direct_sum_module(Z, orders)
            got = len(enumerate_submodules(mod))
            want = len(brute_subgroups(orders))
            assert got == want, orders


def test_submodules_are_deduplicated_and_ordered():
    mod = direct_sum_module(Z, [2, 4])
    subs = enumerate_submodules(mod)
    keys = [s.key() for s in subs]
    assert len(keys) == len(set(keys))
    orders = [s.order() for s in subs]
    assert orders == sorted(orders)
    assert subs[0].is_zero() and subs[-1].is_full()


def test_infinite_module_rejects_enumeration():
    for enumerate_ in (enumerate_submodules, hall_submodules):
        with pytest.raises(InputError):
            enumerate_(PresentedModule(Z, 1, [[]]))


def test_quotient_examples():
    z4 = cyclic_module(Z, 4)
    subs = enumerate_submodules(z4)
    mid = [s for s in subs if s.order() == 2][0]
    assert quotient(z4, mid).canonical_decomposition() == (0, [2])
    assert quotient(z4, subs[0]) == z4
    assert quotient(z4, subs[-1]).is_zero()


def test_subobject_span_equality():
    z12 = cyclic_module(Z, 12)
    a = Subobject(z12, [[2]])
    b = Subobject(z12, [[10]])   # same span: gcd(10, 12) = 2
    assert a == b
    c = Subobject(z12, [[4]])
    assert a != c


def test_subobjects_of_different_presentations_differ():
    # the ambients are isomorphic and the keys equal, but a key is in generator
    # coordinates: here it spans Z/4 in one ambient and Z/2 + Z/2 in the other
    x = PresentedModule(Z, 2, [[4, 0], [0, 2]])
    y = PresentedModule(Z, 2, [[2, 0], [0, 4]])
    a, b = Subobject(x, [[1, 0], [0, 2]]), Subobject(y, [[1, 0], [0, 2]])
    assert x == y and a.key() == b.key()
    assert a.as_module().canonical_decomposition() == (0, [4])
    assert b.as_module().canonical_decomposition() == (0, [2, 2])
    assert a != b and len({a, b}) == 2
    # another module with the same presentation shares the coordinates
    assert a == Subobject(PresentedModule(Z, 2, [[4, 0], [0, 2]]), [[1], [0]])


# dense presentations over Z and Z/n: (ring, cyclic orders; 0 is a free summand)
PRESENTED_CASES = [(Z, [2, 4]), (Z, [6, 4]), (Z, [3, 9, 2]), (Z, [2, 2, 2]), (Z, [5, 10]),
                   (Ring.integers_mod(12), [2, 6]), (Ring.integers_mod(8), [4, 8, 2]),
                   (Ring.integers_mod(6), [0, 2])]


def test_enumerated_subgroups_come_presented():
    # the relations that the enumeration solved present the same module, on
    # the same generators, as the preimage of the relation lattice
    rng = random.Random(36)
    for ring, orders in PRESENTED_CASES * 2:
        x = PresentedModule(ring, *dense_relations(rng, orders))
        for w in enumerate_submodules(x):
            preset = w.as_module()
            assert w.as_module() is preset
            slow = Subobject(x, w.embedding).as_module()
            assert preset.relation_lattice().key() == slow.relation_lattice().key()
            assert preset.canonical_decomposition() == slow.canonical_decomposition()
            assert preset.order() == w.order()


def test_hom_examples():
    h, basis = hom_group(cyclic_module(Z, 4), cyclic_module(Z, 6))
    assert h.canonical_decomposition() == (0, [2])
    assert len(basis) == 1
    free = PresentedModule(Z, 1, [[]])
    h2, _ = hom_group(free, cyclic_module(Z, 12))
    assert h2.canonical_decomposition() == (0, [12])
    assert not hom_group(cyclic_module(Z, 3), cyclic_module(Z, 2))[1]
    h3, _ = hom_group(free, free)
    assert h3.canonical_decomposition() == (1, [])


def test_hom_bilinearity_oracle():
    # hom order equals the count of additive maps found by exhaustive search
    for a in range(1, 13):
        for b in range(1, 13):
            h, _ = hom_group(cyclic_module(Z, a), cyclic_module(Z, b))
            order = h.order()
            assert order == brute_additive_maps(a, b), (a, b)
    # full set-map enumeration on the spec's 24-map instance and friends
    assert brute_set_maps_additive(4, 6) == hom_group(
        cyclic_module(Z, 4), cyclic_module(Z, 6))[0].order()
    assert brute_set_maps_additive(3, 2) == 1  # only the zero map
    assert brute_set_maps_additive(2, 4) == hom_group(
        cyclic_module(Z, 2), cyclic_module(Z, 4))[0].order()


def test_hom_basis_matrices_are_well_defined_morphisms():
    # each basis matrix must send relations into relations
    for src_orders, dst_orders in itertools.product(
            ([2], [4], [2, 2], [6]), repeat=2):
        src = direct_sum_module(Z, src_orders)
        dst = direct_sum_module(Z, dst_orders)
        _, basis = hom_group(src, dst)
        for mat in basis:
            for col in src.relation_lattice().basis:
                image = la.mat_vec(mat, col)
                assert dst.relation_lattice().contains(image)


def test_associated_primes_examples():
    assert associated_primes(cyclic_module(Z, 12)).as_list() == [2, 3]
    assert associated_primes(PresentedModule(Z, 1, [[]])).as_list() == [0]
    assert associated_primes(cyclic_module(Z, 8)).as_list() == [2]
    assert len(associated_primes(PresentedModule(Z, 0, []))) == 0


def _order_lists(n):
    """Test-local: all multisets of prime powers with product n."""
    factors = {}
    m, p = n, 2
    while p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1

    def partitions(e):
        if e == 0:
            return [()]
        out = []

        def rec(rem, cap, acc):
            if rem == 0:
                out.append(tuple(acc))
                return
            for part in range(min(rem, cap), 0, -1):
                rec(rem - part, part, acc + [part])

        rec(e, e, [])
        return out

    lists = [[]]
    for p in sorted(factors):
        options = [[p ** part for part in lam] for lam in partitions(factors[p])]
        lists = [l + opt for l in lists for opt in options]
    return lists


def _is_prime_small(k):
    return k > 1 and all(k % d for d in range(2, int(k ** 0.5) + 1))


def test_associated_primes_brute_force():
    # Ass = primes that occur as the exact annihilator of an element:
    # over Z that means elements of prime additive order
    import math
    for n in range(2, 201):
        for orders in _order_lists(n):
            want = set()
            for combo in itertools.product(*[range(d) for d in orders]):
                if not any(combo):
                    continue
                elem_order = 1
                for x, d in zip(combo, orders):
                    if x:
                        cyc = d // math.gcd(x, d)
                        elem_order = elem_order * cyc // math.gcd(elem_order, cyc)
                if _is_prime_small(elem_order):
                    want.add(elem_order)
            got = set(associated_primes(direct_sum_module(Z, orders)).primes)
            assert got == want, (n, orders)


def test_primary_component_examples():
    z12 = cyclic_module(Z, 12)
    comp = primary_component(z12, 2)
    assert comp.as_module().canonical_decomposition() == (0, [4])
    assert primary_component(cyclic_module(Z, 9), 2).is_zero()
    assert primary_component(cyclic_module(Z, 8), 2).is_full()
    # Hom(component, quotient) = 0
    assert not hom_group(comp.as_module(), quotient(z12, comp))[1]


def test_primary_component_refuses_a_p_that_is_not_prime():
    x = direct_sum_module(Z, [8, 3])
    for p in (1, 0, -2, 4, 6):
        with pytest.raises(InputError):
            primary_component(x, p)
    got = {p: primary_component(x, p).as_module().canonical_decomposition() for p in (2, 3, 5)}
    assert got == {2: (0, [8]), 3: (0, [3]), 5: (0, [])}


def _split_subobjects(m):
    """Every sum of primary components of m (none if m is infinite) and its
    p-primary component for each prime p <= 7 or dividing the torsion order."""
    torsion = math.prod(m.canonical_decomposition()[1])
    primes = [p for p in range(2, max(torsion, 7) + 1)
              if _is_prime_small(p) and (p <= 7 or torsion % p == 0)]
    return ((hall_submodules(m) if m.is_finite() else [])
            + [primary_component(m, p) for p in primes])


def _check_closed_form_order(m) -> int:
    """order, is_zero and is_full of every split subobject of m equal those of
    a copy that builds its own lattice; the count of subobjects checked."""
    subs = _split_subobjects(m)
    for w in subs:
        fresh = Subobject(w.ambient, w.embedding)
        assert (w.is_zero(), w.is_full()) == (fresh.is_zero(), fresh.is_full()), m
        if m.is_finite():
            assert w.order() == fresh.order(), m
        else:
            for sub in (w, fresh):
                with pytest.raises(InputError):
                    sub.order()
    return len(subs)


def test_closed_form_orders_match_fresh_lattices():
    """Every group of order <= 128, and Z^r + T for r <= 2 in diagonal and
    dense presentations."""
    rng = random.Random(23)
    modules = [m for n in range(1, 129) for m in finite_abelian_modules(n)]
    for r in (1, 2):
        for torsion in ([], [2], [12], [4, 6], [3, 9, 5], [12, 18, 5]):
            orders = [0] * r + torsion
            modules.append(direct_sum_module(Z, orders))
            modules.append(PresentedModule(Z, *dense_relations(rng, orders)))
    assert sum(_check_closed_form_order(m) for m in modules) > 2000


_GROUPS_TO_32 = [m.canonical_decomposition()[1] for n in range(2, 33)
                 for m in finite_abelian_modules(n)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=dense_module_data(_GROUPS_TO_32))
def test_closed_form_orders_match_fresh_lattices_on_dense_presentations(data):
    n, _, gens, rels = data
    _check_closed_form_order(PresentedModule(Ring.integers_mod(n) if n else Z, gens, rels))


def test_finite_abelian_catalogue():
    assert len(finite_abelian_modules(8)) == 3
    assert len(finite_abelian_modules(36)) == 4
    assert len(finite_abelian_modules(1)) == 1
    for mod in finite_abelian_modules(24):
        assert mod.order() == 24


def test_large_prime_cyclic_module_enumerates_fast():
    import time
    start = time.perf_counter()
    subs = enumerate_submodules(cyclic_module(Z, 1000000007))
    assert len(subs) == 2
    assert time.perf_counter() - start < 1.0


def test_quotient_refuses_isomorphic_but_different_ambient():
    z6 = cyclic_module(Z, 6)
    split = PresentedModule(Z, 2, [[2, 0], [0, 3]])
    z2 = [w for w in enumerate_submodules(split) if w.order() == 2][0]
    assert split == z6  # isomorphic, yet a different presentation
    with pytest.raises(InputError):
        quotient(z6, z2)
    same = PresentedModule(Z, 2, [[2, 0], [0, 3]])
    assert quotient(same, z2).canonical_decomposition() == (0, [3])


def test_subobject_operations_refuse_another_module():
    # the 2-part of Z/4 + Z/3 and the full Z/2 + Z/2: summing them gave a
    # subgroup of order 12, intersecting them one of order 4
    x = direct_sum_module(Z, [4, 3])
    two = primary_component(x, 2)
    klein = Subobject.full(direct_sum_module(Z, [2, 2]))
    for op in (two.contains, two.sum, two.intersect, klein.contains, klein.sum, klein.intersect):
        with pytest.raises(InputError, match="does not live"):
            op(two if op.__self__ is klein else klein)
    # an isomorphic module of another presentation is refused too
    z12 = cyclic_module(Z, 12)
    with pytest.raises(InputError):
        Subobject.full(z12).contains(two)
    # a module with the same presentation shares the coordinates
    twin = Subobject.full(direct_sum_module(Z, [4, 3]))
    assert twin.contains(two) and not two.contains(twin)
    assert two.sum(twin).order() == 12 and two.intersect(twin).order() == 4


def test_hall_list_is_worked_out_once_per_module(monkeypatch):
    x = direct_sum_module(Z, [4, 6, 5])
    first = hall_submodules(x)
    monkeypatch.setattr(abelian, "prime_divisors", None)
    again = hall_submodules(x)
    # the subobjects are shared, so what one caller builds the next one reads,
    # and each call gets its own list
    assert again is not first and all(a is b for a, b in zip(again, first, strict=True))
    again.clear()
    assert [w.key() for w in hall_submodules(x)] == [w.key() for w in first]
    assert [w.order() for w in first] == [1, 3, 5, 8, 15, 24, 40, 120]
    # the list is a module's own: another module with the same presentation
    # works it out again
    with pytest.raises(TypeError):
        hall_submodules(direct_sum_module(Z, [4, 6, 5]))


def _check_recorded_forms(x) -> int:
    """The order, lattice and module that enumerate_submodules records on
    each subgroup of x equal those of a fresh lattice of the embedding
    columns plus the relation basis, and of the preimage of the relations
    on the embedding columns; the count of subgroups checked."""
    rel = x.relation_lattice()
    subs = enumerate_submodules(x)
    for w in subs:
        assert w._order is not None and w._lattice is not None and w._module is not None
        cols = la.columns(w.embedding)
        fresh = la.ColumnEchelonLattice(x.gens, cols + list(rel.basis))
        assert (w.lattice.basis, w.lattice.pivots) == (fresh.basis, fresh.pivots), x
        assert w.order() == rel.determinant_index() // fresh.determinant_index(), x
        preimage = PresentedModule(x.ring, len(cols), la.from_columns(
            la.preimage(cols, rel.basis, x.gens), len(cols)))
        assert w.as_module().relation_lattice().basis == preimage.relation_lattice().basis, x
    return len(subs)


def test_enumerated_subgroups_record_their_order_and_lattice():
    """Every group of order <= 64, and 200 dense presentations over Z and Z/n."""
    modules = [m for n in range(1, 65) for m in finite_abelian_modules(n)]
    assert sum(map(_check_recorded_forms, modules)) == 6022
    rng = random.Random(33)
    groups = [m.canonical_decomposition()[1] for n in range(1, 33)
              for m in finite_abelian_modules(n)]
    rings = [(Z, None), (Ring.integers_mod(12), [2, 6]), (Ring.integers_mod(8), [4, 8, 2]),
             (Ring.integers_mod(36), [6, 4]), (Ring.integers_mod(9), [3, 9])]
    count = 0
    for k in range(200):
        ring, orders = rings[k % len(rings)]
        x = PresentedModule(ring, *dense_relations(rng, orders or rng.choice(groups)))
        count += _check_recorded_forms(x)
    assert count > 4000


def _check_classes_against_enumeration(x) -> int:
    """subgroup_classes(x) against the enumerating reference, which groups
    enumerate_submodules(x) by as_module() and sums each group: the same
    classes and join keys.  Each class is in its catalogue presentation, and
    each join is a Hermite basis, at most one column per generator, with no
    lattice kept.  The number of classes."""
    table = abelian.subgroup_classes(x)
    groups: dict = {}
    for w in enumerate_submodules(x):
        groups.setdefault(w.as_module(), []).append(w)
    assert len(table) == len(groups), x
    for join, rep in table:
        assert join.ambient is x and join._lattice is None, x
        assert len(la.columns(join.embedding)) <= x.gens, x
        assert rep.presentation() in {m.presentation()
                                      for m in finite_abelian_modules(rep.order(), x.ring)}, x
    assert {rep: join.key() for join, rep in table} == {
        cls: functools.reduce(Subobject.sum, ws).key() for cls, ws in groups.items()}, x
    return len(table)


def test_subgroup_classes_match_the_enumerating_reference():
    """Every group of order <= 64, 200 dense presentations over Z and Z/n,
    the groups over Z/n of order n, and zero modules on 0 to 2 generators."""
    modules = [m for n in range(1, 65) for m in finite_abelian_modules(n)]
    assert sum(map(_check_classes_against_enumeration, modules)) == 715
    rng = random.Random(35)
    groups = [m.canonical_decomposition()[1] for n in range(1, 33)
              for m in finite_abelian_modules(n)]
    rings = [(Z, None), (Ring.integers_mod(12), [2, 6]), (Ring.integers_mod(8), [4, 8, 2]),
             (Ring.integers_mod(36), [6, 4]), (Ring.integers_mod(9), [3, 9])]
    for k in range(200):
        ring, orders = rings[k % len(rings)]
        _check_classes_against_enumeration(
            PresentedModule(ring, *dense_relations(rng, orders or rng.choice(groups))))
    for n in (4, 6, 8, 9, 12, 36):
        for m in finite_abelian_modules(n, Ring.integers_mod(n)):
            _check_classes_against_enumeration(m)
    for zero in (PresentedModule(Z, 0, []), PresentedModule(Z, *dense_relations(rng, [1])),
                 PresentedModule(Ring.integers_mod(6), 2, [[1, 3], [2, 7]])):
        assert zero.is_zero() and _check_classes_against_enumeration(zero) == 1


# -- element-set oracles for intersections, preimages and subobject orders ------

# (ring, cyclic orders) of direct sums of order <= 64; over Z/n every order divides n
ORACLE_GROUPS = [
    (Z, [6]), (Z, [2, 4]), (Z, [2, 2, 2]), (Z, [3, 9]), (Z, [2, 4, 8]),
    (Z, [2, 6]), (Z, [4, 12]), (Z, [5, 5]), (Z, [2, 2, 2, 2, 2, 2]),
    (Ring.integers_mod(4), [2, 4]), (Ring.integers_mod(6), [3, 6]),
    (Ring.integers_mod(12), [4, 12]),
]


def _columns_of(rows):
    """Test-local transpose of a row-list matrix into its columns."""
    return [list(col) for col in zip(*rows)] if rows and rows[0] else []


def _closure(cols, orders):
    """Every element of the subgroup of Z/o_1 + ... + Z/o_k spanned by `cols`."""
    zero = tuple(0 for _ in orders)
    gens = [tuple(x % o for x, o in zip(c, orders)) for c in cols]
    seen = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % o for a, b, o in zip(x, g, orders))
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return frozenset(seen)


def _random_sub(rng, mod, orders):
    cols = [[rng.randrange(3 * o) - o for o in orders] for _ in range(rng.randrange(3))]
    rows = [[c[i] for c in cols] for i in range(len(orders))]
    return Subobject(mod, rows)


def test_intersect_and_order_match_element_sets():
    import random
    rng = random.Random(8)
    for ring, orders in ORACLE_GROUPS:
        mod = direct_sum_module(ring, orders)
        for _ in range(12):
            a, b = _random_sub(rng, mod, orders), _random_sub(rng, mod, orders)
            set_a = _closure(_columns_of(a.embedding), orders)
            set_b = _closure(_columns_of(b.embedding), orders)
            meet = a.intersect(b)
            assert _closure(_columns_of(meet.embedding), orders) == set_a & set_b, orders
            assert meet.as_module().order() == len(set_a & set_b), orders
            assert a.as_module().order() == len(set_a), orders


def test_pull_sub_matches_set_preimage():
    import random

    from torsion_lab.engine import AbelianHandle
    rng = random.Random(9)
    for ring, orders in ORACLE_GROUPS:
        handle = AbelianHandle(ring)
        src = direct_sum_module(ring, orders)
        elements = list(itertools.product(*[range(o) for o in orders]))
        for dst_orders in ([o for o in orders if o % 2 == 0] or [2], orders):
            dst = direct_sum_module(ring, dst_orders)
            w = _random_sub(rng, dst, dst_orders)
            set_w = _closure(_columns_of(w.embedding), dst_orders)
            for f in handle.hom_basis(src, dst):
                image = {x: tuple(sum(r * v for r, v in zip(row, x)) % o
                                  for row, o in zip(f.data, dst_orders)) for x in elements}
                want = frozenset(x for x in elements if image[x] in set_w)
                pulled = handle.pull_sub(f, w)
                assert _closure(_columns_of(pulled.embedding), orders) == want, orders
                assert pulled.as_module().order() == len(want), orders


# -- the per-presentation caches of the Smith form and the relation lattice ------


def test_equal_presentations_share_one_decomposition_and_lattice():
    a = PresentedModule(Z, 2, [[2, 4], [0, 6]])
    b = PresentedModule(Z, 2, [[2, 4], [0, 6]])
    assert a is not b and a.presentation() == b.presentation()
    assert a._decomposition() is b._decomposition()
    assert a.relation_lattice() is b.relation_lattice()
    # the ring is part of the presentation
    c = PresentedModule(Ring.integers_mod(12), 2, [[2, 4], [0, 6]])
    assert c._decomposition() is not a._decomposition()
    assert c.relation_lattice() is not a.relation_lattice()
    # the cached values are immutable
    u, ui, coords, identity, free, factors = dec = a._decomposition()
    assert isinstance(dec, tuple) and type(u) is tuple and type(ui) is tuple
    assert all(type(row) is tuple for row in u + ui)
    assert type(coords) is tuple and all(type(c) is tuple for c in coords)
    assert identity is (ui == ((1, 0), (0, 1)))
    assert (free, factors) == (0, (2, 6)) and type(factors) is tuple
    assert type(a.relation_lattice().key()) is tuple


def test_invariant_lists_are_fresh_copies():
    m = direct_sum_module(Z, [2, 4])
    m.canonical_decomposition()[1].append(5)
    assert m.canonical_decomposition() == (0, [2, 4])
    assert m.order() == 8 and m.is_finite()
    assert m == direct_sum_module(Z, [2, 4]) and m.describe() == "Z/2 + Z/4"


def test_identity_inverse_maps_coordinates_without_a_product(monkeypatch):
    """Uinv = I is decided once per presentation, and then coords_to_generators
    pads the coordinates instead of multiplying by Uinv."""
    products = []
    real = la.mat_vec
    monkeypatch.setattr(la, "mat_vec", lambda a, v: products.append(a) or real(a, v))
    square = direct_sum_module(Z, [2, 2, 2])
    assert square._decomposition().ui_is_identity
    assert square.coords_to_generators([1, 0, 1]) == [1, 0, 1] and not products
    mixed = direct_sum_module(Z, [2, 3])
    assert not mixed._decomposition().ui_is_identity
    got = mixed.coords_to_generators([1])
    assert products and got == real(mixed._decomposition().ui, [0, 1])


def test_cached_decomposition_matches_a_fresh_smith_form():
    rng = random.Random(31)
    cases = [(Z, [0]), (Z, [0, 0, 3]), (Z, [2, 0, 12]), (Z, [4, 6, 9]), (Z, [5, 25]),
             (Ring.integers_mod(12), [0, 4, 6]), (Ring.integers_mod(8), [2, 8, 3]),
             (Ring.integers_mod(9), [0, 0])]
    for ring, orders in cases * 4:
        gens, rels = dense_relations(rng, orders)
        first, again = PresentedModule(ring, gens, rels), PresentedModule(ring, gens, rels)
        full = first.relations
        if ring.n:
            full = la.hstack(full, [[ring.n * (i == j) for j in range(gens)]
                                    for i in range(gens)])
        u, ui, d = la.smith_with_inverses(full)
        diag = la.diagonal_of(d)
        deltas = [diag[i] if i < len(diag) else 0 for i in range(gens)]
        coords = [(i, delta) for i, delta in enumerate(deltas) if delta != 1]
        want = (sum(1 for _, delta in coords if delta == 0),
                [delta for _, delta in coords if delta >= 2])
        for m in (first, again):
            assert m.canonical_decomposition() == want, (ring, orders)
            for _ in range(3):
                coeffs = [rng.randint(-9, 9) for _ in coords]
                vec = [0] * gens
                for (idx, _), c in zip(coords, coeffs):
                    vec[idx] = c
                assert m.coords_to_generators(coeffs) == la.mat_vec(ui, vec)
        assert again._decomposition() is first._decomposition()


def test_radical_and_axioms_decompose_each_matrix_once(monkeypatch):
    from torsion_lab.engine import (AbelianHandle, torsion_radical_generated,
                                    verify_torsion_pair_axioms)
    real = la.smith_with_inverses
    seen = []

    def recording(a):
        seen.append(tuple(map(tuple, a)))
        return real(a)

    monkeypatch.setattr(la, "smith_with_inverses", recording)
    # the tables read each subgroup's class off its relations S, and never
    # enumerate Subobjects
    monkeypatch.setattr(abelian, "enumerate_submodules", None)
    abelian._decompose.cache_clear()
    x = PresentedModule(Z, *dense_relations(random.Random(32), [2, 4, 3, 5]))
    handle = AbelianHandle(Z)
    for r in range(4):
        for primes in itertools.combinations((2, 3, 5), r):
            sources = [cyclic_module(Z, p) for p in primes]
            torsion_radical_generated(handle, sources, x)
            assert all(a.passed for a in verify_torsion_pair_axioms(handle, sources, [x]))
    # the class keys and the catalogue classes are decomposed among the rest
    catalogue = {tuple(map(tuple, rep.relations))
                 for _, rep in handle._subobject_tables.get(handle, x)}
    assert seen and len(seen) == len(set(seen)) and catalogue <= set(seen)


def test_radical_and_axioms_solve_no_kernel_for_subgroups_and_no_lattice_for_zero(monkeypatch):
    """A subobject table is built from the subgroup matrices: per class one
    join, one catalogue module and one lattice, and no kernel solved, however
    many subgroups the class has.  The unpruned torsion parts still
    enumerate, and an enumerated subgroup comes presented, so its as_module
    solves no kernel either.  The zero test and the zero subobject read the
    ambient's relation lattice (built once per presentation, so not counted)
    instead of building a lattice."""
    from torsion_lab.engine import (AbelianHandle, torsion_parts, torsion_radical_generated,
                                    verify_torsion_pair_axioms)
    abelian._decompose.cache_clear()
    abelian._relation_lattice.cache_clear()
    stack, kept, enumerated = [], [], set()
    counts = dict.fromkeys(("subgroup_classes", "classes", "subobjects",
                            "modules", "lattices", "kernels", "is_zero", "zero",
                            "relations", "zero_builds", "as_module", "module_kernels"), 0)

    def watch(label, fn, only=lambda self: True):
        # count the calls of fn that `only` accepts, and mark them on the stack
        def watched(*args):
            active = only(args[0])
            counts[label] += active
            stack.append(label if active else None)
            try:
                return fn(*args)
            finally:
                stack.pop()
        return watched

    def classes_counting(module):
        table = real_classes(module)
        counts["classes"] += len(table)
        return table

    def counting_in_tables(label, fn):
        def counted(*args):
            counts[label] += "subgroup_classes" in stack
            return fn(*args)
        return counted

    def enumerate_recording(module):
        subs = real_enumerate(module)
        kept.extend(subs)
        enumerated.update(map(id, subs))
        return subs

    def kernel_counting(a):
        counts["kernels"] += "subgroup_classes" in stack
        counts["module_kernels"] += "as_module" in stack
        return real_kernel(a)

    def init_counting(self, rows, cols):
        counts["lattices"] += "subgroup_classes" in stack
        counts["zero_builds"] += bool(stack) and stack[-1] in ("is_zero", "zero")
        real_init(self, rows, cols)

    real_classes, real_init = abelian.subgroup_classes, la.ColumnEchelonLattice.__init__
    real_enumerate, real_kernel = abelian.enumerate_submodules, la.kernel_basis
    monkeypatch.setattr(abelian, "enumerate_submodules", enumerate_recording)
    monkeypatch.setattr(abelian, "subgroup_classes",
                        watch("subgroup_classes", classes_counting))
    monkeypatch.setattr(Subobject, "__init__",
                        counting_in_tables("subobjects", Subobject.__init__))
    monkeypatch.setattr(PresentedModule, "__init__",
                        counting_in_tables("modules", PresentedModule.__init__))
    monkeypatch.setattr(la, "kernel_basis", kernel_counting)
    monkeypatch.setattr(Subobject, "as_module", watch(
        "as_module", Subobject.as_module, lambda w: id(w) in enumerated))
    monkeypatch.setattr(la.ColumnEchelonLattice, "__init__", init_counting)
    monkeypatch.setattr(abelian, "_relation_lattice",
                        watch("relations", abelian._relation_lattice))
    monkeypatch.setattr(Subobject, "is_zero", watch("is_zero", Subobject.is_zero))
    monkeypatch.setattr(Subobject, "zero", staticmethod(watch("zero", Subobject.zero)))
    x = PresentedModule(Z, *dense_relations(random.Random(32), [2, 4, 3, 5]))
    handle = AbelianHandle(Z)
    for r in range(4):
        for primes in itertools.combinations((2, 3, 5), r):
            sources = [cyclic_module(Z, p) for p in primes]
            torsion_radical_generated(handle, sources, x)
            assert all(a.passed for a in verify_torsion_pair_axioms(handle, sources, [x]))
    # the 32 subgroups of Z/2 + Z/4 + Z/3 + Z/5 fall in 20 classes
    assert counts["classes"] == 20
    assert counts["subobjects"] == counts["modules"] == counts["lattices"] == 20
    assert counts["kernels"] == 0 and counts["zero_builds"] == 0
    assert counts["is_zero"] and counts["zero"] and counts["relations"]
    assert not kept
    # the cli describes each unpruned part by its module
    parts = torsion_parts(handle, x, prune=False).parts
    assert [w.as_module() for w in parts] and kept
    assert counts["as_module"] == len(parts) and counts["module_kernels"] == 0


def test_hom_basis_is_the_basis_of_hom_group():
    rng = random.Random(33)
    z12 = Ring.integers_mod(12)
    shapes = [(Z, [4, 6]), (Z, [0, 2]), (Z, [0]), (Z, [3, 9, 0]), (Z, [5]),
              (z12, [0, 4]), (z12, [2, 6]), (z12, [3])]
    for _ in range(40):
        (ring, a_orders), (_, b_orders) = rng.choice(
            [pair for pair in itertools.product(shapes, repeat=2)
             if pair[0][0] == pair[1][0]])
        a = PresentedModule(ring, *dense_relations(rng, a_orders))
        b = PresentedModule(ring, *dense_relations(rng, b_orders))
        h, basis = hom_group(a, b)
        assert hom_basis(a, b) == basis
        assert len(basis) == h.gens
        with pytest.raises(InputError):
            hom_basis(a, cyclic_module(Ring.integers_mod(5), 5))


def test_prime_set_is_a_sorted_set():
    a, b = PrimeSet((5, 2, 2)), PrimeSet((2, 5))
    assert a.primes == (2, 5)
    assert a == b and hash(a) == hash(b) and len(a) == len(b) == 2
    assert a != PrimeSet((2, 5), True)
    assert a != (2, 5)
    zero = PrimeSet(primes=[3, 3], includes_zero=True)
    assert zero.primes == (3,) and zero.includes_zero and len(zero) == 2
    assert zero.as_list() == [0, 3]
    assert not PrimeSet(()).includes_zero


@pytest.mark.parametrize("build", [
    lambda: direct_sum_module(Z, [2.5]), lambda: cyclic_module(Z, 6.9),
    lambda: cyclic_module(Z, 6.0), lambda: cyclic_module(Z, "6"),
    lambda: PresentedModule(Ring.integers_mod(4), 2, [[2, 0], [0, "1"]]),
    lambda: Subobject(cyclic_module(Z, 6), [[2.0]]),
    lambda: Subobject(cyclic_module(Z, 6), [["3"]])],
    ids=["sum-2.5", "cyclic-6.9", "cyclic-6.0", "cyclic-str", "zmod-str", "sub-2.0",
         "sub-str"])
def test_non_integral_entries_are_refused_not_truncated(build):
    with pytest.raises(InputError, match="entries must be integers"):
        build()


@pytest.mark.parametrize("build, what", [
    # the second column of the embedding was dropped, leaving a subgroup of order 2
    (lambda: Subobject(direct_sum_module(Z, [2, 3]), [[1, 0], [0]]), "embedding"),
    (lambda: PresentedModule(Z, 2, [[2, 0], [3]]), "relation")],
    ids=["embedding", "relations"])
def test_ragged_matrices_are_refused(build, what):
    with pytest.raises(InputError, match=f"^{what} matrix rows must have equal length$"):
        build()


def test_non_integral_generator_count_is_refused():
    with pytest.raises(InputError, match="generator count"):
        PresentedModule(Z, 1.0, [[6]])
    with pytest.raises(InputError, match="generator count"):
        PresentedModule(Z, -1, [])


@pytest.mark.parametrize("order", [4.0, 4.5, "4"])
def test_non_integral_group_order_is_refused(order):
    with pytest.raises(InputError, match="group order must be an integer"):
        finite_abelian_modules(order)


def test_integer_and_boolean_entries_are_accepted():
    assert direct_sum_module(Z, [2, 3]).describe() == "Z/6"
    assert PresentedModule(Z, 2, [[True, 0], [False, 4]]).describe() == "Z/4"
    assert cyclic_module(Z, False).describe() == "Z"
    x = cyclic_module(Z, 6)
    assert Subobject(x, [[True]]).is_full() and Subobject(x, [[3]]).order() == 2
    m = PresentedModule(Z, True, [[2]])
    assert type(m.gens) is int and m.gens == 1 and m.describe() == "Z/2"
    assert [g.describe() for g in finite_abelian_modules(True)] == ["0"]
