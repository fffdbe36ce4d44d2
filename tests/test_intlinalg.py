"""Smith form, kernels and lattice canonical forms, against independent oracles."""
import itertools
import math
import random

import pytest
from conftest import rational_rank

from torsion_lab.intlinalg import (ColumnEchelonLattice, diagonal_of,
                                   from_columns, hstack, identity,
                                   kernel_basis, mat_vec, matmul,
                                   smith_with_inverses)


def det(rows):
    """Laplace expansion along the first row (matrices here are at most 5x5)."""
    if not rows:
        return 1
    return sum((-1) ** j * x * det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def minors_gcd(a, k):
    """gcd of the k x k minors of a (0 when k exceeds a side)."""
    m, n = len(a), len(a[0]) if a else 0
    return math.gcd(*(det([[a[i][j] for j in cs] for i in rs])
                      for rs in itertools.combinations(range(m), k)
                      for cs in itertools.combinations(range(n), k)))


def random_matrices(seed, count=500):
    """Integer matrices up to 5x5: zero, rank-deficient products and dense ones."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        kind = rng.randrange(4)
        if kind == 0:
            yield [[0] * n for _ in range(m)]
        elif kind == 1:
            r = rng.randint(1, max(1, min(m, n) - 1))
            left = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(m)]
            right = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
            yield matmul(left, right)
        else:
            yield [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]


def test_snf_examples():
    _, _, d = smith_with_inverses([[2, 0], [0, 3]])
    assert diagonal_of(d) == [1, 6]
    _, _, d = smith_with_inverses(identity(3))
    assert diagonal_of(d) == [1, 1, 1]
    _, _, d = smith_with_inverses([[0]])
    assert diagonal_of(d) == [0]


def test_snf_soundness_random():
    # U unimodular, U*a and D span the same column lattice, D diagonal with
    # d1 | d2 | ... >= 0 and d1 * ... * dk the gcd of the k x k minors of a
    for a in random_matrices(0):
        m, n = len(a), len(a[0])
        u, ui, d = smith_with_inverses(a)
        assert matmul(u, ui) == identity(m)
        assert all(d[i][j] == 0 for i in range(m) for j in range(n) if i != j)
        diag = diagonal_of(d)
        for i in range(len(diag) - 1):
            assert diag[i] >= 0
            if diag[i + 1]:
                assert diag[i] and diag[i + 1] % diag[i] == 0
        product = 1
        for k, dk in enumerate(diag, start=1):
            product *= dk
            assert product == minors_gcd(a, k)
        # every column of U*a lies in the lattice of D; both have rank r and
        # the same gcd of r x r minors, so the inclusion has index 1
        r = sum(1 for x in diag if x)
        for col in zip(*matmul(u, a)):
            assert all(col[i] % diag[i] == 0 for i in range(r))
            assert not any(col[r:])
        assert r == rational_rank(a)


def test_kernel_basis_examples():
    assert kernel_basis([[1, 1]]) == [[1, -1]]
    assert kernel_basis([[0, 0]]) == [[1, 0], [0, 1]]
    assert kernel_basis([[2, 4, 6]]) == [[1, 1, -1], [0, 3, -2]]
    assert kernel_basis([[2, 0], [0, 3]]) == []
    assert kernel_basis([[], []]) == []
    assert kernel_basis([]) == []


def test_kernel_basis_random():
    # killed by a, n - rank(a) vectors, and saturated: the gcd of the maximal
    # minors of the basis is 1, so the basis spans the whole integer kernel
    for a in random_matrices(1):
        n = len(a[0])
        basis = kernel_basis(a)
        for vec in basis:
            assert not any(mat_vec(a, vec))
        assert len(basis) == n - rational_rank(a)
        if basis:
            assert minors_gcd(from_columns(basis, n), len(basis)) == 1


def test_lattice_canonical_form_invariance():
    rng = random.Random(7)
    for _ in range(300):
        g = rng.randint(1, 5)
        k = rng.randint(1, 5)
        cols = [[rng.randint(-9, 9) for _ in range(g)] for _ in range(k)]
        lat = ColumnEchelonLattice(g, cols)
        shuffled = [c[:] for c in cols]
        for _ in range(25):
            op = rng.randint(0, 2)
            i, j = rng.randrange(k), rng.randrange(k)
            if op == 0 and i != j:
                c = rng.randint(-3, 3)
                shuffled[i] = [x + c * y for x, y in zip(shuffled[i], shuffled[j])]
            elif op == 1:
                shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
            else:
                shuffled[i] = [-x for x in shuffled[i]]
        lat2 = ColumnEchelonLattice(g, shuffled)
        assert lat.key() == lat2.key()
        for _ in range(4):
            vec = [rng.randint(-12, 12) for _ in range(g)]
            assert lat.contains(vec) == lat2.contains(vec)


def _sort_and_reduce(rows, cols):
    """(basis, pivots) of the column-echelon form by gcd-reducing, row by row,
    every column that is live at that row (the sort-and-reduce algorithm),
    then reducing each pivot row of earlier columns into [0, pivot)."""
    work = [list(c) for c in cols if any(c)]
    basis, pivots = [], []
    for r in range(rows):
        live = [c for c in work if c[r]]
        if not live:
            continue
        rest = [c for c in work if not c[r]]
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[r]))
            head, reduced = live[0], [live[0]]
            for c in live[1:]:
                q = c[r] // head[r]
                c = [x - q * y for x, y in zip(c, head)]
                if c[r]:
                    reduced.append(c)
                elif any(c):
                    rest.append(c)
            live = reduced
        col = live[0] if live[0][r] > 0 else [-x for x in live[0]]
        basis.append(col)
        pivots.append(r)
        work = [c for c in rest if any(c)]
    for k in range(len(basis)):
        for later in range(k + 1, len(basis)):
            q = basis[k][pivots[later]] // basis[later][pivots[later]]
            basis[k] = [x - q * y for x, y in zip(basis[k], basis[later])]
    return tuple(map(tuple, basis)), pivots


def test_insertion_form_matches_sort_and_reduce():
    # the Hermite form is unique per lattice, so any correct algorithm gives
    # the oracle's basis; the sets include no columns, zero and repeated
    # columns, negative entries and entries up to 10^6
    rng = random.Random(11)
    for _ in range(12_000):
        rows, count = rng.randint(0, 6), rng.randint(0, 7)
        bound = rng.choice((2, 9, 10 ** 3, 10 ** 6))
        cols = [[rng.randint(-bound, bound) if rng.random() < 0.7 else 0
                 for _ in range(rows)] for _ in range(count)]
        if cols and rng.random() < 0.3:
            cols.insert(rng.randrange(len(cols) + 1), list(rng.choice(cols)))
        if rng.random() < 0.2:
            cols.insert(rng.randrange(len(cols) + 1), [0] * rows)
        lat = ColumnEchelonLattice(rows, [c[:] for c in cols])
        assert (lat.basis, lat.pivots) == _sort_and_reduce(rows, cols), (rows, cols)


def test_kernel_basis_random_wide_and_large():
    # more columns than rows and entries up to 10^6: killed by a, and as many
    # vectors as the kernel's rank n - rank(a)
    rng = random.Random(12)
    for _ in range(300):
        m, n = rng.randint(0, 4), rng.randint(0, 7)
        bound = rng.choice((3, 10 ** 6))
        a = [[rng.randint(-bound, bound) if rng.random() < 0.8 else 0 for _ in range(n)]
             for _ in range(m)]
        basis = kernel_basis(a)
        width = n if m else 0
        assert all(len(vec) == width and not any(mat_vec(a, vec)) for vec in basis)
        assert len(basis) == width - rational_rank(a)


def test_lattice_membership_spans_generators():
    lat = ColumnEchelonLattice(2, [[2, 0], [0, 3]])
    assert lat.contains([2, 3])
    assert lat.contains([-4, 9])
    assert not lat.contains([1, 0])
    assert lat.determinant_index() == 6


def test_hstack_joins_rows_and_refuses_mismatch():
    assert hstack([[1], [2]], [[3, 4], [5, 6]]) == [[1, 3, 4], [2, 5, 6]]
    assert hstack([[], []], [[1], [2]]) == [[1], [2]]
    assert hstack([], []) == []
    with pytest.raises(ValueError):
        hstack([[1], [2]], [[3]])
    with pytest.raises(ValueError):
        hstack([], [[3]])


def test_from_columns_builds_rows_and_refuses_wrong_lengths():
    assert from_columns([[1, 2], [3, 4]], 2) == [[1, 3], [2, 4]]
    assert from_columns([], 2) == [[], []]
    with pytest.raises(ValueError):
        from_columns([[1, 2, 3]], 2)
    with pytest.raises(ValueError):
        from_columns([[1, 2], [3]], 2)


def test_matmul_refuses_inner_dimension_mismatch():
    assert matmul([[1, 2]], [[3], [4]]) == [[11]]
    assert matmul([[], []], []) == [[], []]
    assert matmul([], [[1, 2]]) == []
    with pytest.raises(ValueError):
        matmul([[1, 2]], [[3], [4], [5]])
    with pytest.raises(ValueError):
        matmul([[1, 2]], [[3]])
