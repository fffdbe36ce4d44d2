"""Smith form soundness and lattice canonical forms."""
import random

import pytest

from torsion_lab.intlinalg import (ColumnEchelonLattice, from_columns, hstack,
                                   identity, kernel_basis, mat_vec, matmul,
                                   smith_normal_form, smith_with_inverses,
                                   diagonal_of)


def test_snf_examples():
    _, d, _ = smith_normal_form([[2, 0], [0, 3]])
    assert diagonal_of(d) == [1, 6]
    _, d, _ = smith_normal_form(identity(3))
    assert diagonal_of(d) == [1, 1, 1]
    _, d, _ = smith_normal_form([[0]])
    assert diagonal_of(d) == [0]


def test_snf_soundness_random():
    # U*A*V = D, unimodular transforms, divisibility chain: 500 random matrices
    rng = random.Random(0)
    for _ in range(500):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        u, ui, d, v, vi = smith_with_inverses(a)
        assert matmul(matmul(u, a), v) == d
        assert matmul(u, ui) == identity(m)
        assert matmul(v, vi) == identity(n)
        diag = diagonal_of(d)
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        for i in range(len(diag) - 1):
            assert diag[i] >= 0
            if diag[i + 1]:
                assert diag[i] and diag[i + 1] % diag[i] == 0
        for k in kernel_basis(a):
            assert all(x == 0 for x in mat_vec(a, k))


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
