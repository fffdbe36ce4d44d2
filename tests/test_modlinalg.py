"""Linear algebra over F_p: kernels against exhaustive search."""
import itertools
import random

from torsion_lab.modlinalg import Subspace, kernel_mod


def _span(vectors, p, n):
    return {tuple(sum(c * v[i] for c, v in zip(coeffs, vectors)) % p for i in range(n))
            for coeffs in itertools.product(range(p), repeat=len(vectors))}


def test_kernel_without_rows_is_the_identity_basis():
    for p, n in itertools.product((2, 3, 5), range(4)):
        assert kernel_mod([], p, n) == [[int(i == j) for j in range(n)] for i in range(n)]


def test_kernel_matches_exhaustive_search():
    rng = random.Random(0)
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        m, n = rng.randrange(4), rng.randrange(4)
        mat = [[rng.randrange(-p, 2 * p) for _ in range(n)] for _ in range(m)]
        basis = kernel_mod(mat, p, n)
        want = {u for u in itertools.product(range(p), repeat=n)
                if all(sum(a * b for a, b in zip(row, u)) % p == 0 for row in mat)}
        # a basis: it spans the kernel and has p^len elements in its span
        assert _span(basis, p, n) == want
        assert len(want) == p ** len(basis)


def test_preimage_matches_exhaustive_search():
    # entries outside [0, p) included: the pull-back reduces them itself
    rng = random.Random(1)
    for _ in range(200):
        p = rng.choice((2, 3))
        dim, src = rng.randrange(4), rng.randrange(4)
        space = Subspace(p, dim, [[rng.randrange(p) for _ in range(dim)]
                                  for _ in range(rng.randrange(dim + 1))])
        mat = [[rng.randrange(-p, 2 * p) for _ in range(src)] for _ in range(dim)]
        pulled = space.preimage(mat, src)
        want = {u for u in itertools.product(range(p), repeat=src)
                if space.contains([sum(a * b for a, b in zip(row, u)) for row in mat])}
        assert _span(pulled.rows, p, src) == want
