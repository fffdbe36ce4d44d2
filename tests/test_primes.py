"""Primality and factorisation; the rho step budget is tested through the CLI."""
import math

import pytest

from torsion_lab.primes import factorize, is_prime, p_adic_valuation


def test_factorize_small_numbers_into_primes():
    for n in range(1, 2000):
        factors = factorize(n)
        assert math.prod(p ** e for p, e in factors.items()) == n
        assert all(is_prime(p) for p in factors)


def test_factorize_splits_large_semiprimes():
    # every factor lies beyond trial division, so rho must split them
    assert factorize(999999937 * 999999929) == {999999937: 1, 999999929: 1}
    assert factorize(2 ** 64 + 1) == {274177: 1, 67280421310721: 1}
    assert factorize(3 ** 4 * 998244353 * 1000000007) == {
        3: 4, 998244353: 1, 1000000007: 1}


def test_valuation_refuses_a_base_below_two():
    # p = 1 would divide forever
    for p in (1, 0, -3):
        with pytest.raises(ValueError):
            p_adic_valuation(12, p)
    assert [p_adic_valuation(n, 2) for n in (1, 12, -8)] == [0, 2, 3]
