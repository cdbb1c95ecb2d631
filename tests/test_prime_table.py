"""The prime table: one flag byte per odd number, sieved once per limit; its
int64 array is built on first use."""

import numpy as np
import pytest
import sympy

from coprimelab.arith import primes_up_to, smallest_prime_factors
from coprimelab.perco import estimate_crossing


def _least_factor(k: int) -> int:
    return next(p for p in range(2, k + 1) if k % p == 0)


@pytest.mark.parametrize("limit", [2, 3, 4, 10**5 + 3])
def test_primes_match_sympy(limit):
    table = primes_up_to(limit)
    expected = tuple(sympy.primerange(2, limit + 1))
    assert table.primes == expected
    assert list(table) == list(expected) and len(table) == len(expected)
    assert table.array.dtype == np.int64


def test_odd_only_sieve_at_every_small_limit():
    # both parities of the limit, and the squares of primes (9, 25, 49, 121,
    # 169, 289), where the limit is the first multiple its prime marks
    for limit in range(2, 301):
        table = primes_up_to(limit)
        expected = list(sympy.primerange(2, limit + 1))
        assert len(table) == len(expected), limit
        assert list(table) == expected, limit
        assert [k for k in range(-3, limit + 3) if k in table] == expected, limit
        assert "array" not in vars(table), limit  # built only when asked for
        assert table.array.tolist() == expected, limit


def test_smallest_prime_factors_match_trial_division():
    spf = smallest_prime_factors(10**4)
    assert spf[0] == spf[1] == 0
    assert spf[2:].tolist() == [_least_factor(k) for k in range(2, 10**4 + 1)]


@pytest.mark.parametrize("limit", [1, 2, 3, 4, 5])
def test_smallest_prime_factors_at_tiny_limits(limit):
    # sqrt(limit) < 2 for limits 1-3: no prime marks a multiple
    expected = [0, 0] + [_least_factor(k) for k in range(2, limit + 1)]
    assert smallest_prime_factors(limit).tolist() == expected


def test_prime_array_is_read_only():
    table = primes_up_to(30)
    with pytest.raises(ValueError):
        table.array[0] = 4
    assert table.primes[0] == 2


def test_crossing_run_sieves_once():
    # every sub-batch and the batch sizing share one table
    primes_up_to.cache_clear()
    estimate_crossing(2, 2, 50, 10**5, 1)
    assert primes_up_to.cache_info().misses == 1


def test_largest_table_stays_compact(memory_contract):
    # a flag byte per odd number and the 8-byte primes, with no tuple beside them
    def fresh_table():
        primes_up_to.cache_clear()
        try:
            assert len(primes_up_to(2**26)) == 3_957_809
        finally:
            primes_up_to.cache_clear()

    memory_contract(1, 2**20, {2**26: fresh_table})
