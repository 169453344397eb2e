import math

import pytest

from bstar.gf import _prime_factors, field_powers, is_prime


def test_gf8_reduction_poly():
    # the code-order scan lands on x^3 + x + 1, and theta = x, so theta^3 = theta + 1
    assert field_powers(2, 3)[3] == (1, 1, 0)


def test_gf9_exists():
    assert len(field_powers(3, 2)) == 8


def test_not_prime():
    with pytest.raises(ValueError, match="^4 is not prime$"):
        field_powers(4, 2)


def test_trial_division_matches_brute_force():
    # is_prime and _prime_factors share one least-factor search
    primes = [p for p in range(2, 2000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    assert [p for p in range(-5, 2000) if is_prime(p)] == primes
    for n in range(1, 2000):
        assert _prime_factors(n) == [p for p in primes if n % p == 0], n
    assert _prime_factors(2**22 - 1) == [3, 23, 89, 683]


def test_bad_degree():
    with pytest.raises(ValueError, match="^extension degree must be 1, 2 or 3$"):
        field_powers(3, 4)


def test_too_large():
    with pytest.raises(ValueError, match=r"^field order 1009\^3 exceeds limit 4194304$"):
        field_powers(1009, 3)


def test_log_table_examples():
    # the powers list inverted is the discrete-log table the constructions read
    logs = {x: e for e, x in enumerate(field_powers(2, 3))}
    assert logs[(1, 0, 0)] == 0 and logs[(0, 1, 0)] == 1 and logs[(1, 1, 0)] == 3


def test_powers_enumerate_group():
    # GF(2)'s one power is its generator, 1
    for p, t in [(2, 1), (2, 3), (3, 2), (5, 1), (7, 2)]:
        powers = field_powers(p, t)
        nonzero = {tuple(c // p**i % p for i in range(t)) for c in range(1, p**t)}
        assert len(powers) == p**t - 1 and set(powers) == nonzero


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cubic_scalar_lines_match_subgroup(p):
    """theta^a and theta^b are GF(p)-proportional iff a == b mod p^2+p+1."""
    powers = field_powers(p, 3)
    q = p * p + p + 1
    for a in range(0, p**3 - 1, max(1, (p**3 - 1) // 60)):
        line = {tuple((c * x) % p for x in powers[a]) for c in range(1, p)}
        for b in range(p**3 - 1):
            assert (powers[b] in line) == ((a - b) % q == 0)
