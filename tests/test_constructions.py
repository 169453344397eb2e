import hashlib
import math

import numpy as np
import pytest

from bstar.constructions import (
    bose_sets,
    compose_mod,
    expected_integer_size,
    half_modular,
    integer_inclusion_probabilities,
    random_circle_set,
    random_integer_set,
    ruzsa_sets,
    singer_sets,
    small_gn_witness,
)
from bstar.gf import is_prime
from bstar.intsets import IntSet, max_rep, representation_counts


def test_ruzsa_examples():
    rep = ruzsa_sets(5, 1)
    assert len(rep.set) == 4 and rep.set.modulus == 20 and rep.verified
    assert max_rep(rep.set) <= 2
    rep = ruzsa_sets(5, 2)
    assert len(rep.set) == 8 and rep.verified
    with pytest.raises(ValueError, match="4 is not prime"):
        ruzsa_sets(4, 1)


def test_ruzsa_blocks_disjoint():
    # the k classes partition into blocks of size p-1 each
    for p, k in [(5, 2), (7, 3), (11, 4)]:
        rep = ruzsa_sets(p, k)
        assert len(rep.set) == k * (p - 1)
        by_residue = {}
        for a in rep.set.elements:
            by_residue.setdefault(a % (p - 1), []).append(a)
        assert all(len(v) == k for v in by_residue.values())


def test_bose_examples():
    rep = bose_sets(3, 1)
    assert len(rep.set) == 3 and rep.set.modulus == 8 and max_rep(rep.set) <= 2
    rep = bose_sets(5, 2)
    assert len(rep.set) == 10 and rep.set.modulus == 24 and max_rep(rep.set) <= 8
    with pytest.raises(ValueError, match="need 1 <= k < p"):
        bose_sets(3, 3)


def test_singer_examples():
    rep = singer_sets(2, 1)
    assert rep.set.elements == (0, 1, 3) and rep.set.modulus == 7
    rep = singer_sets(3, 1)
    assert len(rep.set) == 4 and rep.set.modulus == 13 and max_rep(rep.set) <= 2
    rep = singer_sets(3, 2)
    assert len(rep.set) == 7 and rep.set.modulus == 13 and max_rep(rep.set) <= 8


def test_singer_is_perfect_difference_set():
    for p in [2, 3, 5, 7]:
        s = singer_sets(p, 1).set
        q = s.modulus
        diffs = [0] * q
        for a in s.elements:
            for b in s.elements:
                if a != b:
                    diffs[(a - b) % q] += 1
        assert diffs[0] == 0 and all(c == 1 for c in diffs[1:])


def test_compose_examples():
    s = IntSet.of([0, 1, 2, 4], 7)
    rep = compose_mod(s, 3, IntSet.of([0], 2), 1)
    assert len(rep.set) == 4 and rep.set.modulus == 14 and max_rep(rep.set) <= 3
    with pytest.raises(ValueError, match="moduli 6 and 9 share a factor"):
        compose_mod(IntSet.of([0], 6), 1, IntSet.of([0], 9), 1)
    rep = compose_mod(IntSet.of([0], 3), 1, IntSet.of([0], 2), 1)
    assert rep.set.elements == (0,) and max_rep(rep.set) == 1


def test_compose_size_multiplies():
    s = singer_sets(3, 1).set  # mod 13
    m = IntSet.of([0, 1, 3, 7], 12)
    rep = compose_mod(s, 2, m, 2)
    assert len(rep.set) == len(s) * len(m)
    assert rep.verified


def test_half_modular_examples():
    rep = half_modular(IntSet.of([1, 2, 5, 7]), 2, singer_sets(2, 1).set, 2)
    assert len(rep.set) == 12 and max_rep(rep.set) <= 4
    assert rep.set.max_element <= rep.claimed_modulus_or_range

    rep = half_modular(IntSet.of([1]), 1, IntSet.of([0], 1), 1)
    assert rep.set.elements == (1,)

    rep = half_modular(IntSet.of([1, 2]), 2, IntSet.of([0, 1, 3], 7), 2)
    assert len(rep.set) == 6 and max_rep(rep.set) <= 4
    assert rep.claimed_modulus_or_range == 7 * 2 + 1 - math.ceil(7 / 3)


def test_small_gn_examples():
    rep = small_gn_witness(6)
    assert rep.set.elements == (0, 1, 4, 6, 7, 11, 12, 13, 14, 15, 16)
    assert len(rep.set) == 11 and max_rep(rep.set) <= 6

    assert len(small_gn_witness(1).set) == 1

    rep = small_gn_witness(12)
    assert len(rep.set) == 22 and rep.set.max_element <= 32 and rep.verified


def test_small_gn_ratio_limit():
    rep = small_gn_witness(6000)
    ratio = len(rep.set) / math.sqrt(2 * 6000 * rep.claimed_modulus_or_range)
    assert abs(ratio - 11 / (8 * math.sqrt(3))) < 1e-3


def test_random_circle_full_and_empty():
    rep = random_circle_set(1001, 1.0, seed=5)
    assert rep.size == 1001 and rep.achieved_g == 1001
    rep = random_circle_set(9, 1e-9, seed=5)
    assert rep.size == 0 and rep.achieved_g == 0
    with pytest.raises(ValueError, match="n must be a positive odd integer"):
        random_circle_set(10, 0.5)


def test_random_circle_size_concentration():
    n, eps = 10001, 0.2
    hits = sum(
        random_circle_set(n, eps, seed=seed).size >= eps * n - math.sqrt(eps * n * math.log(4))
        for seed in range(20)
    )
    assert hits >= 15  # per-draw failure probability is below 1/2


def test_random_integer_reports():
    assert abs(expected_integer_size(10**5, 50.0) - 2507.2) < 0.1
    rep = random_integer_set(2000, 20.0, seed=7)
    assert rep.rule == "inverse-sqrt" and rep.seed == 7
    assert rep.achieved_g == max_rep(rep.set)
    # boundary: gamma = pi keeps every p_k at most 1
    rep = random_integer_set(4, math.pi, seed=0)
    assert all(0 <= e <= 4 for e in rep.set.elements)
    with pytest.raises(ValueError, match="gamma must be at least pi"):
        random_integer_set(100, 3.0)


def test_random_integer_is_reproducible():
    a = random_integer_set(5000, 40.0, seed=11)
    b = random_integer_set(5000, 40.0, seed=11)
    assert a.set == b.set and a.achieved_g == b.achieved_g


@pytest.mark.parametrize("kind, n, param, seed", [
    ("integer", 4, math.pi, 0), ("integer", 2000, 20.0, 7), ("integer", 10**5, 50.0, 3),
    ("integer", 3 * 2**16 + 5, 100.0, 2),  # several chunks of draws, the last one partial
    ("circle", 9, 0.5, 1), ("circle", 1001, 1.0, 5), ("circle", 10001, 0.2, 3),
])
def test_random_draws_match_the_generator_form(kind, n, param, seed):
    # the reference keeps position i of 1..n as a loop over the same draw
    rng = np.random.default_rng(seed)
    if kind == "integer":
        keep = rng.random(n) < integer_inclusion_probabilities(n, param)
        expected = IntSet.of(i for i in range(1, n + 1) if keep[i - 1])
        rep = random_integer_set(n, param, seed)
    else:
        keep = rng.random(n) < param
        expected = IntSet.of((i % n for i in range(1, n + 1) if keep[i - 1]), n)
        rep = random_circle_set(n, param, seed)
    assert rep.set == expected
    assert all(type(e) is int for e in rep.set.elements)


def test_report_verified_accounts_for_claim():
    rep = ruzsa_sets(7, 2)
    assert rep.verified and max_rep(rep.set) <= rep.claimed_g
    assert representation_counts(rep.set).sum() == len(rep.set) ** 2


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_every_k_verifies_up_to_31(p):
    """Exhaustive soundness sweep: all 1 <= k < p for every prime p <= 31."""
    for k in range(1, p):
        r = ruzsa_sets(p, k)
        assert r.verified and len(r.set) == k * (p - 1), ("ruzsa", p, k)
        b = bose_sets(p, k)
        assert b.verified and len(b.set) == k * p, ("bose", p, k)
        s = singer_sets(p, k)
        assert s.verified and len(s.set) == k * p + 1, ("singer", p, k)


def test_algebraic_sweep_digest():
    """The three algebraic families over criterion 4's sweep, element for element."""
    digest = hashlib.sha256()
    for p in [p for p in range(2, 32) if is_prime(p)]:
        for k in range(1, min(p, 5)):
            for family in (ruzsa_sets, bose_sets, singer_sets):
                digest.update(repr(family(p, k).set.elements).encode())
    assert digest.hexdigest() == (
        "b3b5759c061bfed6f0823cf9909f45ada25be52916e785f3eaeb4c2045256f83")
