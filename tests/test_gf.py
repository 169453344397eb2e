import pytest

from bstar.gf import NotPrime, TooLarge, discrete_log_table, make_field


def test_gf8_reduction_poly():
    ctx = make_field(2, 3)
    # lexicographic scan lands on x^3 + x + 1
    assert ctx.reduction == (1, 1, 0)
    assert ctx.order == 8


def test_gf9_exists():
    ctx = make_field(3, 2)
    assert ctx.order == 9
    table = discrete_log_table(ctx)
    assert len(table) == 8


def test_not_prime():
    with pytest.raises(NotPrime):
        make_field(4, 2)


def test_too_large():
    with pytest.raises(TooLarge):
        make_field(1009, 3)


def test_log_table_examples():
    ctx = make_field(2, 3)
    table = discrete_log_table(ctx)
    assert table[ctx.one] == 0
    assert table[ctx.generator] == 1
    # theta^3 = theta + 1 in GF(8)
    assert table[(1, 1, 0)] == 3


def test_powers_enumerate_group():
    for p, t in [(2, 3), (3, 2), (5, 1), (7, 2)]:
        ctx = make_field(p, t)
        table = discrete_log_table(ctx)
        assert sorted(table.values()) == list(range(p**t - 1))
        assert len({e for e in table}) == p**t - 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cubic_scalar_lines_match_subgroup(p):
    """theta^a and theta^b are GF(p)-proportional iff a == b mod p^2+p+1."""
    ctx = make_field(p, 3)
    q = p * p + p + 1
    x = ctx.one
    powers = []
    for _ in range(p**3 - 1):
        powers.append(x)
        x = ctx.mul(x, ctx.generator)
    for a in range(0, p**3 - 1, max(1, (p**3 - 1) // 60)):
        line = {tuple((c * x) % p for x in powers[a]) for c in range(1, p)}
        for b in range(p**3 - 1):
            assert (powers[b] in line) == ((a - b) % q == 0)
