"""Small finite fields GF(p^t), t <= 3, as the powers of one generator.

Elements are little-endian coefficient tuples over GF(p) in the basis
(1, x, x^2); an element's code is the integer with those base-p digits.
The reduction polynomial is the first monic irreducible one in code
order (a brute root test), and the generator theta is the first code
>= 2 whose order, checked against the prime factors of p^t - 1, is
p^t - 1.  The powers, and every construction on them, are deterministic.
"""
from __future__ import annotations

Element = tuple[int, ...]

# Largest permitted field size p^t.
ORDER_LIMIT = 1 << 22


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _element(code: int, p: int, t: int) -> Element:
    return tuple(code // p**i % p for i in range(t))


def _irreducible(p: int, t: int, coeffs: Element) -> bool:
    """Degree 2 or 3 polynomials are irreducible iff they have no root."""
    return all((x**t + sum(c * x**j for j, c in enumerate(coeffs))) % p for x in range(p))


def _mul(a: Element, b: Element, p: int, reduction: Element) -> Element:
    """Product modulo x^t + c_{t-1} x^{t-1} + ... + c0, reduction = (c0..c_{t-1})."""
    t = len(a)
    prod = [0] * (2 * t - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    # reduce degrees 2t-2 .. t using x^t = -(c_{t-1} x^{t-1} + ... + c0)
    for d in range(2 * t - 2, t - 1, -1):
        c = prod[d] % p
        if c:
            for j, r in enumerate(reduction):
                prod[d - t + j] -= c * r
    return tuple([v % p for v in prod[:t]])


def _pow(a: Element, e: int, p: int, reduction: Element) -> Element:
    result = (1,) + (0,) * (len(a) - 1)
    while e:
        if e & 1:
            result = _mul(result, a, p, reduction)
        a = _mul(a, a, p, reduction)
        e >>= 1
    return result


def field_powers(p: int, t: int) -> list[Element]:
    """theta^0, theta^1, ..., theta^(p^t - 2) for the generator theta of GF(p^t)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if t not in (1, 2, 3):
        raise ValueError("extension degree must be 1, 2 or 3")
    if p**t > ORDER_LIMIT:
        raise ValueError(f"field order {p}^{t} exceeds limit {ORDER_LIMIT}")
    # both scans decode codes one at a time and stop at the first hit
    reduction = () if t == 1 else next(
        c for c in (_element(code, p, t) for code in range(p**t)) if _irreducible(p, t, c))
    one = (1,) + (0,) * (t - 1)
    n = p**t - 1
    factors = _prime_factors(n)
    # GF(2) has no code >= 2, and its generator is 1
    theta = next((c for c in (_element(code, p, t) for code in range(2, p**t))
                  if all(_pow(c, n // r, p, reduction) != one for r in factors)), one)
    powers = [one]
    for _ in range(n - 1):
        powers.append(_mul(powers[-1], theta, p, reduction))
    return powers
