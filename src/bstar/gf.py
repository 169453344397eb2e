"""Small finite fields GF(p^t), t <= 3, with primitive elements.

Elements are coefficient tuples over GF(p) in the power basis
(1, theta, theta^2), little-endian.  Fields are tiny, so the reduction
polynomial is found by a lexicographic scan with a brute root test, the
generator by an order check against the factorization of p^t - 1, and
the discrete-log table is materialized in full.  Everything is
deterministic so constructions built on top are reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field

Element = tuple[int, ...]


class NotPrime(ValueError):
    pass


class TooLarge(ValueError):
    pass


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


def factor(n: int) -> list[int]:
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


@dataclass(frozen=True)
class FieldCtx:
    """Arithmetic context for GF(p^t).

    reduction holds the low coefficients (c0..c_{t-1}) of the monic
    reduction polynomial x^t + c_{t-1} x^{t-1} + ... + c0.
    """

    p: int
    t: int
    reduction: tuple[int, ...]
    generator: Element = field(default=())

    @property
    def order(self) -> int:
        return self.p**self.t

    @property
    def one(self) -> Element:
        return (1,) + (0,) * (self.t - 1)

    def element(self, code: int) -> Element:
        """Decode an integer in [0, p^t) to little-endian coefficients."""
        coeffs = []
        for _ in range(self.t):
            coeffs.append(code % self.p)
            code //= self.p
        return tuple(coeffs)

    def mul(self, a: Element, b: Element) -> Element:
        p, t = self.p, self.t
        prod = [0] * (2 * t - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        # reduce degrees t .. 2t-2 using x^t = -(c_{t-1} x^{t-1} + ... + c0)
        for d in range(2 * t - 2, t - 1, -1):
            c = prod[d] % p
            if c:
                prod[d] = 0
                for j, r in enumerate(self.reduction):
                    prod[d - t + j] -= c * r
        return tuple(v % p for v in prod[:t])

    def pow(self, a: Element, e: int) -> Element:
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result


def _irreducible(p: int, t: int, coeffs: tuple[int, ...]) -> bool:
    """Degree 2 or 3 polynomials are irreducible iff they have no root."""
    for x in range(p):
        acc = x**t
        for j, c in enumerate(coeffs):
            acc += c * x**j
        if acc % p == 0:
            return False
    return True


def make_field(p: int, t: int) -> FieldCtx:
    """Construct GF(p^t) with a verified reduction polynomial and generator."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if t not in (1, 2, 3):
        raise ValueError("extension degree must be 1, 2 or 3")
    if p**t > ORDER_LIMIT:
        raise TooLarge(f"field order {p}^{t} exceeds limit {ORDER_LIMIT}")

    if t == 1:
        reduction: tuple[int, ...] = (0,)
    else:
        reduction = ()
        for code in range(p**t):
            cand = FieldCtx(p, t, ()).element(code)
            if _irreducible(p, t, cand):
                reduction = cand
                break
        assert reduction, "no irreducible polynomial found"

    ctx = FieldCtx(p, t, reduction)
    group_order = p**t - 1
    if group_order == 1:
        return FieldCtx(p, t, reduction, ctx.one)
    prime_factors = factor(group_order)
    for code in range(2, p**t):
        cand = ctx.element(code)
        if all(ctx.pow(cand, group_order // q) != ctx.one for q in prime_factors):
            return FieldCtx(p, t, reduction, cand)
    raise AssertionError("multiplicative group of a finite field is cyclic")


def discrete_log_table(ctx: FieldCtx) -> dict[Element, int]:
    """Map each nonzero element to its exponent base the generator."""
    table: dict[Element, int] = {}
    x = ctx.one
    for e in range(ctx.order - 1):
        table[x] = e
        x = ctx.mul(x, ctx.generator)
    if len(table) != ctx.order - 1:
        raise AssertionError("generator does not enumerate the nonzero elements")
    return table
