"""Explicit and probabilistic constructions of B*[g] sets.

The three algebraic families generalize the classical Sidon-set
constructions from primitive roots (ruzsa_sets), GF(p^2) logarithms
(bose_sets) and GF(p^3) logarithms (singer_sets); taking k parallel
classes turns each B*[2] (mod n) family into a B*[2k^2] (mod n) one.
compose_mod glues two modular sets across coprime moduli, half_modular
turns a modular set plus an integer set into a larger integer set, and
small_gn_witness is the dense four-block witness that achieves ratio
11/(8*sqrt(3)) against sqrt(2 g n) as g grows.

Every report is verified by an exact representation count (a rounded
FFT autoconvolution with a proven error bound, see
intsets.representation_counts) before it is returned.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import field_powers, is_prime
from .intsets import IntSet, max_rep


@lru_cache(maxsize=32)
def _field_logs(p: int, t: int) -> dict[tuple[int, ...], int]:
    """Discrete logs in GF(p^t): each nonzero element's exponent base theta."""
    return {x: e for e, x in enumerate(field_powers(p, t))}


@dataclass(frozen=True)
class ConstructionReport:
    """A constructed set together with its claimed quality, re-verified."""

    name: str
    params: dict
    set: IntSet
    claimed_g: int
    claimed_modulus_or_range: int
    verified: bool


@dataclass(frozen=True)
class ProbConstructReport:
    """Outcome of one seeded random draw."""

    name: str
    set: IntSet
    gamma: float
    achieved_g: int
    expected_size: float
    a0: float
    rule: str
    seed: int

    @property
    def size(self) -> int:
        return len(self.set)


def _report(name: str, params: dict, s: IntSet, g: int, scope: int) -> ConstructionReport:
    return ConstructionReport(name, params, s, g, scope, verified=max_rep(s) <= g)


def ruzsa_sets(p: int, k: int) -> ConstructionReport:
    """Union of k primitive-root classes: size k(p-1), B*[2k^2] mod p(p-1).

    Class i consists of the CRT solutions a == t (mod p-1), a == i*g^t (mod p)
    for t = 1..p-1, where g is a primitive root mod p.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 1 <= k < p:
        raise ValueError("need 1 <= k < p")
    powers = field_powers(p, 1)  # g^0 .. g^(p-2) as 1-tuples
    m = p * (p - 1)
    # CRT basis: u == 1 mod (p-1), u == 0 mod p, and complement v
    u = p * pow(p, -1, p - 1) if p - 1 > 1 else 0
    v = (1 - u) % m
    elements = []
    for t in range(1, p):
        (gt,) = powers[t % (p - 1)]
        for i in range(1, k + 1):
            elements.append((t * u + (i * gt % p) * v) % m)
    s = IntSet.of(elements, m)
    if len(s) != k * (p - 1):
        raise AssertionError("class union lost elements")
    return _report("ruzsa", {"p": p, "k": k}, s, 2 * k * k, m)


def bose_sets(p: int, k: int) -> ConstructionReport:
    """Union of k log classes in GF(p^2): size kp, B*[2k^2] mod p^2-1.

    Class i is {log(i*theta + s) : s in GF(p)} for theta a generator.
    Prime p only; prime powers would need tower fields.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime (prime powers unsupported)")
    if not 1 <= k < p:
        raise ValueError("need 1 <= k < p")
    logs = _field_logs(p, 2)
    m = p * p - 1
    elements = [logs[(s, i)] % m for i in range(1, k + 1) for s in range(p)]
    s = IntSet.of(elements, m)
    if len(s) != k * p:
        raise AssertionError("log classes overlapped")
    return _report("bose", {"p": p, "k": k}, s, 2 * k * k, m)


def singer_sets(p: int, k: int) -> ConstructionReport:
    """Pencil of k projective lines: size kp+1, B*[2k^2] mod p^2+p+1.

    The base line is D = {0} u {log(theta + s) mod q : s in GF(p)} in
    GF(p^3), q = p^2+p+1, a perfect difference set of size p+1.  Its
    translates D - d (d in D) are the lines through the point 0; any k
    of them meet pairwise only at 0, so their union has kp+1 residues,
    and each sum value draws at most 2 representations per ordered pair
    of lines because D itself is a B*[2] (mod q) set.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime (prime powers unsupported)")
    if not 1 <= k < p:
        raise ValueError("need 1 <= k < p")
    logs = _field_logs(p, 3)
    q = p * p + p + 1
    base = {0} | {logs[(s, 1, 0)] % q for s in range(p)}
    elements: set[int] = set()
    for d in sorted(base)[:k]:
        elements.update((x - d) % q for x in base)
    out = IntSet.of(elements, q)
    if len(out) != k * p + 1:
        raise AssertionError("lines of a pencil must meet only at the base point")
    return _report("singer", {"p": p, "k": k}, out, 2 * k * k, q)


def compose_mod(s: IntSet, g: int, m: IntSet, h: int) -> ConstructionReport:
    """M + yS mod xy for S mod x, M mod y with gcd(x, y) = 1: B*[gh] mod xy."""
    if s.modulus is None or m.modulus is None:
        raise ValueError("both sets must carry a modulus")
    x, y = s.modulus, m.modulus
    if math.gcd(x, y) != 1:
        raise ValueError(f"moduli {x} and {y} share a factor")
    combined = IntSet.of(
        ((mm + y * ss) % (x * y) for ss in s.elements for mm in m.elements), x * y
    )
    if len(combined) != len(s) * len(m):
        raise AssertionError("cosets collided despite coprime moduli")
    return _report(
        "compose_mod",
        {"x": x, "y": y, "g": g, "h": h},
        combined, g * h, x * y,
    )


def _rotate_to_minimal_span(m: IntSet) -> tuple[int, ...]:
    """Cyclic shift of a mod-y set into [1, y+1-G], G the largest cyclic gap."""
    y = m.modulus
    els = list(m.elements)
    gaps = [(els[(i + 1) % len(els)] - els[i]) % y or y for i in range(len(els))]
    i = max(range(len(gaps)), key=gaps.__getitem__)
    start = els[(i + 1) % len(els)]  # element right after the widest gap
    return tuple(sorted((e - start) % y + 1 for e in els))


def half_modular(s: IntSet, g: int, m: IntSet, h: int) -> ConstructionReport:
    """Integer B*[gh] set M' + yS from an integer B*[g] set and mod-y B*[h] set.

    S is translated to start at 0 and M is cyclically shifted to minimize
    its largest element, so the result fits in [1, ys + 1 - ceil(y/|M|)]
    where s = max(S) + 1 after translation.
    """
    if s.modulus is not None:
        raise ValueError("first argument must be an integer (non-modular) set")
    if m.modulus is None:
        raise ValueError("second argument must carry a modulus")
    if not s.elements or not m.elements:
        raise ValueError("empty sets cannot be combined")
    y = m.modulus
    shifted = [e - s.elements[0] for e in s.elements]
    span = shifted[-1] + 1
    m_small = _rotate_to_minimal_span(m)
    combined = IntSet.of(mm + y * ss for ss in shifted for mm in m_small)
    limit = y * span + 1 - math.ceil(y / len(m))
    if len(combined) != len(s) * len(m) or combined.max_element > limit:
        raise AssertionError("combined set violates its promised span")
    return _report(
        "half_modular",
        {"g": g, "h": h, "y": y, "span": span},
        combined, g * h, limit,
    )


def small_gn_witness(g: int) -> ConstructionReport:
    """Four-block B*[g] witness of size g + 2*floor(g/3) + floor(g/6).

    Blocks: [0, g3), the even offsets g - g3 + 2*[0, g6), [g, g + g3),
    and (2g - g3, 3g - g3], writing g3 = floor(g/3), g6 = floor(g/6).
    Its density ratio against sqrt(2 g n), n = 3g - g3 + 1, approaches
    11/(8*sqrt(3)) > 0.7938.
    """
    if g < 1:
        raise ValueError("g must be a positive integer")
    g3, g6 = g // 3, g // 6
    elements = set(range(g3))
    elements.update(g - g3 + 2 * j for j in range(g6))
    elements.update(range(g, g + g3))
    elements.update(range(2 * g - g3 + 1, 3 * g - g3 + 1))
    s = IntSet.of(elements)
    if len(s) != g + 2 * g3 + g6 or s.max_element != 3 * g - g3:
        raise AssertionError("witness blocks overlapped")
    return _report("small_gn", {"g": g}, s, g, 3 * g - g3 + 1)


def random_circle_set(n: int, epsilon: float, seed: int = 0) -> ProbConstructReport:
    """Keep each residue of Z_n independently with probability epsilon.

    Size concentrates at epsilon*n (within sqrt(epsilon*n*log4) with
    probability > 1/2) and every modular sum value has on the order of
    epsilon^2*n representations.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be a positive odd integer")
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    keep = rng.random(n) < epsilon
    # residue (i + 1) % n is kept when keep[i]: keep rolled by one lists
    # them in increasing order, the wrapped n -> 0 first
    s = IntSet(tuple(np.flatnonzero(np.roll(keep, 1)).tolist()), n)
    return ProbConstructReport(
        name="random_circle",
        set=s,
        gamma=epsilon,
        achieved_g=max_rep(s),
        expected_size=epsilon * n,
        a0=math.sqrt(epsilon * n * math.log(4)),
        rule="uniform-epsilon",
        seed=seed,
    )


def integer_inclusion_probabilities(n: int, gamma: float) -> np.ndarray:
    """p_k = 1 for k < gamma/pi, sqrt(gamma/(pi k)) for gamma/pi <= k <= n."""
    return _inclusion_probabilities(np.arange(1, n + 1, dtype=float), gamma)


def _inclusion_probabilities(k: np.ndarray, gamma: float) -> np.ndarray:
    """p_k of integer_inclusion_probabilities at the positions k (floats)."""
    return np.where(k < gamma / math.pi, 1.0, np.sqrt(gamma / (math.pi * k)))


def expected_integer_size(n: int, gamma: float) -> float:
    """Leading terms of the expected size: 2*sqrt(gamma*n/pi) - gamma/pi."""
    return 2.0 * math.sqrt(gamma * n / math.pi) - gamma / math.pi


def random_integer_set(n: int, gamma: float, seed: int = 0) -> ProbConstructReport:
    """Random subset of {1..n} with inverse-square-root inclusion weights.

    The resulting set is B*[g] with g concentrated near gamma while the
    size concentrates near 2*sqrt(gamma*n/pi) - gamma/pi.
    """
    if not gamma >= math.pi:
        raise ValueError("gamma must be at least pi")
    if n < gamma:
        raise ValueError("need n >= gamma")
    rng = np.random.default_rng(seed)
    # rng.random(n) < integer_inclusion_probabilities(n, gamma), drawn in
    # chunks of 2^16 positions: the same draws, without n-long arrays
    chunk = 1 << 16
    kept = []
    for lo in range(0, n, chunk):
        k = np.arange(lo + 1, min(lo + chunk, n) + 1, dtype=float)
        keep = rng.random(len(k)) < _inclusion_probabilities(k, gamma)
        kept.append(np.flatnonzero(keep) + lo + 1)
    s = IntSet(tuple(np.concatenate(kept).tolist()))
    e0 = expected_integer_size(n, gamma)
    return ProbConstructReport(
        name="random_integer",
        set=s,
        gamma=gamma,
        achieved_g=max_rep(s),
        expected_size=e0,
        a0=math.sqrt(2.0 * e0 * math.log(3)),
        rule="inverse-sqrt",
        seed=seed,
    )
