"""Residue-class sieve systems and the large-sieve bound (N + Q^2)/H.

A system records, for each odd prime p up to the smoothness threshold, the
residue classes struck out of an arithmetic progression; H is accumulated
in exact rational arithmetic so the inequality checks carry no rounding.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .arith import euler_phi, factorize, prime_table

__all__ = [
    "OmegaSystem",
    "SieveConstructionError",
    "crt_residue",
    "build_omega",
    "big_h",
    "ls_bound",
    "h_divisor_subsum",
    "h_lower_bound_ratio",
    "sift_bruteforce",
    "random_admissible_system",
    "BRUTE_FORCE_MAX",
]

BRUTE_FORCE_MAX = 10_000_000


class SieveConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class OmegaSystem:
    """Sieve problem: strike omega(p) classes mod each odd prime p <= z.

    m runs over the window m_start..m_start+n_range-1 (default 1..N with
    N = floor(x / (v*a*a_ell))); n_v = a*a_ell*m + r is the progression
    member the classes model.
    """

    n_range: int
    primes: tuple[int, ...]
    omega: dict[int, tuple[int, ...]]
    a: int
    a_ell: int
    w: int
    v: int
    r: int
    x: float
    z: float
    m_start: int = 1


def crt_residue(a: int, a_ell: int, w: int) -> int:
    """Unique 0 <= r < a*a_ell with r = 0 (mod a) and r = -w (mod a_ell)."""
    if a < 1 or a_ell < 1:
        raise SieveConstructionError("moduli must be positive")
    if gcd(a, a_ell) != 1:
        raise SieveConstructionError(f"moduli {a}, {a_ell} are not coprime")
    t = (-w * pow(a, -1, a_ell)) % a_ell
    return a * t


def build_omega(
    a: int,
    a_ell: int,
    w: int,
    z: float,
    x: float,
    v: int = 1,
    p_limit: float | None = None,
    m_start: int = 1,
    n_range: int | None = None,
) -> OmegaSystem:
    """Construct the struck residue classes for the progression a*a_ell*m + r.

    For p | a only the class killing b = n_v/a is struck; for p | a_ell only
    the class killing b_ell = (n_v+w)/a_ell; otherwise both, collapsed to one
    when they coincide.  p_limit restricts the materialized primes (classes
    mod p > Q never enter H, so bound-only callers pass p_limit = Q).
    """
    if w == 0:
        raise SieveConstructionError("shift part w must be nonzero")
    if gcd(a, a_ell) != 1:
        raise SieveConstructionError("a and a_ell must be coprime")
    if gcd(a * a_ell, abs(w)) != 1:
        raise SieveConstructionError("a*a_ell and w must be coprime")
    if v < 1 or v * a * a_ell > x:
        raise SieveConstructionError("need 1 <= v and v*a*a_ell <= x")
    for p, _ in factorize(a * a_ell):
        if p > z:
            raise SieveConstructionError(f"prime {p} of a*a_ell exceeds z = {z}")

    r = crt_residue(a, a_ell, w)
    if n_range is None:
        n_range = int(x // (v * a * a_ell))
    limit = z if p_limit is None else min(z, p_limit)
    if limit == float("inf"):
        raise SieveConstructionError("prime set unbounded: pass p_limit when z is astronomical")
    ps = [int(p) for p in prime_table(int(limit))] if limit >= 3 else []
    omega: dict[int, tuple[int, ...]] = {}
    kept = []
    for p in ps:
        if p == 2:
            continue
        kept.append(p)
        if a % p == 0:
            r1 = (-(r // a) * pow(a_ell, -1, p)) % p
            omega[p] = (r1,)
        elif a_ell % p == 0:
            r2 = (-((r + w) // a_ell) * pow(a, -1, p)) % p
            omega[p] = (r2,)
        else:
            r1 = (-(r // a) * pow(a_ell, -1, p)) % p
            r2 = (-((r + w) // a_ell) * pow(a, -1, p)) % p
            omega[p] = (r1,) if r1 == r2 else (r1, r2)
    return OmegaSystem(
        n_range=n_range,
        primes=tuple(kept),
        omega=omega,
        a=a,
        a_ell=a_ell,
        w=w,
        v=v,
        r=r,
        x=float(x),
        z=float(z),
        m_start=m_start,
    )


def _squarefree_h_sum(Q: float, sys: OmegaSystem, primes: list[int]) -> Fraction:
    """Sum of h(q) over square-free q <= Q built from the ascending `primes`,
    exact.  Depth-first enumeration, pruned as soon as the partial product
    exceeds Q."""
    if not Q >= 1:  # NaN included: no q <= Q, but q = 1 would be counted
        raise ValueError(f"Q must be >= 1, got {Q}")
    primes = [p for p in primes if p <= Q]
    hp = [Fraction(len(sys.omega[p]), p - len(sys.omega[p])) for p in primes]
    total = Fraction(0)

    def descend(idx: int, q: int, value: Fraction) -> None:
        nonlocal total
        total += value
        for i in range(idx, len(primes)):
            if q * primes[i] > Q:
                break
            descend(i + 1, q * primes[i], value * hp[i])

    descend(0, 1, Fraction(1))
    return total


def big_h(Q: float, sys: OmegaSystem) -> Fraction:
    """H = sum of h(q) over square-free q <= Q with primes in P, exact."""
    return _squarefree_h_sum(Q, sys, sys.primes)


def ls_bound(sys: OmegaSystem, Q: float) -> float:
    """(N + Q^2)/H, the large-sieve bound on the sifted count."""
    h = big_h(Q, sys)
    return float((sys.n_range + Q * Q) / float(h))


def h_divisor_subsum(Q: float, sys: OmegaSystem) -> Fraction:
    """Sum of h(q) restricted to square-free q <= Q dividing a*a_ell.

    Term-by-term positivity makes this a lower bound for H; the quotient
    against H is what the classical lower-bound argument wedges open.
    """
    return _squarefree_h_sum(Q, sys, [p for p in sys.primes if (sys.a * sys.a_ell) % p == 0])


def h_lower_bound_ratio(Q: float, sys: OmegaSystem) -> float:
    """Empirical H / [(phi(a a_ell)/(a a_ell)) (log z)^2].

    The classical estimate hides an absolute constant, so this quotient is
    reported for inspection, never asserted against a constant.
    """
    aa = sys.a * sys.a_ell
    density = euler_phi(aa) / aa
    log_z = max(math.log(sys.z), 1e-9)
    return float(big_h(Q, sys)) / (density * log_z * log_z)


def sift_bruteforce(sys: OmegaSystem) -> int:
    """Exact count of m in the window avoiding every struck class."""
    n = sys.n_range
    if n > BRUTE_FORCE_MAX:
        raise ValueError(f"window {n} exceeds brute-force oracle scale {BRUTE_FORCE_MAX}")
    if n <= 0:
        return 0
    alive = np.ones(n, dtype=bool)  # index i is m = m_start + i
    for p in sys.primes:
        for res in sys.omega[p]:
            start = (res - sys.m_start) % p
            alive[start::p] = False
    return int(np.count_nonzero(alive))


def random_admissible_system(
    rng: random.Random,
    n_max: int = 100_000,
    z_max: int = 50,
) -> tuple[OmegaSystem, float]:
    """Seeded random admissible instance plus its Q, for inequality sweeps."""
    while True:
        z = rng.randint(5, z_max)
        small = [int(p) for p in prime_table(z)]
        a = 1
        for p in rng.sample(small, k=min(len(small), rng.randint(0, 2))):
            a *= p
        rest = [p for p in small if a % p]
        a_ell = 1
        for p in rng.sample(rest, k=min(len(rest), rng.randint(0, 2))):
            a_ell *= p
        w = rng.choice([-1, 1]) * rng.randint(1, 30)
        if gcd(a * a_ell, abs(w)) != 1:
            continue
        v = rng.randint(1, 4)
        n_target = rng.randint(100, n_max)
        x = v * a * a_ell * n_target
        q = float(n_target) ** rng.choice([0.25, 0.5])
        return build_omega(a, a_ell, w, z, x, v), max(1.0, q)
