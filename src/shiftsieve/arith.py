"""Elementary multiplicative-function utilities and z-smooth parts.

A single cached Eratosthenes table backs every prime lookup; all outputs
here are exact integers except the floating fields of SievingParameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb, gcd, isqrt
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "prime_table",
    "factorize",
    "tau",
    "tau_m",
    "divisors",
    "gcd",
    "smooth_part_table",
    "multiplicative_table",
    "SievingParameters",
    "make_params",
    "PRIME_TABLE_MAX",
]

PRIME_TABLE_MAX = 200_000_000

_primes: np.ndarray = np.array([], dtype=np.int64)
_primes_limit = 0


def prime_table(limit: int) -> np.ndarray:
    """Sorted primes <= limit (int64).  Built once and grown on demand."""
    global _primes, _primes_limit
    limit = int(limit)
    if limit > PRIME_TABLE_MAX:
        raise ValueError(f"prime table limit {limit} exceeds capacity {PRIME_TABLE_MAX}")
    if limit <= _primes_limit:
        return _primes[: np.searchsorted(_primes, limit, side="right")]
    _primes = _sieve(limit)
    _primes_limit = limit
    return _primes


def _sieve(hi: int) -> np.ndarray:
    """Primes <= hi (int64) by the sieve of Eratosthenes."""
    mask = np.ones(hi + 1, dtype=bool)
    mask[:2] = False
    base = _sieve(isqrt(hi)).tolist() if hi >= 4 else []
    for p in base:
        mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] by trial division."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out = []
    rem = n
    for p in prime_table(isqrt(n)):
        p = int(p)
        if p * p > rem:
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            out.append((p, e))
    if rem > 1:
        out.append((rem, 1))
    return out


def tau_m(n: int, m: int = 2) -> int:
    """Number of ordered m-tuples with product n: tau_m(p^a) = C(a+m-1, m-1)."""
    if n < 1 or m < 1:
        raise ValueError("tau_m requires n >= 1 and m >= 1")
    value = 1
    for _, e in factorize(n):
        value *= comb(e + m - 1, m - 1)
    return value


def tau(n: int) -> int:
    return tau_m(n, 2)


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**j for d in ds for j in range(e + 1)]
    return sorted(ds)


def multiplicative_table(limit: int, value: Callable, dtype) -> np.ndarray:
    """f(0..limit) (entry 0 set to 1) for the multiplicative f with
    f(p^e) = value(p, e), as a numpy array of the given dtype.  value is
    called at e >= 1 only.

    For every prime p <= sqrt(limit), value(p, v_p(n)) is laid out over the
    multiples n of p (value(p, 1) everywhere, then value(p, e) assigned over
    the multiples of p^e for e = 2, 3, ...) and multiplied in once, so the
    walk never divides.  The product of those primes' powers in n is built
    alongside; what is left of n, one floor division at the end, is 1 or a
    single prime q > sqrt(limit), and value(q, 1) is applied to all of them
    in one call with an array of q of the table's dtype.
    """
    out = np.ones(limit + 1, dtype=dtype)
    part = np.ones(limit + 1, dtype=np.int64)
    for p in prime_table(isqrt(limit)).tolist():
        local = np.full(limit // p, value(p, 1), dtype=dtype)
        part[p::p] *= p
        power, e = p * p, 2
        while power <= limit:
            local[power // p - 1 :: power // p] = value(p, e)
            part[power::power] *= p
            power, e = power * p, e + 1
        out[p::p] *= local
    n = np.arange(limit + 1, dtype=np.int64)
    big = n > part
    out[big] *= value((n[big] // part[big]).astype(dtype), 1)
    return out


def smooth_part_table(limit: int, z: float) -> np.ndarray:
    """Vector of z-smooth parts for 0..limit (entry 0 unused, set to 1).

    p is multiplied into the multiples of each p^e <= limit for the primes
    p <= min(z, sqrt(limit)).  When z > sqrt(limit), what is left of n after
    those primes is 1 or one prime q > sqrt(limit), and n is its own smooth
    part when q = n / s <= z: the cofactor is compared with z, never n
    with z * s, so no rounding moves a z just above a prime.  The smooth
    parts never exceed limit, so int64 is exact, and so is q as a float.
    """
    if z >= limit:
        return np.maximum(np.arange(limit + 1, dtype=np.int64), 1)
    root = isqrt(limit)
    out = np.ones(limit + 1, dtype=np.int64)
    for p in prime_table(min(z, root)).tolist():
        power = p
        while power <= limit:
            out[power::power] *= p
            power *= p
    if z > root:
        n = np.arange(limit + 1, dtype=np.int64)
        # s divides n, so the float quotient is the exact cofactor
        out = np.where(n / out <= z, n, out)
        out[0] = 1
    return out


@dataclass(frozen=True)
class SievingParameters:
    """The tuple (x, epsilon, s, z, y, Q) governing the sieve computations.

    z = x**(1/s) with s = epsilon * loglog x, y = x**epsilon, Q = x**(1/4).
    The regime constraint 2 <= z <= y <= x only kicks in above a
    triple-exponential threshold in x; below it (every desk-scale run)
    below_paper_threshold is set instead of rejecting, and z may exceed y
    and even x.
    """

    x: float
    epsilon: float
    s: float
    z: float
    y: float
    Q: float
    below_paper_threshold: bool

    def __post_init__(self) -> None:
        if not self.below_paper_threshold and not (2 <= self.z <= self.y <= self.x):
            raise ValueError("variable ordering 2 <= z <= y <= x violated above threshold")


def make_params(x: float, epsilon: float, m: int = 2) -> SievingParameters:
    """Derive (s, z, y, Q) from (x, epsilon); m enters only the regime flag."""
    if not math.isfinite(x) or x < 16:
        raise ValueError(f"x must be finite and >= 16, got {x}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    log_x = math.log(x)
    s = epsilon * math.log(log_x)
    if s <= 0:
        raise ValueError("epsilon * loglog x must be positive")
    quot = log_x / s
    z = math.inf if quot > 700 else math.exp(quot)
    y = x**epsilon
    q = x**0.25
    # threshold x >= exp(exp(exp((4 + m^4) / (2 epsilon)))), checked in log^3
    below = math.log(math.log(log_x)) < (4 + m**4) / (2 * epsilon) if log_x > 1 else True
    return SievingParameters(float(x), epsilon, s, z, y, q, below)


def smooth_numbers_upto(limit: float, z: float) -> Iterator[int]:
    """All z-smooth integers <= limit in increasing order."""
    n = np.arange(max(int(limit), 0) + 1)
    return iter(np.flatnonzero(smooth_part_table(n.size - 1, z) == n).tolist())
