"""Elementary multiplicative-function utilities and smooth/rough factorization.

A single cached Eratosthenes table backs every prime lookup; all outputs
here are exact integers except the floating fields of SievingParameters.
"""

from __future__ import annotations

import contextlib
import math
import os
import stat
from dataclasses import dataclass
from math import comb, gcd, isqrt
from typing import IO, Callable, Iterator

import numpy as np

__all__ = [
    "prime_table",
    "factorize",
    "euler_phi",
    "tau",
    "tau_m",
    "divisors",
    "gcd",
    "smooth_rough",
    "SmoothRoughFactorization",
    "smooth_part_table",
    "multiplicative_table",
    "SievingParameters",
    "make_params",
    "PRIME_TABLE_MAX",
]

PRIME_TABLE_MAX = 200_000_000
_CACHE_ENV = "SHIFTSIEVE_PRIME_CACHE"

_primes: np.ndarray = np.array([], dtype=np.int64)
_primes_limit = 0


def prime_table(limit: int) -> np.ndarray:
    """Sorted primes <= limit (int64).  Built once and grown on demand.

    If the SHIFTSIEVE_PRIME_CACHE environment variable names a directory,
    sieved tables are persisted there as .npy files and reloaded.  A cached
    file is used only if it passes `_valid_table`; otherwise the table is
    sieved again and the file replaced.  Files are written through
    `atomic_open`, so a concurrent reader never sees a partial table.
    """
    global _primes, _primes_limit
    limit = int(limit)
    if limit > PRIME_TABLE_MAX:
        raise ValueError(f"prime table limit {limit} exceeds capacity {PRIME_TABLE_MAX}")
    if limit <= _primes_limit:
        return _primes[: np.searchsorted(_primes, limit, side="right")]

    cache_dir = os.environ.get(_CACHE_ENV)
    path = os.path.join(cache_dir, f"primes_{limit}.npy") if cache_dir else None
    table = _load_table(path, limit) if path else None
    if table is None:
        table = _sieve(0, limit)
        if path:
            os.makedirs(cache_dir, exist_ok=True)
            with atomic_open(path) as fh:
                np.save(fh, table)
    _primes = table
    _primes_limit = limit
    return _primes


def _sieve(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi] (int64) by the sieve of Eratosthenes on that range."""
    mask = np.ones(hi - lo + 1, dtype=bool)
    mask[: max(0, 2 - lo)] = False
    base = _sieve(0, isqrt(hi)).tolist() if hi >= 4 else []
    for p in base:
        # from the first multiple of p in [lo, hi] that is not p itself
        mask[max(p * p, -(-lo // p) * p) - lo :: p] = False
    return np.nonzero(mask)[0].astype(np.int64) + lo


_SPOT_WIDTH = 2048  # width of each window on which a cached table is re-sieved


def _valid_table(table: np.ndarray, limit: int) -> bool:
    """Whether an array loaded from the cache is the table of primes <= limit:
    1-D int64, strictly increasing, last entry <= limit, and equal to a
    direct sieve on three windows (the start, the middle and the top of
    [0, limit]; the top one catches a table that stops short)."""
    if table.ndim != 1 or table.dtype != np.int64:
        return False
    if table.size and (np.any(np.diff(table) <= 0) or table[-1] > limit):
        return False
    for lo in (0, limit // 2, max(0, limit - _SPOT_WIDTH + 1)):
        hi = min(limit, lo + _SPOT_WIDTH - 1)
        seen = table[np.searchsorted(table, lo) : np.searchsorted(table, hi, side="right")]
        if not np.array_equal(seen, _sieve(lo, hi)):
            return False
    return True


def _load_table(path: str, limit: int) -> np.ndarray | None:
    """The cached table at path if it exists, loads and is valid, else None."""
    try:
        table = np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    if isinstance(table, np.ndarray) and _valid_table(table, limit):
        return table
    return None


@contextlib.contextmanager
def atomic_open(path: str) -> Iterator[IO[bytes]]:
    """Open path for binary writing, as open(path, "wb") would.

    A new file, or a regular file with one link in a directory that takes new
    files, is written to a temporary file next to it and renamed over it once
    the block ends, so path holds either its old bytes or all the new ones; on
    an exception the temporary file is removed.  Anything else (a device, a
    FIFO, /dev/stdout, a hard-linked or read-only file) is written in place.
    A symlink at path is written through, and the file ends up with the
    permissions open would give it.
    """
    target = os.path.realpath(path) if os.path.islink(path) else path
    directory = os.path.dirname(target) or "."
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not (
        stat.S_ISREG(st.st_mode)
        and st.st_nlink == 1
        and os.access(target, os.W_OK)
        and os.access(directory, os.W_OK)
    ):
        with open(path, "wb") as fh:
            yield fh
        return
    tmp = os.path.join(directory, f".{os.path.basename(target)}.{os.urandom(8).hex()}")
    try:  # the kernel applies the umask to 0o666, as open does
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the path asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            if st is not None:
                os.fchmod(fd, stat.S_IMODE(st.st_mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


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


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


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


@dataclass(frozen=True)
class SmoothRoughFactorization:
    """The unique split n = smooth * rough at threshold z."""

    n: int
    z: float
    smooth: int
    rough: int


def smooth_rough(n: int, z: float) -> SmoothRoughFactorization:
    """Split n into its z-smooth part and z-rough part by trial division."""
    if n < 1:
        raise ValueError("smooth_rough requires n >= 1")
    if z < 2 or n <= z:
        # below 2 nothing is smooth; at z >= n everything is
        if z < 2:
            return SmoothRoughFactorization(n, z, 1, n)
        return SmoothRoughFactorization(n, z, n, 1)
    smooth = 1
    rem = n
    bound = min(int(z), isqrt(n))
    for p in prime_table(bound):
        p = int(p)
        if p * p > rem:
            break
        while rem % p == 0:
            smooth *= p
            rem //= p
    if rem > 1 and rem <= z:
        smooth *= rem
        rem = 1
    return SmoothRoughFactorization(n, z, smooth, rem)


def multiplicative_table(limit: int, value: Callable, dtype) -> np.ndarray:
    """f(0..limit) (entry 0 set to 1) for the multiplicative f with
    f(p^e) = value(p, e), as a numpy array of the given dtype.  value must
    give 1 at e = 0 and never 0, since the walk divides by it.

    Every prime p <= sqrt(limit) is walked over its powers: the multiples of
    p^e trade the factor value(p, e - 1) for value(p, e), which is exact in
    int64 and object dtype.  What is left of n after those primes is 1 or a
    single prime q > sqrt(limit); value(q, 1) is applied to all of them in
    one call with an array of q of the table's dtype.
    """
    out = np.ones(limit + 1, dtype=dtype)
    rest = np.arange(limit + 1, dtype=np.int64)
    for p in prime_table(isqrt(limit)).tolist():
        power, e = p, 1
        while power <= limit:
            out[power::power] //= value(p, e - 1)
            out[power::power] *= value(p, e)
            rest[power::power] //= p
            power, e = power * p, e + 1
    big = rest > 1
    out[big] *= value(rest[big].astype(dtype), 1)
    return out


def smooth_part_table(limit: int, z: float) -> np.ndarray:
    """Vector of z-smooth parts for 0..limit (entry 0 unused, set to 1).

    The smooth parts never exceed limit, so int64 is exact.
    """
    if z >= limit:
        return np.maximum(np.arange(limit + 1, dtype=np.int64), 1)
    return multiplicative_table(limit, lambda p, e: np.where(p <= z, p**e, 1), np.int64)


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
