"""Independent oracles used to derive and re-derive expected test values.

Everything here deliberately avoids the package's own evaluation paths:
high-precision decimal series for K0, the half-plane lattice unfolding for
the Eisenstein coefficients, plain trial division for smooth parts,
brute-force tuple enumeration for tau_m, the schoolbook convolution for
exact series products, and a walk over the progression itself for the
sifted count of a residue-class system.  The scalar K-Bessel and zeta loops,
the per-call Eisenstein coefficient loop, the four multiplicative-table
builders, the five-fsum partition sums, the Fraction-valued square-free H
enumeration and the cell-by-cell sieve-side bound (which shares the
package's sieve systems and H) are the slow references for the library
paths that replaced them.  Six functions (complex Gamma, K_it
over an array of orders, the Mellin decay calibration, the contour form of
the spectral weight, the brute-force S_ell(x) and the single large-sieve
term h(q)) have no caller outside the tests.
"""

from __future__ import annotations

import cmath
import math
from decimal import Decimal, getcontext
from fractions import Fraction
from math import gcd

import numpy as np

from shiftsieve import arith
from shiftsieve.largesieve import big_h, build_omega, crt_residue
from shiftsieve.shifted import PartitionSums
from shiftsieve.specfun import (
    ToleranceError,
    _AELL_BLOCKS,
    _AELL_T_CAP,
    _aell_block,
    _bessel_panels,
    _eisenstein_kernel,
    bessel_k_scaled_grid,
    clgamma,
    support_prefactor,
)

GLN32, GLW32 = np.polynomial.legendre.leggauss(32)
GLN8, GLW8 = np.polynomial.legendre.leggauss(8)

EULER_GAMMA_50 = Decimal("0.57721566490153286060651209008240243104215933593992")


def k0_decimal(w: float, digits: int = 40) -> float:
    """K0(w) from the classical power-log series, evaluated in Decimal so
    the cancellation at large w costs nothing.

    K0(w) = -(ln(w/2) + gamma) I0(w) + sum_{m>=1} H_m (w^2/4)^m / (m!)^2.
    """
    getcontext().prec = digits + 15
    wd = Decimal(repr(w))
    q = wd * wd / 4
    i0 = Decimal(1)
    term = Decimal(1)
    ksum = Decimal(0)
    harmonic = Decimal(0)
    m = 0
    while True:
        m += 1
        term = term * q / (m * m)
        harmonic += Decimal(1) / m
        i0 += term
        ksum += term * harmonic
        if term < Decimal(10) ** (-(digits + 10)) * max(i0, Decimal(1)):
            break
    value = -(wd / 2).ln() * i0 - EULER_GAMMA_50 * i0 + ksum
    return float(value)


def bessel_modulus_oscillatory(t: float, w: float) -> float:
    """|K_it(w)| via the cosine-transform representation

        K_it(w) = pi^{-1/2} Gamma(1/2+it) (w/2)^{-it}
                  * integral_0^inf (v^2+1)^{-it-1/2} cos(v w) dv,

    using only |Gamma(1/2+it)| = sqrt(pi/cosh(pi t)), so that
    |K| = |integral| / sqrt(cosh(pi t)).  Reliable for small t (the phase
    v w - t log(1+v^2) is tame there).
    """
    t = abs(float(t))
    v0 = max(2.0, 8.0 * max(t, 0.5) / w)
    # head [0, v_start] with v_start the first cosine zero at or past v0,
    # so the zero-aligned tail chunks start exactly where the head stops
    k0 = math.ceil((v0 * w / math.pi) - 0.5)
    v_start = (k0 + 0.5) * math.pi / w
    var = w * v_start + t * math.log(1.0 + v_start * v_start)
    n_pan = max(8, int(var / 2.0) + 1)
    edges = np.linspace(0.0, v_start, n_pan + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    vs = (mid[:, None] + half[:, None] * GLN32[None, :]).ravel()
    wt = (half[:, None] * GLW32[None, :]).ravel()
    amp = np.exp((-1j * t - 0.5) * np.log1p(vs * vs))
    head = np.dot(wt, amp * np.cos(vs * w))
    # tail: chunks between consecutive zeros of cos(v w), Euler-averaged
    edges = [(k0 + k + 0.5) * math.pi / w for k in range(81)]
    chunks = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        vs = mid + half * GLN8
        amp = np.exp((-1j * t - 0.5) * np.log1p(vs * vs))
        chunks.append(half * np.dot(GLW8, amp * np.cos(vs * w)))
    partial = np.cumsum(chunks)
    while partial.size > 1:
        partial = 0.5 * (partial[:-1] + partial[1:])
    integral = head + partial[0]
    return abs(integral) / math.sqrt(math.cosh(math.pi * t))


def tau_m_brute(n: int, m: int) -> int:
    """Ordered m-tuples of positive integers with product n."""
    if m == 1:
        return 1
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += tau_m_brute(n // d, m - 1)
    return total


def fz_split(n: int, z: float) -> tuple[int, int]:
    """Smooth/rough split by raw trial division over all integers."""
    smooth = rough = 1
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            if p <= z:
                smooth *= p
            else:
                rough *= p
            m //= p
        p += 1
    if m > 1:
        if m <= z:
            smooth *= m
        else:
            rough *= m
    return smooth, rough


def mobius(n: int) -> int:
    out = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def ramanujan_sum(ell: int, c: int) -> int:
    g = math.gcd(abs(ell), c)
    return sum(d * mobius(c // d) for d in range(1, g + 1) if g % d == 0)


def aell_unfold(ell: int, y: float, bump) -> float:
    """a_ell(y) by direct unfolding of the incomplete Eisenstein series:

    only the finitely many c with c^2 < 1/y reach the bump support, so
        a_ell(y) = sum_c S(ell; c) * 2 int g(y/(c^2(u^2+y^2))) cos(2 pi ell u) du
    with S the Ramanujan sum.  No zeta, Gamma, Mellin, or Bessel involved.
    """
    total = 0.0
    c = 1
    while c * c < 1.0 / y:
        hi2 = y / (c * c) - y * y
        lo2 = y / (2 * c * c) - y * y
        u_hi = math.sqrt(hi2)
        u_lo = math.sqrt(lo2) if lo2 > 0 else 0.0
        n_pan = max(8, int(4 * abs(ell) * (u_hi - u_lo)) + 1)
        edges = np.linspace(u_lo, u_hi, n_pan + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        us = (mid[:, None] + half[:, None] * GLN32[None, :]).ravel()
        wt = (half[:, None] * GLW32[None, :]).ravel()
        vals = np.array([bump(y / (c * c * (u * u + y * y))) for u in us])
        integral = 2.0 * float(np.dot(wt, vals * np.cos(2 * math.pi * ell * us)))
        total += ramanujan_sum(ell, c) * integral
        c += 1
    return total


def aell_unfold_doubled(ell: int, y: float, bump) -> float:
    """The unfolding sum of `aell_unfold` on twice the panels `specfun.a_ell_y`
    takes on each c-window, 2 max(24, ceil(4 |ell| du)) of 16 points, with
    the bump's values taken over arrays and no window skipped: the
    reference for points with too many nodes for the per-node loop."""
    x, wx = np.polynomial.legendre.leggauss(16)
    total = 0.0
    c = 1
    while c * c * bump.lo * y < 1.0:
        u_hi = math.sqrt(y / (bump.lo * c * c) - y * y)
        u_lo = math.sqrt(max(y / (bump.hi * c * c) - y * y, 0.0))
        n_pan = 2 * max(24, math.ceil(4 * abs(ell) * (u_hi - u_lo)))
        edges = np.linspace(u_lo, u_hi, n_pan + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        us = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * x
        vals = bump.values(y / (c * c * (us * us + y * y))) * np.cos(2 * math.pi * ell * us)
        total += ramanujan_sum(ell, c) * 2.0 * float(np.sum(half[:, None] * wx * vals))
        c += 1
    return total


def a_ell_y_per_call(mellin, ell: int, y: float, tol: float = 1e-7) -> complex:
    """`specfun.a_ell_y` with its t-profile rebuilt on every call: the
    uncached `_aell_block` and `_eisenstein_kernel` per block, the loop the
    process-wide profile cache replaced, with the same stop rule and the
    same order of floating-point operations: a block is quiet when it adds
    less than tol/8 to the value, 2 sqrt(y/pi) times the integral, and lies
    from block max(2, ceil(w/4) + 1) on, wholly past the turning point t =
    w; three quiet blocks in a row end the integral."""
    aell = abs(ell)
    w = 2.0 * math.pi * aell * y
    scale = 2.0 * math.sqrt(y / math.pi)
    log_ratios = np.array([math.log(a / (aell // a)) for a in arith.divisors(aell)])
    first = max(2, math.ceil(w / 4.0) + 1)
    total = 0.0 + 0.0j
    quiet = 0
    for k in range(_AELL_BLOCKS):
        ts, wt, psi, zeta_1_2it = _aell_block(mellin, k)
        kvals = bessel_k_scaled_grid(ts, w)
        kernel = _eisenstein_kernel(ts, zeta_1_2it)
        dsum = np.exp(1j * np.outer(ts, log_ratios)).sum(axis=1)
        contrib = complex(np.dot(wt, psi * kernel * dsum * kvals))
        total += contrib
        if k >= first and scale * abs(contrib) < tol / 8.0:
            quiet += 1
            if quiet == 3:
                break
        else:
            quiet = 0
    else:
        raise ToleranceError(f"tail tolerance {tol} unattainable below t = {_AELL_T_CAP}")
    return complex(math.sqrt(y / math.pi) * 2.0 * total.real, 0.0)


def direct_scan_count(sys) -> int:
    """Independent count over the progression itself.

    Walks n_v = a*a_ell*m + r for m in the window and keeps those whose
    cofactors b = n_v/a and b_ell = (n_v+w)/a_ell are divisible by no odd
    prime <= z.  The conditions are applied to the integers exactly as
    written (a nonpositive b_ell for negative w included, with p | 0 true),
    which is the congruence content of the residue-class model; the prime 2
    is ignored to match the sieve's prime set, and this scan never looks at
    the stored classes.
    """
    a, a_ell, w, r = sys.a, sys.a_ell, sys.w, sys.r
    odd_primes = list(sys.primes)
    count = 0
    for m in range(sys.m_start, sys.m_start + sys.n_range):
        n_v = a * a_ell * m + r
        b, rem_b = divmod(n_v, a)
        b_ell, rem_bl = divmod(n_v + w, a_ell)
        if rem_b or rem_bl:
            raise AssertionError("progression member not divisible as constructed")
        ok = True
        for p in odd_primes:
            if b % p == 0 or b_ell % p == 0:
                ok = False
                break
        if ok:
            count += 1
    return count


def mul_trunc_schoolbook(a: list[int], b: list[int], n: int) -> list[int]:
    """Direct O(len(a)*len(b)) convolution truncated to n coefficients: the
    reference for the packed product `intpoly.mul_trunc`."""
    out = [0] * n
    for i, ca in enumerate(a[:n]):
        if not ca:
            continue
        for j, cb in enumerate(b[: n - i]):
            if cb:
                out[i + j] += ca * cb
    return out


def divisor_count(n: int) -> int:
    c = 0
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            c += 1 if d * d == n else 2
    return c


GLN16, GLW16 = np.polynomial.legendre.leggauss(16)


def bessel_k_scaled_scalar(t: float, w: float) -> float:
    """exp(pi t / 2) K_{it}(w) one order at a time: the scalar quadrature
    that `specfun.bessel_k_scaled_grid` batches.  Same head panels, and the
    tail edges by a Python Newton loop per chunk."""
    t = abs(float(t))
    w = float(w)

    def phase(u: float) -> float:
        return t * u - w * math.sinh(u)

    slope = max(2.0 * t, 10.0)
    ratio = (t + slope) / w
    u_break = math.acosh(ratio) if ratio > 1.0 else 0.0
    head = 0.0
    if u_break > 0.0:
        if t > w:
            u_star = math.acosh(t / w)
            variation = abs(phase(u_star)) + abs(phase(u_break) - phase(u_star))
        else:
            variation = abs(phase(u_break))
        n_panels = max(8, int(variation / 4.0) + 1)
        edges = np.linspace(0.0, u_break, n_panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        us = (mid[:, None] + half[:, None] * GLN16[None, :]).ravel()
        wt = (half[:, None] * GLW16[None, :]).ravel()
        head = float(np.dot(wt, np.cos(t * us - w * np.sinh(us))))

    n_chunks = 40
    u = u_break
    p0 = phase(u_break)
    edges = [u_break]
    for k in range(1, n_chunks + 1):
        target = p0 - k * math.pi
        for _ in range(64):
            f = phase(u) - target
            u -= f / (t - w * math.cosh(u))
            if abs(f) < 1e-12 * max(1.0, abs(target)):
                break
        edges.append(u)
    earr = np.array(edges)
    mid = 0.5 * (earr[:-1] + earr[1:])
    half = 0.5 * (earr[1:] - earr[:-1])
    us = mid[:, None] + half[:, None] * GLN8[None, :]
    wts = half[:, None] * GLW8[None, :]
    chunks = (wts * np.cos(t * us - w * np.sinh(us))).sum(axis=1)
    partial = np.cumsum(chunks)
    while partial.size > 1:
        partial = 0.5 * (partial[:-1] + partial[1:])
    return head + float(partial[0])


_BERNOULLI = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
              Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
              Fraction(43867, 798), Fraction(-174611, 330))
_EM_COEFF = [(j, float(b / math.factorial(2 * j))) for j, b in enumerate(_BERNOULLI, start=1)]


def zeta_scalar(s: complex, terms: int | None = None) -> complex:
    """zeta(s) by Euler-Maclaurin, one point at a time: the scalar loop that
    the array `specfun.zeta` replaces, with the same term count."""
    s = complex(s)
    n = terms if terms is not None else max(30, int(0.8 * abs(s.imag)) + 20)
    acc = 0.0 + 0.0j
    for m in range(1, n):
        acc += m ** (-s)
    acc += n ** (1.0 - s) / (s - 1.0)
    acc += 0.5 * n ** (-s)
    rising = s
    npow = n ** (-s - 1)
    for j, coeff in _EM_COEFF:
        acc += coeff * rising * npow
        if j < 10:
            rising *= (s + 2 * j - 1) * (s + 2 * j)
            npow /= n * n
    return acc


def primes_upto(n: int) -> list[int]:
    """Primes <= n by trial division."""
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def tau_table_convolution(m: int, limit: int) -> np.ndarray:
    """tau_m(0..limit) as floats (entry 0 is zero) by m - 1 Dirichlet
    convolutions with the constant 1."""
    t = np.ones(limit + 1)
    t[0] = 0.0
    for _ in range(m - 1):
        out = np.zeros(limit + 1)
        for d in range(1, limit + 1):
            out[d::d] += t[1 : limit // d + 1]
        t = out
    return t


def divisor_power_sums(power: int, cutoff: int) -> list[int]:
    """sigma_power(n) for n in 1..cutoff by direct divisor accumulation."""
    sums = [0] * (cutoff + 1)
    for d in range(1, cutoff + 1):
        dp = d**power
        for m in range(d, cutoff + 1, d):
            sums[m] += dp
    return sums


def smooth_part_walk(limit: int, z: float) -> np.ndarray:
    """z-smooth parts of 0..limit (entry 0 is 1), one factor p per prime
    power p^e <= limit with p <= z."""
    out = np.ones(limit + 1, dtype=np.int64)
    if z < 2 or limit < 2:
        return out
    for p in primes_upto(int(min(z, limit))):
        power = p
        while power <= limit:
            out[power::power] *= p
            power *= p
    return out


def smooth_numbers_dfs(limit: float, z: float) -> list[int]:
    """All z-smooth integers <= limit in increasing order (DFS + sort)."""
    limit_int = int(limit)
    if limit_int < 1:
        return []
    primes = primes_upto(int(min(z, limit_int))) if z >= 2 else []
    found = []

    def extend(value: int, idx: int) -> None:
        found.append(value)
        for i in range(idx, len(primes)):
            nxt = value * primes[i]
            if nxt > limit_int:
                break
            extend(nxt, i)

    extend(1, 0)
    return sorted(found)


def cgamma(z: complex) -> complex:
    """Gamma(z) as exp of the library's principal log-gamma."""
    return cmath.exp(clgamma(z))


def bessel_k_it_grid(ts: np.ndarray, w: float) -> np.ndarray:
    """K_{it}(w) over an array of orders, batched the way `specfun.bessel_k_it`
    works one order at a time: orders |t| <= 8 share one set of
    cosh-representation nodes, larger ones go through
    `specfun.bessel_k_scaled_grid`."""
    ts = np.asarray(ts, dtype=float)
    t_abs = np.abs(ts)
    out = np.empty(ts.shape)
    large = t_abs > 8.0
    if large.any():
        out[large] = np.exp(-0.5 * np.pi * t_abs[large]) * bessel_k_scaled_grid(t_abs[large], w)
    small = ~large
    if small.any():
        nodes, weights = _bessel_panels(float(np.max(t_abs[small])), w)
        damp = weights * np.exp(-w * np.cosh(nodes))
        out[small] = np.cos(np.outer(ts[small], nodes)) @ damp
    return out


def mellin_decay_constant(mellin, a_exp: int, sigmas, ts) -> float:
    """max |G(sigma + it)| (1 + |t|)^A over the calibration grid."""
    worst = 0.0
    for sig in sigmas:
        for t in ts:
            worst = max(worst, abs(mellin(complex(sig, t))) * (1.0 + abs(t)) ** a_exp)
    return worst


def w_weight_contour(n: int, ell: int, big_y: float, k: int, mellin, sigma: float = 2.0,
                     t_max: float = 120.0, tol: float = 1e-12) -> float:
    """W(n, ell; Y) straight from the contour integral on Re s = sigma:

        W = prefactor / pi * Re integral_0^inf G(-s) X^s Gamma(s+k-1)/Gamma(k-1) dt,

    X = Y / (4 pi (n + ell/2)), in blocks of 24 Gauss-Legendre panels of
    width 1/6 until two consecutive blocks fall below tol.  Only stable
    for small weights; the reference for the Laplace form `specfun.w_weight`.
    """
    log_x = math.log(big_y / (4.0 * math.pi * (n + 0.5 * ell)))
    lg_den = math.lgamma(k - 1)
    total = 0.0
    quiet = 0
    block = 0
    while True:
        lo = 4.0 * block
        if lo > t_max:
            raise ArithmeticError("contour tail did not fall below tolerance")
        edges = np.linspace(lo, lo + 4.0, 25)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        ts = (mid[:, None] + half[:, None] * GLN16[None, :]).ravel()
        wt = (half[:, None] * GLW16[None, :]).ravel()
        acc = 0.0
        for t, wgt in zip(ts, wt):
            s = complex(sigma, t)
            acc += wgt * (mellin(-s) * cmath.exp(s * log_x + clgamma(s + k - 1) - lg_den)).real
        total += acc
        if abs(acc) < tol / 8.0:
            quiet += 1
            if quiet >= 2 and block >= 1:
                break
        else:
            quiet = 0
        block += 1
    return support_prefactor(n, ell, k) * total / math.pi


def s_ell_brute(h1, h2, x: float, ell: int) -> float:
    """S_ell(x) = sum over n <= x of |lambda_1(n) lambda_2(n+ell)|, straight
    from the definition; the reference for `shifted.partition_sums`' total.

    Terms with n + ell < 1 are skipped for negative shifts; accumulation is
    compensated (fsum).
    """
    if ell == 0 or abs(ell) > x:
        raise ValueError(f"shift must satisfy 0 < |ell| <= x, got ell={ell}, x={x}")
    lo, hi = max(1, 1 - ell), int(x)
    if hi < lo:
        return 0.0
    h1.require(hi)
    h2.require(hi + ell)
    return math.fsum(h1.values[lo : hi + 1] * h2.values[lo + ell : hi + ell + 1])


def partition_sums_fsum(h1, h2, params, ell: int) -> PartitionSums:
    """`shifted.partition_sums` by five math.fsum passes over boolean masks
    of the whole window, one Python float per term and pass; the reference
    for its one-pass exact class sums."""
    x, z, y = params.x, params.z, params.y
    if ell == 0 or abs(ell) > x:
        raise ValueError(f"shift must satisfy 0 < |ell| <= x, got ell={ell}")
    lo, hi = max(1, 1 - ell), int(x)
    h1.require(hi)
    h2.require(hi + ell)
    smooth = arith.smooth_part_table(hi + max(ell, 0), z)
    ns = np.arange(lo, hi + 1)
    prod = h1.values[lo : hi + 1] * h2.values[lo + ell : hi + ell + 1]
    big1 = smooth[ns] > y
    big2 = smooth[ns + ell] > y
    return PartitionSums(
        s_total=math.fsum(prod),
        s_big=math.fsum(prod[big1]) + math.fsum(prod[big2]),
        s_small=math.fsum(prod[~big1 & ~big2]),
        overlap=math.fsum(prod[big1 & big2]),
    )


def squarefree_h_sum_fractions(Q: float, sys, primes: list[int]) -> Fraction:
    """Sum of h(q) over square-free q <= Q built from the ascending `primes`
    by a depth-first walk that multiplies and adds a normalised Fraction at
    every node; the reference for `largesieve.big_h`."""
    if not Q >= 1:
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


def h_value(q: int, sys) -> Fraction:
    """h(q) = prod over p | q of omega(p)/(p - omega(p)), exact, by trial
    division over the sieve primes; summed over square-free q <= Q it is
    the reference for `largesieve.big_h`."""
    if q < 1:
        raise ValueError("q must be positive")
    value = Fraction(1)
    for p in sys.primes:
        if q % p == 0:
            q //= p
            if q % p == 0:
                raise ValueError(f"q is not square-free at {p}")
            w = len(sys.omega[p])
            value *= Fraction(w, p - w)
    if q != 1:
        raise ValueError(f"q has a prime factor outside the sieve prime set: {q}")
    return value


def sieve_side_bound_cells(h1, h2, params, ell: int) -> tuple[float, int, int, int]:
    """(value, vw_pairs, cells, contributing_cells) of the sieve-side bound,
    cell by cell: a double loop over every coprime pair (a, a_ell) of
    z-smooth numbers <= y/v, which walks each cell's progression, keeps
    the members whose cofactors are z-rough and builds a fresh sieve system
    for every contributing cell.  The reference for
    `shifted.sieve_side_bound`."""
    x, z, y, q_par = params.x, params.z, params.y, params.Q
    if ell == 0 or abs(ell) > x:
        raise ValueError(f"shift must satisfy 0 < |ell| <= x, got ell={ell}")
    limit = int(x) + abs(ell)
    h1.require(limit)
    h2.require(limit)
    smooth = arith.smooth_part_table(limit, z)
    q2 = q_par * q_par

    terms: list[float] = []
    vw_pairs = 0
    cells = 0
    contributing = 0
    for v in arith.divisors(abs(ell)):
        w = ell // v
        vw_pairs += 1
        y_v = y / v
        if y_v < 1 or v > x:
            continue
        smooth_as = list(arith.smooth_numbers_upto(y_v, z))
        for a in smooth_as:
            outer1 = h1.values[v * a]
            if outer1 == 0.0:
                continue
            for a_ell in smooth_as:
                if gcd(a, a_ell) != 1 or gcd(a * a_ell, abs(w)) != 1:
                    continue
                aa = a * a_ell
                if v * aa > x:
                    continue
                cells += 1
                outer = outer1 * h2.values[v * a_ell]
                if outer == 0.0:
                    continue
                r = crt_residue(a, a_ell, w)
                m_max = int(math.floor((x / v - r) / aa))
                if m_max < 0:
                    continue
                n_v = aa * np.arange(0, m_max + 1, dtype=np.int64) + r
                keep = n_v >= 1
                if w < 0:
                    keep &= n_v + w >= 1
                n_v = n_v[keep]
                if n_v.size == 0:
                    continue
                b = n_v // a
                b_ell = (n_v + w) // a_ell
                rough = (smooth[b] == 1) & (smooth[b_ell] == 1)
                if not rough.any():
                    continue
                maxfactor = float(
                    np.max(h1.values[b[rough]] * h2.values[b_ell[rough]])
                )
                if maxfactor == 0.0:
                    continue
                sys = build_omega(
                    a, a_ell, w, z, x, v,
                    p_limit=q_par, m_start=0, n_range=m_max + 1,
                )
                bound = (sys.n_range + q2) / float(big_h(q_par, sys))
                terms.append(outer * maxfactor * bound)
                contributing += 1
    return math.fsum(terms), vw_pairs, cells, contributing
