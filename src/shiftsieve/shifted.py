"""Shifted convolution sums, their smooth/rough partition, and the explicit
large-sieve upper bound on the small-smooth-part piece.

Coefficient inputs are absolute-value tables |lambda(n)| wrapped in
CoefficientHandle, so eigenform tables and closed-form multiplicative
functions (tau_m, the constant 1) go through the same code paths.  Every
floating sum is correctly rounded: the partition sums are computed exactly
in integers over the terms' mantissas and rounded once each, and the other
accumulations use math.fsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb, fsum, gcd
from typing import Iterable

import numpy as np

from . import arith
from .arith import SievingParameters, divisors, make_params, prime_table, smooth_part_table
from .largesieve import big_h, build_omega, crt_residue
from .qexpansion import EigenForm

__all__ = [
    "CoefficientHandle",
    "eigenform_handle",
    "tau_handle",
    "unit_handle",
    "PartitionSums",
    "partition_sums",
    "m_of_x",
    "ShiftedSumReport",
    "theorem2_report",
    "SieveSideBound",
    "sieve_side_bound",
]


@dataclass(frozen=True)
class CoefficientHandle:
    """Named table of |lambda(n)| for 1 <= n <= limit (index 0 is zero)."""

    name: str
    values: np.ndarray

    @property
    def limit(self) -> int:
        return len(self.values) - 1

    def __call__(self, n: int) -> float:
        return float(self.values[n])

    def require(self, limit: int) -> None:
        if limit > self.limit:
            raise ValueError(
                f"handle {self.name!r} covers n <= {self.limit}, need {limit}"
            )


def eigenform_handle(form: EigenForm, limit: int | None = None) -> CoefficientHandle:
    limit = form.cutoff if limit is None else limit
    values = np.abs(form.eigenvalue_array(limit))
    values.setflags(write=False)
    return CoefficientHandle(f"lambda_k{form.weight}", values)


def tau_handle(m: int, limit: int) -> CoefficientHandle:
    """tau_m table from tau_m(p^e) = C(e+m-1, m-1), built in int64; the cast
    to float is exact below 2^53."""
    if m < 1:
        raise ValueError("m must be >= 1")
    t = arith.multiplicative_table(limit, lambda p, e: comb(e + m - 1, m - 1), np.int64)
    t = t.astype(float)
    t[0] = 0.0
    t.setflags(write=False)
    return CoefficientHandle(f"tau{m}", t)


def unit_handle(limit: int) -> CoefficientHandle:
    t = np.ones(limit + 1)
    t[0] = 0.0
    t.setflags(write=False)
    return CoefficientHandle("one", t)


def _window(x: float, ell: int) -> tuple[int, int]:
    lo = max(1, 1 - ell)
    hi = int(x)
    return lo, hi


@dataclass(frozen=True)
class PartitionSums:
    """The two-part split of S_ell(x) by the smooth-part sizes.

    s_big double-counts the overlap (it is the sum of the a>y part and the
    a_ell>y part, exactly as the two-sum definition does); the identity
    s_small + s_big - overlap = s_total then holds exactly.
    """

    s_total: float
    s_big: float
    s_small: float
    overlap: float

    @property
    def identity_gap(self) -> float:
        lhs = self.s_small + self.s_big - self.overlap
        scale = max(abs(self.s_total), 1e-300)
        return abs(lhs - self.s_total) / scale


# Rows per pass of partition_sums: its temporaries stay near 1 MB at any x,
# below what building the smooth-part table takes, and far below the 2^26
# terms that would let a float64 bin of _class_sums pass 2^53.
_CHUNK = 1 << 14
# np.frexp writes a finite double as m * 2^e with 0.5 <= |m| < 1 and
# -1073 <= e <= 1024; m * 2^53 is an integer, split at bit 26 into halves.
_FREXP_MIN, _FREXP_MAX = -1073, 1024
_EXP_BINS = _FREXP_MAX - _FREXP_MIN + 1


def _class_sums(
    chunks: Iterable[tuple[np.ndarray, np.ndarray]], classes: int
) -> tuple[list[int], int]:
    """Exact sums of float64 values by class: ([n_0, ..., n_{classes-1}], e)
    with the sum of class c equal to n_c * 2^e, where chunks yields (values,
    labels) pairs of equal length, labels in range(classes), fewer than 2^26
    values each.

    Each value is hi * 2^(26+e') + lo * 2^e' with integers |hi| <= 2^27,
    0 <= lo < 2^26 and e' = frexp exponent - 53.  np.bincount sums the halves
    per (class, exponent) in float64, exactly, since no bin passes 2^53, and
    int64 bins gather the chunks.  Raises ValueError on a non-finite value,
    which no coefficient table holds.
    """
    acc = np.zeros((2, classes * _EXP_BINS), dtype=np.int64)
    for values, labels in chunks:
        if not np.isfinite(values).all():
            raise ValueError("exact sum of a non-finite value")
        m, e = np.frexp(values)
        hi = np.floor(m * 2.0**27)
        lo = m * 2.0**53 - hi * 2.0**26
        bins = labels * _EXP_BINS + (e - _FREXP_MIN)
        acc[0] += np.bincount(bins, hi, classes * _EXP_BINS).astype(np.int64)
        acc[1] += np.bincount(bins, lo, classes * _EXP_BINS).astype(np.int64)
    used = np.flatnonzero(acc.reshape(2 * classes, _EXP_BINS).any(axis=0))
    base = int(used[0]) if used.size else 0
    his, los = acc.reshape(2, classes, _EXP_BINS)[:, :, used].tolist()
    shifts = (used - base).tolist()
    sums = [
        sum(((h << 26) + l) << s for h, l, s in zip(hc, lc, shifts))
        for hc, lc in zip(his, los)
    ]
    return sums, base + _FREXP_MIN - 53


def _round(n: int, e: int) -> float:
    """n * 2^e rounded once to the nearest double, ties to even, as
    float(Fraction(n * 2^e)) does: CPython rounds int true division and
    int-to-float conversion correctly, and both raise OverflowError past the
    float range, where math.fsum raises it too."""
    return float(n << e) if e >= 0 else n / (1 << -e)


def partition_sums(
    h1: CoefficientHandle,
    h2: CoefficientHandle,
    params: SievingParameters,
    ell: int,
) -> PartitionSums:
    """Classify every n <= x by the z-smooth parts of n and n+ell.

    One pass labels each n by class, 1 for smooth(n) > y plus 2 for
    smooth(n+ell) > y, and sums |l1(n) l2(n+ell)| exactly per class in
    chunks of _CHUNK.  Each field is rounded once from the exact class sums
    c0..c3: s_total from all four, s_small from c0, overlap from c3, and
    s_big as the float sum of the rounded a>y part (c1 + c3) and the rounded
    a_ell>y part (c2 + c3).  So every field equals the math.fsum of its
    terms, and s_big the sum of two such fsums.
    """
    x, z, y = params.x, params.z, params.y
    if ell == 0 or abs(ell) > x:
        raise ValueError(f"shift must satisfy 0 < |ell| <= x, got ell={ell}")
    lo, hi = _window(x, ell)
    h1.require(hi)
    h2.require(hi + ell)
    smooth = smooth_part_table(hi + max(ell, 0), z)

    def chunks():
        for start in range(lo, hi + 1, _CHUNK):
            stop = min(start + _CHUNK, hi + 1)
            prod = h1.values[start:stop] * h2.values[start + ell : stop + ell]
            labels = (smooth[start:stop] > y) + 2 * (smooth[start + ell : stop + ell] > y)
            yield prod, labels

    (c0, c1, c2, c3), e = _class_sums(chunks(), 4)
    return PartitionSums(
        s_total=_round(c0 + c1 + c2 + c3, e),
        s_big=_round(c1 + c3, e) + _round(c2 + c3, e),
        s_small=_round(c0, e),
        overlap=_round(c3, e),
    )


def m_of_x(h1: CoefficientHandle, h2: CoefficientHandle, params: SievingParameters) -> float:
    """M(x) = (log x)^-2 prod over p <= z of (1+|l1(p)|/p)(1+|l2(p)|/p).

    Desk-scale regimes put the formula's z far above x (epsilon loglog x < 1
    makes z = x^(1/s) exceed x, even astronomically); the product is then
    evaluated over p <= x, the largest range the tables can inform, and the
    params flag discloses the regime.  Raises if even the capped range
    exceeds the prime-table capacity.
    """
    z_eff = min(params.z, params.x)
    primes = prime_table(int(z_eff))
    h1.require(int(z_eff))
    h2.require(int(z_eff))
    inv_p = 1.0 / primes
    log_prod = fsum(np.log1p(h1.values[primes] * inv_p)) + fsum(
        np.log1p(h2.values[primes] * inv_p)
    )
    return math.exp(log_prod) / math.log(params.x) ** 2


@dataclass(frozen=True)
class ShiftedSumReport:
    x: float
    ell: int
    epsilon: float
    s_total: float
    s_big: float
    s_small: float
    overlap: float
    m_of_x: float
    rhs: float
    ratio: float
    params: SievingParameters


def theorem2_report(
    h1: CoefficientHandle,
    h2: CoefficientHandle,
    x: float,
    epsilon: float,
    ell: int,
) -> ShiftedSumReport:
    """Assemble S_ell(x), its partition, M(x), and the explicit right side
    x (log x)^epsilon M(x) tau(|ell|) with implied constant 1."""
    params = make_params(x, epsilon)
    parts = partition_sums(h1, h2, params, ell)
    m_val = m_of_x(h1, h2, params)
    rhs = x * math.log(x) ** epsilon * m_val * arith.tau(abs(ell))
    return ShiftedSumReport(
        x=float(x),
        ell=ell,
        epsilon=epsilon,
        s_total=parts.s_total,
        s_big=parts.s_big,
        s_small=parts.s_small,
        overlap=parts.overlap,
        m_of_x=m_val,
        rhs=rhs,
        ratio=parts.s_total / rhs,
        params=params,
    )


@dataclass(frozen=True)
class SieveSideBound:
    """Explicit numerical upper bound on the small-smooth-part sum.

    value = sum over (v, w, a, a_ell) of
        |l1(v a) l2(v a_ell)| * maxfactor * (N_window + Q^2)/H,
    where maxfactor is the computed maximum of |l1(b) l2(b_ell)| over the
    progression members whose cofactors are z-rough; every inner count is
    replaced by its large-sieve bound, so value >= s_small by construction.
    cells counts the admissible (v, a, a_ell) with l1(v a) != 0,
    contributing_cells those that add a term, and distinct_h the exact H
    values computed (the rest are read back from the memo).
    """

    value: float
    vw_pairs: int
    cells: int
    contributing_cells: int
    distinct_h: int


def sieve_side_bound(
    h1: CoefficientHandle,
    h2: CoefficientHandle,
    params: SievingParameters,
    ell: int,
) -> SieveSideBound:
    """One pass over n for each divisor v of |ell|, with w = ell/v.

    a is z-smooth, so the cofactor b = n/a is z-rough exactly when
    smooth(n) = a, and likewise b_ell = (n+w)/a_ell when smooth(n+w) =
    a_ell.  The cells that contribute are therefore the distinct pairs
    (smooth(n), smooth(n+w)) over max(1, 1-w) <= n <= x/v that pass the
    size and gcd conditions, and a cell's maxfactor is the maximum of
    l1(n/a) l2((n+w)/a_ell) over its n.  fsum is exactly rounded, so the
    order of the terms does not matter.

    H depends on the system only through omega(p) for the odd primes
    p <= min(z, Q), and omega(p) = 1 exactly when p | a a_ell w (for p
    dividing neither a nor a_ell the two struck classes coincide iff p | w),
    2 otherwise.  H is memoised on that prime set within the call, each one
    the exact rational of `big_h` (integers over one common denominator)
    rounded once to a float.
    """
    x, z, y, q_par = params.x, params.z, params.y, params.Q
    if ell == 0 or abs(ell) > x:
        raise ValueError(f"shift must satisfy 0 < |ell| <= x, got ell={ell}")
    limit = int(x) + abs(ell)
    h1.require(limit)
    h2.require(limit)
    smooth = smooth_part_table(limit, z)
    q2 = q_par * q_par
    p_max = min(z, q_par)
    h_primes = [p for p in prime_table(int(p_max)).tolist() if p != 2] if p_max >= 3 else []
    h_memo: dict[tuple[int, ...], float] = {}

    terms: list[float] = []
    vw_pairs = 0
    cells = 0
    for v in divisors(abs(ell)):
        w = ell // v
        vw_pairs += 1
        y_v = y / v
        if y_v < 1 or v > x:
            continue
        hi = math.floor(x / v)
        smooth_as = np.fromiter(arith.smooth_numbers_upto(min(y_v, hi), z), dtype=np.int64)
        for a in smooth_as.tolist():
            if h1.values[v * a] == 0.0 or gcd(a, abs(w)) != 1:
                continue
            # count over the prefix a_ell <= x/(v a), never a full grid
            prefix = smooth_as[: np.searchsorted(smooth_as, int(x) // (v * a), side="right")]
            cells += int(np.count_nonzero(np.gcd(prefix, a * abs(w)) == 1))

        lo = max(1, 1 - w)
        n = np.arange(lo, hi + 1)
        big_a, big_b = smooth[lo : hi + 1], smooth[lo + w : hi + w + 1]
        keep = (big_a <= y_v) & (big_b <= y_v) & (v * big_a * big_b <= x)
        # gcd(a, a_ell) divides w, so gcd(a a_ell, w) = 1 makes them coprime
        keep &= np.gcd(big_a * big_b, abs(w)) == 1
        n, big_a, big_b = n[keep], big_a[keep], big_b[keep]
        outer1 = h1.values[v * big_a]
        outer = outer1 * h2.values[v * big_b]
        keep = (outer1 != 0.0) & (outer != 0.0)
        n, big_a, big_b, outer = n[keep], big_a[keep], big_b[keep], outer[keep]
        factor = h1.values[n // big_a] * h2.values[(n + w) // big_b]

        order = np.lexsort((-factor, big_b, big_a))
        big_a, big_b, outer, factor = big_a[order], big_b[order], outer[order], factor[order]
        first = np.ones(big_a.size, dtype=bool)
        first[1:] = (big_a[1:] != big_a[:-1]) | (big_b[1:] != big_b[:-1])
        for a, a_ell, out, maxfactor in zip(
            big_a[first].tolist(), big_b[first].tolist(),
            outer[first].tolist(), factor[first].tolist(),
        ):
            if maxfactor == 0.0:
                continue
            aa = a * a_ell
            r = crt_residue(a, a_ell, w)
            m_max = int(math.floor((x / v - r) / aa))
            key = tuple(p for p in h_primes if aa * w % p == 0)
            h = h_memo.get(key)
            if h is None:
                sys = build_omega(
                    a, a_ell, w, z, x, v,
                    p_limit=q_par, m_start=0, n_range=m_max + 1,
                )
                h = h_memo[key] = float(big_h(q_par, sys))
            terms.append(out * maxfactor * ((m_max + 1 + q2) / h))
    return SieveSideBound(
        value=fsum(terms),
        vw_pairs=vw_pairs,
        cells=cells,
        contributing_cells=len(terms),
        distinct_h=len(h_memo),
    )
