"""Exact q-expansions of level-1 modular forms and normalized Hecke eigenvalues.

All coefficient arithmetic is exact (arbitrary-precision integers); floats
only appear in the normalized eigenvalues lambda(n) = a(n) * n**(-(k-1)/2),
one read-only float64 array per form: each a(n) is rounded once to the
nearest float, then scaled by n**(-(k-1)/2) <= 1, so no entry can overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, isqrt

import numpy as np

from .arith import multiplicative_table, prime_table
from .intpoly import mul_trunc, square_trunc

__all__ = [
    "QExpansion",
    "EigenForm",
    "UnsupportedWeightError",
    "eisenstein_qexp",
    "delta_qexp",
    "delta_qexp_from_eisenstein",
    "eigenform",
    "hecke_verify",
    "HeckeReport",
    "SUPPORTED_EIGEN_WEIGHTS",
]

SUPPORTED_EIGEN_WEIGHTS = (12, 16, 18, 20, 22, 26)

# Normalizing constants -2k/B_k of the classical Eisenstein series.
_EISENSTEIN_CONST = {4: 240, 6: -504, 8: 480, 10: -264, 14: -24}


class UnsupportedWeightError(ValueError):
    pass


@dataclass(frozen=True)
class QExpansion:
    """Truncated q-series with exact integer coefficients a(0..cutoff)."""

    weight: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.weight < 0 or self.weight % 2:
            raise ValueError(f"weight must be a nonnegative even integer, got {self.weight}")
        if not self.coeffs:
            raise ValueError("empty coefficient list")

    @property
    def cutoff(self) -> int:
        return len(self.coeffs) - 1

    def a(self, n: int) -> int:
        if not 0 <= n <= self.cutoff:
            raise IndexError(f"coefficient index {n} outside [0, {self.cutoff}]")
        return self.coeffs[n]

    def truncate(self, cutoff: int) -> "QExpansion":
        if cutoff < 0:
            raise ValueError(f"cutoff must be >= 0, got {cutoff}")
        if cutoff > self.cutoff:
            raise ValueError(f"cannot extend cutoff {self.cutoff} to {cutoff}")
        return QExpansion(self.weight, self.coeffs[: cutoff + 1])


def eisenstein_qexp(weight: int, cutoff: int) -> QExpansion:
    """Normalized Eisenstein series E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n.

    Every coefficient comes from the divisor-sum formula, with sigma_{k-1}
    built from its prime-power values (p^{(k-1)(e+1)} - 1)/(p^{k-1} - 1) in
    Python ints, written 1 + p^{k-1} at e = 1 so that the many n with a
    prime factor above sqrt(cutoff) skip a big-integer division; for weights
    8, 10 and 14 this is also E4^2, E4*E6 and E4^2*E6, since those spaces of
    modular forms are one-dimensional.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if weight not in _EISENSTEIN_CONST:
        raise UnsupportedWeightError(f"Eisenstein weight {weight} not in (4, 6, 8, 10, 14)")
    const = _EISENSTEIN_CONST[weight]
    s = weight - 1
    sig = multiplicative_table(
        cutoff, lambda p, e: p**s + 1 if e == 1 else (p ** (s * (e + 1)) - 1) // (p**s - 1), object
    )
    coeffs = [1] + [const * v for v in sig[1:].tolist()]
    return QExpansion(weight, tuple(coeffs))


def _eta_cubed_sparse(cutoff: int) -> list[int]:
    """q-free part of eta^3: sum_k (-1)^k (2k+1) q^{k(k+1)/2}, truncated."""
    out = [0] * (cutoff + 1)
    k = 0
    while k * (k + 1) // 2 <= cutoff:
        out[k * (k + 1) // 2] = (2 * k + 1) if k % 2 == 0 else -(2 * k + 1)
        k += 1
    return out


def delta_qexp(cutoff: int) -> QExpansion:
    """The discriminant form Delta = q prod (1-q^n)^24.

    Built as q * (eta^3)^8 with eta^3 given by its sparse classical
    expansion; the first square is a direct sparse convolution, the rest go
    through the exact packed product, each sized by Deligne's bound (1974):
    eta(2z)^12 = sum_i e12[i] q^(2i+1) is the weight-6 newform of level 4,
    so |e12[i]| <= 2 (2i+1)^3, and |tau(m)| <= d(m) m^(11/2) <= 2 m^6.
    Construction is cross-checked against (E4^3 - E6^2)/1728 on an initial
    segment; the full-range comparison lives in delta_qexp_from_eisenstein.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    n = cutoff  # coefficients of (eta^3)^8 up to q^(cutoff-1), shifted by q
    e3 = _eta_cubed_sparse(n - 1) if n > 1 else [1]
    support = [i for i, c in enumerate(e3) if c]
    e6 = [0] * n
    for pos, i in enumerate(support):
        ci = e3[i]
        for j in support[pos:]:
            s = i + j
            if s >= n:
                break
            e6[s] += ci * e3[j] if i == j else 2 * ci * e3[j]
    e12 = square_trunc(e6, n, bound=2 * (2 * n - 1) ** 3)
    e24 = square_trunc(e12, n, bound=2 * n**6)  # e24[m - 1] = tau(m), m <= n
    coeffs = tuple([0] + e24)
    delta = QExpansion(12, coeffs)
    check_to = min(cutoff, 200)
    reference = delta_qexp_from_eisenstein(check_to)
    if delta.coeffs[: check_to + 1] != reference.coeffs:
        raise AssertionError("eta-product and Eisenstein constructions of Delta disagree")
    return delta


def delta_qexp_from_eisenstein(cutoff: int) -> QExpansion:
    """Delta via (E4^3 - E6^2)/1728, the independent construction."""
    n = cutoff + 1
    e4 = list(eisenstein_qexp(4, cutoff).coeffs)
    e6 = list(eisenstein_qexp(6, cutoff).coeffs)
    e4cubed = mul_trunc(square_trunc(e4, n), e4, n)
    e6sq = square_trunc(e6, n)
    coeffs = []
    for x, y in zip(e4cubed, e6sq):
        q, r = divmod(x - y, 1728)
        if r:
            raise AssertionError("E4^3 - E6^2 not divisible by 1728")
        coeffs.append(q)
    return QExpansion(12, tuple(coeffs))


@dataclass(frozen=True)
class EigenForm:
    """Normalized Hecke eigencuspform of level 1: a(1) = 1, exact a(n), and
    every lambda(n) in one read-only array, built once and sliced by `truncate`."""

    weight: int
    qexp: QExpansion
    _lam: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.qexp.cutoff < 1 or self.qexp.a(1) != 1:
            raise ValueError("eigenform must be normalized with a(1) = 1")
        if self.qexp.a(0) != 0:
            raise ValueError("eigenform must be cuspidal: a(0) = 0")

    @property
    def cutoff(self) -> int:
        return self.qexp.cutoff

    def a(self, n: int) -> int:
        return self.qexp.a(n)

    def _lambda(self) -> np.ndarray:
        if self._lam is None:
            # float(int) rounds correctly and raises OverflowError past the
            # float range, so with n**(-(k-1)/2) <= 1 every entry is finite
            n = np.arange(self.cutoff + 1, dtype=float)
            n[0] = 1.0  # a(0) = 0
            lam = np.array(self.qexp.coeffs, dtype=float) * np.power(n, -(self.weight - 1) / 2)
            lam.setflags(write=False)
            object.__setattr__(self, "_lam", lam)
        return self._lam

    def eigenvalue(self, n: int) -> float:
        """lambda(n) = a(n) * n**(-(k-1)/2)."""
        if not 1 <= n <= self.cutoff:
            raise IndexError(f"index {n} outside [1, {self.cutoff}]")
        return float(self._lambda()[n])

    def eigenvalue_array(self, limit: int) -> np.ndarray:
        """Signed lambda(n) for n = 0..limit as float64 (index 0 is 0)."""
        if limit > self.cutoff:
            raise ValueError(f"limit {limit} beyond cutoff {self.cutoff}")
        return self._lambda()[: limit + 1]

    def truncate(self, cutoff: int) -> "EigenForm":
        if cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {cutoff}")
        lam = None if self._lam is None else self._lam[: cutoff + 1]  # builds no array
        return EigenForm(self.weight, self.qexp.truncate(cutoff), lam)


_largest: dict[int, EigenForm] = {}


def _largest_form(weight: int, cutoff: int) -> EigenForm:
    """The eigenform of a supported weight at cutoff >= 1, served from the
    largest one of that weight built so far.

    A coefficient a(n) does not depend on the cutoff, so a larger form
    truncates exactly; a smaller one is rebuilt at this cutoff and replaced.
    Weights above 12 take Delta from the same memo.  The form itself is
    returned at an equal cutoff, and a truncation shares its eigenvalue array.
    """
    form = _largest.get(weight)
    if form is not None and form.cutoff >= cutoff:
        return form if form.cutoff == cutoff else form.truncate(cutoff)
    if weight == 12:
        form = EigenForm(12, delta_qexp(cutoff))
    else:
        delta = _largest_form(12, cutoff).qexp.coeffs
        eis = eisenstein_qexp(weight - 12, cutoff).coeffs
        # Deligne: |a(n)| <= d(n) n^((k-1)/2) <= 2 n^(k/2) <= 2 cutoff^(k/2)
        coeffs = mul_trunc(list(delta), list(eis), cutoff + 1, bound=2 * cutoff ** (weight // 2))
        form = EigenForm(weight, QExpansion(weight, tuple(coeffs)))
    _largest[weight] = form
    return form


# One exact form per weight stays alive until this is called.
_largest_form.cache_clear = _largest.clear


def eigenform(weight: int, cutoff: int) -> EigenForm:
    """The unique normalized eigenform of the given one-dimensional weight.

    Delta for weight 12, Delta * E_{k-12} otherwise; the cusp spaces for
    weights 16, 18, 20, 22, 26 are one-dimensional, so the normalized
    product is automatically the Hecke eigenform.  Deligne's bound
    |a(n)| <= d(n) n^((k-1)/2) (Publ. Math. IHES 43, 1974) sizes the exact
    product Delta * E_{k-12} and the last squaring in Delta.  Each weight
    keeps the form at the largest cutoff asked for (see `_largest_form`),
    so Delta is built and cross-checked once for all six weights, and a
    cutoff no larger than one already built costs a truncation, not a
    product.
    """
    if weight not in SUPPORTED_EIGEN_WEIGHTS:
        raise UnsupportedWeightError(
            f"weight {weight} unsupported: cusp space is not one-dimensional "
            f"(supported: {SUPPORTED_EIGEN_WEIGHTS})"
        )
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    return _largest_form(weight, cutoff)


@dataclass
class HeckeReport:
    """Violation log from hecke_verify; empty lists mean all checks passed."""

    weight: int
    cutoff: int
    multiplicativity_violations: list[tuple[int, int]] = field(default_factory=list)
    recursion_violations: list[tuple[int, int]] = field(default_factory=list)
    deligne_violations: list[int] = field(default_factory=list)
    pairs_checked: int = 0
    recursions_checked: int = 0
    primes_checked: int = 0
    max_abs_lambda_p: float = 0.0

    @property
    def ok(self) -> bool:
        return not (
            self.multiplicativity_violations
            or self.recursion_violations
            or self.deligne_violations
        )


def hecke_verify(form: EigenForm, cutoff: int | None = None) -> HeckeReport:
    """Exact-integer Hecke checks plus the floating Deligne bound.

    Verifies a(m*n) = a(m)*a(n) for all coprime 2 <= m <= n with m*n below
    the cutoff, the prime-power recursion
    a(p)*a(p^j) = a(p^{j+1}) + p^{k-1}*a(p^{j-1}), and |lambda(p)| <= 2.
    Violations are collected, not raised.
    """
    limit = form.cutoff if cutoff is None else min(cutoff, form.cutoff)
    coeffs = form.qexp.coeffs
    report = HeckeReport(weight=form.weight, cutoff=limit)

    for m in range(2, isqrt(limit) + 1):
        am = coeffs[m]
        for n in range(m + 1, limit // m + 1):
            if gcd(m, n) == 1:
                report.pairs_checked += 1
                if coeffs[m * n] != am * coeffs[n]:
                    report.multiplicativity_violations.append((m, n))

    pk = form.weight - 1
    table = prime_table(limit)
    primes = table.tolist()  # Python ints: p**pk is exact
    for p in primes:
        ppow = p * p
        j = 1
        pk_pow = p**pk
        while ppow <= limit:
            report.recursions_checked += 1
            lhs = coeffs[p] * coeffs[ppow // p]
            rhs = coeffs[ppow] + pk_pow * coeffs[ppow // (p * p)]
            if lhs != rhs:
                report.recursion_violations.append((p, j))
            ppow *= p
            j += 1

    lam = np.abs(form.eigenvalue_array(limit)[table])
    report.primes_checked = len(primes)
    report.max_abs_lambda_p = float(lam.max(initial=0.0))
    report.deligne_violations = table[lam > 2.0].tolist()
    return report
