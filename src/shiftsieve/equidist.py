"""Symmetric-square values, the prime-product rate M_k(f), the pointwise and
summed eigenvalue inequalities, and the weighted shifted sums of the
mass-equidistribution bound.

L(1, sym^2 f) and L(1, sym^4 f) are truncated Euler products reconstructed
from the Satake pair alpha + conj(alpha) = lambda(p), |alpha| = 1; every
local factor reduces to real Chebyshev combinations of lambda(p), so no
complex arithmetic is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum

import numpy as np

from .arith import prime_table
from .qexpansion import EigenForm
from .specfun import DEFAULT_BUMP, BumpFunction, MellinTransform, a_ell_y

__all__ = [
    "SymSquareValue",
    "l1_sym2",
    "l1_sym4",
    "mk",
    "EmsPrimeCheck",
    "ems_prime_check",
    "EmsSumReport",
    "ems_sum_check",
    "weighted_shift_sum",
    "Theorem1Bound",
    "theorem1_bound_assembly",
    "Corollary3Report",
    "corollary3_report",
]

_EMS_TOL = 1e-12


def _prime_eigenvalues(form: EigenForm, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    if cutoff > form.cutoff:
        raise ValueError(f"cutoff {cutoff} beyond eigenvalue table {form.cutoff}")
    primes = prime_table(cutoff)
    lam = form.eigenvalue_array(cutoff)[primes]
    excess = np.abs(lam) - 2.0
    if np.any(excess > 1e-9):
        p_bad = int(primes[np.argmax(excess)])
        raise ValueError(f"|lambda({p_bad})| > 2: Satake parameters would not be unitary")
    return primes, np.clip(lam, -2.0, 2.0)


@dataclass(frozen=True)
class SymSquareValue:
    weight: int
    prime_cutoff: int
    value: float
    truncation_gap: float


def _sym2_log_factors(primes: np.ndarray, lam: np.ndarray) -> np.ndarray:
    # local factor [(1 - a^2/p)(1 - 1/p)(1 - abar^2/p)]^{-1} with
    # a^2 + abar^2 = lambda^2 - 2
    inv_p = 1.0 / primes
    c2 = lam * lam - 2.0
    return -(np.log1p(-inv_p) + np.log(1.0 - c2 * inv_p + inv_p * inv_p))


def l1_sym2(form: EigenForm, prime_cutoff: int) -> SymSquareValue:
    """Truncated Euler product for L(1, sym^2 f), with the gap between the
    full cutoff and the half cutoff reported as a convergence indicator."""
    primes, lam = _prime_eigenvalues(form, prime_cutoff)
    logs = _sym2_log_factors(primes, lam)
    value = math.exp(fsum(logs))
    half = primes <= prime_cutoff // 2
    value_half = math.exp(fsum(logs[half]))
    return SymSquareValue(form.weight, prime_cutoff, value, abs(value - value_half))


def l1_sym4(form: EigenForm, prime_cutoff: int) -> float:
    """Truncated Euler product for L(1, sym^4 f) from the Satake powers."""
    primes, lam = _prime_eigenvalues(form, prime_cutoff)
    inv_p = 1.0 / primes
    cos2 = 0.5 * lam * lam - 1.0          # cos(2 theta)
    cos4 = 2.0 * cos2 * cos2 - 1.0        # cos(4 theta)
    logs = -(
        np.log(1.0 - 2.0 * cos4 * inv_p + inv_p * inv_p)
        + np.log(1.0 - 2.0 * cos2 * inv_p + inv_p * inv_p)
        + np.log1p(-inv_p)
    )
    return math.exp(fsum(logs))


def mk(
    form: EigenForm,
    prime_cutoff: int | None = None,
    l_cutoff: int | None = None,
) -> float:
    """M_k(f) = prod_{p <= cutoff} (1 + 2|lambda(p)|/p) / ((log k)^2 L(1, sym^2 f)).

    The prime product runs to the weight itself by default (the literal
    reading); prime_cutoff overrides it for convergence studies, and
    l_cutoff controls the Euler-product truncation of L(1, sym^2 f).
    """
    k = form.weight
    cutoff = k if prime_cutoff is None else prime_cutoff
    lc = max(cutoff, 1000) if l_cutoff is None else l_cutoff
    primes, lam = _prime_eigenvalues(form, cutoff)
    log_prod = fsum(np.log1p(2.0 * np.abs(lam) / primes))
    l_val = l1_sym2(form, lc).value
    return math.exp(log_prod) / (math.log(k) ** 2 * l_val)


@dataclass(frozen=True)
class EmsPrimeCheck:
    lam: float
    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + _EMS_TOL


def ems_prime_check(lam: float) -> EmsPrimeCheck:
    """Pointwise inequality 2|lam| - 2 <= (lam^2 - 1) - (lam^2 - 1)^2 / 9
    for |lam| <= 2, with equality at |lam| in {1, 2}."""
    if abs(lam) > 2.0 + _EMS_TOL:
        raise ValueError(f"|lam| = {abs(lam)} exceeds 2")
    u = lam * lam - 1.0
    return EmsPrimeCheck(lam=lam, lhs=2.0 * abs(lam) - 2.0, rhs=u - u * u / 9.0)


@dataclass(frozen=True)
class EmsSumReport:
    weight: int
    cutoff: int
    lhs_sum: float
    rhs_sum: float
    crosschecks: int
    crosscheck_failures: int

    @property
    def holds(self) -> bool:
        return self.lhs_sum <= self.rhs_sum + _EMS_TOL


def ems_sum_check(form: EigenForm, cutoff: int) -> EmsSumReport:
    """Summed inequality over p <= cutoff:

        sum (2|lam(p)| - 2)/p <= sum lam(p^2)/p - (1/9) sum lam(p^2)^2/p,

    with lam(p^2) = lam(p)^2 - 1 from the Hecke recursion, cross-checked
    against the q-expansion (a(p^2) route) wherever p^2 is inside the table.
    """
    primes, lam = _prime_eigenvalues(form, cutoff)
    lam_p2 = lam * lam - 1.0
    inv_p = 1.0 / primes
    lhs = fsum((2.0 * np.abs(lam) - 2.0) * inv_p)
    rhs = fsum(lam_p2 * inv_p) - fsum(lam_p2 * lam_p2 * inv_p) / 9.0

    table = form.eigenvalue_array(form.cutoff)
    checked = primes[primes * primes <= form.cutoff]
    from_table = table[checked * checked]
    from_recursion = table[checked] ** 2 - 1.0
    failures = np.abs(from_table - from_recursion) > 1e-9 * np.maximum(1.0, np.abs(from_table))
    return EmsSumReport(
        weight=form.weight,
        cutoff=cutoff,
        lhs_sum=lhs,
        rhs_sum=rhs,
        crosschecks=len(checked),
        crosscheck_failures=int(failures.sum()),
    )


def weighted_shift_sum(
    form: EigenForm,
    ell: int,
    Y: float,
    bump: BumpFunction = DEFAULT_BUMP,
    k: int | None = None,
) -> float:
    """sum over n of |lambda(n) lambda(n+ell)| g(Y(k-1)/(4 pi (n + ell/2))).

    The bump support confines n + ell/2 to [Y(k-1)/(4 pi hi), Y(k-1)/(4 pi lo)],
    so the sum is finite; the eigenvalue table must cover that window.
    """
    if ell == 0:
        raise ValueError("ell must be nonzero")
    k = form.weight if k is None else k
    scale = Y * (k - 1) / (4.0 * math.pi)
    n_lo = max(1, 1 - ell, int(math.floor(scale / bump.hi - 0.5 * ell)))
    n_hi = int(math.ceil(scale / bump.lo - 0.5 * ell)) + 1
    if n_hi < n_lo:
        return 0.0
    if n_hi + max(ell, 0) > form.cutoff:
        raise ValueError(
            f"support window reaches n = {n_hi}, beyond table cutoff {form.cutoff}"
        )
    lam = form.eigenvalue_array(n_hi + max(ell, 0))
    terms = []
    for n in range(n_lo, n_hi + 1):
        g_val = bump(scale / (n + 0.5 * ell))
        if g_val:
            terms.append(abs(lam[n] * lam[n + ell]) * g_val)
    return fsum(terms)


@dataclass(frozen=True)
class Theorem1Bound:
    """Right-hand side of the shifted-sum bound, implied constant 1.

    bound = (a_ell_abs / L(1, sym^2 f)) * (sum_term + tail_term) with
    sum_term = weighted sum / (Y k) and tail_term = (Y k)^eps / k; c_y is
    the unfolding normalization (3/pi) <E(.|g), 1> Y with <E(.|g), 1> = G(-1).
    a_ell_abs bounds |a_ell(1/Y)| from above: it is the |a_ell_y| value plus
    the tolerance that value is within, so it is positive also at Y <= 1,
    where no term of the unfolding reaches the bump and a_ell(1/Y) = 0.
    """

    weight: int
    ell: int
    Y: float
    epsilon: float
    a_ell_abs: float
    l_sym2: float
    weighted_sum: float
    sum_term: float
    tail_term: float
    c_y: float
    bound: float


_A_ELL_TOL = 1e-7  # the tolerance theorem1_bound_assembly takes a_ell(1/Y) to


def theorem1_bound_assembly(
    form: EigenForm,
    ell: int,
    Y: float,
    epsilon: float = 0.5,
    mellin: MellinTransform | None = None,
    l_cutoff: int | None = None,
) -> Theorem1Bound:
    if mellin is None:
        mellin = MellinTransform()
    k = form.weight
    lc = min(form.cutoff, 100_000) if l_cutoff is None else l_cutoff
    a_abs = abs(a_ell_y(mellin, ell, 1.0 / Y, _A_ELL_TOL)) + _A_ELL_TOL
    l_val = l1_sym2(form, lc).value
    wsum = weighted_shift_sum(form, ell, Y, bump=mellin.bump)
    sum_term = wsum / (Y * k)
    tail_term = (Y * k) ** epsilon / k
    g_minus1 = mellin(-1.0).real
    return Theorem1Bound(
        weight=k,
        ell=ell,
        Y=Y,
        epsilon=epsilon,
        a_ell_abs=a_abs,
        l_sym2=l_val,
        weighted_sum=wsum,
        sum_term=sum_term,
        tail_term=tail_term,
        c_y=(3.0 / math.pi) * g_minus1 * Y,
        bound=a_abs / l_val * (sum_term + tail_term),
    )


@dataclass(frozen=True)
class Corollary3Report:
    weight: int
    cutoff: int
    l_sym2: float
    l_sym2_gap: float
    m_k: float
    sqrt_m_k: float
    y_star: float
    l_sym4: float
    conjectured_rate: float
    ems_lhs: float
    ems_rhs: float
    ems_holds: bool


def corollary3_report(form: EigenForm, cutoff: int) -> Corollary3Report:
    """M_k(f), the optimal Y* = max(1, 1/M_k(f)), and the contextual
    conjectural decay {(log k) L(1,sym^2) L(1,sym^4)}^{-1/9}."""
    k = form.weight
    sym2 = l1_sym2(form, cutoff)
    m_val = mk(form, prime_cutoff=cutoff, l_cutoff=cutoff)
    sym4 = l1_sym4(form, cutoff)
    ems = ems_sum_check(form, cutoff)
    return Corollary3Report(
        weight=k,
        cutoff=cutoff,
        l_sym2=sym2.value,
        l_sym2_gap=sym2.truncation_gap,
        m_k=m_val,
        sqrt_m_k=math.sqrt(m_val),
        y_star=max(1.0, 1.0 / m_val),
        l_sym4=sym4,
        conjectured_rate=(math.log(k) * sym2.value * sym4) ** (-1.0 / 9.0),
        ems_lhs=ems.lhs_sum,
        ems_rhs=ems.rhs_sum,
        ems_holds=ems.holds,
    )

