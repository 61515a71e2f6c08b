"""Special functions backing the analytic estimates.

Self-contained implementations: Riemann zeta by Euler-Maclaurin with ten
correction terms, complex log-gamma by a Lanczos approximation (reflection
below Re = 1/2, with log sin(pi z) taken from its dominant exponential far
from the real axis), both over arrays too, K-Bessel of imaginary order by
quadrature of the absolutely convergent cosh representation and, batched
over orders, of the rotated exp(pi t/2)-scaled one, which hands orders far
enough past the turning point t = w to the Debye expansion (DLMF 10.41.4),
plus the Eisenstein coefficient formulas, the canonical bump weight, its
Mellin transform, and the Laplace-form evaluation of the spectral weight
W(n, ell; Y).  The Eisenstein coefficient a_ell(y) is a finite unfolding sum
over c, vectorised over all c, wherever that fits a node budget; below y of
about 5e-7 and for w up to 688 it is the spectral t-integral, read one block
at a time until three blocks past the turning point t = w add less than
tol/8 each to the value, with its Mellin and zeta factors as shifted
exponential sums and the ell- and y-independent part of each block kept per
bump in a `functools.cache` (`_aell_profile`).
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .arith import divisors, multiplicative_table

__all__ = [
    "PoleError",
    "ToleranceError",
    "zeta",
    "clgamma",
    "BumpFunction",
    "DEFAULT_BUMP",
    "MellinTransform",
    "bessel_k_it",
    "bessel_k_scaled",
    "bessel_k_scaled_grid",
    "bound_ratio",
    "bessel_bound_check",
    "BesselBoundCheck",
    "BESSEL_ENVELOPE",
    "theta_s",
    "varphi_s",
    "a_ell_y",
    "support_prefactor",
    "w_weight",
    "w_main_term",
    "gamma_ratio_check",
    "GammaRatioCheck",
    "BESSEL_ORDER_MAX",
    "AELL_W_MIN",
    "check_aell_w",
]

LN2PI = math.log(2.0 * math.pi)
BESSEL_ORDER_MAX = 50.0

# Empirical envelope for |K_it(w)| against the Gamma-normalized decay factor
# on the documented (t, w, A) grid; recorded from a reference run, not derived.
BESSEL_ENVELOPE = 2.0


class PoleError(ValueError):
    pass


class ToleranceError(ArithmeticError):
    pass


# ---------------------------------------------------------------------------
# Riemann zeta, Euler-Maclaurin.

_BERNOULLI = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    18: Fraction(43867, 798),
    20: Fraction(-174611, 330),
}
# B_2j / (2j)! for j = 1..10, the factors (s + 2j - 1)(s + 2j) that carry the
# rising product from one correction term to the next, and the extra n^{-2(j-1)}
_EM_COEFF = np.array([float(_BERNOULLI[2 * j] / factorial(2 * j)) for j in range(1, 11)])
_EM_2J = 2.0 * np.arange(1, 10)[:, None]
_EM_NPOW = -2.0 * np.arange(10)[:, None]


def zeta(s, terms: int | None = None):
    """zeta(s) by Euler-Maclaurin summation with ten correction terms.

    s is a complex number or an array of them; a scalar s gives a complex,
    an array gives an array of its shape.  Each point sums
    max(30, int(0.8 |Im s|) + 20) terms directly unless `terms` fixes it.
    """
    scalar = np.ndim(s) == 0
    s = np.asarray(s, dtype=complex)
    shape = s.shape
    s = s.ravel()
    if not np.isfinite(s).all():
        raise ValueError(f"zeta needs a finite argument, got {s[~np.isfinite(s)][0]}")
    near_pole = np.abs(s - 1.0) < 1e-8
    if near_pole.any():
        raise PoleError(f"zeta pole at s = 1 (got {complex(s[near_pole][0])})")
    n = np.full(s.shape, terms) if terms is not None else _zeta_terms(s.imag)
    m = np.arange(1.0, n.max())[:, None]
    # m^{-s} split as CPython's complex power splits it: modulus, then phase
    head = m ** -s.real * np.exp(-1j * np.log(m) * s.imag)
    head[m >= n] = 0.0
    acc = _add_euler_maclaurin(head.sum(axis=0), s, n.astype(float))
    return complex(acc[0]) if scalar else acc.reshape(shape)


def _zeta_terms(imag):
    """The number n of terms `zeta` sums directly at Im s = imag."""
    return np.maximum(30, (0.8 * np.abs(imag)).astype(int) + 20)


def _add_euler_maclaurin(acc: np.ndarray, s: np.ndarray, n) -> np.ndarray:
    """acc plus the Euler-Maclaurin remainder of sum_{m < n} m^{-s}, that is
    zeta(s) when acc holds that partial sum; n is a float or an array like s."""
    acc += n ** (1.0 - s) / (s - 1.0)
    acc += 0.5 * n ** (-s)
    rising = np.cumprod(np.concatenate([s[None], (s + _EM_2J - 1.0) * (s + _EM_2J)]), axis=0)
    acc += _EM_COEFF @ (rising * (n ** (-s - 1) * n ** _EM_NPOW))
    return acc


# ---------------------------------------------------------------------------
# Complex gamma, Lanczos (g = 7, 9 coefficients), reflection for Re < 1/2.

_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos_log_gamma(z, log):
    zz = z - 1.0
    x = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        x += _LANCZOS[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return 0.5 * LN2PI + (zz + 0.5) * log(t) - t + log(x)


# From this |Im z| on, the reflection takes log sin(pi z) from its dominant
# exponential: sin(pi z) itself leaves the float range near |Im z| = 226.
_SIN_FAR = 200.0


def _log_sin_pi_far(z):
    """log sin(pi z), up to a multiple of 2 pi i, for |Im z| >= _SIN_FAR.

    With s the sign of Im z, sin(pi z) = (i s / 2) exp(-i s pi z) (1 - u)
    with u = exp(2 i s pi z), so log sin(pi z) = -i s pi (z - 1/2) - log 2
    + log(1 - u); |u| = exp(-2 pi |Im z|) < exp(-1256) is 0 in floating
    point.  z is a complex number or an array of them.
    """
    return -1j * np.copysign(np.pi, np.imag(z)) * (z - 0.5) - math.log(2.0)


def clgamma(z):
    """Principal log-gamma; accurate to ~1e-13 relative on the needed strips.

    z is a complex number or an array of them (evaluated elementwise).
    Below Re z = 1/2 the value is log Gamma(z) only up to a multiple of
    2 pi i, which every caller exponentiates away.
    """
    if np.ndim(z):
        z = np.asarray(z, dtype=complex)
        reflect = z.real < 0.5
        out = _lanczos_log_gamma(np.where(reflect, 1.0 - z, z), np.log)
        if reflect.any():
            zr = z[reflect]
            far = np.abs(zr.imag) >= _SIN_FAR
            log_sin = _log_sin_pi_far(zr)
            sin_piz = np.sin(np.pi * zr[~far])
            if np.any(sin_piz == 0):
                raise PoleError(f"log-gamma pole at z = {zr[~far][sin_piz == 0][0]}")
            log_sin[~far] = np.log(sin_piz)
            out[reflect] = math.log(math.pi) - log_sin - out[reflect]
        return out
    z = complex(z)
    if z.real < 0.5:
        # reflection: log Gamma(z) = log(pi / sin(pi z)) - log Gamma(1 - z)
        if abs(z.imag) >= _SIN_FAR:
            log_sin = complex(_log_sin_pi_far(z))
        else:
            sin_piz = cmath.sin(cmath.pi * z)
            if sin_piz == 0:
                raise PoleError(f"log-gamma pole at z = {z}")
            log_sin = cmath.log(sin_piz)
        return cmath.log(cmath.pi) - log_sin - clgamma(1.0 - z)
    return _lanczos_log_gamma(z, cmath.log)


def gamma_half_plus_it_abs(t: float) -> float:
    """|Gamma(1/2 + it)| = sqrt(pi / cosh(pi t)), the exact closed form."""
    return math.sqrt(math.pi / math.cosh(math.pi * t))


# ---------------------------------------------------------------------------
# Bump weight and its Mellin transform.

@dataclass(frozen=True)
class BumpFunction:
    """Smooth nonnegative bump on [lo, hi], peak value 1 at the midpoint.

    g(t) = exp(1 - 1/(1 - u^2)) with u the affine image of t in (-1, 1);
    vanishes with all derivatives at the endpoints.
    """

    lo: float = 1.0
    hi: float = 2.0

    def __call__(self, t: float) -> float:
        u = (2.0 * t - (self.lo + self.hi)) / (self.hi - self.lo)
        if abs(u) >= 1.0:
            return 0.0
        return math.exp(1.0 - 1.0 / (1.0 - u * u))

    def values(self, ts: np.ndarray) -> np.ndarray:
        u = (2.0 * ts - (self.lo + self.hi)) / (self.hi - self.lo)
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
        return out

    def derivatives(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """g' and g'' at an array of points: with q = 1/(1 - u^2), dg/du =
        -2u q^2 g and d^2g/du^2 = q^2 (4u^2 q^2 - 8u^2 q - 2) g."""
        scale = 2.0 / (self.hi - self.lo)
        u = (2.0 * ts - (self.lo + self.hi)) / (self.hi - self.lo)
        first, second = np.zeros_like(u), np.zeros_like(u)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        q = 1.0 / (1.0 - ui * ui)
        qg = q * q * np.exp(1.0 - q)
        first[inside] = scale * -2.0 * ui * qg
        second[inside] = scale * scale * (4.0 * ui * ui * q * (q - 2.0) - 2.0) * qg
        return first, second


DEFAULT_BUMP = BumpFunction()


@dataclass(frozen=True)
class MellinTransform:
    """G(s) = integral of g(t) t^{s-1} dt over the bump support.

    Midpoint rule: the integrand extends periodically C-infinity smooth
    (all endpoint derivatives vanish), so the rule converges faster than
    any power of the node count.
    """

    bump: BumpFunction = DEFAULT_BUMP
    nodes: int = 1024

    @functools.cached_property
    def _grid(self) -> tuple[np.ndarray, np.ndarray, float]:
        """log t, g(t) and the step h over the midpoint nodes t."""
        lo, hi = self.bump.lo, self.bump.hi
        h = (hi - lo) / self.nodes
        ts = lo + h * (np.arange(self.nodes) + 0.5)
        return np.log(ts), self.bump.values(ts), h

    def __call__(self, s: complex) -> complex:
        logt, gv, h = self._grid
        return complex(h * np.sum(gv * np.exp((complex(s) - 1.0) * logt)))

    def values_at(self, ss: np.ndarray) -> np.ndarray:
        """Vectorized G over an array of complex points."""
        logt, gv, h = self._grid
        return h * (np.exp(np.outer(np.asarray(ss) - 1.0, logt)) @ gv)


# ---------------------------------------------------------------------------
# K-Bessel of imaginary order.

_GL16 = np.polynomial.legendre.leggauss(16)
_GL8 = np.polynomial.legendre.leggauss(8)


def _gauss_legendre(edges: np.ndarray, rule) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a Gauss-Legendre `rule`, the (nodes, weights)
    pair on [-1, 1] (`_GL16` or `_GL8`), on each panel between consecutive
    entries of the last axis of `edges`; both have the shape
    (..., panels, points)."""
    x, wx = rule
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    return mid[..., None] + half[..., None] * x, half[..., None] * wx


def _bessel_panels(t_max: float, w: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights tiling [0, U] for the cosh representation."""
    u_max = math.acosh(1.0 + 48.0 / w)
    n_panels = max(
        16,
        int(0.6 * u_max * max(t_max, 1.0)) + 1,
        int(u_max * math.sqrt(max(w, 1.0))) + 1,
    ) + 1
    nodes, weights = _gauss_legendre(np.linspace(0.0, u_max, n_panels + 1), _GL16)
    return nodes.ravel(), weights.ravel()


def bessel_k_it(t: float, w: float) -> float:
    """K_{it}(w) for real order parameter t, via the absolutely convergent
    representation K_{it}(w) = integral_0^inf exp(-w cosh u) cos(tu) du.

    Real-valued and even in t; supported for |t| <= BESSEL_ORDER_MAX.
    Orders |t| > 8 go through `bessel_k_scaled` instead.
    """
    if w <= 0:
        raise ValueError(f"argument w must be positive, got {w}")
    if abs(t) > BESSEL_ORDER_MAX:
        raise ValueError(f"order parameter |t| = {abs(t)} beyond supported {BESSEL_ORDER_MAX}")
    if abs(t) > 8.0:
        # the cosh integrand is O(1) while K_{it}(w) ~ exp(-pi t/2), so the
        # cancellation eats all relative accuracy by t ~ 25; the scaled
        # representation stays O(1) and loses nothing to the rescaling
        return math.exp(-0.5 * math.pi * abs(t)) * bessel_k_scaled(t, w)
    nodes, weights = _bessel_panels(abs(t), w)
    integrand = np.exp(-w * np.cosh(nodes)) * np.cos(t * nodes)
    return float(np.dot(weights, integrand))


_TAIL_CHUNKS = 40
# Averaging the 40 tail partial sums pairwise 39 times weights partial sum j
# by binomial(39, j) / 2^39; the weights are exact in floating point.
_TAIL_AVERAGE = np.array(
    [math.comb(_TAIL_CHUNKS - 1, j) / 2.0 ** (_TAIL_CHUNKS - 1) for j in range(_TAIL_CHUNKS)]
)
_HEAD_PASS_PANELS = 2048  # head panels summed per array pass (x16 nodes)


def bessel_k_scaled_grid(ts: np.ndarray, w: float) -> np.ndarray:
    """exp(pi t / 2) K_{it}(w) = integral_0^inf cos(t u - w sinh u) du over
    an array of orders.

    The rotated representation stays O(1) as t grows, which is what the
    Eisenstein coefficient integral needs: dividing the plain K value by
    Gamma(1/2+it) would amplify quadrature noise by exp(pi t / 2).  Orders
    whose Debye expansion has its first omitted term below _DEBYE_TOL take
    that expansion (`_debye_scaled`); this is every order with
    sqrt(t^2 - w^2) above a switch that grows from about 12 at w -> 0 to 64
    at w = 30.  The others take the quadrature (`_quadrature_scaled`), all
    in one call.  The spectral route of `a_ell_y` calls this once per block.
    """
    ts = np.asarray(ts, dtype=float)
    w = float(w)
    if w <= 0:
        raise ValueError(f"argument w must be positive, got {w}")
    t = np.abs(ts).ravel()
    out = np.empty_like(t)
    quadrature = np.ones(t.size, dtype=bool)
    # the expansion is tried only where sqrt(t^2 - w^2) > 1, which keeps
    # p = t / sqrt(t^2 - w^2) and its powers finite; t - w > 1/(t + w)
    # says so without squaring, which would overflow for w near 1e154
    tried = np.flatnonzero(t - w > 1.0 / (t + w))
    if tried.size:
        value, omitted = _debye_scaled(t[tried], w)
        debye = tried[omitted < _DEBYE_TOL]
        out[debye] = value[omitted < _DEBYE_TOL]
        quadrature[debye] = False
    if quadrature.any():
        out[quadrature] = _quadrature_scaled(t[quadrature], w)
    return out.reshape(ts.shape)


_DEBYE_TERMS = 10  # u_0 .. u_9 are summed; u_10 is the first omitted term
_DEBYE_TOL = 1e-15  # bound on the first omitted term, a tenth of the 1e-14 aimed at


@functools.cache
def _debye_u(k: int) -> tuple[Fraction, ...]:
    """Coefficients of p^0, p^1, ..., p^{3k} in the Debye polynomial u_k(p),
    exactly, by the recursion of DLMF 10.41.10:

        u_{k+1}(p) = p^2 (1 - p^2) u_k'(p) / 2 + (1/8) integral_0^p (1 - 5 q^2) u_k(q) dq

    from u_0 = 1."""
    if k == 0:
        return (Fraction(1),)
    prev = _debye_u(k - 1)
    out = [Fraction(0)] * (len(prev) + 3)
    for i, c in enumerate(prev):
        if not c:
            continue
        out[i + 1] += i * c / 2 + c / (8 * (i + 1))
        out[i + 3] -= i * c / 2 + 5 * c / (8 * (i + 3))
    return tuple(out)


@functools.cache
def _debye_table() -> np.ndarray:
    """u_k(p) = p^k P_k(p^2) for k = 0.._DEBYE_TERMS: row k holds the
    coefficients of P_k in floating point, lowest first, padded with zeros
    to a common length."""
    table = np.zeros((_DEBYE_TERMS + 1, _DEBYE_TERMS + 1))
    for k in range(_DEBYE_TERMS + 1):
        table[k, : k + 1] = [float(c) for c in _debye_u(k)[k::2]]
    return table


def _debye_scaled(t: np.ndarray, w: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(pi t / 2) K_{it}(w) for orders t > w by the Debye expansion, and
    the size of its first omitted term.

    DLMF 10.41.4 at nu = it and z = w / nu, where 1 + z^2 = 1 - w^2/t^2 > 0.
    With d = sqrt(t^2 - w^2), p = t / d and theta = d - t log((t + d)/w) + pi/4,
    K_{it}(w) is real and

        exp(pi t / 2) K_{it}(w) = 2 Re[sqrt(pi / (2 nu)) exp(-i t phi) (d/t)^{-1/2}
                                       sum_k (-1)^k u_k(p) / nu^k]
                                = sqrt(2 pi p / t) (R cos theta + I sin theta)

    with phi = (d + t log(w / (t + d))) / t and R + iI = sum_k i^k u_k(p) / t^k
    over k < _DEBYE_TERMS.
    """
    d = np.sqrt((t - w) * (t + w))
    p = t / d
    p2 = p * p
    table = _debye_table()
    poly = np.zeros((_DEBYE_TERMS + 1, t.size))
    for j in range(_DEBYE_TERMS, -1, -1):  # Horner in p^2, every P_k at once, in place
        poly[j:] *= p2  # P_k has degree k in p^2, so rows k < j are still 0
        poly[j:] += table[j:, j, None]
    q = p / t
    terms = [q**k * poly[k] for k in range(_DEBYE_TERMS + 1)]
    kept = _DEBYE_TERMS  # i^k cycles through 1, i, -1, -i
    real = sum(terms[0:kept:4]) - sum(terms[2:kept:4])
    imag = sum(terms[1:kept:4]) - sum(terms[3:kept:4])
    amplitude = np.sqrt(2.0 * np.pi * p / t)
    theta = d - t * np.log((t + d) / w) + 0.25 * np.pi
    value = amplitude * (real * np.cos(theta) + imag * np.sin(theta))
    return value, amplitude * np.abs(terms[kept])


def _quadrature_scaled(t: np.ndarray, w: float) -> np.ndarray:
    """exp(pi t / 2) K_{it}(w) by quadrature, for a 1-D array of orders t >= 0.

    For each order the stationary region (w cosh u = t) is tiled with
    Gauss-Legendre panels sized by the phase variation; past it the phase is
    monotone, so the tail is summed over half-period chunks and averaged to
    convergence.  The chunk edges of all orders come from one array Newton
    iteration, and the head panels of all orders are summed in passes of
    bounded size.
    """

    def phase(u):
        return t * u - w * np.sinh(u)

    slope = np.maximum(2.0 * t, 10.0)
    u_break = np.arccosh(np.maximum((t + slope) / w, 1.0))
    p_break = phase(u_break)

    p_star = phase(np.arccosh(np.maximum(t / w, 1.0)))
    variation = np.where(t > w, np.abs(p_star) + np.abs(p_break - p_star), np.abs(p_break))
    n_panels = np.where(u_break > 0.0, np.maximum(8, (variation / 4.0).astype(int) + 1), 0)
    ends = np.cumsum(n_panels)
    total = int(ends[-1]) if t.size else 0
    head = np.zeros_like(t)
    for first in range(0, total, _HEAD_PASS_PANELS):
        panel = np.arange(first, min(first + _HEAD_PASS_PANELS, total))
        order = np.searchsorted(ends, panel, side="right")
        count = n_panels[order]
        j = panel - (ends[order] - count)
        step = u_break[order] / count
        lo = j * step  # the edges np.linspace(0, u_break, count + 1) gives
        hi = np.where(j + 1 == count, u_break[order], (j + 1) * step)
        # the panel's own node map, not _gauss_legendre: its weights would
        # change the half * (vals @ W) summation order
        half = 0.5 * (hi - lo)
        us = 0.5 * (lo + hi)[:, None] + half[:, None] * _GL16[0]
        vals = np.cos(t[order][:, None] * us - w * np.sinh(us)) @ _GL16[1]
        head += np.bincount(order, weights=half * vals, minlength=t.size)

    # tail: phase strictly decreasing; chunk at successive multiples of pi.
    # Newton starts from the edges with the t u term dropped, which lie just
    # left of the true ones, so a few steps reach all of them at once.
    drop = np.pi * np.arange(1, _TAIL_CHUNKS + 1)
    target = p_break[:, None] - drop
    tol = 1e-12 * np.maximum(1.0, np.abs(target))
    tc = t[:, None]
    u = np.arcsinh(np.sinh(u_break)[:, None] + drop / w)
    for _ in range(64):
        f = tc * u - w * np.sinh(u) - target
        u = u - f / (tc - w * np.cosh(u))
        if (np.abs(f) < tol).all():
            break
    us, wts = _gauss_legendre(np.concatenate([u_break[:, None], u], axis=1), _GL8)
    chunks = (wts * np.cos(tc[:, :, None] * us - w * np.sinh(us))).sum(axis=2)
    tail = np.cumsum(chunks, axis=1) @ _TAIL_AVERAGE  # averages the alternating tail
    return head + tail


def bessel_k_scaled(t: float, w: float) -> float:
    """exp(pi t / 2) K_{it}(w) for one order: `bessel_k_scaled_grid` at t."""
    return float(bessel_k_scaled_grid(np.array([float(t)]), w)[0])


def bound_ratio(value: float, prefactor: float, scale: float, A: int, eps: float) -> float:
    """|value| / (prefactor scale^A (1 + scale)^eps); nan where that bound is 0 or inf."""
    try:
        denom = prefactor * scale**A * (1.0 + scale) ** eps
    except OverflowError:
        return math.nan
    return abs(value) / denom if 0.0 < denom < math.inf else math.nan


@dataclass(frozen=True)
class BesselBoundCheck:
    t: float
    w: float
    A: int
    eps: float
    ratio: float
    envelope: float = BESSEL_ENVELOPE

    @property
    def holds(self) -> bool:
        return self.ratio <= self.envelope


def bessel_bound_check(t: float, w: float, A: int = 0, eps: float = 0.0) -> BesselBoundCheck:
    """Ratio of |K_it(w)| to |Gamma(1/2+it)| ((1+|t|)/w)^A (1+(1+|t|)/w)^eps."""
    if A < 0:
        raise ValueError("A must be a nonnegative integer")
    ratio = bound_ratio(bessel_k_it(t, w), gamma_half_plus_it_abs(t), (1.0 + abs(t)) / w, A, eps)
    return BesselBoundCheck(t, w, A, eps, ratio)


# ---------------------------------------------------------------------------
# Eisenstein coefficient formulas.

def theta_s(s: complex) -> complex:
    """theta(s) = pi^{-s} Gamma(s) zeta(2s) = Lambda(2s), with poles only at
    s = 0 and s = 1/2.

    Below Re s = 1/4 it is taken as theta(1/2 - s), by the functional
    equation Lambda(z) = Lambda(1 - z) (DLMF 25.4): there the direct zeta
    sum would overflow long before theta leaves the float range.
    """
    s = complex(s)
    if abs(s - 0.5) < 1e-8:
        raise PoleError(f"theta pole at s = 1/2 (zeta(2s) pole), got {s}")
    if abs(s) < 1e-8:
        raise PoleError(f"theta pole at s = 0 (Gamma(s) pole), got {s}")
    if s.real < 0.25:
        s = 0.5 - s
    return cmath.exp(-s * math.log(math.pi) + clgamma(s)) * zeta(2.0 * s)


_EULER_GAMMA = 0.5772156649015329


def varphi_s(s: complex) -> complex:
    """The Eisenstein scattering factor

        varphi(s) = sqrt(pi) Gamma(s - 1/2) zeta(2s - 1) / (Gamma(s) zeta(2s))
                  = theta(1-s)/theta(s).

    The Gamma-ratio form is used: the theta quotient hides removable
    pole-zero cancellations at integer s (Gamma poles against trivial
    zeta zeros) that the quotient of computed values cannot resolve.
    Below Re s = 1/4 it is taken as 1/varphi(1 - s), where both theta
    arguments have Re > 1/4.  On Re s = 1/2, where theta(1 - s) is the
    conjugate of theta(s), it is exp(-2i Im log theta(s)), of modulus 1
    exactly; theta itself underflows there past Im s of about 450.  Within
    1e-8 of 2s = 1 it is -1 + 2(gamma - log 4 pi)(s - 1/2), the removable
    singularity's Taylor polynomial, and varphi(1/2) = 2 zeta(0) = -1.
    """
    s = complex(s)
    if abs(s) < 1e-8:  # a simple zero: varphi(s) = -(pi/3) s + O(s^2)
        return -math.pi / 3.0 * s
    if abs(s - 1.0) < 1e-8:
        raise PoleError(f"varphi pole at s = 1, got {s}")
    if abs(2.0 * s - 1.0) < 1e-8:  # removable: Gamma(s - 1/2) and zeta(2s) both have poles
        return -1.0 + 2.0 * (_EULER_GAMMA - math.log(4.0 * math.pi)) * (s - 0.5)
    if s.real < 0.25:
        return 1.0 / varphi_s(1.0 - s)
    if s.real == 0.5:
        log_theta = -s * math.log(math.pi) + clgamma(s) + cmath.log(zeta(2.0 * s))
        return cmath.exp(-2j * log_theta.imag)
    return (
        math.sqrt(math.pi)
        * cmath.exp(clgamma(s - 0.5) - clgamma(s))
        * zeta(2.0 * s - 1.0)
        / zeta(2.0 * s)
    )


_AELL_T_CAP = 700.0  # a_ell_y gives up past this t
_AELL_BLOCK = 4.0  # t-width of a block of the a_ell_y integral
_AELL_PANELS = 8  # Gauss-Legendre panels per block
_AELL_BLOCKS = int(_AELL_T_CAP / _AELL_BLOCK) + 1  # 176, the last from t = 700
_AELL_QUIET = 3  # consecutive quiet blocks that end the a_ell_y integral

# The smallest w = 2 pi |ell| y that a_ell_y takes: its Bessel quadrature
# divides about 3t by w at every order t up to the end of the last block
# (t = 704), which leaves the float range below this (about 1.6e-305).
AELL_W_MIN = 4.0 * _AELL_BLOCK * _AELL_BLOCKS / sys.float_info.max


def _aell_first_quiet(w: float) -> int:
    """The first block the a_ell_y stop rule counts: block 2, or the first
    wholly past the turning point t = w of K_{it}(w) (DLMF 10.41)."""
    return max(2, math.ceil(w / _AELL_BLOCK) + 1)


def _aell_w(ell: int, y: float) -> float:
    """w = 2 pi |ell| y, or ValueError if it lies below AELL_W_MIN or past
    the float range."""
    w = 2.0 * math.pi * abs(ell) * y
    if not AELL_W_MIN <= w < math.inf:
        raise ValueError(f"w = 2 pi |ell| y = {w:.3g} is outside [{AELL_W_MIN:.3g}, inf), "
                         f"where the Bessel quadrature stays in the float range")
    return w


def check_aell_w(ell: int, y: float) -> float:
    """w = 2 pi |ell| y as a_ell_y takes it, or ValueError if it lies below
    AELL_W_MIN or past the float range, or if no route of a_ell_y serves
    (ell, y) with the default bump (`_aell_route`).  ell must be nonzero."""
    w = _aell_w(ell, y)
    _aell_route(ell, y, w, DEFAULT_BUMP)
    return w


def _eisenstein_kernel(ts: np.ndarray, zeta_1_2it: np.ndarray) -> np.ndarray:
    """pi^{it} exp(-pi t/2) / (Gamma(1/2+it) zeta(1+2it)) over an array of t,
    given zeta(1+2it) there.

    The exp(-pi t/2) pairs with the scaled Bessel value so the product
    K_{it}(w)/Gamma(1/2+it) is assembled from O(1) factors.
    """
    it = 1j * ts
    log_num = it * math.log(math.pi) - 0.5 * math.pi * ts - clgamma(0.5 + it)
    return np.exp(log_num) / zeta_1_2it


class _ShiftedSum:
    """F(t) = sum_j a_j exp(-i t lam_j) at every node of a block of panels.

    Panel p of the block that starts at `base` has the nodes base +
    starts[p] + offsets[g], so exp(-i t lam_j) splits into exp(-i offsets[g]
    lam_j), a fixed (nodes x terms) matrix, exp(-i starts[p] lam_j), a fixed
    (terms x panels) one with the a_j folded in, and exp(-i base lam_j), the
    one vector that changes from block to block.  A block costs one small
    matrix product instead of an exponential per node and term.
    """

    def __init__(self, lam: np.ndarray, amp: np.ndarray, offsets: np.ndarray, starts: np.ndarray):
        self.lam = lam
        self.node_phase = np.exp(-1j * np.outer(offsets, lam))
        self.panel_phase = amp[:, None] * np.exp(-1j * np.outer(lam, starts))

    def block(self, base: float, n: int) -> np.ndarray:
        """F at the nodes of the block, panel after panel, summed over the
        first n terms."""
        shift = np.exp(-1j * base * self.lam[:n])
        return (self.node_phase[:, :n] @ (self.panel_phase[:n] * shift[:, None])).T.ravel()


@functools.cache
def _aell_sums(mellin: MellinTransform) -> tuple[_ShiftedSum, _ShiftedSum]:
    """The two exponential sums in t that the blocks of the a_ell_y integral
    evaluate, per transform (equal bump and node count share one): Psi(-1/2
    - it) = h sum_j g_j t_j^{-3/2} exp(-it log t_j) over the midpoint nodes
    t_j of `mellin`, and the head sum_m m^{-1} exp(-2it log m) of zeta(1 +
    2it), with enough terms for every block up to _AELL_T_CAP."""
    width = _AELL_BLOCK / _AELL_PANELS
    offsets = _gauss_legendre(np.array([0.0, width]), _GL16)[0].ravel()
    starts = width * np.arange(_AELL_PANELS)
    logt, gv, h = mellin._grid
    psi = _ShiftedSum(logt, h * gv * np.exp(-1.5 * logt), offsets, starts)
    m = np.arange(1.0, _zeta_terms(2.0 * (_AELL_T_CAP + _AELL_BLOCK)))
    return psi, _ShiftedSum(2.0 * np.log(m), 1.0 / m, offsets, starts)


def _aell_block(mellin: MellinTransform, k: int) -> tuple[np.ndarray, ...]:
    """Block [4k, 4k + 4] of the a_ell_y integral: its Gauss-Legendre nodes
    ts and weights, and Psi(-1/2 - it) and zeta(1 + 2it) at the nodes, from
    the sums of `_aell_sums`; zeta takes one term count per block, the one
    `zeta` takes at the largest node, plus its Euler-Maclaurin remainder."""
    psi, head = _aell_sums(mellin)
    lo = _AELL_BLOCK * k
    ts, wt = _gauss_legendre(np.linspace(lo, lo + _AELL_BLOCK, _AELL_PANELS + 1), _GL16)
    ts, wt = ts.ravel(), wt.ravel()
    n = int(_zeta_terms(2.0 * ts[-1]))
    zeta_1_2it = _add_euler_maclaurin(head.block(lo, n - 1), 1.0 + 2j * ts, float(n))
    return ts, wt, psi.block(lo, psi.lam.size), zeta_1_2it


@functools.cache
def _aell_profile(mellin: MellinTransform, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block k of `_aell_block` as (ts, wt, profile), with profile = Psi(-1/2
    - it) * `_eisenstein_kernel`: the part of the a_ell_y integrand that
    depends on neither ell nor y, built once per transform and block."""
    ts, wt, psi, zeta_1_2it = _aell_block(mellin, k)
    return ts, wt, psi * _eisenstein_kernel(ts, zeta_1_2it)


def _a_ell_spectral(mellin: MellinTransform, ell: int, y: float, tol: float = 1e-7) -> complex:
    """a_ell(y) by its spectral integral, the route `a_ell_y` takes for a
    point past the unfolding budget:

    a_ell(y) = sqrt(y/pi) * integral over t of
        pi^{it} Psi(-1/2-it) / (Gamma(1/2+it) zeta(1+2it))
        * sum_{ab=|ell|} (a/b)^{it} * K_{it}(2 pi |ell| y) dt,
    summed over t-blocks of width 4 (`_aell_block`), one block at a time,
    and truncated once _AELL_QUIET consecutive blocks from
    `_aell_first_quiet(w)` on, wholly past the turning point t = w = 2 pi
    |ell| y, add less than tol/8 each to the value, that is 2 sqrt(y/pi)
    times the block's integral (the Mellin transform of the bump decays
    like exp(-c sqrt|t|), which dictates the range); earlier blocks, whose
    Bessel factor is exponentially small, say nothing of the mass to come.
    ToleranceError if no such run ends below _AELL_T_CAP.
    Everything but the Bessel values and the divisor sum is read from the
    process-wide cache `_aell_profile`, keyed on `mellin` and the block and
    emptied by `_aell_profile.cache_clear()`: a process builds each block's
    profile once per bump, for the first point that reads that far.
    K_{it}/Gamma(1/2+it) is evaluated through the scaled Bessel values of
    `bessel_k_scaled_grid`, one call per block, so large orders stay
    numerically clean; past the Debye switch they cost a formula, not a
    quadrature.  A w outside [AELL_W_MIN, inf) is refused before any block.
    The integrand at -t is the conjugate of the value at t, hence the
    integral is twice the real part over t >= 0 and the result is real.
    """
    w = _aell_w(ell, y)
    aell = abs(ell)
    log_ratios = np.array([math.log(a / (aell // a)) for a in divisors(aell)])
    scale = 2.0 * math.sqrt(y / math.pi)

    first = _aell_first_quiet(w)
    total = 0.0 + 0.0j
    quiet = 0
    for k in range(_AELL_BLOCKS):
        ts, wt, profile = _aell_profile(mellin, k)
        dsum = np.exp(1j * np.outer(ts, log_ratios)).sum(axis=1)
        contrib = complex(np.dot(wt, profile * dsum * bessel_k_scaled_grid(ts, w)))
        total += contrib
        if k >= first and scale * abs(contrib) < tol / 8.0:
            quiet += 1
            if quiet == _AELL_QUIET:
                break
        else:
            quiet = 0
    else:
        raise ToleranceError(
            f"tail tolerance {tol} unattainable below t = {_AELL_T_CAP} for ell={ell}, y={y}"
        )
    return complex(scale * total.real, 0.0)


# ---------------------------------------------------------------------------
# a_ell(y) by unfolding, and the choice between the two routes.

# Gauss-Legendre nodes the unfolding route may take at a point; past it the
# spectral route serves.  On a 2-core x86 machine 2^19 nodes took 18-26 ms,
# about what a spectral point takes with its t-profile cached (16-30 ms).
_UNFOLD_NODE_BUDGET = 1 << 19
# Fewest 16-point panels on a c-window: 24 keeps every value within 3.4e-14
# of a 64-panel, twice-refined rule on ell <= 12, y in [1e-6, 0.9].
_UNFOLD_P_MIN = 24
# A c-window that needs more panels than this may be skipped under its
# bound; the smallest power of 4 at which tol = 1e-6 never ran out of nodes.
_UNFOLD_SKIP_PANELS = 1024


def _unfold_windows(ell: int, y: float, bump: BumpFunction):
    """The c-windows of the unfolding sum and their panels, (c, lo, hi,
    panels) as arrays, or None past the node budget; and the node count.

    The term c reaches the bump where y/(c^2(u^2 + y^2)) lies in [lo, hi],
    that is for c^2 lo y < 1 and u in [sqrt(max(0, y/(hi c^2) - y^2)),
    sqrt(y/(lo c^2) - y^2)].  A window takes max(_UNFOLD_P_MIN, ceil(4 |ell|
    du)) panels, four per wavelength of cos(2 pi ell u).  The node count
    charges a window past _UNFOLD_SKIP_PANELS only the _UNFOLD_P_MIN panels
    of its bound.
    """
    count = math.floor(1.0 / math.sqrt(bump.lo * y))
    if 16 * _UNFOLD_P_MIN * count > _UNFOLD_NODE_BUDGET:
        return None, 16 * _UNFOLD_P_MIN * count
    while count and count * count * bump.lo * y >= 1.0:
        count -= 1
    c = np.arange(1.0, count + 1)
    a = y / (c * c)
    hi = np.sqrt(np.maximum(a / bump.lo - y * y, 0.0))
    lo = np.sqrt(np.maximum(a / bump.hi - y * y, 0.0))
    waves = np.minimum(4.0 * abs(ell) * (hi - lo), 2.0**53)
    panels = np.maximum(_UNFOLD_P_MIN, np.ceil(waves).astype(np.int64))
    nodes = 16 * int(np.where(panels > _UNFOLD_SKIP_PANELS, _UNFOLD_P_MIN, panels).sum())
    return ((c, lo, hi, panels) if nodes <= _UNFOLD_NODE_BUDGET else None), nodes


def _aell_route(ell: int, y: float, w: float, bump: BumpFunction):
    """The c-windows of `_unfold_windows` where unfolding serves (ell, y),
    None where the spectral route does, as its counted blocks fit below
    _AELL_BLOCKS (w <= 688), or ValueError where neither does."""
    windows, nodes = _unfold_windows(ell, y, bump)
    if windows is not None:
        return windows
    if _aell_first_quiet(w) + _AELL_QUIET <= _AELL_BLOCKS:
        return None
    raise ValueError(f"no route serves this point: unfolding takes {float(nodes):.3g} nodes, "
                     f"past its budget of {_UNFOLD_NODE_BUDGET}, and w = 2 pi |ell| y = {w:.3g} "
                     f"is past {_AELL_BLOCK * (_AELL_BLOCKS - _AELL_QUIET - 1):g}, past which "
                     f"the spectral integral ends before {_AELL_QUIET} blocks past t = w")


def _window_sums(y: float, c, lo, hi, panels, integrand) -> np.ndarray:
    """sum over the Gauss-Legendre nodes u of each c-window of weight *
    integrand(u, phi, a), with a = y/c^2 and phi = a/(u^2 + y^2), the
    window's panels tiling [lo, hi] evenly; taken in passes of at most
    _HEAD_PASS_PANELS panels."""
    ends = np.cumsum(panels)
    total = int(ends[-1]) if c.size else 0
    out = np.zeros(c.size)
    for first in range(0, total, _HEAD_PASS_PANELS):
        panel = np.arange(first, min(first + _HEAD_PASS_PANELS, total))
        window = np.searchsorted(ends, panel, side="right")
        count = panels[window]
        j = panel - (ends[window] - count)
        step = (hi - lo)[window] / count
        start = lo[window] + j * step
        us, wt = _gauss_legendre(np.stack([start, start + step], axis=1), _GL16)
        us, wt = us[:, 0], wt[:, 0]
        a = (y / (c[window] * c[window]))[:, None]
        vals = (wt * integrand(us, a / (us * us + y * y), a)).sum(axis=1)
        out += np.bincount(window, weights=vals, minlength=c.size)
    return out


def _ramanujan_sums(ell: int, count: int) -> np.ndarray:
    """S(ell; c) = sum over d | (ell, c) of d mu(c/d) for c = 1..count, from
    one Moebius table and each d <= count dividing ell: ell is not factored."""
    # the table's walk divides by mu(p^e), so the 0 of e >= 2 is marked as 2
    marked = multiplicative_table(count, lambda p, e: 2 if e > 1 else (-1) ** e, np.int64)
    mobius = np.where(np.abs(marked) == 1, marked, 0)
    sums = np.zeros(count + 1)
    for d in range(1, count + 1):
        if ell % d == 0:
            sums[d::d] += d * mobius[1 : count // d + 1]
    return sums[1:]


def _a_ell_unfolded(ell: int, y: float, bump: BumpFunction, windows, tol: float) -> float:
    """a_ell(y) = sum over c of S(ell; c) I_c, I_c = 2 int g(y/(c^2(u^2 +
    y^2))) cos(2 pi ell u) du over the c-window, on `_unfold_windows`.

    A window past _UNFOLD_SKIP_PANELS is skipped where its bound allows:
    with G_c(u) = g(y/(c^2(u^2 + y^2))), which vanishes with all its
    derivatives at the window's ends (or is even at u = 0), integrating by
    parts twice gives |I_c| <= 2 ||G_c''||_1 / (2 pi ell)^2, a
    non-oscillatory integral taken on _UNFOLD_P_MIN panels.  Windows are
    skipped, most panels first, while the sum of their bounds, each times
    |S(ell; c)|, stays within tol/2; ToleranceError if the windows left need
    more nodes than _UNFOLD_NODE_BUDGET.
    """
    c, lo, hi, panels = windows
    sums = _ramanujan_sums(ell, c.size)
    keep = sums != 0
    wide = np.flatnonzero(keep & (panels > _UNFOLD_SKIP_PANELS))
    if wide.size:

        def curvature(us, phi, a):
            d1, d2 = bump.derivatives(phi)
            slope = -2.0 * us * phi * phi / a
            bend = 2.0 * phi * phi / a * (4.0 * us * us * phi / a - 1.0)
            return np.abs(d2 * slope * slope + d1 * bend)

        norms = _window_sums(y, c[wide], lo[wide], hi[wide],
                             np.full(wide.size, _UNFOLD_P_MIN), curvature)
        bounds = np.abs(sums[wide]) * 2.0 * norms / (2.0 * math.pi * abs(ell)) ** 2
        order = np.argsort(-panels[wide], kind="stable")
        keep[wide[order[np.cumsum(bounds[order]) <= 0.5 * tol]]] = False
    nodes = 16 * int(panels[keep].sum())
    if nodes > _UNFOLD_NODE_BUDGET:
        raise ToleranceError(f"tolerance {tol} needs {nodes:.3g} unfolding nodes for "
                             f"ell={ell}, y={y}, past the budget of {_UNFOLD_NODE_BUDGET}")
    phase = 2.0 * math.pi * abs(ell)
    integrals = _window_sums(y, c[keep], lo[keep], hi[keep], panels[keep],
                             lambda us, phi, a: bump.values(phi) * np.cos(phase * us))
    return 2.0 * float(sums[keep] @ integrals)


def a_ell_y(
    mellin: MellinTransform,
    ell: int,
    y: float,
    tol: float = 1e-7,
) -> complex:
    """Fourier coefficient a_ell(y) of the incomplete Eisenstein series of
    the bump of `mellin`, within tol; real, and returned as a complex.

    The route is picked from (ell, y) before any work (`_aell_route`):
      - unfolding, where its node count fits _UNFOLD_NODE_BUDGET: the finite
        sum over c with c^2 lo y < 1 of S(ell; c) times a smooth integral
        over one window (`_a_ell_unfolded`), with no zeta, Gamma, Mellin or
        Bessel values and no stop rule.  For y lo >= 1 no c reaches the
        bump and the value is exactly 0.
      - the spectral integral (`_a_ell_spectral`), for the points past that
        budget, which lie at y below about 5e-7, up to w = 2 pi |ell| y =
        688, where three blocks past the turning point still fit.
      - ValueError where neither serves: y that small with w past 688.
    A w outside [AELL_W_MIN, inf) is refused too (`check_aell_w`).
    """
    if not math.isfinite(y) or y <= 0:
        raise ValueError(f"y must be positive and finite, got {y}")
    if ell == 0:
        raise ValueError("ell must be nonzero")
    windows = _aell_route(ell, y, _aell_w(ell, y), mellin.bump)
    if windows is None:
        return _a_ell_spectral(mellin, ell, y, tol)
    if not windows[0].size:
        return complex(0.0, 0.0)
    return complex(_a_ell_unfolded(ell, y, mellin.bump, windows, tol), 0.0)


# ---------------------------------------------------------------------------
# The spectral weight W(n, ell; Y) and the Stirling ratio check.

def support_prefactor(n: int, ell: int, k: int) -> float:
    """(sqrt(n(n+ell)) / (n + ell/2))^(k-1); exactly 1 when ell = 0."""
    if ell == 0:
        return 1.0
    return math.exp(
        0.5 * (k - 1) * (math.log(n) + math.log(n + ell))
        - (k - 1) * math.log(n + 0.5 * ell)
    )


def w_weight(
    n: int,
    ell: int,
    Y: float,
    k: int,
    bump: BumpFunction = DEFAULT_BUMP,
    nodes: int = 512,
) -> float:
    """W(n, ell; Y) through the Laplace form

        (n(n+ell))^{(k-1)/2} (4 pi)^{k-1} / Gamma(k-1)
            * integral_0^inf g(Y y) y^{k-2} e^{-4 pi (n + ell/2) y} dy,

    evaluated in log domain with max-shift normalization so weights up to
    k ~ 10^4 neither overflow nor underflow prematurely.
    """
    if n < 1 or n + ell < 1:
        raise ValueError("need n >= 1 and n + ell >= 1")
    if Y < 1:
        raise ValueError("Y must be >= 1")
    if k < 12:
        raise ValueError("weight k must be >= 12")
    c = 4.0 * math.pi * (n + 0.5 * ell) / Y
    lo, hi = bump.lo, bump.hi
    h = (hi - lo) / nodes
    us = lo + h * (np.arange(nodes) + 0.5)
    gv = bump.values(us)
    exponent = (k - 2) * np.log(us) - c * us
    shift = float(np.max(exponent))
    integral = h * float(np.sum(gv * np.exp(exponent - shift)))
    if integral <= 0.0:
        return 0.0
    log_w = (
        0.5 * (k - 1) * (math.log(n) + math.log(n + ell))
        + (k - 1) * math.log(4.0 * math.pi)
        - math.lgamma(k - 1)
        - (k - 1) * math.log(Y)
        + shift
        + math.log(integral)
    )
    if math.isnan(log_w):
        raise ArithmeticError(f"underflow guard tripped for (n={n}, ell={ell}, Y={Y}, k={k})")
    return math.exp(log_w) if log_w > -745.0 else 0.0


def w_main_term(
    n: int,
    ell: int,
    Y: float,
    k: int,
    bump: BumpFunction = DEFAULT_BUMP,
    eps: float = 0.5,
) -> tuple[float, float]:
    """Stationary main term of W plus its error envelope (constant 1).

    Returns (prefactor * g(Y(k-1)/(4 pi (n+ell/2))),
             k^eps * (Y/(n+ell/2))^(1+eps)).
    """
    rho = Y * (k - 1) / (4.0 * math.pi * (n + 0.5 * ell))
    main = support_prefactor(n, ell, k) * bump(rho)
    envelope = k**eps * (Y / (n + 0.5 * ell)) ** (1.0 + eps)
    return main, envelope


_LOG1P_TERMS = 17  # (1/3)^32 * 3/35 < 1e-16: the atanh series of _log1p_minus_x
# B_2j / (2j (2j - 1)) for j = 1..10, the Stirling series of log Gamma
_STIRLING_COEFF = tuple(float(_BERNOULLI[2 * j] / (2 * j * (2 * j - 1))) for j in range(1, 11))


@dataclass(frozen=True)
class GammaRatioCheck:
    k: int
    s: complex
    ratio: complex
    error: float
    normalized: float


def _log1p_minus_x(x: complex) -> complex:
    """log(1 + x) - x for |x| <= 1/2, without the cancellation of taking
    the two apart: with u = x / (2 + x), log(1 + x) = 2 atanh(u), so it is
    -x^2 / (2 + x) + 2 (u^3/3 + u^5/5 + ...), and |u| <= 1/3."""
    u = x / (2.0 + x)
    u2 = u * u
    tail = 0.0
    for n in range(_LOG1P_TERMS, 0, -1):
        tail = tail * u2 + 1.0 / (2 * n + 1)
    return -x * x / (2.0 + x) + 2.0 * u * u2 * tail


def _cexpm1(z: complex) -> complex:
    """exp(z) - 1 without cancellation for small |z|."""
    half_sin = math.sin(0.5 * z.imag)
    return complex(math.expm1(z.real) * math.cos(z.imag) - 2.0 * half_sin * half_sin,
                   math.exp(z.real) * math.sin(z.imag))


def gamma_ratio_check(k: int, s: complex) -> GammaRatioCheck:
    """Deviation of Gamma(s+k-1)/(Gamma(k-1) (k-1)^s) from 1.

    Small nonnegative integer s is evaluated as the exact rational product,
    so s = 0 and s = 1 report an error of exactly zero.  For |s| <= z/2,
    with z = k - 1, the log of the ratio is the difference of the two
    Stirling series (DLMF 5.11.1),
        (s - 1/2) s/z + (z + s - 1/2)(log(1 + s/z) - s/z)
            + sum_j B_2j / (2j (2j - 1)) [(z + s)^{1-2j} - z^{1-2j}],
    and the deviation its expm1, so no term of size z log z cancels;
    elsewhere the log-gamma route is used.  normalized is
    error * k / (|s|+1)^2.
    """
    if k < 12:
        raise ValueError("weight k must be >= 12")
    s = complex(s)
    if s.imag == 0.0 and s.real == int(s.real) and 0 <= int(s.real) <= 64:
        m = int(s.real)
        ratio = 1.0
        for j in range(m):
            ratio *= (k - 1 + j) / (k - 1)
        deviation = complex(ratio - 1.0)
    elif abs(s) <= 0.5 * (k - 1):
        z = float(k - 1)
        log_ratio = (s - 0.5) * s / z + (z + s - 0.5) * _log1p_minus_x(s / z)
        inv_zs, inv_z = 1.0 / (z + s), 1.0 / z  # powers of these underflow to 0, never overflow
        for j, c in enumerate(_STIRLING_COEFF, start=1):
            log_ratio += c * (inv_zs ** (2 * j - 1) - inv_z ** (2 * j - 1))
        deviation = _cexpm1(log_ratio)
    else:
        deviation = cmath.exp(clgamma(s + k - 1) - math.lgamma(k - 1) - s * math.log(k - 1)) - 1.0
    error = abs(deviation)
    return GammaRatioCheck(k, s, 1.0 + deviation, error, error * k / (abs(s) + 1.0) ** 2)
