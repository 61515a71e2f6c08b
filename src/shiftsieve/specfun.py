"""Special functions backing the analytic estimates.

Self-contained implementations: Riemann zeta by Euler-Maclaurin with ten
correction terms, complex log-gamma by a Lanczos approximation (reflection
below Re = 1/2), both over arrays too, K-Bessel of imaginary order by
quadrature of the absolutely convergent cosh representation and, batched
over orders, of the rotated exp(pi t/2)-scaled one, plus the Eisenstein
coefficient formulas, the canonical bump weight, its Mellin transform, and
the Laplace-form evaluation of the spectral weight W(n, ell; Y).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

import numpy as np

__all__ = [
    "PoleError",
    "ToleranceError",
    "zeta",
    "cgamma",
    "clgamma",
    "BumpFunction",
    "DEFAULT_BUMP",
    "MellinTransform",
    "bessel_k_it",
    "bessel_k_it_grid",
    "bessel_k_scaled",
    "bessel_k_scaled_grid",
    "bessel_bound_check",
    "BesselBoundCheck",
    "BESSEL_ENVELOPE",
    "theta_s",
    "varphi_s",
    "varphi_ell",
    "a_ell_y",
    "support_prefactor",
    "w_weight",
    "w_main_term",
    "w_weight_contour",
    "gamma_ratio_check",
    "GammaRatioCheck",
    "BESSEL_ORDER_MAX",
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
    if terms is not None:
        n = np.full(s.shape, terms)
    else:
        n = np.maximum(30, (0.8 * np.abs(s.imag)).astype(int) + 20)
    m = np.arange(1.0, n.max())[:, None]
    # m^{-s} split as CPython's complex power splits it: modulus, then phase
    head = m ** -s.real * np.exp(-1j * np.log(m) * s.imag)
    head[m >= n] = 0.0
    acc = head.sum(axis=0)
    n = n.astype(float)
    acc += n ** (1.0 - s) / (s - 1.0)
    acc += 0.5 * n ** (-s)
    rising = np.cumprod(np.concatenate([s[None], (s + _EM_2J - 1.0) * (s + _EM_2J)]), axis=0)
    acc += _EM_COEFF @ (rising * (n ** (-s - 1) * n ** _EM_NPOW))
    return complex(acc[0]) if scalar else acc.reshape(shape)


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


def clgamma(z):
    """Principal log-gamma; accurate to ~1e-13 relative on the needed strips.

    z is a complex number or an array of them (evaluated elementwise).
    """
    if np.ndim(z):
        z = np.asarray(z, dtype=complex)
        reflect = z.real < 0.5
        out = _lanczos_log_gamma(np.where(reflect, 1.0 - z, z), np.log)
        if reflect.any():
            sin_piz = np.sin(np.pi * z[reflect])
            if np.any(sin_piz == 0):
                raise PoleError(f"log-gamma pole at z = {z[reflect][sin_piz == 0][0]}")
            out[reflect] = math.log(math.pi) - np.log(sin_piz) - out[reflect]
        return out
    z = complex(z)
    if z.real < 0.5:
        # reflection: log Gamma(z) = log(pi / sin(pi z)) - log Gamma(1 - z)
        sin_piz = cmath.sin(cmath.pi * z)
        if sin_piz == 0:
            raise PoleError(f"log-gamma pole at z = {z}")
        return cmath.log(cmath.pi) - cmath.log(sin_piz) - clgamma(1.0 - z)
    return _lanczos_log_gamma(z, cmath.log)


def cgamma(z: complex) -> complex:
    return cmath.exp(clgamma(z))


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
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def _grid(self) -> tuple[np.ndarray, np.ndarray, float]:
        if "grid" not in self._cache:
            lo, hi = self.bump.lo, self.bump.hi
            h = (hi - lo) / self.nodes
            ts = lo + h * (np.arange(self.nodes) + 0.5)
            self._cache["grid"] = (np.log(ts), self.bump.values(ts), h)
        return self._cache["grid"]

    def __call__(self, s: complex) -> complex:
        logt, gv, h = self._grid()
        return complex(h * np.sum(gv * np.exp((complex(s) - 1.0) * logt)))

    def values_at(self, ss: np.ndarray) -> np.ndarray:
        """Vectorized G over an array of complex points."""
        logt, gv, h = self._grid()
        return h * (np.exp(np.outer(np.asarray(ss) - 1.0, logt)) @ gv)

    def measured_decay_constant(self, A: int, sigmas, ts) -> float:
        """max |G(sigma + it)| (1 + |t|)^A over the calibration grid."""
        worst = 0.0
        for sig in sigmas:
            for t in ts:
                worst = max(worst, abs(self(complex(sig, t))) * (1.0 + abs(t)) ** A)
        return worst


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


def bessel_k_it_grid(ts: np.ndarray, w: float) -> np.ndarray:
    """K_{it}(w) over an array of orders.  Orders |t| <= 8 share one set of
    cosh-representation nodes; larger ones go through `bessel_k_scaled_grid`,
    as in `bessel_k_it`."""
    ts = np.asarray(ts, dtype=float)
    if w <= 0:
        raise ValueError(f"argument w must be positive, got {w}")
    t_abs = np.abs(ts)
    t_max = float(np.max(t_abs)) if ts.size else 0.0
    if t_max > BESSEL_ORDER_MAX:
        raise ValueError(f"order parameter {t_max} beyond supported {BESSEL_ORDER_MAX}")
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
    Gamma(1/2+it) would amplify quadrature noise by exp(pi t / 2).  For each
    order the stationary region (w cosh u = t) is tiled with Gauss-Legendre
    panels sized by the phase variation; past it the phase is monotone, so
    the tail is summed over half-period chunks and averaged to convergence.
    The chunk edges of all orders come from one array Newton iteration, and
    the head panels of all orders are summed in passes of bounded size.
    """
    ts = np.asarray(ts, dtype=float)
    w = float(w)
    if w <= 0:
        raise ValueError(f"argument w must be positive, got {w}")
    t = np.abs(ts).ravel()

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
    return (head + tail).reshape(ts.shape)


def bessel_k_scaled(t: float, w: float) -> float:
    """exp(pi t / 2) K_{it}(w) for one order: `bessel_k_scaled_grid` at t."""
    return float(bessel_k_scaled_grid(np.array([float(t)]), w)[0])


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
    k = abs(bessel_k_it(t, w))
    scale = (1.0 + abs(t)) / w
    denom = gamma_half_plus_it_abs(t) * scale**A * (1.0 + scale) ** eps
    return BesselBoundCheck(t, w, A, eps, k / denom)


# ---------------------------------------------------------------------------
# Eisenstein coefficient formulas.

def theta_s(s: complex) -> complex:
    """theta(s) = pi^{-s} Gamma(s) zeta(2s)."""
    s = complex(s)
    if abs(s - 0.5) < 1e-8:
        raise PoleError(f"theta pole at s = 1/2 (zeta(2s) pole), got {s}")
    if abs(s.imag) < 1e-8 and abs(s.real - round(s.real)) < 1e-8 and round(s.real) <= 0:
        raise PoleError(f"theta pole at nonpositive integer, got {s}")
    return cmath.exp(-s * math.log(math.pi) + clgamma(s)) * zeta(2.0 * s)


def varphi_s(s: complex) -> complex:
    """The Eisenstein scattering factor

        varphi(s) = sqrt(pi) Gamma(s - 1/2) zeta(2s - 1) / (Gamma(s) zeta(2s))
                  = theta(1-s)/theta(s).

    The Gamma-ratio form is used: the theta quotient hides removable
    pole-zero cancellations at integer s (Gamma poles against trivial
    zeta zeros) that the quotient of computed values cannot resolve.
    """
    s = complex(s)
    if abs(s - 1.0) < 1e-8:
        raise PoleError(f"varphi pole at s = 1, got {s}")
    if abs(2.0 * s - 1.0) < 1e-8:
        raise PoleError(f"varphi singular at s = 1/2, got {s}")
    return (
        math.sqrt(math.pi)
        * cmath.exp(clgamma(s - 0.5) - clgamma(s))
        * zeta(2.0 * s - 1.0)
        / zeta(2.0 * s)
    )


def varphi_ell(ell: int, s: complex) -> complex:
    """varphi_ell(s) = (2/theta(s)) sum over ab = ell of (a/b)^{s - 1/2}."""
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    total = 0.0 + 0.0j
    for a in range(1, ell + 1):
        if ell % a == 0:
            b = ell // a
            total += cmath.exp((complex(s) - 0.5) * math.log(a / b))
    return 2.0 * total / theta_s(s)


_AELL_T_CAP = 700.0  # a_ell_y gives up past this t


def _eisenstein_kernel(ts: np.ndarray) -> np.ndarray:
    """pi^{it} exp(-pi t/2) / (Gamma(1/2+it) zeta(1+2it)) over an array of t.

    The exp(-pi t/2) pairs with the scaled Bessel value so the product
    K_{it}(w)/Gamma(1/2+it) is assembled from O(1) factors.
    """
    it = 1j * ts
    log_num = it * math.log(math.pi) - 0.5 * math.pi * ts - clgamma(0.5 + it)
    return np.exp(log_num) / zeta(1.0 + 2.0 * it)


def a_ell_y(
    mellin: MellinTransform,
    ell: int,
    y: float,
    tol: float = 1e-7,
) -> complex:
    """Fourier coefficient a_ell(y) of the incomplete Eisenstein series.

    a_ell(y) = sqrt(y/pi) * integral over t of
        pi^{it} Psi(-1/2-it) / (Gamma(1/2+it) zeta(1+2it))
        * sum_{ab=|ell|} (a/b)^{it} * K_{it}(2 pi |ell| y) dt,
    truncated once consecutive blocks fall below the tolerance (the Mellin
    transform of the bump decays like exp(-c sqrt|t|), which dictates the
    range).  K_{it}/Gamma(1/2+it) is evaluated through the scaled Bessel
    representation, so large orders stay numerically clean.  The integrand
    at -t is the conjugate of the value at t, hence the integral is twice
    the real part over t >= 0 and the result is real.
    """
    if not math.isfinite(y) or y <= 0:
        raise ValueError(f"y must be positive and finite, got {y}")
    if ell == 0:
        raise ValueError("ell must be nonzero")
    aell = abs(ell)
    w = 2.0 * math.pi * aell * y
    log_ratios = np.array(
        [math.log(a / (aell // a)) for a in range(1, aell + 1) if aell % a == 0]
    )

    block = 4.0
    panels_per_block = 8
    total = 0.0 + 0.0j
    quiet = 0
    k = 0
    while True:
        lo = k * block
        if lo > _AELL_T_CAP:
            raise ToleranceError(
                f"tail tolerance {tol} unattainable below t = {_AELL_T_CAP} for ell={ell}, y={y}"
            )
        edges = np.linspace(lo, lo + block, panels_per_block + 1)
        ts, wt = (a.ravel() for a in _gauss_legendre(edges, _GL16))

        kvals = bessel_k_scaled_grid(ts, w)
        psi = mellin.values_at(-0.5 - 1j * ts)
        kernel = _eisenstein_kernel(ts)
        dsum = np.exp(1j * np.outer(ts, log_ratios)).sum(axis=1)
        contrib = complex(np.dot(wt, psi * kernel * dsum * kvals))
        total += contrib
        if abs(contrib) < tol / 8.0:
            quiet += 1
            if quiet >= 2 and k >= 2:
                break
        else:
            quiet = 0
        k += 1
    value = math.sqrt(y / math.pi) * 2.0 * total.real
    return complex(value, 0.0)


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


def w_weight_contour(
    n: int,
    ell: int,
    Y: float,
    k: int,
    mellin: MellinTransform | None = None,
    sigma: float = 2.0,
    t_max: float = 120.0,
    tol: float = 1e-12,
) -> float:
    """W(n, ell; Y) straight from the contour integral on Re s = sigma.

    Quadrature of G(-s) X^s Gamma(s+k-1)/Gamma(k-1) is only stable for small
    weights; this exists to validate the Laplace form against it.
    """
    if mellin is None:
        mellin = MellinTransform()
    x_arg = Y / (4.0 * math.pi * (n + 0.5 * ell))
    log_x = math.log(x_arg)
    lg_den = math.lgamma(k - 1)
    pref = support_prefactor(n, ell, k)

    block = 4.0
    panels_per_block = 24
    total = 0.0
    quiet = 0
    kk = 0
    while True:
        lo = kk * block
        if lo > t_max:
            raise ToleranceError("contour tail did not fall below tolerance")
        edges = np.linspace(lo, lo + block, panels_per_block + 1)
        ts, wt = (a.ravel() for a in _gauss_legendre(edges, _GL16))
        acc = 0.0
        for t, wgt in zip(ts, wt):
            s = complex(sigma, t)
            val = (
                mellin(-s)
                * cmath.exp(s * log_x + clgamma(s + k - 1) - lg_den)
            )
            acc += wgt * val.real
        total += acc
        if abs(acc) < tol / 8.0:
            quiet += 1
            if quiet >= 2 and kk >= 1:
                break
        else:
            quiet = 0
        kk += 1
    return pref * total / math.pi


@dataclass(frozen=True)
class GammaRatioCheck:
    k: int
    s: complex
    ratio: complex
    error: float
    normalized: float


def gamma_ratio_check(k: int, s: complex) -> GammaRatioCheck:
    """Deviation of Gamma(s+k-1)/(Gamma(k-1) (k-1)^s) from 1.

    Small nonnegative integer s is evaluated as the exact rational product,
    so s = 0 and s = 1 report an error of exactly zero; elsewhere the
    log-gamma route is used.  normalized is error * k / (|s|+1)^2.
    """
    if k < 12:
        raise ValueError("weight k must be >= 12")
    s = complex(s)
    if s.imag == 0.0 and s.real == int(s.real) and 0 <= int(s.real) <= 64:
        m = int(s.real)
        ratio = 1.0
        for j in range(m):
            ratio *= (k - 1 + j) / (k - 1)
        ratio = complex(ratio)
    else:
        ratio = cmath.exp(clgamma(s + k - 1) - math.lgamma(k - 1) - s * math.log(k - 1))
    error = abs(ratio - 1.0)
    return GammaRatioCheck(k, s, ratio, error, error * k / (abs(s) + 1.0) ** 2)
