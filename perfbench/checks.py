"""Independent checks of shiftsieve outputs.

Nothing here calls shiftsieve.  Each check either recomputes a value by a
different route (a smallest-prime-factor sieve instead of Dirichlet
convolution, complex Satake parameters instead of the real Chebyshev form,
mpmath instead of the package's quadratures, lattice unfolding instead of
the Mellin-Bessel integral) or tests a property the mathematics forces on
every correct output (Hecke multiplicativity, Ramanujan-type congruences,
the large-sieve inequality, |phi(1/2+it)| = 1).  No check compares against
a stored copy of earlier output.

Every `check_*` function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import random
from fractions import Fraction
from functools import lru_cache
from math import comb, fsum, gcd, isqrt

import numpy as np

# a(n) = sigma_{k-1}(n) mod these primes (products) for the six weights
# with a one-dimensional cusp space: numerators of B_k / 2k.
CONGRUENCE_MODULUS = {
    12: 691,
    16: 3617,
    18: 43867,
    20: 283 * 617,
    22: 131 * 593,
    26: 657931,
}

# Tables at or below this cutoff are also compared, coefficient by
# coefficient, with an exact reference built from the E2 recursion.
EXACT_REFERENCE_MAX = 400

BESSEL_TOL = 1e-8
AELL_TOL = 1e-6
REL_TOL = 1e-12


# ---------------------------------------------------------------------------
# reading outputs

def read_rows(path: str, fmt: str) -> list[dict]:
    """Rows of a CLI output file as dicts (strings or JSON numbers)."""
    with open(path, newline="") as handle:
        if fmt == "csv":
            return list(csv.DictReader(handle))
        return json.load(handle)["rows"]


def _close(got: float, want: float, rel: float = REL_TOL, abs_tol: float = 0.0) -> bool:
    return abs(got - want) <= rel * abs(want) + abs_tol


# ---------------------------------------------------------------------------
# elementary number theory, computed apart from the package

@lru_cache(maxsize=None)
def spf_table(limit: int) -> np.ndarray:
    """Smallest prime factor of every n <= limit (spf[0] = spf[1] = 0)."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if p * p > limit:
            break
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    rest = np.nonzero(spf == 0)[0]
    spf[rest[rest >= 2]] = rest[rest >= 2]
    spf.setflags(write=False)
    return spf


def primes_upto(limit: int) -> list[int]:
    if limit < 2:
        return []
    spf = spf_table(limit)
    n = np.arange(limit + 1)
    return [int(p) for p in np.nonzero((spf == n) & (n >= 2))[0]]


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def divisor_count(n: int) -> int:
    count = 1
    for _, e in factor(n):
        count *= e + 1
    return count


@lru_cache(maxsize=None)
def tau_m_table(m: int, limit: int) -> np.ndarray:
    """tau_m(n) for n <= limit from tau_m(p^e) = C(e+m-1, m-1), peeling
    smallest prime factors; index 0 is 0."""
    spf = spf_table(limit)
    rest = np.arange(limit + 1, dtype=np.int64)
    rest[0] = 1
    value = np.ones(limit + 1, dtype=np.int64)
    value[0] = 0
    local = np.array([comb(e + m - 1, m - 1) for e in range(64)], dtype=np.int64)
    while (rest > 1).any():
        p = np.where(rest > 1, spf[rest], 1)
        e = np.zeros(limit + 1, dtype=np.int64)
        live = rest > 1
        while live.any():
            rest[live] //= p[live]
            e[live] += 1
            live &= rest % p == 0
        value *= local[e]
    value.setflags(write=False)
    return value


def smooth_parts(limit: int, z: float) -> np.ndarray:
    """z-smooth part of every n <= limit, by peeling smallest prime factors."""
    spf = spf_table(limit)
    rest = np.arange(limit + 1, dtype=np.int64)
    rest[0] = 1
    smooth = np.ones(limit + 1, dtype=np.int64)
    while True:
        p = spf[rest]
        take = (rest > 1) & (p <= z)
        if not take.any():
            return smooth
        smooth[take] *= p[take]
        rest[take] //= p[take]


@lru_cache(maxsize=None)
def sigma_mod(power: int, cutoff: int, modulus: int) -> tuple[int, ...]:
    """sigma_power(n) mod modulus for n <= cutoff, by a divisor sieve."""
    sums = [0] * (cutoff + 1)
    for d in range(1, cutoff + 1):
        dp = pow(d, power, modulus)
        for multiple in range(d, cutoff + 1, d):
            sums[multiple] += dp
    return tuple(s % modulus for s in sums)


@lru_cache(maxsize=None)
def eigenform_reference(weight: int, cutoff: int) -> tuple[int, ...]:
    """Exact a(0..cutoff) of the weight-k eigenform, small cutoffs only.

    Delta from the logarithmic derivative q Delta'/Delta = E2, i.e.
    (n-1) tau(n) = -24 sum_{j<n} sigma_1(j) tau(n-j); the other weights as
    Delta * E_{k-12} with E4, E6 from divisor sums and a schoolbook product.
    """
    sigma1 = [0] * (cutoff + 1)
    for d in range(1, cutoff + 1):
        for m in range(d, cutoff + 1, d):
            sigma1[m] += d
    tau = [0] * (cutoff + 1)
    if cutoff >= 1:
        tau[1] = 1
    for n in range(2, cutoff + 1):
        acc = sum(sigma1[j] * tau[n - j] for j in range(1, n))
        tau[n] = -24 * acc // (n - 1)

    def eis(k: int, c: int) -> list[int]:
        out = [1] + [0] * cutoff
        for d in range(1, cutoff + 1):
            dp = c * d ** (k - 1)
            for m in range(d, cutoff + 1, d):
                out[m] += dp
        return out

    def mul(a: list[int], b: list[int]) -> list[int]:
        out = [0] * (cutoff + 1)
        for i, x in enumerate(a):
            if x:
                for j in range(cutoff + 1 - i):
                    out[i + j] += x * b[j]
        return out

    e4, e6 = eis(4, 240), eis(6, -504)
    cofactor = {
        12: None, 16: e4, 18: e6, 20: mul(e4, e4), 22: mul(e4, e6),
        26: mul(mul(e4, e4), e6),
    }[weight]
    return tuple(tau if cofactor is None else mul(tau, cofactor))


# ---------------------------------------------------------------------------
# eigen-tables

def parse_eigenform(rows: list[dict]) -> tuple[list[int], list[float]]:
    """(a, lam) indexed by n, with index 0 unused."""
    a = [0] * (len(rows) + 1)
    lam = [0.0] * (len(rows) + 1)
    for i, row in enumerate(rows, start=1):
        if int(row["n"]) != i:
            raise ValueError(f"row {i} holds n = {row['n']}")
        a[i] = int(row["a_f"])
        lam[i] = float(row["lambda"])
    return a, lam


def check_eigenform(a: list[int], lam: list[float], weight: int, cutoff: int,
                    rng: random.Random) -> list[str]:
    problems = []
    if len(a) != cutoff + 1:
        return [f"{len(a) - 1} rows for cutoff {cutoff}"]
    if a[1] != 1:
        problems.append(f"a(1) = {a[1]}")

    modulus = CONGRUENCE_MODULUS[weight]
    sigma = sigma_mod(weight - 1, cutoff, modulus)
    bad = [n for n in range(1, cutoff + 1) if (a[n] - sigma[n]) % modulus]
    if bad:
        problems.append(f"a(n) != sigma_{weight - 1}(n) mod {modulus} at n = {bad[:5]}")

    half = 0.5 * (weight - 1)
    for n in range(1, cutoff + 1):
        want = _scaled(a[n], n, weight)
        if not _close(lam[n], want, 1e-13, 1e-300):
            problems.append(f"lambda({n}) = {lam[n]!r}, a(n) n^-{half} = {want!r}")
            break

    primes = primes_upto(cutoff)
    for p in primes:
        if a[p] * a[p] > 4 * p ** (weight - 1) or abs(lam[p]) > 2.0:
            problems.append(f"Deligne bound fails at p = {p}")
            break

    for _ in range(300):
        m = rng.randint(2, isqrt(cutoff))
        n = rng.randint(2, cutoff // m)
        if gcd(m, n) == 1 and a[m * n] != a[m] * a[n]:
            problems.append(f"a({m * n}) != a({m}) a({n})")
            break

    small = [p for p in primes if p * p <= cutoff]
    for p in rng.sample(small, min(len(small), 12)):
        pk = p ** (weight - 1)
        q = p
        while q * p <= cutoff:
            if a[p] * a[q] != a[q * p] + pk * a[q // p]:
                problems.append(f"prime-power recursion fails at p = {p}, p^j = {q}")
                break
            q *= p

    if cutoff <= EXACT_REFERENCE_MAX and tuple(a[1:]) != eigenform_reference(weight, cutoff)[1:]:
        problems.append("coefficients differ from the E2-recursion reference")
    return problems


def _scaled(a: int, n: int, weight: int) -> float:
    """a * n^(-(weight-1)/2) = (a / n^((weight-2)/2)) / sqrt(n), one rounding
    in the exact quotient and one in the division."""
    return float(Fraction(a, n ** ((weight - 2) // 2))) / math.sqrt(n)


def satake_l1_sym2(lam_p: dict[int, float], cutoff: int) -> float:
    """prod over p <= cutoff of [(1 - a^2/p)(1 - 1/p)(1 - abar^2/p)]^-1 with
    a = exp(i theta), lambda(p) = 2 cos theta."""
    logs = []
    for p, lam in lam_p.items():
        if p > cutoff:
            continue
        alpha = cmath.exp(1j * math.acos(max(-1.0, min(1.0, lam / 2.0))))
        local = (1 - alpha**2 / p) * (1 - 1 / p) * (1 - alpha.conjugate() ** 2 / p)
        logs.append(-math.log(local.real))
    return math.exp(fsum(logs))


def check_mk(row: dict, weight: int, cutoff: int, lam: list[float]) -> list[str]:
    problems = []
    lam_p = {p: lam[p] for p in primes_upto(cutoff)}
    l_full = satake_l1_sym2(lam_p, cutoff)
    l_half = satake_l1_sym2(lam_p, cutoff // 2)
    m_k = math.exp(fsum(math.log1p(2 * abs(v) / p) for p, v in lam_p.items()))
    m_k /= math.log(weight) ** 2 * l_full
    ems_lhs = fsum((2 * abs(v) - 2) / p for p, v in lam_p.items())
    u = {p: v * v - 1 for p, v in lam_p.items()}
    ems_rhs = fsum(x / p for p, x in u.items()) - fsum(x * x / p for p, x in u.items()) / 9
    got = {k: float(row[k]) for k in ("L_sym2", "gap", "M_k", "sqrt_M_k", "Y_star",
                                       "ems_lhs", "ems_rhs")}
    scale = fsum(1.0 / p for p in lam_p)
    wants = {
        "L_sym2": (l_full, 1e-10, 0.0),
        "gap": (abs(l_full - l_half), 1e-8, 1e-12),
        "M_k": (m_k, 1e-10, 0.0),
        "sqrt_M_k": (math.sqrt(got["M_k"]), REL_TOL, 0.0),
        "Y_star": (max(1.0, 1.0 / got["M_k"]), REL_TOL, 0.0),
        "ems_lhs": (ems_lhs, 0.0, 1e-12 * scale),
        "ems_rhs": (ems_rhs, 0.0, 1e-12 * scale),
    }
    for key, (want, rel, abs_tol) in wants.items():
        if not _close(got[key], want, rel, abs_tol):
            problems.append(f"{key} = {got[key]!r}, recomputed {want!r}")
    if int(row["weight"]) != weight or int(row["cutoff"]) != cutoff:
        problems.append("weight or cutoff echoed wrongly")
    if not got["ems_lhs"] <= got["ems_rhs"]:
        problems.append("ems_lhs > ems_rhs")
    return problems


# ---------------------------------------------------------------------------
# shifted sums

def sieving_z(x: float, epsilon: float) -> float:
    """z = x^(1/s) with s = epsilon log log x."""
    quot = math.log(x) / (epsilon * math.log(math.log(x)))
    return math.inf if quot > 700 else math.exp(quot)


def check_shifted(row: dict, values: np.ndarray, x: float, ell: int, epsilon: float,
                  exact: bool) -> list[str]:
    """Recompute every column of a `shifted` row from the coefficient table
    `values` (|coefficient| by n).  Integer tables are summed exactly."""
    problems = []
    lo, hi = max(1, 1 - ell), int(x)
    z, y = sieving_z(x, epsilon), x**epsilon
    smooth = smooth_parts(hi + max(ell, 0), z)
    ns = np.arange(lo, hi + 1)
    prod = values[ns] * values[ns + ell]
    big1, big2 = smooth[ns] > y, smooth[ns + ell] > y
    add = (lambda v: int(v.sum())) if exact else fsum
    total = add(prod)
    big = add(prod[big1]) + add(prod[big2])
    overlap = add(prod[big1 & big2])
    small = add(prod[~big1 & ~big2])
    if exact and small + big - overlap != total:
        problems.append("partition identity fails on the recomputed sums")

    primes = primes_upto(int(min(z, x)))
    m_x = math.exp(2 * fsum(math.log1p(float(values[p]) / p) for p in primes)) / math.log(x) ** 2
    rhs = x * math.log(x) ** epsilon * m_x * divisor_count(abs(ell))
    sums_rel = 0.0 if exact else REL_TOL
    wants = {
        "s_total": (float(total), sums_rel),
        "s_big": (float(big), sums_rel),
        "s_small": (float(small), sums_rel),
        "m_of_x": (m_x, 1e-11),
        "rhs": (rhs, 1e-11),
        "ratio": (float(total) / rhs, 1e-11),
    }
    for key, (want, rel) in wants.items():
        got = float(row[key])
        if not _close(got, want, rel):
            problems.append(f"{key} = {got!r}, recomputed {want!r}")
    if int(row["ell"]) != ell:
        problems.append("ell echoed wrongly")
    return problems


def check_sieve_bound(value: float, cells: int, contributing: int, s_small: float) -> list[str]:
    problems = []
    if not math.isfinite(value) or value < s_small:
        problems.append(f"sieve-side bound {value!r} below s_small {s_small!r}")
    if not 0 <= contributing <= cells:
        problems.append(f"contributing cells {contributing} outside 0..{cells}")
    return problems


# ---------------------------------------------------------------------------
# sievecheck

def _residue(a: int, a_ell: int, w: int) -> int:
    """0 <= r < a a_ell with r = 0 mod a and r = -w mod a_ell, by search."""
    for t in range(a_ell):
        if (a * t + w) % a_ell == 0:
            return a * t
    raise ValueError("no CRT residue")


def _struck_classes(a: int, a_ell: int, w: int, r: int, p: int) -> int:
    """How many m mod p make p divide b = n/a or b_ell = (n+w)/a_ell,
    n = a a_ell m + r, counted by trying every class."""
    aa = a * a_ell
    return sum(
        1 for m in range(p)
        if ((aa * m + r) // a) % p == 0 or ((aa * m + r + w) // a_ell) % p == 0
    )


def sieve_h(a: int, a_ell: int, w: int, z: int, q: float) -> Fraction:
    """H = sum over square-free q' <= Q built from odd primes <= z of
    prod omega(p) / (p - omega(p)), exact."""
    r = _residue(a, a_ell, w)
    h = {}
    for p in primes_upto(int(z)):
        if p == 2 or p > q:
            continue
        omega = _struck_classes(a, a_ell, w, r, p)
        h[p] = Fraction(omega, p - omega)
    plist = sorted(h)
    total = Fraction(0)
    stack = [(0, 1, Fraction(1))]
    while stack:
        start, modulus, value = stack.pop()
        total += value
        for i in range(start, len(plist)):
            if modulus * plist[i] > q:
                break
            stack.append((i + 1, modulus * plist[i], value * h[plist[i]]))
    return total


def sifted_count(a: int, a_ell: int, w: int, z: int, n_range: int) -> int:
    """m in 1..N whose b and b_ell have no odd prime factor <= z."""
    r = _residue(a, a_ell, w)
    m = np.arange(1, n_range + 1, dtype=np.int64)
    n_v = a * a_ell * m + r
    b, b_ell = n_v // a, (n_v + w) // a_ell
    alive = np.ones(n_range, dtype=bool)
    for p in primes_upto(int(z)):
        if p != 2:
            alive &= (b % p != 0) & (b_ell % p != 0)
    return int(np.count_nonzero(alive))


def check_sievecheck(rows: list[dict], count: int, rng: random.Random) -> list[str]:
    problems = []
    if len(rows) != count:
        return [f"{len(rows)} rows for count {count}"]
    rescan = set(rng.sample(range(count), min(count, 10)))
    for i, row in enumerate(rows):
        a, a_ell, w = int(row["a"]), int(row["a_ell"]), int(row["w"])
        z, n_range, brute = int(row["z"]), int(row["N"]), int(row["brute"])
        q = float(row["Q"])
        h = sieve_h(a, a_ell, w, z, q)
        q2 = Fraction(q) ** 2
        if brute * h > n_range + q2:
            problems.append(f"row {i}: count * H > N + Q^2")
        if not _close(float(row["bound"]), float((n_range + q2) / h), 1e-12):
            problems.append(f"row {i}: bound {row['bound']} != (N+Q^2)/H")
        if str(row["holds"]).lower() != "true":
            problems.append(f"row {i}: holds = {row['holds']}")
        if i in rescan and sifted_count(a, a_ell, w, z, n_range) != brute:
            problems.append(f"row {i}: brute count {brute} differs from a direct scan")
    return problems


# ---------------------------------------------------------------------------
# special functions

@lru_cache(maxsize=None)
def mp_bessel(t: float, w: float) -> float:
    import mpmath
    return float(mpmath.besselk(1j * t, w).real)


def check_bessel(rows: list[dict]) -> list[str]:
    problems = []
    for row in rows:
        t, w, value = float(row["t"]), float(row["w"]), float(row["value"])
        ref = mp_bessel(t, w)
        scale = abs(ref) + math.exp(-0.5 * math.pi * abs(t) - w)
        if abs(value - ref) > BESSEL_TOL * scale:
            problems.append(f"K_i{t}({w}) = {value!r}, mpmath {ref!r}")
        ratio = abs(value) / math.sqrt(math.pi / math.cosh(math.pi * t))
        if not _close(float(row["bound_ratio"]), ratio, 1e-12):
            problems.append(f"bound_ratio at t={t}, w={w} is {row['bound_ratio']}")
    return problems


@lru_cache(maxsize=None)
def mp_theta_phi(re: float, im: float) -> tuple[complex, float]:
    import mpmath
    s = mpmath.mpc(re, im)
    theta = mpmath.pi ** (-s) * mpmath.gamma(s) * mpmath.zeta(2 * s)
    phi = (mpmath.sqrt(mpmath.pi) * mpmath.gamma(s - 0.5) * mpmath.zeta(2 * s - 1)
           / (mpmath.gamma(s) * mpmath.zeta(2 * s)))
    return complex(theta), float(abs(phi))


def check_theta(rows: list[dict]) -> list[str]:
    problems = []
    for row in rows:
        re, im = float(row["re"]), float(row["im"])
        theta, phi = mp_theta_phi(re, im)
        got = complex(float(row["theta_re"]), float(row["theta_im"]))
        if abs(got - theta) > 1e-10 * abs(theta):
            problems.append(f"theta({re}+{im}i) = {got!r}, mpmath {theta!r}")
        abs_phi = float(row["abs_phi"])
        if not _close(abs_phi, phi, 1e-10):
            problems.append(f"|phi({re}+{im}i)| = {abs_phi!r}, mpmath {phi!r}")
        if re == 0.5 and abs(abs_phi - 1.0) > 1e-10:
            problems.append(f"|phi(1/2+{im}i)| = {abs_phi!r}, not 1")
    return problems


def bump(t: float) -> float:
    """The canonical bump on [1, 2]: exp(1 - 1/(1 - u^2)), u = 2t - 3."""
    u = 2.0 * t - 3.0
    return math.exp(1.0 - 1.0 / (1.0 - u * u)) if abs(u) < 1.0 else 0.0


def check_wweight(rows: list[dict], ell: int) -> list[str]:
    problems = []
    for row in rows:
        k, y_val, n = int(row["k"]), float(row["Y"]), int(row["n"])
        w_val, main, env = (float(row[c]) for c in ("w_weight", "main_term", "envelope"))
        centre = n + 0.5 * ell
        prefactor = (math.sqrt(n * (n + ell)) / centre) ** (k - 1)
        want_main = prefactor * bump(y_val * (k - 1) / (4.0 * math.pi * centre))
        want_env = math.sqrt(k) * (y_val / centre) ** 1.5
        if not _close(main, want_main, 1e-11, 1e-300) or not _close(env, want_env, 1e-12):
            problems.append(f"main term or envelope wrong at k={k}, Y={y_val}, n={n}")
        if not abs(w_val - main) <= 5.0 * env:
            problems.append(f"|W - main| > 5 envelope at k={k}, Y={y_val}, n={n}")
    return problems


@lru_cache(maxsize=None)
def mp_gamma_ratio_error(k: int, s: complex) -> float:
    import mpmath
    sm = mpmath.mpc(s.real, s.imag)
    ratio = mpmath.gamma(sm + k - 1) / (mpmath.gamma(k - 1) * mpmath.power(k - 1, sm))
    return float(abs(ratio - 1))


def check_gammaratio(rows: list[dict]) -> list[str]:
    problems = []
    for row in rows:
        k = int(row["k"])
        s = complex(float(row["s_re"]), float(row["s_im"]))
        error, normalized = float(row["error"]), float(row["normalized"])
        if s in (0, 1):
            if error != 0.0:
                problems.append(f"Stirling ratio error {error!r} at s = {s}, not 0")
        elif abs(error - mp_gamma_ratio_error(k, s)) > 1e-12 * k:
            problems.append(f"ratio error at k={k}, s={s} is {error!r}")
        if not _close(normalized, error * k / (abs(s) + 1.0) ** 2, 1e-12):
            problems.append(f"normalized error at k={k}, s={s} is {normalized!r}")
    return problems


_GLN, _GLW = np.polynomial.legendre.leggauss(32)


def _mobius(n: int) -> int:
    out = 1
    for _, e in factor(n):
        if e > 1:
            return 0
        out = -out
    return out


def _ramanujan_sum(ell: int, c: int) -> int:
    g = gcd(abs(ell), c)
    return sum(d * _mobius(c // d) for d in range(1, g + 1) if g % d == 0)


@lru_cache(maxsize=None)
def aell_unfolded(ell: int, y: float) -> float:
    """a_ell(y) by unfolding the incomplete Eisenstein series over c:
    only c with c^2 < 1/y reach the bump, so

        a_ell(y) = sum_c S(ell; c) 2 int g(y / (c^2 (u^2 + y^2))) cos(2 pi ell u) du

    with S the Ramanujan sum.  No zeta, Gamma, Mellin or Bessel function."""
    total = 0.0
    c = 1
    while c * c < 1.0 / y:
        u_hi = math.sqrt(y / (c * c) - y * y)
        lo2 = y / (2 * c * c) - y * y
        u_lo = math.sqrt(lo2) if lo2 > 0 else 0.0
        panels = max(8, int(4 * abs(ell) * (u_hi - u_lo)) + 1)
        edges = np.linspace(u_lo, u_hi, panels + 1)
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
        us = (mid[:, None] + half[:, None] * _GLN[None, :]).ravel()
        wt = (half[:, None] * _GLW[None, :]).ravel()
        g = np.array([bump(y / (c * c * (u * u + y * y))) for u in us])
        integral = 2.0 * float(np.dot(wt, g * np.cos(2 * math.pi * ell * us)))
        total += _ramanujan_sum(ell, c) * integral
        c += 1
    return total


def check_aell(rows: list[dict], ell: int, y: float, a_exp: int = 4, eps: float = 0.1) -> list[str]:
    if len(rows) != 1:
        return [f"{len(rows)} rows for one point"]
    row = rows[0]
    value = float(row["value"])
    problems = []
    want = aell_unfolded(abs(ell), y)
    if abs(value - want) > AELL_TOL:
        problems.append(f"a_{ell}({y}) = {value!r}, unfolding gives {want!r}")
    scale = 1.0 / (abs(ell) * y)
    denom = divisor_count(abs(ell)) * math.sqrt(y) * scale**a_exp * (1.0 + scale) ** eps
    if not _close(float(row["bound_ratio"]), abs(value) / denom, 1e-12):
        problems.append(f"bound_ratio {row['bound_ratio']} at ell={ell}, y={y}")
    return problems


def check_one_error_line(rc, stderr: str, exc) -> list[str]:
    """A rejected input: exit code 1 and exactly one line on stderr."""
    if exc is not None:
        return [f"{type(exc).__name__} escaped cli.main: {exc}"]
    lines = stderr.splitlines()
    if rc != 1 or len(lines) != 1:
        return [f"exit {rc} with {len(lines)} stderr lines, want exit 1 and one line"]
    return []
