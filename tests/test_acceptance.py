"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities once its assertions clear.  Run with -s to watch.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from shiftsieve import arith, equidist as eq, largesieve as ls, qexpansion as qe
from shiftsieve import shifted as sh, specfun as sf
from shiftsieve.cli import main as cli_main

from .oracles import direct_scan_count, k0_decimal

ALL_WEIGHTS = (12, 16, 18, 20, 22, 26)


def report(num, text):
    print(f"\n[criterion {num:02d}] PASS: {text}")


def test_criterion_01_exact_hecke_suite():
    t0 = time.time()
    for k in ALL_WEIGHTS:
        form = qe.eigenform(k, 20_000)
        rep = qe.hecke_verify(form, 20_000)
        assert rep.ok, f"weight {k}: {rep}"
        assert rep.pairs_checked > 40_000
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(1, f"six weights, hecke_verify at 2e4 clean in {elapsed:.1f}s single-threaded")


def test_criterion_02_deligne_bound(forms_1e5):
    primes = arith.prime_table(100_000)
    margins = {}
    for k, form in forms_1e5.items():
        lam = np.abs(form.eigenvalue_array(100_000)[primes])
        violations = int(np.count_nonzero(lam > 2.0))
        assert violations == 0, f"weight {k}"
        margins[k] = 2.0 - float(lam.max())
    worst = min(margins.values())
    report(2, f"|lambda(p)| <= 2 for p <= 1e5, all weights; smallest margin {worst:.6f}")


def test_criterion_03_delta_double_construction():
    eta = qe.delta_qexp(10_000)
    eis = qe.delta_qexp_from_eisenstein(10_000)
    assert eta.coeffs == eis.coeffs
    report(3, "eta-product and (E4^3-E6^2)/1728 agree exactly to n = 1e4")


def test_criterion_04_large_sieve_inequality():
    t0 = time.time()
    rng = random.Random(20260808)
    for i in range(200):
        sys_i, q = ls.random_admissible_system(rng, n_max=100_000, z_max=50)
        count = ls.sift_bruteforce(sys_i)
        h = ls.big_h(q, sys_i)
        assert Fraction(count) * h <= sys_i.n_range + Fraction(q) ** 2, f"instance {i}"
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(4, f"200 seeded systems satisfy count*H <= N+Q^2 exactly in {elapsed:.1f}s")


def test_criterion_05_sifted_model_equivalence():
    rng = random.Random(555)
    for i in range(50):
        sys_i, _ = ls.random_admissible_system(rng, n_max=20_000, z_max=50)
        assert direct_scan_count(sys_i) == ls.sift_bruteforce(sys_i), f"instance {i}"
    report(5, "50 seeded systems: direct roughness scan equals residue-class count")


@pytest.fixture(scope="module")
def partition_grid(delta_1e6):
    handles = {
        "tau2": sh.tau_handle(2, 100_006),
        "lambda_delta": sh.eigenform_handle(delta_1e6, 100_006),
    }
    results = []
    for name, handle in handles.items():
        for x in (10**3, 10**4, 10**5):
            for ell in (1, 2, 6):
                for eps in (0.1, 0.5):
                    params = arith.make_params(x, eps)
                    parts = sh.partition_sums(handle, handle, params, ell)
                    results.append((name, x, ell, eps, params, parts, handle))
    return results


def test_criterion_06_partition_identity(partition_grid):
    for name, x, ell, eps, _params, parts, _h in partition_grid:
        assert parts.identity_gap <= 1e-9, (name, x, ell, eps)
        assert parts.s_total <= parts.s_big + parts.s_small + 1e-9 * parts.s_total
    report(6, f"partition identity to 1e-9 over {len(partition_grid)} configurations")


def test_criterion_07_sieve_side_domination(partition_grid):
    checked = 0
    for name, x, ell, eps, params, parts, handle in partition_grid:
        bound = sh.sieve_side_bound(handle, handle, params, ell)
        assert parts.s_small <= bound.value, (name, x, ell, eps)
        checked += 1
    report(7, f"s_small <= sieve-side bound in all {checked} configurations")


def test_criterion_08_ems_inequality(forms_1e5):
    lam = 0.0
    step = 1e-4
    while lam <= 2.0 + 1e-12:
        chk = eq.ems_prime_check(min(lam, 2.0))
        assert chk.holds, lam
        lam += step
    for special in (1.0, 2.0):
        chk = eq.ems_prime_check(special)
        assert abs(chk.lhs - chk.rhs) <= 1e-12
    for k, form in forms_1e5.items():
        rep = eq.ems_sum_check(form, 100_000)
        assert rep.holds and rep.crosscheck_failures == 0, k
    report(8, "pointwise inequality on the 1e-4 grid and summed form for all six weights")


def test_criterion_09_special_functions():
    k0 = sf.bessel_k_it(0.0, 1.0)
    assert abs(k0 - k0_decimal(1.0)) < 1e-8
    for t in (0.5, 1.0, 5.0):
        assert abs(abs(sf.varphi_s(complex(0.5, t))) - 1.0) < 1e-10
    s = 1.0 + 1e-6
    residue = (s - 1.0) * sf.varphi_s(s)
    assert abs(residue - 3.0 / math.pi) < 1e-6
    report(9, f"K0(1) to 1e-8, |phi|=1 on the critical line, residue within {abs(residue - 3/math.pi):.2e}")


def test_criterion_10_gamma_ratio():
    for k in (100, 1000, 10_000):
        assert sf.gamma_ratio_check(k, 0).error == 0.0
        assert sf.gamma_ratio_check(k, 1).error == 0.0
    worst = 0.0
    for k in (100, 1000, 10_000):
        for s in (0.5, 1.0, complex(1, 1), 2.0, complex(1.1, 10)):
            worst = max(worst, sf.gamma_ratio_check(k, s).normalized)
    assert worst <= 3.0
    report(10, f"normalized Stirling ratio <= 3 on the grid (worst {worst:.3f}); exact zeros at s in {{0,1}}")


def test_criterion_11_w_weight_main_term():
    worst = 0.0
    for k in (50, 100, 500):
        for y_par in (1.0, 10.0):
            scale = y_par * (k - 1) / (4 * math.pi)
            n_lo = max(1, int(scale / 2 - 0.5) - 2)
            n_hi = int(scale - 0.5) + 3
            for n in range(n_lo, n_hi + 1):
                w_val = sf.w_weight(n, 1, y_par, k)
                main, env = sf.w_main_term(n, 1, y_par, k)
                worst = max(worst, abs(w_val - main) / env)
    assert worst <= 5.0
    for n in (1, 10, 500):
        assert sf.support_prefactor(n, 0, 100) == 1.0
    report(11, f"|W - main| within 5x envelope across the grid (worst {worst:.3f}); zero-shift prefactor exactly 1")


def test_criterion_12_theorem2_trend(delta_1e6):
    t0 = time.time()
    handle = sh.eigenform_handle(delta_1e6)
    ratios = {}
    lines = []
    for x in (10**4, 10**5, 10**6):
        rep = sh.theorem2_report(handle, handle, x, 0.1, 1)
        ratios[x] = rep.ratio
        lines.append(
            f"x=1e{int(math.log10(x))}: S={rep.s_total:.6g} M(x)={rep.m_of_x:.6g} "
            f"rhs={rep.rhs:.6g} ratio={rep.ratio:.6g}"
        )
    assert ratios[10**6] <= 2.0 * ratios[10**4]
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(12, "; ".join(lines) + f"; boundedness proxy holds, {elapsed:.0f}s")


def test_criterion_13_cli_determinism(tmp_path):
    commands = [
        ["eigenform", "--weight", "12", "--cutoff", "30"],
        ["shifted", "--function", "tau2", "--x", "1000", "--ell", "1", "--epsilon", "0.5"],
        ["sievecheck", "--count", "15", "--seed", "42"],
        ["mk", "--weight", "12", "--cutoff", "1000"],
        ["specfun", "bessel", "--t", "0,1,5", "--w", "0.1,1,10"],
        ["specfun", "theta", "--re", "2", "--im", "0,1,5"],
        ["specfun", "wweight", "--k", "50", "--Y", "1", "--ell", "1"],
        ["specfun", "gammaratio", "--k", "100,1000", "--s", "0,1,1+1j"],
        ["specfun", "aell", "--ell", "1", "--y", "0.4"],
    ]
    for i, args in enumerate(commands):
        first = tmp_path / f"run{i}_a.csv"
        second = tmp_path / f"run{i}_b.csv"
        assert cli_main(args + ["--out", str(first)]) == 0, args
        assert cli_main(args + ["--out", str(second)]) == 0, args
        assert first.read_bytes() == second.read_bytes(), args
    report(13, f"{len(commands)} CLI commands byte-identical across reruns (seeded)")
