import itertools
import math
import random
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from shiftsieve import specfun as sf
from shiftsieve.arith import divisors

from .oracles import (
    a_ell_y_per_call,
    aell_unfold,
    bessel_k_it_grid,
    bessel_k_scaled_scalar,
    bessel_modulus_oscillatory,
    cgamma,
    k0_decimal,
    mellin_decay_constant,
    w_weight_contour,
    zeta_scalar,
)


class TestZeta:
    def test_even_values_closed_form(self):
        assert sf.zeta(2).real == pytest.approx(math.pi**2 / 6, rel=1e-14)
        assert sf.zeta(4).real == pytest.approx(math.pi**4 / 90, rel=1e-14)

    def test_zeta3_against_tail_integral_oracle(self):
        n = 4000
        partial = math.fsum(k**-3 for k in range(1, n + 1))
        # integral sandwich: tail between 1/(2(n+1)^2) and 1/(2 n^2)
        low = partial + 0.5 / (n + 1) ** 2
        high = partial + 0.5 / n**2
        val = sf.zeta(3).real
        assert low - 1e-12 <= val <= high + 1e-12

    def test_zero_value(self):
        assert sf.zeta(0).real == pytest.approx(-0.5, abs=1e-12)

    def test_pole_guard(self):
        with pytest.raises(sf.PoleError):
            sf.zeta(1.0 + 1e-9)

    def test_conjugate_symmetry(self):
        s = complex(0.8, 13.0)
        assert sf.zeta(s.conjugate()) == pytest.approx(sf.zeta(s).conjugate(), rel=1e-12)


class TestGamma:
    def test_matches_real_lgamma(self):
        for x in (0.5, 1.0, 2.5, 11.0, 300.0):
            assert sf.clgamma(x).real == pytest.approx(math.lgamma(x), rel=1e-13, abs=1e-13)
            assert abs(sf.clgamma(x).imag) < 1e-13

    def test_integer_factorials(self):
        assert cgamma(5).real == pytest.approx(24.0, rel=1e-13)

    def test_half_plus_it_modulus_closed_form(self):
        for t in (0.0, 0.5, 1.0, 5.0, 20.0):
            assert abs(cgamma(complex(0.5, t))) == pytest.approx(
                sf.gamma_half_plus_it_abs(t), rel=1e-12
            )

    def test_reflection_near_pole(self):
        # Gamma(-1e-6) ~ -1/1e-6 - gamma_euler
        val = cgamma(-1e-6)
        assert val.real == pytest.approx(-1e6 - 0.5772156649, rel=1e-9)

    def test_recursion(self):
        z = complex(1.3, 2.1)
        assert cgamma(z + 1) == pytest.approx(z * cgamma(z), rel=1e-12)

    def test_reflection_far_from_the_real_axis(self):
        # sin(pi z) leaves the float range past |Im z| ~ 226; log Gamma must
        # match mpmath's loggamma there, up to a multiple of 2 pi i, by both
        # the scalar and the array route
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(14)
        zs = [complex(-1.0, 300.0), complex(0.25, 1000.0), complex(0.4999, -200.0),
              complex(-3.5, 1e4)]
        zs += [complex(rng.uniform(-20.0, 0.49),
                       rng.choice((1, -1)) * math.exp(rng.uniform(math.log(200), math.log(1e4))))
               for _ in range(200)]
        vals = sf.clgamma(np.array(zs))
        with mpmath.workdps(30):
            refs = [complex(mpmath.loggamma(z)) for z in zs]
        for z, val, ref in zip(zs, vals, refs):
            for got in (sf.clgamma(z), val):
                diff = got - ref
                diff -= 2j * math.pi * round(diff.imag / (2.0 * math.pi))
                assert abs(diff) <= 1e-13 * abs(ref), (z, got, ref)


class TestBessel:
    def test_k0_against_decimal_series(self):
        for w in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
            assert sf.bessel_k_it(0.0, w) == pytest.approx(k0_decimal(w), abs=1e-12, rel=1e-10)

    def test_k0_at_one_pinned(self):
        assert sf.bessel_k_it(0.0, 1.0) == pytest.approx(0.42102443824070834, rel=1e-10)

    def test_symmetry_in_t(self):
        for t in (0.5, 1.0, 7.0):
            assert sf.bessel_k_it(t, 2.0) == sf.bessel_k_it(-t, 2.0)

    def test_two_independent_quadratures_at_1_1(self):
        cosh_route = sf.bessel_k_it(1.0, 1.0)
        scaled_route = math.exp(-math.pi / 2) * sf.bessel_k_scaled(1.0, 1.0)
        assert cosh_route == pytest.approx(0.2894280370259921, rel=1e-10)
        assert abs(cosh_route - scaled_route) < 1e-8

    def test_modulus_against_oscillatory_oracle(self):
        for t, w in ((0.0, 1.0), (1.0, 1.0), (1.0, 0.5), (2.0, 1.5)):
            ours = abs(sf.bessel_k_it(t, w))
            oracle = bessel_modulus_oscillatory(t, w)
            assert ours == pytest.approx(oracle, rel=1e-8, abs=1e-10)

    def test_scaled_matches_cosh_for_moderate_order(self):
        for t in (0.0, 0.5, 2.0, 5.0, 8.0):
            for w in (0.1, 1.0, 3.0):
                a = sf.bessel_k_it(t, w)
                b = math.exp(-math.pi * t / 2) * sf.bessel_k_scaled(t, w)
                assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    def test_grid_matches_scalar(self):
        ts = np.array([0.0, 0.7, 3.0, 9.0])
        grid = bessel_k_it_grid(ts, 1.3)
        for t, val in zip(ts, grid):
            assert val == pytest.approx(sf.bessel_k_it(float(t), 1.3), rel=1e-12, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sf.bessel_k_it(0.0, 0.0)
        with pytest.raises(ValueError):
            sf.bessel_k_it(51.0, 1.0)


class TestBesselLargeOrder:
    # K_{it}(w) from mpmath 1.3.0 at 30 digits, printed by
    # python -c "import mpmath; mpmath.mp.dps = 30; print([float(mpmath.besselk(1j * t, w).real)
    #            for t, w in ((30, 1), (40, 10), (20, 0.1), (50, 0.1))])"
    MPMATH = (
        (30.0, 1.0, -9.186127618251677e-22),
        (40.0, 10.0, 1.1871170083975645e-28),
        (20.0, 0.1, 1.013243740305281e-15),
        (50.0, 0.1, 2.091513585765477e-35),
    )

    def test_against_mpmath(self):
        for t, w, ref in self.MPMATH:
            scale = abs(ref) + math.exp(-math.pi * t / 2 - w)
            assert abs(sf.bessel_k_it(t, w) - ref) <= 1e-12 * scale
            assert sf.bessel_k_it(-t, w) == sf.bessel_k_it(t, w)

    def test_grid_against_mpmath(self):
        # K_{30i}(1) and K_{40i}(1) from mpmath 1.3.0 at 30 digits
        grid = bessel_k_it_grid(np.array([30.0, 40.0, -30.0, 2.0]), 1.0)
        for val, ref in zip(grid, (-9.186127618251677e-22, -1.70044128098042e-28)):
            assert val == pytest.approx(ref, rel=1e-9)
        assert grid[2] == grid[0]
        assert grid[3] == pytest.approx(sf.bessel_k_it(2.0, 1.0), rel=1e-12)


class TestDebye:
    """The Debye route of `bessel_k_scaled_grid` for large orders."""

    # exp(pi t/2) K_{it}(w) from mpmath 1.3.0 at 30 digits, printed by
    # python -c "import mpmath; mpmath.mp.dps = 30; print([float((mpmath.exp(mpmath.pi * t / 2)
    #            * mpmath.besselk(1j * t, w)).real) for t, w in ((30, 1.88), (100, 1.88), (60, 10))])"
    MPMATH = (
        (30.0, 1.88, -0.2930003962723569),
        (100.0, 1.88, 0.017128774783153493),
        (60.0, 10.0, 0.23598723309645828),
    )

    def test_polynomials_match_dlmf(self):
        # DLMF 10.41.10: u_1, u_2, u_3 written out
        def poly(coeffs, denom):
            return tuple(Fraction(c, denom) for c in coeffs)

        assert sf._debye_u(0) == (1,)
        assert sf._debye_u(1) == poly((0, 3, 0, -5), 24)
        assert sf._debye_u(2) == poly((0, 0, 81, 0, -462, 0, 385), 1152)
        assert sf._debye_u(3) == poly((0, 0, 0, 30375, 0, -369603, 0, 765765, 0, -425425), 414720)
        for k in range(sf._DEBYE_TERMS + 1):
            # only the powers p^k, p^(k+2), ..., p^(3k) occur
            coeffs = sf._debye_u(k)
            assert len(coeffs) == 3 * k + 1 and coeffs[-1] != 0
            assert all(c == 0 for j, c in enumerate(coeffs) if j < k or (j - k) % 2)

    def test_against_mpmath(self):
        for t, w, ref in self.MPMATH:
            value, omitted = sf._debye_scaled(np.array([t]), w)
            assert omitted[0] < sf._DEBYE_TOL
            assert abs(value[0] - ref) <= 2e-14
            assert abs(sf.bessel_k_scaled(t, w) - ref) <= 2e-14

    @staticmethod
    def _switch(w: float) -> float:
        """The first order of a 1/64-spaced grid from which on every order takes the Debye route."""
        ts = w + 1.0 + np.arange(0.0, 200.0, 1.0 / 64)
        _, omitted = sf._debye_scaled(ts, w)
        return float(ts[np.flatnonzero(omitted >= sf._DEBYE_TOL)[-1] + 1])

    def test_agrees_with_quadrature_across_switch(self):
        for w in (0.63, 1.88, 9.4, 30.0):
            switch = self._switch(w)
            ts = np.concatenate([switch + np.linspace(-1.0, 4.0, 11), [400.0, 700.0]])
            debye, _ = sf._debye_scaled(ts, w)
            grid = sf.bessel_k_scaled_grid(ts, w)
            for t, d_val, g_val in zip(ts, debye, grid):
                ref = bessel_k_scaled_scalar(t, w)
                assert abs(d_val - ref) <= 1e-13, (w, t)
                assert abs(g_val - ref) <= 1e-13, (w, t)

    def test_switch_follows_first_omitted_term(self):
        switches = [self._switch(w) for w in (0.05, 1.88, 30.0)]
        assert switches == sorted(switches)
        # below the switch the grid is the quadrature, above it the expansion
        for w, switch in zip((0.05, 1.88, 30.0), switches):
            below, above = switch - 1.0 / 64, switch
            assert sf.bessel_k_scaled_grid(np.array([below]), w)[0] == (
                sf._quadrature_scaled(np.array([below]), w)[0])
            assert sf.bessel_k_scaled_grid(np.array([above]), w)[0] == (
                sf._debye_scaled(np.array([above]), w)[0][0])


class TestAellBlocks:
    """The block-shifted Mellin and zeta sums of `a_ell_y` against the direct
    evaluations they replace, at blocks up to t = 700."""

    BLOCKS = (0, 1, 50, 174)

    def _blocks(self, mellin):
        return [sf._aell_block(mellin, k) for k in self.BLOCKS]

    def test_blocks_cover_every_start_up_to_the_cap(self):
        # the count the loop `while lo <= _AELL_T_CAP: lo += _AELL_BLOCK` gave
        assert sf._AELL_BLOCKS == 176
        assert sf._AELL_BLOCK * (sf._AELL_BLOCKS - 1) <= sf._AELL_T_CAP
        assert sf._AELL_BLOCK * sf._AELL_BLOCKS > sf._AELL_T_CAP

    def test_block_nodes(self, mellin):
        for k, (ts, wt, _, _) in zip(self.BLOCKS, self._blocks(mellin)):
            assert ts.shape == wt.shape == (128,)
            assert 4 * k < ts[0] and ts[-1] < 4 * k + 4
            assert math.fsum(wt) == pytest.approx(4.0, rel=1e-14)

    def test_mellin_matches_values_at(self, mellin):
        for ts, _, psi, _ in self._blocks(mellin):
            direct = mellin.values_at(-0.5 - 1j * ts)
            assert np.max(np.abs(psi - direct)) <= 1e-15

    def test_zeta_matches_zeta(self, mellin):
        for ts, _, _, zeta_1_2it in self._blocks(mellin):
            direct = sf.zeta(1.0 + 2.0j * ts)
            assert np.max(np.abs(zeta_1_2it - direct) / np.abs(direct)) <= 1e-12


class TestBatchedPaths:
    """The array paths against the scalar loops they replace."""

    def test_grid_matches_scalar_reference(self):
        for w in (0.05, 0.7, 3.0, 30.0):
            ts = np.array([0.0, w, w * (1 + 1e-9), w + 1e-3, 1.0, 8.0, 37.5, 150.0, 400.0])
            grid = sf.bessel_k_scaled_grid(ts, w)
            assert grid.shape == ts.shape
            for t, val in zip(ts, grid):
                assert abs(val - bessel_k_scaled_scalar(t, w)) <= 1e-12

    def test_grid_keeps_shape_and_symmetry(self):
        ts = np.array([[0.5, -0.5], [12.0, -12.0]])
        grid = sf.bessel_k_scaled_grid(ts, 1.1)
        assert grid.shape == (2, 2)
        assert np.array_equal(grid[:, 0], grid[:, 1])

    def test_single_element_grid_is_scalar(self):
        for t, w in ((0.0, 1.0), (3.3, 0.2), (120.0, 7.0)):
            assert sf.bessel_k_scaled_grid(np.array([t]), w)[0] == sf.bessel_k_scaled(t, w)

    def test_grid_domain_error(self):
        with pytest.raises(ValueError):
            sf.bessel_k_scaled_grid(np.array([1.0]), 0.0)

    def test_zeta_array_matches_scalar_reference(self):
        ts = np.concatenate([np.linspace(0.01, 700.0, 157), [0.5, 12.25, 99.9]])
        ss = 1.0 + 2.0j * ts
        vals = sf.zeta(ss)
        assert vals.shape == ss.shape
        for s, val in zip(ss, vals):
            ref = zeta_scalar(s)
            assert abs(val - ref) <= 1e-13 * abs(ref)

    def test_zeta_scalar_in_scalar_out(self):
        val = sf.zeta(complex(0.8, 13.0))
        assert isinstance(val, complex)
        assert val == pytest.approx(zeta_scalar(complex(0.8, 13.0)), rel=1e-13)
        assert sf.zeta(3, terms=50) == pytest.approx(zeta_scalar(3, terms=50), rel=1e-14)

    def test_zeta_array_pole_guard(self):
        with pytest.raises(sf.PoleError):
            sf.zeta(np.array([2.0, 1.0 + 1e-9]))

    def test_clgamma_array_matches_scalar(self):
        zs = np.array([0.5 + 3.0j, 0.5 + 250.0j, 2.5, 11.0 - 4.0j, -0.3 + 0.2j, -2.5])
        vals = sf.clgamma(zs)
        for z, val in zip(zs, vals):
            ref = sf.clgamma(complex(z))
            assert abs(val - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_aell_rejects_nonfinite_y_at_once(self, mellin):
        for y in (math.nan, math.inf):
            with pytest.raises(ValueError):
                sf.a_ell_y(mellin, 1, y)


class TestBesselBound:
    def test_grid_ratios_below_envelope(self):
        worst = 0.0
        for t in (0, 1, 5):
            for w in (0.1, 1, 10):
                for a_exp in (0, 2):
                    chk = sf.bessel_bound_check(t, w, A=a_exp, eps=0.1)
                    assert math.isfinite(chk.ratio)
                    assert chk.holds
                    worst = max(worst, chk.ratio)
        assert worst <= sf.BESSEL_ENVELOPE

    def test_a0_eps0_is_gamma_normalized(self):
        chk = sf.bessel_bound_check(1.0, 1.0, A=0, eps=0.0)
        expected = abs(sf.bessel_k_it(1.0, 1.0)) / sf.gamma_half_plus_it_abs(1.0)
        assert chk.ratio == pytest.approx(expected, rel=1e-12)

    def test_large_w_decay(self):
        ratios = [sf.bessel_bound_check(1.0, w, A=0, eps=0.0).ratio for w in (1.0, 5.0, 20.0)]
        assert ratios[0] > ratios[1] > ratios[2]


class TestEisensteinFormulas:
    def test_theta_at_two(self):
        # pi^-2 Gamma(2) zeta(4) = pi^2/90
        assert sf.theta_s(2.0) == pytest.approx(math.pi**2 / 90, rel=1e-12)

    def test_phi_unit_modulus_on_critical_line(self):
        for t in (0.5, 1.0, 5.0):
            assert abs(sf.varphi_s(complex(0.5, t))) == pytest.approx(1.0, abs=1e-10)

    def test_phi_residue_three_over_pi(self):
        s = 1.0 + 1e-6
        val = (s - 1.0) * sf.varphi_s(s)
        assert abs(val - 3.0 / math.pi) < 1e-6

    def test_residue_limit_trend(self):
        deviations = []
        for j in (3, 4, 5):
            s = 1.0 + 10.0**-j
            deviations.append(abs((s - 1.0) * sf.varphi_s(s) - 3.0 / math.pi))
        assert deviations[0] > deviations[1] > deviations[2]

    def test_phi_equals_theta_quotient(self):
        for s in (complex(0.7, 0.3), complex(0.5, 2.0), complex(1.4, -1.1)):
            assert sf.varphi_s(s) == pytest.approx(
                sf.theta_s(1 - s) / sf.theta_s(s), rel=1e-11
            )

    def test_phi_finite_at_integer_points(self):
        # theta-quotient has a removable pole/zero pair here; phi is finite
        val = sf.varphi_s(2.0)
        expected = (
            math.sqrt(math.pi)
            * math.gamma(1.5)
            / math.gamma(2.0)
            * sf.zeta(3).real
            / sf.zeta(4).real
        )
        assert val.real == pytest.approx(expected, rel=1e-12)
        assert abs(val.imag) < 1e-14

    def test_varphi_ell_single_divisor(self):
        s = complex(0.7, 1.3)
        assert sf.varphi_ell(1, s) == pytest.approx(2.0 / sf.theta_s(s), rel=1e-12)

    def test_varphi_ell_divisor_sum(self):
        s = complex(0.6, 0.4)
        expected = (
            2.0
            / sf.theta_s(s)
            * sum((a / (6 // a)) ** (s - 0.5) for a in (1, 2, 3, 6))
        )
        assert sf.varphi_ell(6, s) == pytest.approx(expected, rel=1e-12)

    def test_varphi_ell_large_ell_by_its_divisors(self):
        # sum over ab = ell of (a/b)^{s-1/2} = ell^{1/2-s} sigma_{2s-1}(ell), and
        # sigma_c(2^10 5^10) is a product of two geometric sums
        s = complex(2.0, 1.0)
        c = 2 * s - 1
        sigma = math.prod((p ** (11 * c) - 1) / (p**c - 1) for p in (2, 5))
        start = time.perf_counter()
        value = sf.varphi_ell(10**10, s)
        assert time.perf_counter() - start < 1.0
        assert value == pytest.approx(2.0 / sf.theta_s(s) * 1e10 ** (0.5 - s) * sigma, rel=1e-10)

    def test_pole_guards(self):
        with pytest.raises(sf.PoleError):
            sf.theta_s(0.5)
        with pytest.raises(sf.PoleError):
            sf.theta_s(0.0)


class TestMellin:
    def test_bump_shape(self):
        g = sf.DEFAULT_BUMP
        assert g(1.0) == 0.0 and g(2.0) == 0.0 and g(0.5) == 0.0
        assert g(1.5) == 1.0
        assert 0 < g(1.2) < 1

    def test_positive_on_reals(self, mellin):
        for sigma in (-2.0, -1.0, 0.0, 1.0, 2.0):
            val = mellin(sigma)
            assert val.real > 0 and abs(val.imag) < 1e-15

    def test_node_count_converged(self):
        coarse = sf.MellinTransform(nodes=512)
        fine = sf.MellinTransform(nodes=2048)
        for s in (complex(-1, 0), complex(-0.5, -10), complex(2, 25)):
            assert coarse(s) == pytest.approx(fine(s), rel=1e-10, abs=1e-13)

    def test_rapid_decay_envelope(self, mellin):
        # |G|(1+t)^A peaks near t ~ (A / c)^2 for the Gevrey-type bump;
        # calibrate through the peak, then check decay holds past it
        a_exp = 4
        c4 = mellin_decay_constant(mellin, a_exp, sigmas=(-2, -0.5, 0, 2), ts=range(0, 151, 5))
        assert math.isfinite(c4)
        for sigma in (-2.0, -0.5, 2.0):
            for t in (200.0, 260.0, 320.0):
                assert abs(mellin(complex(sigma, t))) <= c4 * (1 + t) ** -a_exp

    def test_values_at_matches_scalar(self, mellin):
        ss = np.array([complex(-0.5, -3.0), complex(1.0, 7.0)])
        vals = mellin.values_at(ss)
        for s, v in zip(ss, vals):
            assert v == pytest.approx(mellin(complex(s)), rel=1e-13)


class TestAell:
    def test_against_unfolding_oracle(self, mellin):
        for ell, y in ((1, 0.1), (2, 0.3)):
            ours = sf.a_ell_y(mellin, ell, y, tol=1e-7).real
            oracle = aell_unfold(ell, y, mellin.bump)
            assert abs(ours - oracle) < 5e-7

    def test_sign_of_shift_irrelevant(self, mellin):
        plus = sf.a_ell_y(mellin, 2, 0.2, tol=1e-6)
        minus = sf.a_ell_y(mellin, -2, 0.2, tol=1e-6)
        assert abs(plus) == pytest.approx(abs(minus), rel=1e-9)

    def test_imag_part_zero(self, mellin):
        assert sf.a_ell_y(mellin, 1, 0.25, tol=1e-6).imag == 0.0

    def test_large_ell_y_decay(self, mellin):
        # |l| y >= 10 squashes the coefficient far below 1e-6 sqrt(y)
        for ell, y in ((2, 5.0), (10, 1.0)):
            val = abs(sf.a_ell_y(mellin, ell, y, tol=1e-8))
            assert val < 1e-6 * math.sqrt(y)

    def test_large_shift_returns_quickly(self, mellin):
        # the divisors of |ell| come from its factorization, not a scan of
        # 1..|ell|, which took over 20 s at |ell| = 10**10
        for ell in (10**10, -(10**10)):
            start = time.perf_counter()
            val = sf.a_ell_y(mellin, ell, 0.3, tol=1e-6)
            assert time.perf_counter() - start < 5.0
            assert abs(val) < 1e-20

    def test_validation(self, mellin):
        with pytest.raises(ValueError):
            sf.a_ell_y(mellin, 0, 0.5)
        with pytest.raises(ValueError):
            sf.a_ell_y(mellin, 1, 0.0)


class TestAellProfile:
    """The process-wide t-profile cache that `a_ell_y` reads its ell- and
    y-independent factors from, against the per-call loop it replaced."""

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        sf._aell_sums.cache_clear()
        sf._aell_profile.cache_clear()
        yield
        sf._aell_sums.cache_clear()
        sf._aell_profile.cache_clear()

    @staticmethod
    def count_block_builds(monkeypatch) -> list:
        builds = []
        real = sf._aell_block

        def counted(mellin, k):
            builds.append(k)
            return real(mellin, k)

        monkeypatch.setattr(sf, "_aell_block", counted)
        return builds

    def test_bitwise_equal_to_per_call_loop(self):
        # three transforms called interleaved, so no key can serve another's
        # profile, at points in a seeded shuffled order
        transforms = (sf.MellinTransform(), sf.MellinTransform(nodes=512),
                      sf.MellinTransform(sf.BumpFunction(1.0, 3.0)))
        points = list(itertools.product(range(3), (1, -1, 2, -2, 3, 6, 12),
                                        (0.1, 0.2014, 0.3, 0.5), (1e-6, 1e-7)))
        random.Random(12).shuffle(points)
        values = {}
        for m, ell, y, tol in points:
            got = sf.a_ell_y(transforms[m], ell, y, tol)
            assert got == a_ell_y_per_call(transforms[m], ell, y, tol), (m, ell, y, tol)
            values[m, ell, y, tol] = got
        for (m, ell, y, tol), got in values.items():
            if ell < 0:
                assert got == values[m, -ell, y, tol]
        assert sf._aell_sums.cache_info().currsize == 3

    def test_equal_transforms_share_one_entry(self, monkeypatch):
        builds = self.count_block_builds(monkeypatch)
        first = sf.a_ell_y(sf.MellinTransform(), 1, 0.3, tol=1e-6)
        built = len(builds)
        assert sf.a_ell_y(sf.MellinTransform(), 1, 0.3, tol=1e-6) == first
        assert len(builds) == built
        assert sf._aell_sums.cache_info().currsize == 1
        assert sf._aell_profile.cache_info().currsize == built

    def test_cache_clear_rebuilds(self, monkeypatch):
        builds = self.count_block_builds(monkeypatch)
        first = sf.a_ell_y(sf.MellinTransform(), 1, 0.3, tol=1e-6)
        built = len(builds)
        # the benchmark's reset: every module-level cache_clear
        for value in list(vars(sf).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
        assert sf._aell_sums.cache_info().currsize == 0
        assert sf._aell_profile.cache_info().currsize == 0
        assert sf.a_ell_y(sf.MellinTransform(), 1, 0.3, tol=1e-6) == first
        assert len(builds) == 2 * built

    def test_later_point_reuses_earlier_blocks(self, mellin, monkeypatch):
        builds = self.count_block_builds(monkeypatch)
        sf.a_ell_y(mellin, 12, 0.5, tol=1e-6)  # w = 37.7: stops after a few blocks
        early = [sf._aell_profile(mellin, k) for k in builds]
        sf.a_ell_y(mellin, 1, 0.3, tol=1e-6)  # w = 1.9: reads far further
        assert builds == list(range(len(builds)))  # no block built twice
        assert len(builds) > len(early) + 10
        assert all(sf._aell_profile(mellin, k) is block for k, block in enumerate(early))

    def test_failed_block_leaves_no_entry(self, mellin, monkeypatch):
        # a block that raises must not be cached, or a rerun would skip it
        real = sf._aell_block

        def failing(m, k):
            if k == 2:
                raise MemoryError
            return real(m, k)

        monkeypatch.setattr(sf, "_aell_block", failing)
        with pytest.raises(MemoryError):
            sf.a_ell_y(mellin, 1, 0.3, tol=1e-6)
        assert sf._aell_profile.cache_info().currsize == 2
        monkeypatch.undo()
        assert sf.a_ell_y(mellin, 1, 0.3, tol=1e-6) == a_ell_y_per_call(mellin, 1, 0.3, tol=1e-6)


class TestAellChunks:
    """The Debye values and divisor sums that `a_ell_y` takes per chunk of
    blocks, against the per-block loop of `a_ell_y_per_call`."""

    # (ell, y, tol) with the last block read at the end, the start and the
    # middle of the chunk of blocks 80-95; two with a chunk
    # that has blocks of both routes (w = 22.6 and 18.8); and ell = 1e10 (w =
    # 1.9e10), which stops at the end of the first chunk (0-2)
    POINTS = (
        (1, 0.5, 1e-6, 95),
        (3, 0.2, 1e-6, 80),
        (2, 0.1, 1e-6, 88),
        (30, 0.12, 1e-6, 89),
        (100, 0.03, 1e-6, 90),
        (10**10, 0.3, 1e-6, 2),
    )
    # 2^4 3^2 5 7 11 13 17 19, with 960 divisors
    HIGHLY_DIVISIBLE = 232792560

    @staticmethod
    def record(monkeypatch, name) -> list:
        """The arguments of each call of specfun.<name>, into the list returned."""
        calls = []
        real = getattr(sf, name)

        def recorded(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sf, name, recorded)
        return calls

    @pytest.mark.parametrize("ell, y, tol, last", POINTS,
                             ids=["chunk-end", "chunk-start", "mid-chunk", "mixed-30",
                                  "mixed-100", "no-debye"])
    def test_bitwise_equal_to_per_call_loop(self, mellin, monkeypatch, ell, y, tol, last):
        reads = self.record(monkeypatch, "_aell_profile")
        got = sf.a_ell_y(mellin, ell, y, tol)
        assert [k for _, k in reads] == list(range(last + 1))
        assert got == a_ell_y_per_call(mellin, ell, y, tol)

    def test_chunks_named_mixed_take_both_routes(self):
        edges = sf._AELL_CHUNK_EDGES
        for ell, y, _, last in self.POINTS[3:5]:
            mixed = []
            for lo, hi in zip(edges, edges[1:]):
                ts, _ = sf._aell_nodes(lo, hi - lo)
                _, quadrature = sf._debye_split(ts, 2.0 * math.pi * ell * y)
                per_block = quadrature.reshape(hi - lo, -1)
                if per_block[0].all() and not per_block[-1].all():
                    mixed.append(lo)
            assert mixed and mixed[0] <= last
        ts, _ = sf._aell_nodes(0, sf._AELL_BLOCKS)
        assert sf._debye_split(ts, 2.0 * math.pi * 10**10 * 0.3)[1].all()

    def test_chunk_edges_at_most_double_the_blocks_read(self):
        edges = sf._AELL_CHUNK_EDGES
        assert edges[:2] == (0, 3) and edges[-1] == sf._AELL_BLOCKS
        for lo, hi in zip(edges[1:], edges[2:]):
            assert 0 < hi - lo <= min(lo, sf._AELL_CHUNK)
        assert max(b - a for a, b in zip(edges, edges[1:])) == sf._AELL_CHUNK

    def test_early_stop_builds_only_the_first_chunk(self, mellin, monkeypatch):
        nodes = self.record(monkeypatch, "_aell_nodes")
        sf.a_ell_y(mellin, 10**10, 0.3, 1e-6)
        assert nodes == [(0, 3)]

    def test_divisor_sums_split_by_cells_equal_one_pass(self):
        ts, _ = sf._aell_nodes(0, sf._AELL_CHUNK)
        for ell in (1, 6, 720720, self.HIGHLY_DIVISIBLE):
            log_ratios = np.array([math.log(a / (ell // a)) for a in divisors(ell)])
            whole = np.exp(1j * np.outer(ts, log_ratios)).sum(axis=1)
            assert np.array_equal(sf._divisor_sums(ts, log_ratios), whole)

    def test_divisor_sums_of_highly_divisible_ell_a_block_at_a_time(self, mellin):
        # 128 x 960 complex terms take 2 MB a matrix; a 16-block chunk at once would take 31 MB
        sf.a_ell_y(mellin, 1, 0.3, 1e-6)  # the profile blocks, outside the measure
        tracemalloc.start()
        try:
            value = sf.a_ell_y(mellin, self.HIGHLY_DIVISIBLE, 0.3, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert value == a_ell_y_per_call(mellin, self.HIGHLY_DIVISIBLE, 0.3, 1e-6)

    def test_chunk_nodes_are_the_block_nodes(self, mellin):
        ts, wt = sf._aell_nodes(0, sf._AELL_BLOCKS)
        for k in (0, 15, 16, 100, sf._AELL_BLOCKS - 1):
            block_ts, block_wt, _ = sf._aell_profile(mellin, k)
            assert np.array_equal(ts[128 * k:128 * (k + 1)], block_ts)
            assert np.array_equal(wt[128 * k:128 * (k + 1)], block_wt)

    @pytest.mark.parametrize("ell, y", [(1, 0.3), (12, 0.25), (30, 0.12), (6, 1.0)])
    def test_debye_once_per_chunk_and_quadrature_as_per_block(self, mellin, monkeypatch,
                                                                ell, y):
        reads = self.record(monkeypatch, "_aell_profile")
        debye = self.record(monkeypatch, "_debye_scaled")
        quadrature = self.record(monkeypatch, "_quadrature_scaled")
        sf.a_ell_y(mellin, ell, y, 1e-6)
        last = max(k for _, k in reads)
        assert len(debye) <= sum(lo <= last for lo in sf._AELL_CHUNK_EDGES)
        chunked = list(quadrature)
        quadrature.clear()
        a_ell_y_per_call(mellin, ell, y, 1e-6)
        assert len(chunked) == len(quadrature) > 0
        for (t, w), (t_ref, w_ref) in zip(chunked, quadrature):
            assert w == w_ref and t.dtype == t_ref.dtype and np.array_equal(t, t_ref)

    @pytest.mark.parametrize("ell, y", [(1, 1e-307), (1, 2.4930857834148824e-306),
                                        (4 * 10**16, 1e300)],
                             ids=["tiny", "below-floor", "past-float"])
    def test_w_outside_the_quadrature_range_refused_before_any_block(self, mellin,
                                                                     monkeypatch, ell, y):
        reads = self.record(monkeypatch, "_aell_profile")
        with pytest.raises(ValueError, match="w = 2 pi"):
            sf.a_ell_y(mellin, ell, y)
        assert reads == []

    def test_w_floor_admitted(self, mellin):
        # the smallest y with 2 pi y >= AELL_W_MIN; no overflow over the t-range
        y = 2.4930857834148828e-306
        assert 2.0 * math.pi * y >= sf.AELL_W_MIN > 2.0 * math.pi * np.nextafter(y, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ts, _ = sf._aell_nodes(0, sf._AELL_BLOCKS)
            assert np.isfinite(sf.bessel_k_scaled_grid(ts, sf.AELL_W_MIN)).all()
            assert sf.a_ell_y(mellin, 1, y, tol=1e-6) == a_ell_y_per_call(mellin, 1, y, 1e-6)


class TestWWeight:
    def test_prefactor_exactly_one_at_zero_shift(self):
        for n in (1, 7, 1000):
            for k in (12, 100):
                assert sf.support_prefactor(n, 0, k) == 1.0

    def test_nonnegative_and_support(self):
        assert sf.w_weight(8, 1, 10.0, 100) >= 0.0
        # far outside support: Y(k-1)/(4 pi (n + l/2)) >> 2
        assert sf.w_weight(1, 0, 50.0, 500) == 0.0

    def test_two_resolutions_pinned(self):
        lo = sf.w_weight(8, 1, 10.0, 100, nodes=512)
        hi = sf.w_weight(8, 1, 10.0, 100, nodes=2048)
        assert lo == pytest.approx(3.212302580321752e-36, rel=1e-9)
        assert lo == pytest.approx(hi, rel=1e-8)
        peak_lo = sf.w_weight(53, 1, 10.0, 100, nodes=512)
        peak_hi = sf.w_weight(53, 1, 10.0, 100, nodes=2048)
        assert peak_lo == pytest.approx(0.8943782739653776, rel=1e-9)
        assert peak_lo == pytest.approx(peak_hi, rel=1e-8)

    def test_zero_shift_two_resolutions(self):
        # pure Laplace transform at l=0, stable across node counts
        lo = sf.w_weight(40, 0, 10.0, 50, nodes=512)
        hi = sf.w_weight(40, 0, 10.0, 50, nodes=2048)
        assert lo > 0 and lo == pytest.approx(hi, rel=1e-8)

    def test_contour_equivalence_small_weight(self, mellin):
        for (n, ell, y_par, k) in ((5, 1, 10.0, 12), (9, 2, 12.0, 16)):
            laplace = sf.w_weight(n, ell, y_par, k, bump=mellin.bump)
            contour = w_weight_contour(n, ell, y_par, k, mellin)
            assert laplace == pytest.approx(contour, rel=1e-10)

    def test_main_term_peak_value(self):
        k, y_par = 200, 4.0
        # peak where Y(k-1)/(4 pi n) = 3/2
        n = round(y_par * (k - 1) / (4 * math.pi * 1.5))
        main, _ = sf.w_main_term(n, 0, y_par, k)
        rho = y_par * (k - 1) / (4 * math.pi * n)
        assert main == pytest.approx(sf.DEFAULT_BUMP(rho), rel=1e-14)

    def test_main_term_error_envelope(self):
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

    def test_validation(self):
        with pytest.raises(ValueError):
            sf.w_weight(0, 1, 10.0, 100)
        with pytest.raises(ValueError):
            sf.w_weight(5, 1, 0.5, 100)
        with pytest.raises(ValueError):
            sf.w_weight(5, 1, 10.0, 10)


class TestGammaRatio:
    def test_exact_zero_at_integers(self):
        for k in (12, 100, 10_000):
            assert sf.gamma_ratio_check(k, 0).error == 0.0
            assert sf.gamma_ratio_check(k, 1).error == 0.0

    def test_documented_grid_envelope(self):
        worst = 0.0
        for k in (100, 1000, 10_000):
            for s in (0.5, 1.0, complex(1, 1), 2.0, complex(1.1, 10)):
                chk = sf.gamma_ratio_check(k, s)
                worst = max(worst, chk.normalized)
        assert worst <= 3.0

    def test_k_1e4_complex_point(self):
        chk = sf.gamma_ratio_check(10_000, complex(1, 1))
        assert chk.normalized < 3.0
        assert chk.error == pytest.approx(7.071e-5, rel=1e-2)

    def test_error_shrinks_with_k(self):
        errs = [sf.gamma_ratio_check(k, complex(1, 1)).error for k in (100, 1000, 10_000)]
        assert errs[0] > errs[1] > errs[2]
