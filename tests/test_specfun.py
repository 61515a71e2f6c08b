import itertools
import math
import random
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from shiftsieve import arith
from shiftsieve import specfun as sf

from .oracles import (
    a_ell_y_per_call,
    aell_unfold,
    aell_unfold_doubled,
    bessel_k_it_grid,
    bessel_k_scaled_scalar,
    bessel_modulus_oscillatory,
    cgamma,
    k0_decimal,
    mellin_decay_constant,
    ramanujan_sum,
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
        # far up, theta(1/2 + it) underflows (t ~ 450) and a log-gamma
        # difference of size 1e7 loses 1e-9 (t = 1e6): phi is taken by its phase
        for t in (0.5, 1.0, 5.0, 450.0, 1e6, -1e6):
            assert abs(sf.varphi_s(complex(0.5, t))) == pytest.approx(1.0, abs=1e-10)

    def test_phi_residue_three_over_pi(self):
        s = 1.0 + 1e-6
        val = (s - 1.0) * sf.varphi_s(s)
        assert abs(val - 3.0 / math.pi) < 1e-6

    def test_phi_simple_zero_at_zero(self):
        # phi(0) = theta(1)/theta(0) = 0, with phi(s) = -(pi/3) s + O(s^2)
        assert sf.varphi_s(0) == 0
        assert sf.varphi_s(1e-9) == pytest.approx(-math.pi / 3 * 1e-9, rel=1e-8)
        # mpmath: sqrt(pi) Gamma(s - 1/2) zeta(2s - 1) / (Gamma(s) zeta(2s)) at 1e-7
        assert sf.varphi_s(1e-7).real == pytest.approx(-1.04719764628832e-7, rel=1e-8)

    def test_phi_removable_singularity_at_one_half(self):
        # Gamma(s - 1/2) and zeta(2s) both have simple poles at s = 1/2, and
        # phi(s) = -1 + 2 (gamma - log 4 pi)(s - 1/2) + O((s - 1/2)^2)
        assert sf.varphi_s(0.5) == -1
        # mpmath at 40 digits: theta(1 - s) / theta(s) at s = 1/2 + 1e-9
        assert sf.varphi_s(0.5 + 1e-9).real == pytest.approx(-1.00000000390761717, rel=1e-14)

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

    def test_pole_guards(self):
        with pytest.raises(sf.PoleError):
            sf.theta_s(0.5)
        with pytest.raises(sf.PoleError):
            sf.theta_s(0.0)

    def test_theta_finite_at_negative_integers(self):
        # theta = Lambda(2s) has poles only at 0 and 1/2: theta(-1) = theta(3/2)
        assert sf.theta_s(-1.0) == pytest.approx(0.191313298015585, rel=1e-13)
        assert sf.theta_s(-1.0) == pytest.approx(sf.theta_s(1.5), rel=1e-13)

    @pytest.mark.parametrize("s", [complex(-100, 0.5), complex(-3, 5), complex(0.1, 2),
                                   complex(-1, 300), complex(-200, 3)])
    def test_left_of_the_strip_against_mpmath(self, s):
        # the direct zeta sum overflows far left; theta(s) = theta(1/2 - s)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            z = mpmath.mpc(s.real, s.imag)

            def theta(u):
                return mpmath.pi ** -u * mpmath.gamma(u) * mpmath.zeta(2 * u)

            ref_theta = complex(theta(z))
            ref_phi = complex(theta(1 - z) / theta(z))
        assert sf.theta_s(s) == pytest.approx(ref_theta, rel=1e-10)
        assert sf.varphi_s(s) == pytest.approx(ref_phi, rel=1e-10)


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


class TestAellUnfolding:
    """The unfolding route of `a_ell_y`, the routing between it and the
    spectral route, and the refusal of a point neither serves."""

    @staticmethod
    def fail_on(monkeypatch, *names):
        def fail(*args, **kwargs):
            raise AssertionError("work done")

        for name in names:
            monkeypatch.setattr(sf, name, fail)

    @staticmethod
    def record_windows(monkeypatch) -> list:
        """The number of windows each integral pass of `_a_ell_unfolded` takes."""
        counts = []
        real = sf._window_sums

        def recorded(y, c, lo, hi, panels, integrand):
            if panels.size == 0 or panels.max() > sf._UNFOLD_P_MIN:
                counts.append(c.size)
            return real(y, c, lo, hi, panels, integrand)

        monkeypatch.setattr(sf, "_window_sums", recorded)
        return counts

    @pytest.mark.parametrize("ell", [1, 2, 3, 5, 6, 12, 30, 100])
    def test_tol_1e8_reachable(self, mellin, ell):
        # the spectral stop rule raised ToleranceError at 19 of these 72 points
        for y in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 1.0):
            value = sf.a_ell_y(mellin, ell, y, 1e-8).real
            if y == 1.0:
                assert value == 0.0
            else:
                assert abs(value - aell_unfold_doubled(ell, y, mellin.bump)) <= 1e-8, (ell, y)

    @pytest.mark.parametrize("ell", [1, 10, 30, 100, 1000])
    def test_differential_grid(self, mellin, ell):
        tol = 1e-6
        for y in (1e-4, 0.01, 0.1, 0.3, 0.5, 0.9):
            value = sf.a_ell_y(mellin, ell, y, tol).real
            if 2.0 * math.pi * ell * y <= 12.0:
                want = sf._a_ell_spectral(mellin, ell, y, tol).real
            else:
                want = aell_unfold_doubled(ell, y, mellin.bump)
            assert abs(value - want) <= tol, (ell, y)

    @pytest.mark.parametrize("ell, y", [(1, 1.0), (-7, 1.0), (3, 1.5), (10**12, 2.0), (1, 1e300)])
    def test_no_term_at_y_one_or_above_gives_zero(self, mellin, monkeypatch, ell, y):
        self.fail_on(monkeypatch, "_ramanujan_sums", "_window_sums", "_a_ell_spectral")
        assert sf.a_ell_y(mellin, ell, y) == 0

    def test_window_skipped_only_under_its_bound(self, mellin, monkeypatch):
        # at ell = 5000, y = 0.3 the one window needs 4250 panels and its
        # bound 2 ||G''||_1 / (2 pi ell)^2 is 2.6e-7: within tol/2 at 1e-6
        ell, y = 5000, 0.3
        want = aell_unfold_doubled(ell, y, mellin.bump)
        integrated = self.record_windows(monkeypatch)
        assert sf.a_ell_y(mellin, ell, y, 1e-6) == 0.0
        assert abs(want) <= 1e-6 / 2
        assert integrated == [0]
        integrated.clear()
        assert sf.a_ell_y(mellin, ell, y, 1e-9).real == pytest.approx(want, abs=1e-13)
        assert integrated == [1]

    def test_huge_shift_is_a_bounded_zero(self, mellin):
        # every window is skipped: its bound is about 3e-20
        (_, _, _, panels), _ = sf._unfold_windows(10**10, 0.3, mellin.bump)
        assert panels[0] > 10**9
        assert sf.a_ell_y(mellin, 10**10, 0.3, 1e-12) == 0.0

    def test_bump_derivatives_against_differences(self):
        bump = sf.BumpFunction(1.0, 3.0)
        ts, h = np.linspace(1.05, 2.95, 9), 1e-5
        first, second = bump.derivatives(ts)
        assert np.allclose(first, (bump.values(ts + h) - bump.values(ts - h)) / (2 * h),
                           rtol=0, atol=1e-8)
        assert np.allclose(second, (bump.values(ts + h) - 2 * bump.values(ts)
                                    + bump.values(ts - h)) / h**2, rtol=0, atol=1e-5)
        assert bump.derivatives(np.array([0.5, 1.0, 3.0]))[1].tolist() == [0.0, 0.0, 0.0]

    def test_ramanujan_sums_against_the_gcd_scan(self):
        for ell in (1, 12, 720720, -30, 10**16, 39999999999999937):
            assert sf._ramanujan_sums(ell, 60).tolist() == [
                ramanujan_sum(ell, c) for c in range(1, 61)]

    def test_large_ell_never_factored(self, mellin, monkeypatch):
        # the sums test each d up to the c count (1336 here) instead of
        # factoring ell, which grew the prime table to sqrt(ell) = 10^8
        monkeypatch.setattr(arith, "_primes", np.array([], dtype=np.int64))
        monkeypatch.setattr(arith, "_primes_limit", 0)
        ell, y = 10**16, 5.6e-7
        assert sf._aell_route(ell, y, 2.0 * math.pi * ell * y, mellin.bump) is not None
        sf.a_ell_y(mellin, ell, y, 1e-6)
        assert arith._primes_limit <= 1336

    def test_tiny_y_takes_the_spectral_route(self, mellin, monkeypatch):
        # 2^19 nodes hold about 1365 windows of 24 panels: y below about 5.4e-7
        self.fail_on(monkeypatch, "_ramanujan_sums", "_window_sums")
        y = 1e-7
        assert sf.a_ell_y(mellin, 3, y, 1e-6) == a_ell_y_per_call(mellin, 3, y, 1e-6)

    def test_point_no_route_serves_refused_before_any_work(self, mellin, monkeypatch):
        # y = 1e-7 needs 3162 windows, and w = 2 pi 2e9 1e-7 = 1257 > 688
        self.fail_on(monkeypatch, "_ramanujan_sums", "_window_sums", "_a_ell_spectral",
                     "_aell_profile")
        ell = 2 * 10**9
        for call in (lambda: sf.a_ell_y(mellin, ell, 1e-7), lambda: sf.check_aell_w(ell, 1e-7)):
            with pytest.raises(ValueError, match="no route serves"):
                call()
        assert sf.check_aell_w(10**6, 1e-7) == pytest.approx(2 * math.pi * 0.1)
        assert sf.check_aell_w(10**8, 1e-7) == pytest.approx(2 * math.pi * 10)

    def test_spectral_route_ends_where_three_blocks_past_the_turning_point_end(self, mellin):
        # w = 688 counts blocks 173-175 from t = 692, the last block of the
        # integral; past it the third would start at t = 704
        assert sf._aell_first_quiet(688.0) + sf._AELL_QUIET == sf._AELL_BLOCKS
        assert sf._aell_route(10**9, 1e-7, 688.0, mellin.bump) is None
        with pytest.raises(ValueError, match="past 688"):
            sf._aell_route(10**9, 1e-7, np.nextafter(688.0, 689.0), mellin.bump)


class TestAellProfile:
    """The process-wide t-profile cache that the spectral route of `a_ell_y`
    reads its ell- and y-independent factors from, against the per-call
    loop it replaced, at points that route serves (y < 5.4e-7)."""

    # w = 0.001: stops at block 13 at tol 1e-6
    POINT = (1592, 1e-7)

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
        # profile, at points in a seeded shuffled order; w from 6e-8 to 9.4
        transforms = (sf.MellinTransform(), sf.MellinTransform(nodes=512),
                      sf.MellinTransform(sf.BumpFunction(1.0, 3.0)))
        points = list(itertools.product(range(3), (1, -1, 12, -12, 720720, -720720, 3000000),
                                        (1e-8, 1e-7, 2.014e-7, 5e-7), (1e-6, 1e-7)))
        random.Random(12).shuffle(points)
        values = {}
        for m, ell, y, tol in points:
            w = 2.0 * math.pi * abs(ell) * y
            assert sf._aell_route(ell, y, w, transforms[m].bump) is None
            got = sf._a_ell_spectral(transforms[m], ell, y, tol)
            assert got == a_ell_y_per_call(transforms[m], ell, y, tol), (m, ell, y, tol)
            values[m, ell, y, tol] = got
        for (m, ell, y, tol), got in values.items():
            if ell < 0:
                assert got == values[m, -ell, y, tol]
        assert sf._aell_sums.cache_info().currsize == 3

    def test_equal_transforms_share_one_entry(self, monkeypatch):
        builds = self.count_block_builds(monkeypatch)
        first = sf._a_ell_spectral(sf.MellinTransform(), *self.POINT, tol=1e-6)
        built = len(builds)
        assert sf._a_ell_spectral(sf.MellinTransform(), *self.POINT, tol=1e-6) == first
        assert len(builds) == built
        assert sf._aell_sums.cache_info().currsize == 1
        assert sf._aell_profile.cache_info().currsize == built

    def test_cache_clear_rebuilds(self, monkeypatch):
        builds = self.count_block_builds(monkeypatch)
        first = sf._a_ell_spectral(sf.MellinTransform(), *self.POINT, tol=1e-6)
        built = len(builds)
        # the benchmark's reset: every module-level cache_clear
        for value in list(vars(sf).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
        assert sf._aell_sums.cache_info().currsize == 0
        assert sf._aell_profile.cache_info().currsize == 0
        assert sf._a_ell_spectral(sf.MellinTransform(), *self.POINT, tol=1e-6) == first
        assert len(builds) == 2 * built

    def test_later_point_reuses_earlier_blocks(self, mellin, monkeypatch):
        builds = self.count_block_builds(monkeypatch)
        sf._a_ell_spectral(mellin, 3000000, 5e-7, tol=1e-4)  # w = 9.4: stops at block 6
        early = [sf._aell_profile(mellin, k) for k in builds]
        sf._a_ell_spectral(mellin, 1, 1e-7, tol=1e-9)  # w = 6.3e-7: reads to block 42
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
            sf._a_ell_spectral(mellin, *self.POINT, tol=1e-6)
        assert sf._aell_profile.cache_info().currsize == 2
        monkeypatch.undo()
        assert sf._a_ell_spectral(mellin, *self.POINT, tol=1e-6) == a_ell_y_per_call(
            mellin, *self.POINT, tol=1e-6)


class TestAellChunks:
    """The spectral route of `a_ell_y`, which reads one block at a time where
    it once took its Bessel values and divisor sums per chunk of blocks: its
    stop rule against the unfolding sum, and its loop against the per-block
    loop of `a_ell_y_per_call`, at points it serves (y < 5.4e-7)."""

    # (ell, y, tol, last block read): w = 9.4, whose blocks 0-6 hold no Debye
    # order and which stops at block 6, the earliest stop there, as blocks
    # count as quiet from block 4, wholly past t = w; two at w = 1.9e-5 and
    # 1.9e-4, whose block 2 holds orders of both Bessel routes; and tol 1e-9
    # at w = 9.4, which reads past the Debye switch to block 94
    POINTS = (
        (3000000, 5e-7, 1e-4, 6),
        (30, 1e-7, 1e-6, 10),
        (100, 3e-7, 1e-6, 14),
        (3000000, 5e-7, 1e-9, 94),
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

    def test_spectral_w_max_within_the_blocks_every_point_reads(self, mellin):
        # the largest w the spectral route takes, 688, once a fixed 12; every
        # w up to it reads its three quiet blocks, all wholly past t = w,
        # before the last block, the one from the cap t = 700
        w_max = sf._AELL_BLOCK * (sf._AELL_BLOCKS - sf._AELL_QUIET - 1)
        assert w_max == 688.0
        for w in np.linspace(0.0, w_max, 4 * 172 + 1):
            first = sf._aell_first_quiet(w)
            assert sf._AELL_BLOCK * first >= w
            assert first + sf._AELL_QUIET <= sf._AELL_BLOCKS
        assert sf._AELL_BLOCK * (sf._AELL_BLOCKS - 1) == sf._AELL_T_CAP
        for w in (12.0, 100.0, w_max):
            assert sf._aell_route(10**9, 1e-7, w, mellin.bump) is None

    @pytest.mark.parametrize("y", [1e-7, 3e-7, 5e-7])
    def test_tol_1e9_reachable_on_the_spectral_route(self, mellin, y):
        # the stop rule on the integral, before it was scaled to the value,
        # raised ToleranceError at 3 of these 12 points at tol 1e-8 and at
        # all 12 at tol 1e-9
        for w in (0.1, 1.0, 6.0, 11.9):
            ell = round(w / (2.0 * math.pi * y))
            assert sf._aell_route(ell, y, 2.0 * math.pi * ell * y, mellin.bump) is None
            want = aell_unfold_doubled(ell, y, mellin.bump)
            for tol in (1e-8, 1e-9):
                assert abs(sf.a_ell_y(mellin, ell, y, tol).real - want) <= tol, (ell, y, tol)

    @pytest.mark.parametrize("ell, y, tol", [
        (7957747, 1e-7, 1e-9),
        (53051648, 3e-7, 1e-8),
        (25464791, 1e-7, 1e-8),
        (79577472, 1e-7, 1e-8),
        (318309886, 1e-7, 1e-8),
    ], ids=["w-5", "w-100", "w-16", "w-50", "w-200"])
    def test_within_tol_of_unfolding_from_the_turning_point(self, mellin, ell, y, tol):
        # w = 5: two quiet blocks from block 0 on stopped at block 68, 1.11
        # tol off; w = 100: two quiet blocks past the turning point missed
        # by 1.18 tol; w = 16, 50 and 200 were refused while no block past
        # t = 12 was sure to be read
        value = sf.a_ell_y(mellin, ell, y, tol).real
        assert abs(value - aell_unfold_doubled(ell, y, mellin.bump)) <= tol

    @pytest.mark.parametrize("ell, y, tol, last", POINTS,
                             ids=["no-debye", "mixed-30", "mixed-100", "tol-1e-9"])
    def test_bitwise_equal_to_per_call_loop(self, mellin, monkeypatch, ell, y, tol, last):
        reads = self.record(monkeypatch, "_aell_profile")
        got = sf._a_ell_spectral(mellin, ell, y, tol)
        assert [k for _, k in reads] == list(range(last + 1))
        assert got == a_ell_y_per_call(mellin, ell, y, tol)

    def test_divisor_sums_of_highly_divisible_ell_a_block_at_a_time(self, mellin):
        # 128 x 960 complex terms take 2 MB a matrix; 16 blocks at once would take 31 MB
        ell, y = self.HIGHLY_DIVISIBLE, 1e-9  # w = 1.5
        sf._a_ell_spectral(mellin, 1, y, 1e-6)  # the profile blocks, outside the measure
        tracemalloc.start()
        try:
            value = sf._a_ell_spectral(mellin, ell, y, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert value == a_ell_y_per_call(mellin, ell, y, 1e-6)

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
            ts = np.concatenate([sf._aell_profile(mellin, k)[0] for k in range(sf._AELL_BLOCKS)])
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

    @pytest.mark.parametrize("k", [12, 100, 1000, 5000, 10**6, 10**8, 10**12])
    def test_against_mpmath(self, k):
        # the Stirling difference for |s| <= (k-1)/2, log-gamma past it; the
        # plain log-gamma difference was off by a factor of 300 at k = 1e8
        mpmath = pytest.importorskip("mpmath")
        points = [0.5, complex(1, 1), complex(1.1, 10), -0.5, complex(-3, 2), 2.5, complex(0, 5)]
        if k <= 100:  # past |s| = (k-1)/2, where the ratio stays in the float range
            points += [0.6 * (k - 1), complex(0.5, 0.6 * (k - 1))]
        for s in points:
            with mpmath.workdps(40):
                z, u = mpmath.mpf(k - 1), mpmath.mpc(s)
                ref = float(abs(mpmath.expm1(mpmath.loggamma(z + u) - mpmath.loggamma(z)
                                             - u * mpmath.log(z))))
            rel = 1e-12 if abs(s) <= (k - 1) / 2 else 1e-9
            assert sf.gamma_ratio_check(k, s).error == pytest.approx(ref, rel=rel), s
