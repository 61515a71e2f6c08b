import math

import numpy as np
import pytest

from shiftsieve import equidist as eq
from shiftsieve import qexpansion as qe
from shiftsieve.arith import prime_table
from shiftsieve.equidist import _sym2_log_factors
from shiftsieve.specfun import DEFAULT_BUMP


class TestSym2LocalFactors:
    def test_lambda_two_gives_cubed_factor(self):
        p = 7
        logs = _sym2_log_factors(np.array([p]), np.array([2.0]))
        assert math.exp(logs[0]) == pytest.approx((1 - 1 / p) ** -3, rel=1e-14)

    def test_lambda_zero_satake_i(self):
        # alpha = i: factor (1+1/p)^-2 (1-1/p)^-1
        p = 5
        logs = _sym2_log_factors(np.array([p]), np.array([0.0]))
        expected = (1 + 1 / p) ** -2 * (1 - 1 / p) ** -1
        assert math.exp(logs[0]) == pytest.approx(expected, rel=1e-14)


class TestL1Sym2:
    def test_pinned_delta(self, forms_1e5):
        sv = eq.l1_sym2(forms_1e5[12], 100_000)
        assert sv.value == pytest.approx(0.6319682154397331, rel=1e-10)
        assert sv.truncation_gap < 0.01 * sv.value

    def test_gap_shrinks_with_cutoff(self, delta_4k):
        g1 = eq.l1_sym2(delta_4k, 1000).truncation_gap
        g2 = eq.l1_sym2(delta_4k, 4000).truncation_gap
        assert g2 < g1

    def test_all_weights_in_sanity_window(self, forms_1e5):
        for k, f in forms_1e5.items():
            v = eq.l1_sym2(f, 100_000).value
            assert 0.05 < v < 20.0

    def test_rejects_nonunitary(self, delta_4k):
        bad = qe.EigenForm(12, qe.QExpansion(12, (0, 1, 10**9)))
        with pytest.raises(ValueError):
            eq.l1_sym2(bad, 2)


class TestSym4:
    def test_lambda_two_unit_satake(self):
        # all five Satake parameters collapse to 1: factor (1-1/p)^-5
        p = 11
        inv = 1.0 / p
        cos2 = 0.5 * 4.0 - 1.0
        cos4 = 2.0 * cos2**2 - 1.0
        factor = (
            (1 - 2 * cos4 * inv + inv * inv)
            * (1 - 2 * cos2 * inv + inv * inv)
            * (1 - inv)
        ) ** -1
        assert factor == pytest.approx((1 - inv) ** -5, rel=1e-12)

    def test_value_positive(self, delta_4k):
        assert eq.l1_sym4(delta_4k, 4000) > 0


class TestMk:
    def test_pinned_delta_1e5(self, forms_1e5):
        assert eq.mk(forms_1e5[12], 100_000, 100_000) == pytest.approx(
            9.21655290653326, rel=1e-10
        )

    def test_default_cutoff_is_weight(self, delta_4k):
        explicit = eq.mk(delta_4k, prime_cutoff=12, l_cutoff=4000)
        default = eq.mk(delta_4k, l_cutoff=4000)
        assert explicit == default

    def test_empty_product_form(self, delta_4k):
        # cutoff below 2 leaves only the normalization
        val = eq.mk(delta_4k, prime_cutoff=1, l_cutoff=4000)
        l_val = eq.l1_sym2(delta_4k, 4000).value
        assert val == pytest.approx(1.0 / (math.log(12) ** 2 * l_val), rel=1e-12)


class TestEmsPrime:
    def test_boundary_equalities(self):
        at_two = eq.ems_prime_check(2.0)
        assert at_two.lhs == pytest.approx(at_two.rhs, abs=1e-12)
        at_one = eq.ems_prime_check(1.0)
        assert at_one.lhs == pytest.approx(at_one.rhs, abs=1e-12)

    def test_zero_point(self):
        chk = eq.ems_prime_check(0.0)
        assert chk.lhs == -2.0
        assert chk.rhs == pytest.approx(-10.0 / 9.0, rel=1e-14)
        assert chk.holds

    def test_negative_symmetric(self):
        assert eq.ems_prime_check(-1.7).lhs == eq.ems_prime_check(1.7).lhs

    def test_dense_grid(self):
        lam = 0.0
        while lam <= 2.0:
            assert eq.ems_prime_check(lam).holds
            lam += 1e-3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            eq.ems_prime_check(2.5)


class TestEmsSum:
    def test_pinned_delta_1e4(self, forms_1e5):
        rep = eq.ems_sum_check(forms_1e5[12], 10_000)
        assert rep.lhs_sum == pytest.approx(-1.508686893258973, rel=1e-10)
        assert rep.rhs_sum == pytest.approx(-1.1172033360437883, rel=1e-10)
        assert rep.holds and rep.crosscheck_failures == 0

    def test_single_prime_reduces_to_pointwise(self, delta_4k):
        rep = eq.ems_sum_check(delta_4k, 2)
        lam = delta_4k.eigenvalue(2)
        chk = eq.ems_prime_check(lam)
        assert rep.lhs_sum == pytest.approx(chk.lhs / 2, rel=1e-12)
        assert rep.rhs_sum == pytest.approx(chk.rhs / 2, rel=1e-12)

    def test_doctored_prime_squares_counted_as_per_prime_loop(self, delta_4k):
        def failures_by_loop(form, cutoff):
            checks = failures = 0
            for p in prime_table(cutoff).tolist():
                if p * p > form.cutoff:
                    break
                checks += 1
                from_table = form.eigenvalue(p * p)
                from_recursion = form.eigenvalue(p) ** 2 - 1.0
                failures += abs(from_table - from_recursion) > 1e-9 * max(1.0, abs(from_table))
            return checks, failures

        coeffs = list(delta_4k.qexp.coeffs[:2001])
        for p in (3, 7, 43):  # 43^2 = 1849 is the last prime square below 2000
            coeffs[p * p] += p**11 // 10**4  # lambda(p^2) off by about 1e-4
        form = qe.EigenForm(12, qe.QExpansion(12, tuple(coeffs)))
        for cutoff in (2, 10, 100, 2000):
            clean = eq.ems_sum_check(delta_4k.truncate(2000), cutoff)
            rep = eq.ems_sum_check(form, cutoff)
            assert (rep.crosschecks, rep.crosscheck_failures) == failures_by_loop(form, cutoff)
            assert rep.crosschecks == clean.crosschecks
            assert rep.crosscheck_failures - clean.crosscheck_failures == sum(
                p <= cutoff for p in (3, 7, 43))

    def test_integer_level_square_identity(self, delta_4k):
        # a(p^2) = a(p)^2 - p^(k-1), exactly
        k = delta_4k.weight
        for p in (2, 3, 5, 7, 11, 13, 59):
            assert delta_4k.a(p * p) == delta_4k.a(p) ** 2 - p ** (k - 1)


class TestWeightedShiftSum:
    def test_empty_window(self, delta_4k):
        assert eq.weighted_shift_sum(delta_4k, 1, 1.0, k=12) == 0.0

    def test_pinned_delta(self, delta_4k):
        val = eq.weighted_shift_sum(delta_4k, 1, 10.0)
        assert val == pytest.approx(0.4857011931898133, rel=1e-10)

    def test_matches_full_range_enumeration(self, delta_4k):
        # support makes the windowed sum equal the sum over the whole table
        y_par, ell, k = 10.0, 1, 12
        lam = delta_4k.eigenvalue_array(2000)
        scale = y_par * (k - 1) / (4 * math.pi)
        total = math.fsum(
            abs(lam[n] * lam[n + ell]) * DEFAULT_BUMP(scale / (n + ell / 2))
            for n in range(1, 1999)
        )
        assert eq.weighted_shift_sum(delta_4k, ell, y_par) == pytest.approx(total, rel=1e-12)

    def test_domination_by_count(self, delta_4k):
        y_par, ell = 10.0, 1
        k = 12
        val = eq.weighted_shift_sum(delta_4k, ell, y_par)
        scale = y_par * (k - 1) / (4 * math.pi)
        lo = scale / 2 - ell / 2
        hi = scale - ell / 2
        lam = delta_4k.eigenvalue_array(20)
        cap = max(abs(lam[n] * lam[n + 1]) for n in range(max(1, int(lo)), int(hi) + 2))
        assert val <= (hi - lo + 2) * cap

    def test_cutoff_guard(self):
        small = qe.eigenform(12, 10)
        with pytest.raises(ValueError):
            eq.weighted_shift_sum(small, 1, 10.0)


class TestTheorem1Assembly:
    def test_components_positive_and_consistent(self, delta_4k, mellin):
        bound = eq.theorem1_bound_assembly(delta_4k, 1, 10.0, mellin=mellin, l_cutoff=4000)
        assert bound.a_ell_abs > 0
        assert bound.l_sym2 > 0
        assert bound.weighted_sum == pytest.approx(0.4857011931898133, rel=1e-9)
        assert bound.sum_term == pytest.approx(bound.weighted_sum / (10.0 * 12), rel=1e-14)
        assert bound.tail_term == pytest.approx((10.0 * 12) ** 0.5 / 12, rel=1e-14)
        assert bound.bound == pytest.approx(
            bound.a_ell_abs / bound.l_sym2 * (bound.sum_term + bound.tail_term), rel=1e-14
        )
        assert bound.c_y == pytest.approx(3 / math.pi * mellin(-1.0).real * 10.0, rel=1e-14)

    def test_y_one_degenerate_regime(self, delta_4k, mellin):
        bound = eq.theorem1_bound_assembly(delta_4k, 1, 1.0, mellin=mellin, l_cutoff=4000)
        assert bound.weighted_sum == 0.0  # window empty at Y = 1, k = 12
        assert bound.bound > 0  # tail term keeps the bound positive


class TestCorollary3:
    def test_report_pinned(self, forms_1e5):
        rep = eq.corollary3_report(forms_1e5[12], 100_000)
        assert rep.m_k == pytest.approx(9.21655290653326, rel=1e-9)
        assert rep.sqrt_m_k == pytest.approx(math.sqrt(rep.m_k), rel=1e-14)
        assert rep.y_star == 1.0  # M_k > 1 collapses Y* to 1
        assert rep.l_sym4 == pytest.approx(1.1129478869758795, rel=1e-9)
        assert rep.conjectured_rate == pytest.approx(
            (math.log(12) * rep.l_sym2 * rep.l_sym4) ** (-1 / 9), rel=1e-12
        )
        assert rep.ems_holds and not rep.r_k_available

    def test_y_star_when_m_small(self, forms_1e5):
        # weight 18 has the largest L value; check the general formula
        rep = eq.corollary3_report(forms_1e5[18], 100_000)
        assert rep.y_star == max(1.0, 1.0 / rep.m_k)

    def test_csv_row(self, forms_1e5):
        rep = eq.corollary3_report(forms_1e5[12], 100_000)
        row = eq.corollary3_csv_row(rep)
        assert len(row) == len(eq.corollary3_csv_header()) == 9
        assert row[0] == 12
