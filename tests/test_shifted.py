import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftsieve import arith, shifted as sh

from .oracles import (
    divisor_count,
    fz_split,
    partition_sums_fsum,
    s_ell_brute,
    sieve_cells_per_a,
    sieve_side_bound_cells,
    squarefree_h_sum_fractions,
)


@pytest.fixture(scope="module")
def tau2_1e3():
    return sh.tau_handle(2, 1010)


@pytest.fixture(scope="module")
def tau2_1e4():
    return sh.tau_handle(2, 10_010)


class TestHandles:
    def test_tau_table_matches_pointwise(self, tau2_1e3):
        for n in (1, 2, 6, 12, 97, 1000):
            assert tau2_1e3(n) == divisor_count(n)

    def test_tau3_table(self):
        h = sh.tau_handle(3, 60)
        for n in (1, 4, 8, 60):
            assert h(n) == arith.tau_m(n, 3)

    def test_unit(self):
        h = sh.unit_handle(10)
        assert h(1) == 1.0 and h(10) == 1.0

    def test_eigenform_handle_is_abs(self, delta_4k):
        h = sh.eigenform_handle(delta_4k)
        assert h(2) == pytest.approx(abs(delta_4k.eigenvalue(2)))
        assert h.name == "lambda_k12"

    def test_require(self, tau2_1e3):
        with pytest.raises(ValueError):
            tau2_1e3.require(5000)


class TestBruteSum:
    def test_tau_example(self, tau2_1e3):
        assert s_ell_brute(tau2_1e3, tau2_1e3, 4, 1) == 18.0

    def test_constant_function(self):
        one = sh.unit_handle(20)
        assert s_ell_brute(one, one, 10, 3) == 10.0

    def test_negative_shift_skips_low_terms(self):
        one = sh.unit_handle(20)
        # n from 4 to 10: 7 terms
        assert s_ell_brute(one, one, 10, -3) == 7.0

    def test_shift_validation(self, tau2_1e3):
        with pytest.raises(ValueError):
            s_ell_brute(tau2_1e3, tau2_1e3, 100, 0)
        with pytest.raises(ValueError):
            s_ell_brute(tau2_1e3, tau2_1e3, 10, 11)

    def test_cutoff_guard(self, tau2_1e3):
        with pytest.raises(ValueError):
            s_ell_brute(tau2_1e3, tau2_1e3, 1010, 1)


class TestPartition:
    def test_pinned_tau2_x1000(self, tau2_1e3):
        params = arith.make_params(1000, 0.5)
        parts = sh.partition_sums(tau2_1e3, tau2_1e3, params, 1)
        # frozen from the independent trial-division classification oracle
        assert parts.s_total == 39486.0
        assert parts.s_big == 78216.0
        assert parts.s_small == 372.0
        assert parts.overlap == 39102.0
        assert parts.identity_gap <= 1e-9

    def test_matches_trial_division_oracle_small(self, tau2_1e3):
        params = arith.make_params(300, 0.3)
        parts = sh.partition_sums(tau2_1e3, tau2_1e3, params, 2)
        tot = big = small = ovl = 0.0
        for n in range(1, 301):
            t = divisor_count(n) * divisor_count(n + 2)
            a, _ = fz_split(n, params.z)
            al, _ = fz_split(n + 2, params.z)
            tot += t
            if a > params.y:
                big += t
            if al > params.y:
                big += t
            if a > params.y and al > params.y:
                ovl += t
            if a <= params.y and al <= params.y:
                small += t
        assert (parts.s_total, parts.s_big, parts.s_small, parts.overlap) == (tot, big, small, ovl)

    def test_total_matches_brute_sum(self, tau2_1e3):
        for x, eps, ell in ((1000, 0.5, 1), (900, 0.3, -4), (500, 0.8, 6)):
            parts = sh.partition_sums(tau2_1e3, tau2_1e3, arith.make_params(x, eps), ell)
            assert parts.s_total == s_ell_brute(tau2_1e3, tau2_1e3, x, ell)

    def test_degenerate_y_above_x(self, tau2_1e3):
        # epsilon near 1 puts y near x: nothing is big
        params = arith.SievingParameters(
            x=1000.0, epsilon=0.99, s=1.0, z=2000.0, y=2000.0, Q=5.6, below_paper_threshold=True
        )
        parts = sh.partition_sums(tau2_1e3, tau2_1e3, params, 1)
        assert parts.s_big == 0.0
        assert parts.s_small == parts.s_total

    def test_z_below_two_all_small(self, tau2_1e3):
        params = arith.SievingParameters(
            x=1000.0, epsilon=0.5, s=1.0, z=1.5, y=31.6, Q=5.6, below_paper_threshold=True
        )
        parts = sh.partition_sums(tau2_1e3, tau2_1e3, params, 1)
        assert parts.s_small == parts.s_total
        assert parts.s_big == 0.0

    @given(
        x=st.integers(min_value=50, max_value=400),
        ell=st.sampled_from([1, 2, 6, -1, -3]),
        eps=st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=25)
    def test_identity_property(self, tau2_1e3, x, ell, eps):
        params = arith.make_params(x, eps)
        parts = sh.partition_sums(tau2_1e3, tau2_1e3, params, ell)
        assert parts.identity_gap <= 1e-9
        assert parts.s_total <= parts.s_big + parts.s_small + 1e-9 * parts.s_total
        assert min(parts.s_total, parts.s_big, parts.s_small, parts.overlap) >= 0.0


def _class_fsums(values, labels, classes=4, chunk=None):
    """(exact kernel rounded, math.fsum) per class, the kernel fed in chunks."""
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    step = chunk or max(1, values.size)
    pieces = [(values[i : i + step], labels[i : i + step]) for i in range(0, values.size, step)]
    sums, e = sh._class_sums(pieces, classes)
    return ([sh._round(n, e) for n in sums],
            [math.fsum(values[labels == c]) for c in range(classes)])


class TestClassSums:
    """The exact class-sum kernel behind partition_sums, against math.fsum."""

    def test_empty_class_and_single_term(self):
        got, want = _class_fsums([2.5], [1], classes=3)
        assert got == want == [0.0, 2.5, 0.0]
        got, want = _class_fsums([], [], classes=2)
        assert got == want == [0.0, 0.0]

    def test_subnormals(self):
        tiny = 5e-324
        values = [tiny, 3 * tiny, 2.2250738585072014e-308, -tiny, 1e-310, 1e-320]
        got, want = _class_fsums(values, [0, 0, 1, 1, 2, 2], classes=3)
        assert got == want
        assert got[0] == 4 * tiny

    def test_signed_terms_cancel_exactly(self):
        values = [1e16, 1.0, -1e16, 3.5, -3.5, -1.0, 1e-300, -1e-300]
        got, want = _class_fsums(values, [0] * len(values), classes=1)
        assert got == want == [0.0]
        got, want = _class_fsums([1e16, 1.0, -1e16], [0, 0, 0], classes=1)
        assert got == want == [1.0]

    def test_terms_spanning_the_float_range(self):
        rng = np.random.default_rng(20261019)
        for _ in range(20):
            size = int(rng.integers(1, 400))
            mags = 10.0 ** rng.uniform(-300, 300, size)
            values = mags * rng.choice([-1.0, 1.0], size)
            labels = rng.integers(0, 4, size)
            got, want = _class_fsums(values, labels, chunk=int(rng.integers(1, 64)))
            assert got == want

    def test_finite_sum_past_the_float_range(self):
        values = np.full(4, 1e308)
        with pytest.raises(OverflowError):
            math.fsum(values)
        with pytest.raises(OverflowError):
            _class_fsums(values, [0, 0, 0, 0], classes=1)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_input_refused(self, bad):
        with pytest.raises(ValueError):
            sh._class_sums([(np.array([1.0, bad]), np.array([0, 0]))], 1)


@pytest.fixture(scope="module")
def partition_handles(forms_1e5):
    limit = 51_510  # the largest x + |ell| below
    return {
        "tau2": sh.tau_handle(2, limit),
        "tau3": sh.tau_handle(3, limit),
        "one": sh.unit_handle(limit),
        "lambda_k12": sh.eigenform_handle(forms_1e5[12], limit),
        "lambda_k26": sh.eigenform_handle(forms_1e5[26], limit),
    }


class TestPartitionOracle:
    """partition_sums equals the five-fsum oracle, field by field."""

    @pytest.mark.parametrize("name", ["tau2", "tau3", "one", "lambda_k12", "lambda_k26"])
    @pytest.mark.parametrize("x", [1_000, 10_000, 50_000])
    def test_matches_five_fsums(self, partition_handles, name, x):
        h = partition_handles[name]
        for eps in (0.3, 0.7):  # z > x, then z < x
            params = arith.make_params(x, eps)
            assert (params.z > x) == (eps == 0.3)
            for ell in (1, -1, 2, -2, 3, -6):
                got = sh.partition_sums(h, h, params, ell)
                assert got == partition_sums_fsum(h, h, params, ell), (eps, ell)

    def test_mixed_handles_across_chunks(self, partition_handles, monkeypatch):
        # h1 differs from h2, and the window runs over 13 chunks, the last short
        monkeypatch.setattr(sh, "_CHUNK", 4_000)
        h1, h2 = partition_handles["lambda_k26"], partition_handles["tau3"]
        for ell in (1, -6):
            params = arith.make_params(50_000, 0.5)
            assert sh.partition_sums(h1, h2, params, ell) == partition_sums_fsum(
                h1, h2, params, ell)


class TestMOfX:
    def test_constant_handle_against_direct_product(self):
        limit = 10**6 + 1
        one = sh.unit_handle(limit)
        params = arith.make_params(10**6, 0.5)
        val = sh.m_of_x(one, one, params)
        primes = arith.prime_table(int(min(params.z, params.x)))
        expected = math.exp(
            2 * math.fsum(np.log1p(1.0 / primes))
        ) / math.log(10**6) ** 2
        assert val == pytest.approx(expected, rel=1e-12)

    def test_zero_handle_gives_log_power(self):
        limit = 2000
        zero = sh.CoefficientHandle("zero", np.zeros(limit + 1))
        params = arith.make_params(1000.0, 0.5)
        assert sh.m_of_x(zero, zero, params) == pytest.approx(
            1.0 / math.log(1000.0) ** 2, rel=1e-14
        )

    def test_monotone_under_bound(self, delta_4k):
        # |lambda(p)| <= 2 implies M(x) <= product with 2/p everywhere
        limit = 4000
        h = sh.eigenform_handle(delta_4k)
        two = sh.CoefficientHandle("two", np.full(limit + 1, 2.0))
        params = arith.make_params(4000.0, 0.5)
        assert sh.m_of_x(h, h, params) <= sh.m_of_x(two, two, params)


class TestTheorem2Report:
    def test_fields_consistent(self, tau2_1e4):
        rep = sh.theorem2_report(tau2_1e4, tau2_1e4, 10**4, 0.5, 2)
        assert rep.rhs == pytest.approx(
            rep.x * math.log(rep.x) ** rep.epsilon * rep.m_of_x * arith.tau(2), rel=1e-14
        )
        assert rep.ratio == pytest.approx(rep.s_total / rep.rhs, rel=1e-14)
        assert rep.params.below_paper_threshold

    def test_tau_ell_scaling(self, tau2_1e4):
        r3 = sh.theorem2_report(tau2_1e4, tau2_1e4, 10**4, 0.5, 3)
        r9 = sh.theorem2_report(tau2_1e4, tau2_1e4, 10**4, 0.5, 9)
        assert r9.rhs / r3.rhs == pytest.approx(1.5, rel=1e-14)

    def test_shift_sign_symmetry_reported(self, tau2_1e4):
        # index shift: sums agree up to boundary terms, reported not asserted
        plus = s_ell_brute(tau2_1e4, tau2_1e4, 10**4 - 10, 3)
        minus = s_ell_brute(tau2_1e4, tau2_1e4, 10**4 - 10, -3)
        assert abs(plus - minus) / plus < 0.01


class TestSieveSideBound:
    def test_pinned_toy_value(self, tau2_1e4):
        params = arith.make_params(10**4, 0.5)
        bound = sh.sieve_side_bound(tau2_1e4, tau2_1e4, params, 1)
        assert bound.value == pytest.approx(115097.39559162862, rel=1e-9)
        assert bound.vw_pairs == 1

    def test_dominates_s_small(self, tau2_1e4):
        for ell in (1, 2, 6):
            for eps in (0.1, 0.5):
                params = arith.make_params(10**4, eps)
                parts = sh.partition_sums(tau2_1e4, tau2_1e4, params, ell)
                bound = sh.sieve_side_bound(tau2_1e4, tau2_1e4, params, ell)
                assert parts.s_small <= bound.value

    def test_vw_pairs_for_composite_shift(self, tau2_1e3):
        params = arith.make_params(900, 0.5)
        bound = sh.sieve_side_bound(tau2_1e3, tau2_1e3, params, 6)
        assert bound.vw_pairs == 4  # divisors 1, 2, 3, 6

    def test_negative_shift(self, tau2_1e3):
        params = arith.make_params(900, 0.5)
        parts = sh.partition_sums(tau2_1e3, tau2_1e3, params, -2)
        bound = sh.sieve_side_bound(tau2_1e3, tau2_1e3, params, -2)
        assert parts.s_small <= bound.value


def _matches_cell_loop(h1, h2, params, ell):
    """The one-pass bound, after checking it field by field against the
    cell-by-cell loop it replaced."""
    bound = sh.sieve_side_bound(h1, h2, params, ell)
    expected = sieve_side_bound_cells(h1, h2, params, ell)
    assert (bound.value, bound.vw_pairs, bound.cells, bound.contributing_cells) == expected
    assert bound.distinct_h <= bound.contributing_cells
    return bound


class TestSieveSideBoundIntegerH:
    """The sieve-side bound with H from the integer DFS equals the bound
    with H from the Fraction oracle, on the benchmark's sieve-shifts shapes."""

    @pytest.mark.parametrize("fn, ell, eps, x", [
        ("tau2", 1, 0.5, 50_000), ("tau3", -2, 0.5, 48_600), ("one", 3, 0.5, 51_400),
        ("tau2", -4, 0.31, 49_300), ("tau3", 5, 0.33, 50_700), ("one", -6, 0.349, 51_000),
    ])
    def test_matches_fraction_h(self, partition_handles, monkeypatch, fn, ell, eps, x):
        h = partition_handles[fn]
        params = arith.make_params(x, eps)
        got = sh.sieve_side_bound(h, h, params, ell)
        monkeypatch.setattr(
            sh, "big_h", lambda q, sys: squarefree_h_sum_fractions(q, sys, list(sys.primes)))
        want = sh.sieve_side_bound(h, h, params, ell)
        assert dataclasses.astuple(got) == dataclasses.astuple(want)
        assert got.contributing_cells > 0


class TestSieveCellBlocks:
    """The blocked cell count equals the per-a loop it replaced, on the
    benchmark's sieve-shifts shapes, two composite shifts, and two epsilons
    above 1/2, where a a_ell <= x/v cuts rows short of y/v, with blocks of
    one row, a few rows and the default size."""

    @pytest.mark.parametrize("fn, ell, eps, x", [
        ("tau2", 1, 0.5, 50_000), ("tau3", -2, 0.5, 48_600), ("one", 3, 0.5, 51_400),
        ("tau2", -4, 0.31, 49_300), ("tau3", 5, 0.33, 50_700), ("one", -6, 0.349, 51_000),
        ("tau2", 12, 0.5, 50_000), ("tau3", -30, 0.5, 50_000),
        ("one", 12, 0.7, 20_000), ("tau2", -30, 0.8, 20_000),
    ])
    @pytest.mark.parametrize("block", [1, 1000, sh._CELL_BLOCK])
    def test_matches_per_a_loop(self, partition_handles, monkeypatch, fn, ell, eps, x, block):
        monkeypatch.setattr(sh, "_CELL_BLOCK", block)
        h = partition_handles[fn]
        params = arith.make_params(x, eps)
        cells = sh.sieve_side_bound(h, h, params, ell).cells
        assert cells == sieve_cells_per_a(h, params, ell) > 0

    def test_zero_rows_skipped(self, partition_handles):
        # l1(v a) = 0 drops row a from the count, whichever block holds it
        values = partition_handles["tau2"].values.copy()
        values[[1, 2, 97, 150]] = 0.0
        h = sh.CoefficientHandle("zeros", values)
        params = arith.make_params(50_000, 0.5)
        for ell in (1, 12):
            assert sh.sieve_side_bound(h, h, params, ell).cells == sieve_cells_per_a(h, params, ell)


class TestSieveSideBoundOnePass:
    @pytest.fixture(scope="class")
    def handles(self):
        return {
            "tau2": sh.tau_handle(2, 6010),
            "tau3": sh.tau_handle(3, 6010),
            "one": sh.unit_handle(6010),
        }

    def test_seeded_sweep(self, handles):
        rng = random.Random(20261018)
        for _ in range(12):
            h1, h2 = rng.choice(list(handles.values())), rng.choice(list(handles.values()))
            x = rng.randint(1000, 4000)
            eps = rng.choice((0.3, 0.5, 0.7, 0.9))
            ell = rng.choice((1, -1, -2, 3, 6, -6))
            _matches_cell_loop(h1, h2, arith.make_params(x, eps), ell)

    def test_epsilon_at_least_0_9(self, handles):
        for x, eps, ell in ((5000, 0.9, 1), (4000, 0.95, -6)):
            params = arith.make_params(x, eps)
            bound = _matches_cell_loop(handles["tau2"], handles["tau2"], params, ell)
            # many cells share a prime set, so far fewer H than cells are computed
            assert bound.distinct_h < bound.contributing_cells

    def test_z_above_limit_shortcut(self, handles):
        for x, ell in ((3000, 6), (6000, -2), (5000, -1)):
            params = arith.make_params(x, 0.3)
            assert params.z >= x + abs(ell)
            _matches_cell_loop(handles["tau3"], handles["one"], params, ell)

    def test_z_below_two_every_cofactor_rough(self, handles):
        params = arith.SievingParameters(
            x=3000.0, epsilon=0.5, s=1.0, z=1.5, y=54.8, Q=7.4, below_paper_threshold=True
        )
        for ell in (1, -2, 6):
            bound = _matches_cell_loop(handles["tau2"], handles["tau2"], params, ell)
            assert bound.contributing_cells == bound.vw_pairs  # only a = a_ell = 1

    def test_eigenform_handle(self, delta_4k):
        h = sh.eigenform_handle(delta_4k)
        for ell in (1, -1, 6):
            _matches_cell_loop(h, h, arith.make_params(3000, 0.5), ell)

    def test_zero_coefficients(self, handles):
        params = arith.make_params(4000, 0.7)
        smooth = arith.smooth_part_table(6010, params.z)
        plain = handles["tau2"].values
        # l1(v a) = 0 for a in {2, 3, 10} drops those cells from the count
        v1 = plain.copy()
        v1[[2, 3, 10]] = 0.0
        # l2 vanishes on every z-rough n > 1, so a cell whose members all
        # have b_ell > 1 has maxfactor 0 and adds no term
        v2 = plain.copy()
        v2[(smooth == 1) & (np.arange(6011) > 1)] = 0.0
        h1 = sh.CoefficientHandle("zeros1", v1)
        h2 = sh.CoefficientHandle("zeros2", v2)
        base = sh.sieve_side_bound(handles["tau2"], handles["tau2"], params, 1)
        first = _matches_cell_loop(h1, handles["tau2"], params, 1)
        assert first.cells < base.cells
        second = _matches_cell_loop(handles["tau2"], h2, params, 1)
        assert second.cells == base.cells
        assert second.contributing_cells < base.contributing_cells
        _matches_cell_loop(h1, h2, params, -6)


class TestTrends:
    def test_s_total_monotone_in_x(self, tau2_1e4):
        values = [s_ell_brute(tau2_1e4, tau2_1e4, x, 1) for x in (100, 1000, 10_000)]
        assert 0 <= values[0] < values[1] < values[2]

    def test_big_part_share_shrinks(self, delta_1e6):
        # relative weight of large smooth parts falls as x grows (fixed eps)
        handle = sh.eigenform_handle(delta_1e6)
        shares = {}
        for x in (10**4, 10**6):
            rep = sh.theorem2_report(handle, handle, x, 0.5, 1)
            shares[x] = rep.s_big / rep.s_total
        assert shares[10**6] < shares[10**4]
