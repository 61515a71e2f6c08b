import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shiftsieve import arith, qexpansion, shifted

from .oracles import (
    divisor_power_sums,
    fz_split,
    mobius,
    primes_upto,
    smooth_numbers_dfs,
    smooth_part_walk,
    tau_m_brute,
    tau_table_convolution,
)


class TestPrimeTable:
    def test_small(self):
        assert list(arith.prime_table(20)) == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_grows_and_shrinks_view(self):
        big = arith.prime_table(1000)
        small = arith.prime_table(10)
        assert list(small) == [2, 3, 5, 7]
        assert big[-1] == 997

    def test_matches_oracle(self, monkeypatch):
        monkeypatch.setattr(arith, "_primes", arith._primes)
        for limit in (2, 3, 4, 24, 25, 26, 10**4):
            monkeypatch.setattr(arith, "_primes_limit", 0)  # sieve afresh
            assert arith.prime_table(limit).tolist() == primes_upto(limit)

    def test_capacity_guard(self):
        with pytest.raises(ValueError):
            arith.prime_table(arith.PRIME_TABLE_MAX + 1)


class TestMultiplicative:
    def test_tau_m_examples(self):
        assert arith.tau_m(1, 5) == 1
        assert arith.tau_m(6, 2) == 4
        assert arith.tau_m(4, 3) == 6  # (1,1,4)x3 + (1,2,2)x3

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=4))
    def test_tau_m_matches_brute_force(self, n, m):
        assert arith.tau_m(n, m) == tau_m_brute(n, m)

    @given(st.integers(min_value=1, max_value=2000), st.integers(min_value=2, max_value=5))
    def test_tau_m_monotone_in_m(self, n, m):
        assert arith.tau_m(n, m) >= arith.tau_m(n, m - 1)
        assert arith.tau_m(n, 1) == 1

    def test_phi_tau(self):
        assert arith.tau(12) == 6

    def test_divisors(self):
        assert arith.divisors(6) == [1, 2, 3, 6]
        assert arith.divisors(1) == [1]


class TestSmoothRough:
    def test_monotone_in_z(self):
        # raising z only adds primes to the smooth part, so it is a multiple
        zs = (1.5, 2, 2.9, 3, 7.5, 97, 500, 10**9)
        tables = [arith.smooth_part_table(10**5, z) for z in zs]
        for low, high in zip(tables, tables[1:]):
            assert np.all(high % low == 0) and np.all(high >= low)

    def test_smooth_part_table_matches_pointwise(self):
        for z in (1.5, 2, 3.7, 50, 1999, 10**9, math.inf):
            table = arith.smooth_part_table(2000, z)
            assert table[0] == 1
            assert table[1:].tolist() == [fz_split(n, z)[0] for n in range(1, 2001)]

    def test_rough_part_prime_count_bound(self):
        # mechanism behind the positivity bound: Omega(rough) < s + 1
        x, eps = 10**5, 0.5
        p = arith.make_params(x, eps)
        if not math.isfinite(p.z):
            pytest.skip("z overflowed for this regime")
        smooth = arith.smooth_part_table(int(x), p.z)
        for n in range(1, int(x) + 1, 37):
            rough = n // int(smooth[n])
            count = sum(e for _, e in arith.factorize(rough)) if rough > 1 else 0
            assert count < p.s + 1


class TestParams:
    def test_reference_point(self):
        p = arith.make_params(10**6, 0.5)
        assert p.s == pytest.approx(0.5 * math.log(math.log(10**6)), rel=1e-15)
        assert p.s == pytest.approx(1.31290, abs=1e-5)
        assert math.log10(p.z) == pytest.approx(6.0 / p.s, rel=1e-12)
        assert math.log10(p.z) == pytest.approx(4.5701, abs=1e-4)
        assert p.y == pytest.approx(1000.0)
        assert p.Q == pytest.approx(10**1.5)

    def test_flag_always_set_at_desk_scale(self):
        for x in (16, 10**3, 10**6, 10**12):
            for eps in (0.1, 0.5, 0.9):
                assert arith.make_params(x, eps).below_paper_threshold

    def test_boundary_acceptance(self):
        p = arith.make_params(16, 0.9)
        assert p.below_paper_threshold and p.x == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            arith.make_params(15, 0.5)
        with pytest.raises(ValueError):
            arith.make_params(100, 0.0)
        with pytest.raises(ValueError):
            arith.make_params(100, 1.0)
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                arith.make_params(x, 0.5)

    def test_z_above_x_in_small_epsilon_regime(self):
        p = arith.make_params(10**6, 0.1)
        assert p.z > p.x  # the desk-scale degeneracy the flag discloses

    def test_smooth_numbers_enumeration(self):
        smooth = list(arith.smooth_numbers_upto(50, 3))
        assert smooth == sorted(
            n for n in range(1, 51) if all(p in (2, 3) for p, _ in arith.factorize(n))
        )
        assert list(arith.smooth_numbers_upto(10, 100)) == list(range(1, 11))


TABLE_LIMITS = (1, 2, 3, 4, 48, 49, 50, 1010, 51_506)


class TestMultiplicativeTable:
    """Every table built by multiplicative_table equals, entry for entry and
    in dtype, the loop it replaced (kept in tests/oracles.py)."""

    @pytest.mark.parametrize(
        "m, limit",
        [(m, limit) for m in (1, 2, 3, 4, 5, 6) for limit in TABLE_LIMITS]
        + [(2, 10**6), (3, 10**6)],
    )
    def test_tau_handle(self, m, limit):
        values = shifted.tau_handle(m, limit).values
        expected = tau_table_convolution(m, limit)
        assert values.dtype == expected.dtype and np.array_equal(values, expected)

    @pytest.mark.parametrize("limit", TABLE_LIMITS)
    @pytest.mark.parametrize("weight", [4, 6, 8, 10, 14])
    def test_eisenstein_sigma(self, limit, weight):
        coeffs = qexpansion.eisenstein_qexp(weight, limit).coeffs
        sigma = divisor_power_sums(weight - 1, limit)
        const = coeffs[1]  # sigma(1) = 1
        assert coeffs == (1,) + tuple(const * v for v in sigma[1:])
        assert all(type(c) is int for c in coeffs)

    @pytest.mark.parametrize("limit", TABLE_LIMITS)
    def test_smooth_tables(self, limit):
        root = math.isqrt(limit)
        # the walk stops at sqrt(limit) and a z above it keeps the n whose
        # cofactor is a prime <= z: z on each side of that split, and just
        # above and below a prime that is such a cofactor
        primes = primes_upto(limit // 2)
        near = [p + 1e-9 for p in primes[-1:]]
        near += [np.nextafter(p, 0) for p in primes if p > root][:1]
        for z in (0, 1.5, 2, 3.7, 7, math.sqrt(limit), root - 1, root, root + 1, limit // 2,
                  *near, limit - 1, limit, math.inf):
            table = arith.smooth_part_table(limit, z)
            expected = smooth_part_walk(limit, z)
            assert table.dtype == expected.dtype and np.array_equal(table, expected), z
            assert list(arith.smooth_numbers_upto(limit + 0.5, z)) == smooth_numbers_dfs(limit, z)

    @pytest.mark.parametrize("limit", TABLE_LIMITS)
    def test_mobius_with_its_zeros(self, limit):
        table = arith.multiplicative_table(limit, lambda p, e: -1 if e == 1 else 0, np.int64)
        assert table.dtype == np.int64
        assert table.tolist() == [1] + [mobius(n) for n in range(1, limit + 1)]

    def test_value_sees_every_prime_power(self):
        limit = 1000
        table = arith.multiplicative_table(limit, lambda p, e: p**e, object)
        assert table.tolist() == [1] + list(range(1, limit + 1))
