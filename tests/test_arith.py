import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shiftsieve import arith, qexpansion, shifted

from .oracles import (
    divisor_power_sums,
    fz_split,
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

    def test_capacity_guard(self):
        with pytest.raises(ValueError):
            arith.prime_table(arith.PRIME_TABLE_MAX + 1)

    def test_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SHIFTSIEVE_PRIME_CACHE", str(tmp_path))
        monkeypatch.setattr(arith, "_primes", np.array([], dtype=np.int64))
        monkeypatch.setattr(arith, "_primes_limit", 0)
        ps = arith.prime_table(5000)
        assert (tmp_path / "primes_5000.npy").exists()
        monkeypatch.setattr(arith, "_primes", np.array([], dtype=np.int64))
        monkeypatch.setattr(arith, "_primes_limit", 0)
        again = arith.prime_table(5000)
        assert list(ps) == list(again)


class TestPrimeCacheFile:
    """A cached table is checked before use; a bad file is re-sieved and
    replaced, never trusted."""

    LIMIT = 5000

    @pytest.fixture
    def cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SHIFTSIEVE_PRIME_CACHE", str(tmp_path))

        def fresh_table():
            monkeypatch.setattr(arith, "_primes", np.array([], dtype=np.int64))
            monkeypatch.setattr(arith, "_primes_limit", 0)
            return arith.prime_table(self.LIMIT)

        return tmp_path / f"primes_{self.LIMIT}.npy", fresh_table

    def check_rebuilt(self, path, fresh_table):
        assert list(fresh_table()) == primes_upto(self.LIMIT)
        assert list(np.load(path)) == primes_upto(self.LIMIT)
        assert [p.name for p in path.parent.iterdir()] == [path.name]  # no temp file left

    def test_truncated_file(self, cache):
        path, fresh_table = cache
        fresh_table()
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        self.check_rebuilt(path, fresh_table)

    def test_wrong_dtype_file(self, cache):
        path, fresh_table = cache
        np.save(path, np.array(primes_upto(self.LIMIT), dtype=np.int32))
        self.check_rebuilt(path, fresh_table)

    def test_wrong_content_files(self, cache):
        path, fresh_table = cache
        primes = primes_upto(self.LIMIT)
        bad_tables = (
            primes[:-5],                   # stops short of the limit
            primes + [5003],               # runs past the limit
            primes[:3] + [9] + primes[3:],  # a composite in the table
            primes[::-1],                  # not increasing
            [[p] for p in primes],         # not 1-D
        )
        for bad in bad_tables:
            np.save(path, np.array(bad, dtype=np.int64))
            self.check_rebuilt(path, fresh_table)


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
        assert arith.euler_phi(1) == 1
        assert arith.euler_phi(12) == 4
        assert arith.tau(12) == 6

    @given(st.integers(min_value=1, max_value=3000))
    def test_phi_matches_gcd_count(self, n):
        assert arith.euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    def test_divisors(self):
        assert arith.divisors(6) == [1, 2, 3, 6]
        assert arith.divisors(1) == [1]


class TestSmoothRough:
    def test_examples(self):
        assert (arith.smooth_rough(12, 2).smooth, arith.smooth_rough(12, 2).rough) == (4, 3)
        assert (arith.smooth_rough(12, 3).smooth, arith.smooth_rough(12, 3).rough) == (12, 1)
        assert (arith.smooth_rough(1, 7).smooth, arith.smooth_rough(1, 7).rough) == (1, 1)

    @given(st.integers(min_value=1, max_value=10**6), st.floats(min_value=2, max_value=1000))
    def test_reconstruction(self, n, z):
        f = arith.smooth_rough(n, z)
        assert f.smooth * f.rough == n
        sm, ro = fz_split(n, z)
        assert (f.smooth, f.rough) == (sm, ro)

    @given(
        st.integers(min_value=1, max_value=10**5),
        st.floats(min_value=2, max_value=500),
        st.floats(min_value=0, max_value=500),
    )
    def test_monotone_in_z(self, n, z, bump):
        low = arith.smooth_rough(n, z).smooth
        high = arith.smooth_rough(n, z + bump).smooth
        assert high % low == 0 and high >= low

    def test_below_two_threshold(self):
        f = arith.smooth_rough(12, 1.5)
        assert (f.smooth, f.rough) == (1, 12)

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
        for n in range(1, int(x) + 1, 37):
            rough = arith.smooth_rough(n, p.z).rough
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
        [(m, limit) for m in (1, 2, 3, 4) for limit in TABLE_LIMITS] + [(2, 10**6), (3, 10**6)],
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
        for z in (0, 1.5, 2, 3.7, 7, math.sqrt(limit), limit - 1, limit, math.inf):
            table = arith.smooth_part_table(limit, z)
            expected = smooth_part_walk(limit, z)
            assert table.dtype == expected.dtype and np.array_equal(table, expected), z
            assert list(arith.smooth_numbers_upto(limit + 0.5, z)) == smooth_numbers_dfs(limit, z)

    def test_value_sees_every_prime_power(self):
        limit = 1000
        table = arith.multiplicative_table(limit, lambda p, e: p**e, object)
        assert table.tolist() == [1] + list(range(1, limit + 1))
