import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from shiftsieve import largesieve as ls

from .oracles import direct_scan_count, h_value, squarefree_h_sum_fractions


class TestCrt:
    def test_example(self):
        assert ls.crt_residue(2, 3, 1) == 2

    def test_trivial_moduli(self):
        assert ls.crt_residue(1, 1, 7) == 0
        assert ls.crt_residue(5, 1, 3) == 0

    def test_non_coprime(self):
        with pytest.raises(ls.SieveConstructionError):
            ls.crt_residue(6, 4, 1)

    @given(st.integers(2, 60), st.integers(2, 60), st.integers(-40, 40).filter(lambda w: w != 0))
    def test_congruences_hold(self, a, a_ell, w):
        from math import gcd

        if gcd(a, a_ell) != 1:
            return
        r = ls.crt_residue(a, a_ell, w)
        assert 0 <= r < a * a_ell
        assert r % a == 0
        assert (r + w) % a_ell == 0


class TestBuildOmega:
    def test_unit_moduli_classes(self):
        sys = ls.build_omega(1, 1, 7, z=12, x=1000, v=1)
        # classes of m = 0 and m = -ell mod p, two unless p | ell
        assert set(sys.primes) == {3, 5, 7, 11}
        assert sorted(sys.omega[3]) == [0, 2]
        assert sys.omega[7] == (0,)  # 7 | w collapses r1 = r2 = 0
        assert sys.n_range == 1000

    def test_dividing_prime_single_class(self):
        sys = ls.build_omega(2, 3, 1, z=10, x=10000, v=1)
        assert len(sys.omega[3]) == 1  # 3 | a_ell
        assert sys.omega[5] == (3, 2)  # worked inverse example
        assert sys.r == 2

    def test_excludes_two(self):
        sys = ls.build_omega(1, 1, 1, z=10, x=100, v=1)
        assert 2 not in sys.primes

    def test_validation(self):
        with pytest.raises(ls.SieveConstructionError):
            ls.build_omega(2, 4, 1, z=10, x=100)
        with pytest.raises(ls.SieveConstructionError):
            ls.build_omega(3, 5, 15, z=10, x=100)
        with pytest.raises(ls.SieveConstructionError):
            ls.build_omega(7, 1, 1, z=5, x=100)  # 7 > z not smooth
        with pytest.raises(ls.SieveConstructionError):
            ls.build_omega(1, 1, 0, z=5, x=100)

    def test_omega_less_than_p(self):
        rng = random.Random(7)
        for _ in range(50):
            sys, _ = ls.random_admissible_system(rng, n_max=2000)
            for p in sys.primes:
                assert 1 <= len(sys.omega[p]) < p
                assert all(0 <= r < p for r in sys.omega[p])


class TestHValues:
    def test_h_examples(self):
        sys = ls.build_omega(2, 3, 1, z=10, x=10000, v=1)
        assert h_value(1, sys) == Fraction(1)
        assert h_value(3, sys) == Fraction(1, 2)
        assert h_value(15, sys) == Fraction(1, 3)  # (1/2)(2/3)

    def test_h_rejects_bad_q(self):
        sys = ls.build_omega(2, 3, 1, z=10, x=10000, v=1)
        with pytest.raises(ValueError):
            h_value(9, sys)
        with pytest.raises(ValueError):
            h_value(13, sys)

    def test_big_h_examples(self):
        only3 = ls.build_omega(3, 1, 1, z=3, x=300, v=1)
        assert ls.big_h(2.9, only3) == Fraction(1)
        assert ls.big_h(3, only3) == Fraction(3, 2)
        both = ls.build_omega(1, 1, 1, z=5, x=300, v=1)
        assert both.omega[3] == (0, 2) and both.omega[5] == (0, 4)
        assert ls.big_h(15, both) == Fraction(5)  # 1 + 2 + 2/3 + 4/3

    def test_big_h_matches_h_sum(self):
        # the square-free depth-first sum against h(q) summed over every q <= Q
        rng = random.Random(11)
        for _ in range(30):
            sys, q = ls.random_admissible_system(rng, n_max=5000)
            total = Fraction(0)
            for n in range(1, int(q) + 1):
                try:
                    total += h_value(n, sys)
                except ValueError:  # not square-free, or a prime outside P
                    pass
            assert ls.big_h(q, sys) == total

    def test_integer_dfs_matches_fraction_dfs(self):
        # 500 seeded instances, a third with z up to 200 for longer prime sets
        rng = random.Random(20261019)
        for i in range(500):
            sys, q = ls.random_admissible_system(rng, z_max=200 if i % 3 == 0 else 50)
            assert ls.big_h(q, sys) == squarefree_h_sum_fractions(q, sys, list(sys.primes))
            assert ls.ls_bound(sys, q) == (sys.n_range + q * q) / float(
                squarefree_h_sum_fractions(q, sys, list(sys.primes)))

    def test_big_h_monotone_in_q(self):
        sys = ls.build_omega(1, 1, 1, z=20, x=10**4, v=1)
        values = [ls.big_h(q, sys) for q in (1, 3, 7, 10, 30, 100)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_ls_bound_pinned(self):
        sys = ls.build_omega(1, 1, 1, z=10, x=10**4, v=1)
        assert ls.big_h(10, sys) == Fraction(61, 15)
        assert ls.ls_bound(sys, 10) == pytest.approx(151500 / 61, rel=1e-15)

    def test_ls_bound_arithmetic(self):
        sys = ls.build_omega(1, 1, 1, z=3, x=100, v=1)
        h = float(ls.big_h(10, sys))
        assert ls.ls_bound(sys, 10) == pytest.approx((100 + 100) / h)


class TestOmegaPrimeSet:
    """omega(p) = 1 exactly when p | a a_ell w, so H depends on a cell only
    through that prime set (the memo key of the sieve-side bound)."""

    @staticmethod
    def _single_class_iff_divides(sys):
        for p in sys.primes:
            assert (len(sys.omega[p]) == 1) == ((sys.a * sys.a_ell * sys.w) % p == 0), p

    def test_random_admissible_systems(self):
        rng = random.Random(23)
        for _ in range(60):
            sys, _ = ls.random_admissible_system(rng, n_max=2000)
            self._single_class_iff_divides(sys)

    def test_negative_shifts(self):
        for a, a_ell, w in ((1, 1, -15), (3, 1, -7), (1, 5, -21), (7, 11, -39), (2, 9, -35)):
            self._single_class_iff_divides(ls.build_omega(a, a_ell, w, z=40, x=10**5))

    def test_same_prime_set_same_h(self):
        q = 40.0
        by_key = {}
        smooth = [1, 2, 3, 5, 6, 7, 10, 13, 15, 21, 35]
        for a in smooth:
            for a_ell in smooth:
                for w in (1, -1, 3, -5, 11, -14, 33, -35):
                    if gcd(a, a_ell) != 1 or gcd(a * a_ell, abs(w)) != 1:
                        continue
                    sys = ls.build_omega(a, a_ell, w, z=30, x=10**6, p_limit=q)
                    key = tuple(p for p in sys.primes if (a * a_ell * w) % p == 0)
                    by_key.setdefault(key, set()).add(ls.big_h(q, sys))
        assert all(len(values) == 1 for values in by_key.values())
        assert len(set().union(*by_key.values())) == len(by_key)


class TestSift:
    def test_empty_prime_set(self):
        sys = ls.build_omega(1, 1, 1, z=2.5, x=50, v=1)
        assert sys.primes == ()
        assert ls.sift_bruteforce(sys) == 50

    def test_strike_multiples_of_three(self):
        sys = ls.OmegaSystem(
            n_range=10, primes=(3,), omega={3: (0,)},
            a=1, a_ell=1, w=1, v=1, r=0, x=10.0, z=3.0,
        )
        assert ls.sift_bruteforce(sys) == 7

    def test_single_surviving_class(self):
        p = 7
        sys = ls.OmegaSystem(
            n_range=p, primes=(p,), omega={p: tuple(range(1, p))},
            a=1, a_ell=1, w=1, v=1, r=0, x=float(p), z=float(p),
        )
        assert ls.sift_bruteforce(sys) == 1

    def test_oracle_scale_guard(self):
        sys = ls.OmegaSystem(
            n_range=ls.BRUTE_FORCE_MAX + 1, primes=(), omega={},
            a=1, a_ell=1, w=1, v=1, r=0, x=1.0, z=3.0,
        )
        with pytest.raises(ValueError):
            ls.sift_bruteforce(sys)


class TestInequalityAndEquivalence:
    def test_seeded_sweep_small(self):
        rng = random.Random(20260808)
        for _ in range(40):
            sys, q = ls.random_admissible_system(rng, n_max=20_000)
            count = ls.sift_bruteforce(sys)
            h = ls.big_h(q, sys)
            assert Fraction(count) * h <= sys.n_range + Fraction(q) ** 2

    def test_direct_scan_equals_sifted_model(self):
        rng = random.Random(11)
        for _ in range(25):
            sys, _ = ls.random_admissible_system(rng, n_max=5_000)
            assert direct_scan_count(sys) == ls.sift_bruteforce(sys)


class TestHLowerBound:
    @pytest.mark.parametrize("q", [0.5, float("nan")])
    def test_q_below_one_rejected(self, q):
        sys = ls.build_omega(6, 5, 7, z=12, x=5000)
        with pytest.raises(ValueError):
            ls.big_h(q, sys)
