import math
import random
from fractions import Fraction

import numpy as np
import pytest

from shiftsieve import qexpansion as qe
from shiftsieve.arith import prime_table
from shiftsieve.intpoly import mul_trunc

from .oracles import divisor_count, mul_trunc_schoolbook


def sigma(n, power):
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


ALL_WEIGHTS = qe.SUPPORTED_EIGEN_WEIGHTS


def brute_delta_coeffs(limit):
    """q * prod_{n>=1} (1 - q^n)^24 by direct polynomial multiplication."""
    poly = [1]
    for n in range(1, limit):
        factor = [0] * (n + 1)
        factor[0] = 1
        factor[n] = -1
        for _ in range(24):
            poly = mul_trunc_schoolbook(poly, factor, limit)
    poly = poly + [0] * (limit - len(poly))
    return [0] + poly[:limit]


class TestEisenstein:
    def test_e4_divisor_sum_values(self):
        e4 = qe.eisenstein_qexp(4, 2)
        assert e4.coeffs == (1, 240, 2160)
        assert 240 * sigma(2, 3) == 2160

    def test_e6_values(self):
        assert qe.eisenstein_qexp(6, 1).coeffs == (1, -504)
        assert qe.eisenstein_qexp(6, 3).coeffs == (1, -504 * sigma(1, 5), -504 * sigma(2, 5), -504 * sigma(3, 5))

    def test_e8_is_e4_squared(self):
        n = 30
        e4 = list(qe.eisenstein_qexp(4, n).coeffs)
        e8 = qe.eisenstein_qexp(8, n)
        assert list(e8.coeffs) == mul_trunc_schoolbook(e4, e4, n + 1)
        assert e8.coeffs[1] == 480

    def test_e10_e14_weights(self):
        assert qe.eisenstein_qexp(10, 5).weight == 10
        e14 = qe.eisenstein_qexp(14, 2)
        assert e14.coeffs[1] == -24  # 2*240 - 504

    def test_unsupported_weight(self):
        with pytest.raises(qe.UnsupportedWeightError):
            qe.eisenstein_qexp(12, 5)

    def test_divisor_sums_match_products(self):
        # M_8, M_10 and M_14 are one-dimensional, so E8 = E4^2, E10 = E4 E6
        # and E14 = E4^2 E6: the products the divisor sums replaced
        n = 301
        e4 = list(qe.eisenstein_qexp(4, n - 1).coeffs)
        e6 = list(qe.eisenstein_qexp(6, n - 1).coeffs)
        e8 = mul_trunc_schoolbook(e4, e4, n)
        assert list(qe.eisenstein_qexp(8, n - 1).coeffs) == e8
        assert list(qe.eisenstein_qexp(10, n - 1).coeffs) == mul_trunc_schoolbook(e4, e6, n)
        assert list(qe.eisenstein_qexp(14, n - 1).coeffs) == mul_trunc_schoolbook(e8, e6, n)


class TestDelta:
    def test_normalization(self):
        assert qe.delta_qexp(1).coeffs == (0, 1)

    def test_small_values_match_eta_product_oracle(self):
        limit = 40
        assert list(qe.delta_qexp(limit).coeffs) == brute_delta_coeffs(limit)

    def test_known_values(self):
        d = qe.delta_qexp(6)
        assert d.coeffs[2] == -24
        assert d.coeffs[3] == 252
        assert d.coeffs[6] == d.coeffs[2] * d.coeffs[3]

    def test_two_constructions_agree(self):
        n = 500
        assert qe.delta_qexp(n).coeffs == qe.delta_qexp_from_eisenstein(n).coeffs


class TestEigenform:
    def test_weight_12_is_delta(self):
        assert qe.eigenform(12, 50).qexp.coeffs == qe.delta_qexp(50).coeffs

    def test_a2_all_weights(self):
        # delta a(2) = -24 plus the q^1 coefficient of the Eisenstein factor
        expected = {12: -24, 16: 216, 18: -528, 20: 456, 22: -288, 26: -48}
        for k, a2 in expected.items():
            assert qe.eigenform(k, 4).a(2) == a2

    def test_weight_16_by_hand_convolution(self):
        f = qe.eigenform(16, 3)
        delta = qe.delta_qexp(3)
        e4 = qe.eisenstein_qexp(4, 3)
        expected = mul_trunc_schoolbook(list(delta.coeffs), list(e4.coeffs), 4)
        assert list(f.qexp.coeffs) == expected

    def test_unsupported_weights(self):
        for k in (14, 24, 28):
            with pytest.raises(qe.UnsupportedWeightError):
                qe.eigenform(k, 10)

    def test_delta_built_once_per_cutoff(self, monkeypatch):
        builds = []
        real = qe.delta_qexp

        def counting(cutoff):
            builds.append(cutoff)
            return real(cutoff)

        monkeypatch.setattr(qe, "delta_qexp", counting)
        qe._largest_form.cache_clear()
        forms = [qe.eigenform(k, 321) for k in ALL_WEIGHTS]
        assert builds == [321]
        assert all(f.cutoff == 321 for f in forms)
        # a smaller cutoff is served by truncation, with the right coefficients
        g = qe.eigenform(16, 57)
        assert builds == [321]
        delta = brute_delta_coeffs(57)
        e4 = list(qe.eisenstein_qexp(4, 57).coeffs)
        assert list(g.qexp.coeffs) == mul_trunc_schoolbook(delta, e4, 58)
        assert forms[1].qexp.coeffs[:58] == g.qexp.coeffs
        # a larger one builds Delta once more, and every weight then uses it
        assert qe.eigenform(16, 400).cutoff == 400
        assert qe.eigenform(12, 400).cutoff == 400
        assert builds == [321, 400]
        qe._largest_form.cache_clear()

    def test_truncate(self):
        f = qe.eigenform(12, 100)
        g = f.truncate(10)
        assert g.cutoff == 10
        assert g.qexp.coeffs == f.qexp.coeffs[:11]

    def test_truncate_rejects_negative_cutoff(self):
        f = qe.eigenform(12, 10)
        assert f.qexp.truncate(0).coeffs == (0,)
        for bad in (-1, -3):
            with pytest.raises(ValueError, match="cutoff must be >= 0"):
                f.qexp.truncate(bad)
        for bad in (0, -2):
            with pytest.raises(ValueError, match="cutoff must be >= 1"):
                f.truncate(bad)


def direct_eigenform(weight, cutoff):
    """The eigenform built from scratch, bypassing the per-weight memo: Delta
    as (E4^3 - E6^2)/1728 and every product by `mul_trunc` without a
    `bound`, so no slot is sized by Deligne's bound."""
    delta = qe.delta_qexp_from_eisenstein(cutoff)
    if weight == 12:
        return qe.EigenForm(12, delta)
    eis = qe.eisenstein_qexp(weight - 12, cutoff)
    coeffs = mul_trunc(list(delta.coeffs), list(eis.coeffs), cutoff + 1)
    return qe.EigenForm(weight, qe.QExpansion(weight, tuple(coeffs)))


class TestLargestFormMemo:
    """eigenform serves every cutoff of a weight from the largest form of
    that weight built so far; each served form must equal a fresh build."""

    def setup_method(self):
        qe._largest_form.cache_clear()

    def teardown_method(self):
        qe._largest_form.cache_clear()

    def test_truncation_equals_fresh_build(self):
        big = {k: qe.eigenform(k, 1000) for k in ALL_WEIGHTS}
        served = {(k, c): qe.eigenform(k, c) for k in ALL_WEIGHTS for c in (57, 321, 1000)}
        assert all(served[k, 1000] is big[k] for k in ALL_WEIGHTS)
        for (k, c), form in served.items():
            qe._largest_form.cache_clear()
            fresh = qe.eigenform(k, c)
            assert form.cutoff == c
            assert form == fresh == direct_eigenform(k, c)

    def test_deligne_sized_products_equal_unbounded_ones(self):
        # every cutoff 1..120 crosses small slot widths and the q^0..q^2
        # edge cases; the last three reach the widths of the CLI and bench
        for c in [*range(1, 121), 321, 1000, 5000]:
            qe._largest_form.cache_clear()
            for k in ALL_WEIGHTS:
                assert qe.eigenform(k, c) == direct_eigenform(k, c), (k, c)

    def test_seeded_request_sequence(self):
        rng = random.Random(10)
        for _ in range(40):
            k, c = rng.choice(ALL_WEIGHTS), rng.randint(1, 600)
            form = qe.eigenform(k, c)
            assert form.cutoff == c
            assert form == direct_eigenform(k, c)

    def test_smaller_build_replaces_nothing_larger(self):
        qe.eigenform(16, 300)
        assert qe._largest[16].cutoff == 300 and qe._largest[12].cutoff == 300
        qe.eigenform(12, 500)
        qe.eigenform(16, 200)
        assert qe._largest[16].cutoff == 300 and qe._largest[12].cutoff == 500

    def test_bad_cutoff_same_error_before_and_after_a_build(self):
        def errors():
            out = []
            for k in ALL_WEIGHTS:
                for bad in (0, -1):
                    with pytest.raises(ValueError) as info:
                        qe.eigenform(k, bad)
                    out.append((type(info.value), str(info.value)))
            return out

        before = errors()
        assert all(msg == "cutoff must be >= 1" for _, msg in before)
        for k in ALL_WEIGHTS:
            qe.eigenform(k, 800)
        assert errors() == before
        assert all(f.cutoff == 800 for f in qe._largest.values())

    def test_truncated_array_bitwise_equals_fresh_build(self):
        def hexes(arr):
            return [x.hex() for x in arr.tolist()]

        for k in ALL_WEIGHTS:
            big = qe.eigenform(k, 1500)
            early = qe.eigenform(k, 700).eigenvalue_array(700)
            # a truncation taken before the parent's array exists builds its own
            assert big._lam is None
            whole = big.eigenvalue_array(1500)
            assert hexes(early) == hexes(whole[:701])
            for c in (1, 2, 57, 700, 1499):
                served = qe.eigenform(k, c).eigenvalue_array(c)
                assert hexes(served) == hexes(direct_eigenform(k, c).eigenvalue_array(c))
                # one taken after it reads the parent's array, it does not rebuild it
                assert np.shares_memory(served, whole)

    def test_eigenvalue_array_bitwise_equals_eigenvalue(self):
        for k in ALL_WEIGHTS:
            for form in (qe.eigenform(k, 1500), qe.eigenform(k, 700)):
                lam = form.eigenvalue_array(form.cutoff).tolist()
                assert lam[0] == 0.0
                for n in range(1, form.cutoff + 1):
                    assert lam[n].hex() == form.eigenvalue(n).hex()


class TestEigenvalue:
    def test_lambda_one(self, delta_4k):
        assert delta_4k.eigenvalue(1) == 1.0

    def test_lambda_two(self, delta_4k):
        assert delta_4k.eigenvalue(2) == pytest.approx(-24 / 2 ** 5.5, rel=1e-14)
        assert f"{delta_4k.eigenvalue(2):.6f}" == "-0.530330"

    def test_multiplicativity_in_floats(self, delta_4k):
        lam = delta_4k.eigenvalue
        assert lam(6) == pytest.approx(lam(2) * lam(3), rel=1e-12)

    def test_log_domain_matches_exact_rational(self, delta_4k):
        # lambda(n) = a(n)/n^{(k-1)/2}; reference via exact integer part and
        # one floating square root
        k = delta_4k.weight
        for n in range(2, 1001):
            a = delta_4k.a(n)
            ref = float(Fraction(a, n ** ((k - 1) // 2))) / math.sqrt(n)
            val = delta_4k.eigenvalue(n)
            if ref != 0:
                assert abs(val - ref) <= 1e-12 * abs(ref)

    def test_out_of_range(self, delta_4k):
        with pytest.raises(IndexError):
            delta_4k.eigenvalue(4001)

    def test_eigenvalue_array_matches_scalar(self, delta_4k):
        arr = delta_4k.eigenvalue_array(100)
        for n in (1, 2, 17, 100):
            assert arr[n] == delta_4k.eigenvalue(n)


def certified_error(form, ns):
    """max |lam^2 n^(k-1) - a(n)^2| / a(n)^2 over ns, in exact rationals.

    Each float lam(n) is a dyadic rational, so the relative error of its
    square against the exact a(n)^2 / n^(k-1) is computed with no rounding.
    """
    k = form.weight
    lam = form.eigenvalue_array(form.cutoff).tolist()
    worst = Fraction(0)
    for n in ns:
        a = form.a(n)
        if a == 0:
            assert lam[n] == 0.0
            continue
        worst = max(worst, abs(Fraction(lam[n]) ** 2 * n ** (k - 1) - a * a) / (a * a))
    return worst


class TestEigenvalueCertificate:
    """lambda(n)^2 within 8 units of 2^-53 of a(n)^2 / n^(k-1), exactly."""

    BOUND = Fraction(8, 2**53)

    def test_every_n_to_2000(self):
        for k in ALL_WEIGHTS:
            assert certified_error(direct_eigenform(k, 2000), range(1, 2001)) <= self.BOUND

    def test_seeded_sample_to_1e5(self, forms_1e5):
        rng = random.Random(11)
        for k, form in forms_1e5.items():
            ns = rng.sample(range(1, 100_001), 2000)
            assert certified_error(form, ns) <= self.BOUND

    def test_coefficient_past_float_range_raises(self):
        form = qe.EigenForm(12, qe.QExpansion(12, (0, 1, 10**400)))
        with pytest.raises(OverflowError):
            form.eigenvalue(2)


def deligne_by_loop(form, limit):
    """The per-prime Deligne loop: violations, primes checked, max |lambda(p)|."""
    violations, checked, top = [], 0, 0.0
    for p in prime_table(limit).tolist():
        checked += 1
        lam = abs(form.eigenvalue(p))
        top = max(top, lam)
        if lam > 2.0:
            violations.append(p)
    return violations, checked, top


class TestHeckeVerify:
    def test_delta_millennium(self):
        report = qe.hecke_verify(qe.eigenform(12, 1000))
        assert report.ok
        assert report.pairs_checked > 0 and report.recursions_checked > 0
        assert report.max_abs_lambda_p < 2.0

    def test_prime_square_relation_by_hand(self, delta_4k):
        # a(2)^2 = a(4) + 2^11 * a(1)
        assert (-24) ** 2 == delta_4k.a(4) + 2**11 * delta_4k.a(1)
        assert delta_4k.a(4) == -1472

    @pytest.mark.parametrize("limit", [1, 2, 100, 400])
    def test_deligne_fields_match_per_prime_loop(self, delta_4k, limit):
        coeffs = list(delta_4k.qexp.coeffs[:401])
        for p, scale in ((2, -3), (13, 5), (97, 2)):  # |lambda(p)| just below |scale|
            coeffs[p] = scale * math.isqrt(p**11)
        form = qe.EigenForm(12, qe.QExpansion(12, tuple(coeffs)))
        report = qe.hecke_verify(form, limit)
        fields = (report.deligne_violations, report.primes_checked, report.max_abs_lambda_p)
        assert fields == deligne_by_loop(form, limit)
        assert report.deligne_violations == [p for p in (2, 13) if p <= limit]

    def test_detects_corruption(self, delta_4k):
        bad = qe.QExpansion(12, delta_4k.qexp.coeffs[:100] + (999,))
        report = qe.hecke_verify(qe.EigenForm(12, bad))
        assert not report.ok


def test_divisor_count_consistency():
    # anchors the sigma oracle used above
    for n in (1, 6, 12, 28):
        assert divisor_count(n) == sum(1 for d in range(1, n + 1) if n % d == 0)
