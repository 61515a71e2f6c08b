import pytest
from hypothesis import given, strategies as st

from shiftsieve.intpoly import mul_trunc, square_trunc
from shiftsieve.qexpansion import delta_qexp, eisenstein_qexp

from .oracles import mul_trunc_schoolbook

coeff = st.integers(min_value=-(10**25), max_value=10**25)
poly = st.lists(coeff, min_size=1, max_size=40)


@given(poly, poly, st.integers(min_value=1, max_value=90))
def test_mul_trunc_matches_schoolbook(a, b, n):
    assert mul_trunc(a, b, n) == mul_trunc_schoolbook(a, b, n)


def _wide_poly(sign):
    magnitude = st.integers(min_value=0, max_value=10**120)
    return st.lists(magnitude.map(sign), min_size=1, max_size=60)


wide_poly = st.one_of(
    _wide_poly(lambda c: c),
    _wide_poly(lambda c: -c),
    st.lists(st.integers(min_value=-(10**120), max_value=10**120), min_size=1, max_size=60),
)


def _exact_bound(coeffs):
    return max(map(abs, coeffs), default=0)


@given(wide_poly, wide_poly, st.integers(min_value=0, max_value=150))
def test_decimal_product_matches_schoolbook(a, b, n):
    # ragged lengths, all-nonnegative, all-nonpositive and mixed-sign
    # operands up to 10^120, n = 0 and n past the full product length, with
    # the default bound and with the tightest one a caller can pass: the
    # exact max |c_i| of the n kept coefficients
    product = mul_trunc_schoolbook(a, b, n)
    square = mul_trunc_schoolbook(a, a, n)
    assert mul_trunc(a, b, n) == product
    assert square_trunc(a, n) == square
    assert mul_trunc(a, b, n, bound=_exact_bound(product)) == product
    assert square_trunc(a, n, bound=_exact_bound(square)) == square


def test_slot_boundaries():
    # coefficients at powers of two and ten, where the digit count of a slot
    # changes, and products whose every slot sum is negative, with the
    # default bound and with the exact max |c_i| of the kept coefficients
    for e in (1, 3, 4, 63, 64, 332, 333, 399):
        for c in (2**e - 1, 2**e, 10**e - 1, 10**e):
            for a, b in (([c, -c, c], [-c, c]), ([-c] * 5, [c] * 7), ([c, 0, -1], [-c])):
                for n in (0, 1, 4, 12):
                    expected = mul_trunc_schoolbook(a, b, n)
                    assert mul_trunc(a, b, n) == expected
                    assert mul_trunc(a, b, n, bound=_exact_bound(expected)) == expected


@given(poly, st.integers(min_value=1, max_value=50))
def test_square_is_self_product(a, n):
    assert square_trunc(a, n) == mul_trunc(a, a, n)


def test_zero_and_identity():
    assert mul_trunc([0, 0], [1, 2, 3], 4) == [0, 0, 0, 0]
    assert mul_trunc([1], [5, -7, 11], 3) == [5, -7, 11]


def test_truncation_beyond_product_length_pads_zero():
    assert mul_trunc([1, 1], [1, 1], 6) == [1, 2, 1, 0, 0, 0]


def test_operand_wider_than_bound():
    # Delta * E14 at cutoff 57 with Deligne's bound 2 * 57^13: the bound
    # has 77 bits, E14's coefficients 81, so a slot sized from the bound
    # alone cannot hold the packed operand
    delta = list(delta_qexp(57).coeffs)
    e14 = list(eisenstein_qexp(14, 57).coeffs)
    bound = 2 * 57**13
    assert bound.bit_length() == 77
    assert max(abs(c) for c in e14).bit_length() == 81
    expected = mul_trunc_schoolbook(delta, e14, 58)
    assert mul_trunc(delta, e14, 58, bound=bound) == expected
    assert expected[57] == 1190890965531971687760


def test_bound_below_a_kept_coefficient_raises():
    # the true coefficients fit the slot, which the operands size, but one
    # of them is above the bound passed
    a, b = [1, 1], [10**20, 1]
    assert mul_trunc(a, b, 3, bound=10**20 + 1) == [10**20, 10**20 + 1, 1]
    for bound in (10**20, 0):
        with pytest.raises(OverflowError):
            mul_trunc(a, b, 3, bound=bound)
    with pytest.raises(OverflowError):
        mul_trunc([1, 1], [-(10**20), -1], 2, bound=10**20)
    with pytest.raises(OverflowError):
        square_trunc([10**10, 10**10], 2, bound=10**20)
    # a coefficient past the n kept ones is not checked against the bound
    assert mul_trunc(a, b, 1, bound=10**20) == [10**20]
