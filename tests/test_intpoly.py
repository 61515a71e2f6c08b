from hypothesis import given, strategies as st

from shiftsieve.intpoly import mul_trunc, square_trunc

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


@given(wide_poly, wide_poly, st.integers(min_value=0, max_value=150))
def test_decimal_product_matches_schoolbook(a, b, n):
    # ragged lengths, all-nonnegative, all-nonpositive and mixed-sign
    # operands up to 10^120, n = 0 and n past the full product length
    assert mul_trunc(a, b, n) == mul_trunc_schoolbook(a, b, n)
    assert square_trunc(a, n) == mul_trunc_schoolbook(a, a, n)


def test_slot_boundaries():
    # coefficients at powers of two and ten, where the digit count of a slot
    # changes, and products whose every slot sum is negative
    for e in (1, 3, 4, 63, 64, 332, 333, 399):
        for c in (2**e - 1, 2**e, 10**e - 1, 10**e):
            for a, b in (([c, -c, c], [-c, c]), ([-c] * 5, [c] * 7), ([c, 0, -1], [-c])):
                for n in (0, 1, 4, 12):
                    assert mul_trunc(a, b, n) == mul_trunc_schoolbook(a, b, n)


@given(poly, st.integers(min_value=1, max_value=50))
def test_square_is_self_product(a, n):
    assert square_trunc(a, n) == mul_trunc(a, a, n)


def test_zero_and_identity():
    assert mul_trunc([0, 0], [1, 2, 3], 4) == [0, 0, 0, 0]
    assert mul_trunc([1], [5, -7, 11], 3) == [5, -7, 11]


def test_truncation_beyond_product_length_pads_zero():
    assert mul_trunc([1, 1], [1, 1], 6) == [1, 2, 1, 0, 0, 0]
