"""Exact truncated integer power-series arithmetic.

Series are plain lists of Python ints indexed by exponent.  Products are
exact integer convolutions; they are *evaluated* by Kronecker substitution
(pack both operands into one big number with fixed-width slots, multiply,
unpack), which turns the convolution into a single big-number product.
The slots are decimal digits and the product is a `decimal.Decimal` one in
an exact context: libmpdec switches to a number-theoretic transform for
large operands, and packing and unpacking are linear-time string joins and
slices, so no packed value ever goes through a quadratic int/str conversion.
"""

from __future__ import annotations

import decimal
from decimal import Decimal

# Integer arithmetic in this context is exact: any rounding, overflow or
# invalid operation raises instead of silently losing digits.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow, decimal.InvalidOperation],
)


def _pack(coeffs: list[int], digits: int) -> Decimal:
    """Evaluate the polynomial at 10**digits; coefficients lie in
    (-10**digits, 10**digits), so each sign part fills its slots exactly."""
    zero = "0" * digits
    pos = "".join([str(c).zfill(digits) if c > 0 else zero for c in reversed(coeffs)])
    if min(coeffs) >= 0:
        return Decimal(pos)
    neg = "".join([str(-c).zfill(digits) if c < 0 else zero for c in reversed(coeffs)])
    return _EXACT.subtract(Decimal(pos), Decimal(neg))


def _max_abs_bits(coeffs: list[int]) -> int:
    hi = max(coeffs, default=0)
    lo = min(coeffs, default=0)
    return max(hi, -lo).bit_length()


def mul_trunc(a: list[int], b: list[int], n: int) -> list[int]:
    """Exact product of two integer series, truncated to n coefficients.

    Slot width is sized from the coefficient magnitudes so every convolution
    sum fits with headroom for the sign bias; negative coefficients are
    handled by packing positive and negative parts separately.
    """
    if n <= 0:
        return []
    square = a is b
    a = a[:n]
    b = b[:n]
    bits_a = _max_abs_bits(a)
    bits_b = _max_abs_bits(b)
    if bits_a == 0 or bits_b == 0:
        return [0] * n
    slot_bits = bits_a + bits_b + min(len(a), len(b)).bit_length() + 2
    d = slot_bits * 30103 // 100000 + 1  # 10**d > 2**slot_bits: 0.30103 > log10(2)
    pa = _pack(a, d)
    prod = _EXACT.multiply(pa, pa if square else _pack(b, d))

    # Bias every slot of the full (untruncated) product by 10**d // 2 so the
    # packed value is slotwise nonnegative; negative tail slots would
    # otherwise borrow into the range being unpacked.  |slot sum| stays below
    # 2**(slot_bits - 2) < 10**d / 4, so a biased slot never carries.
    full = len(a) + len(b) - 1
    bias = 10**d // 2
    prod = _EXACT.add(prod, Decimal(f"{bias:0{d}d}" * full))
    raw = str(prod)
    if prod.is_signed() or len(raw) > full * d:
        raise OverflowError("slot width underestimated in series product")
    m = min(n, full)
    raw = raw.zfill(m * d)[-m * d :]
    out = [int(raw[i : i + d]) - bias for i in range(0, m * d, d)]
    out.reverse()
    out.extend([0] * (n - m))
    return out


def square_trunc(a: list[int], n: int) -> list[int]:
    return mul_trunc(a, a, n)
