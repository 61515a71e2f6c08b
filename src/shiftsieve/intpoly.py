"""Exact truncated integer power-series arithmetic.

Series are plain lists of Python ints indexed by exponent.  Products are
exact integer convolutions; they are *evaluated* by Kronecker substitution
(pack both operands into one big number with fixed-width slots, multiply,
unpack), which turns the convolution into a single big-number product.
The slots are decimal digits and the product is a `decimal.Decimal` one in
an exact context: libmpdec switches to a number-theoretic transform for
large operands, and packing and unpacking are linear-time string joins and
slices, so no packed value ever goes through a quadratic int/str conversion.

A slot is sized from a bound on the kept coefficients, which a caller that
knows one (Deligne's bound for an eigenform) passes in, and from the
operand coefficients, which must fit their slots too.  Only the n kept
slots are biased and unpacked: the slots above them may overflow and carry,
but carries only move up, so the low n slots of the product are exact.
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


def _max_abs(coeffs: list[int]) -> int:
    return max(max(coeffs, default=0), -min(coeffs, default=0))


def mul_trunc(a: list[int], b: list[int], n: int, *, bound: int | None = None) -> list[int]:
    """Exact product of two integer series, truncated to n coefficients.

    `bound` is a proven bound on |c_i| for the n kept coefficients; the
    default, max|a| * max|b| * min(len(a), len(b)), holds for any operands.
    Each slot is wide enough for the bound, the operand coefficients and a
    sign bias.  A kept coefficient above the bound raises OverflowError.
    """
    if n <= 0:
        return []
    square = a is b
    a = a[:n]
    b = b[:n]
    max_a = _max_abs(a)
    max_b = max_a if square else _max_abs(b)
    if not max_a or not max_b:
        return [0] * n
    if bound is None:
        bound = max_a * max_b * min(len(a), len(b))
    slot_bits = max(bound, max_a, max_b).bit_length() + 2
    d = slot_bits * 30103 // 100000 + 1  # 10**d > 2**slot_bits: 0.30103 > log10(2)
    pa = _pack(a, d)
    prod = _EXACT.multiply(pa, pa if square else _pack(b, d))

    # The low m slots of |prod| hold the kept coefficients, negated when prod
    # is negative.  Biasing each of them by 10**d // 2 makes every one
    # nonnegative, so none borrows from the next, and as |c_i| <= bound <
    # 2**(slot_bits - 2) < 10**d / 4, none carries into the next either.
    m = min(n, len(a) + len(b) - 1)
    negative = prod.is_signed()
    bias = 10**d // 2
    biased = _EXACT.add(prod.copy_abs(), Decimal(f"{bias:0{d}d}" * m))
    raw = str(biased)[-m * d :].zfill(m * d)
    out = [int(raw[i : i + d]) - bias for i in range(0, m * d, d)]
    if negative:
        out = [-c for c in out]
    if max(out) > bound or min(out) < -bound:
        raise OverflowError("a kept coefficient exceeds the bound of the series product")
    out.reverse()
    out.extend([0] * (n - m))
    return out


def square_trunc(a: list[int], n: int, *, bound: int | None = None) -> list[int]:
    return mul_trunc(a, a, n, bound=bound)
