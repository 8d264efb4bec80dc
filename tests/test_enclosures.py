from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tdyn.enclosures import (
    MAX_BITS,
    START_BITS,
    decide_order,
    poly_root_enclosures,
    precision_ladder,
    real_part_sign,
    real_root_enclosures,
)
from tdyn.errors import PrecisionError
from tdyn.exact_linalg import IntPolynomial


def poly(*coeffs):
    return IntPolynomial.of(coeffs)


def recorded(fn):
    """fn plus the list of precisions it was asked for."""
    asked = []

    def call(bits):
        asked.append(bits)
        return fn(bits)
    return call, asked


def test_precision_ladder_starts_at_8_and_passes_the_old_precisions():
    ladder = list(precision_ladder())
    assert ladder[0] == START_BITS == 8
    assert ladder[-1] == MAX_BITS == 1024
    assert {128, 256, 512, 1024} <= set(ladder)


def test_decide_order_settles_separated_values_at_8_bits():
    sqrt2 = real_root_enclosures(poly(-2, 0, 1))[1]
    sqrt3 = real_root_enclosures(poly(-3, 0, 1))[1]
    fa, asked = recorded(sqrt2.modsq)
    assert decide_order(fa, sqrt3.modsq) == -1
    assert decide_order(sqrt3.modsq, sqrt2.modsq) == 1
    assert asked == [8]


def test_real_part_sign_settles_at_8_bits():
    # roots 1 -+ i of x^2 - 2x + 2
    encl = poly_root_enclosures(poly(2, -2, 1))
    box_fn, asked = recorded(encl[0].box)
    assert real_part_sign(box_fn) == 1
    assert asked == [8]


def test_equal_values_raise_at_the_ceiling():
    # the two roots -+ i of x^2 + 1 share |root|^2 = 1
    i_minus, i_plus = poly_root_enclosures(poly(1, 0, 1))
    fa, asked = recorded(i_minus.modsq)
    with pytest.raises(PrecisionError):
        decide_order(fa, i_plus.modsq)
    # both widths fall below CEILING_WIDTH at 128 bits
    assert asked == [8, 16, 32, 64, 128]
    one = lambda _bits: (Fraction(1), Fraction(1))
    with pytest.raises(PrecisionError):
        decide_order(one, one)


def test_real_part_sign_of_zero_raises():
    around_zero = lambda bits: (-Fraction(1, 2 ** bits), Fraction(1, 2 ** bits),
                                Fraction(1), Fraction(1))
    with pytest.raises(PrecisionError):
        real_part_sign(around_zero)


def test_poly_root_enclosures_count_multiplicity():
    # (x - 1)^2 (x^2 + 1) x
    p = poly(-1, 1).pow(2) * poly(1, 0, 1) * poly(0, 1)
    encl = poly_root_enclosures(p)
    assert len(encl) == p.degree == 5
    assert [e.is_real for e in encl] == [True, True, True, False, False]
    assert len(real_root_enclosures(p)) == 3


FACTORS = [
    poly(0, 1),            # x: a zero root
    poly(-1, 1),           # x - 1
    poly(1, 2),            # 2x + 1
    poly(-2, 0, 1),        # x^2 - 2
    poly(1, 0, 1),         # x^2 + 1
    poly(-1, -1, 1),       # x^2 - x - 1
    poly(2, -2, 1),        # x^2 - 2x + 2
    poly(-1, -1, 0, 1),    # x^3 - x - 1
]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=4),
       st.sampled_from([8, 64]))
def test_real_root_enclosures_match_the_filtered_full_isolation(factors, bits):
    # a factor drawn twice gives repeated roots
    p = poly(3)
    for f in factors:
        p = p * f
    fast = real_root_enclosures(p)
    oracle = [e for e in poly_root_enclosures(p) if e.is_real]
    assert [e.index for e in fast] == [e.index for e in oracle]
    assert [e.box(bits) for e in fast] == [e.box(bits) for e in oracle]
