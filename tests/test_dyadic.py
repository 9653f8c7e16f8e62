from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ait.dyadic import Dyadic, ceil_neg_log2, dyadic_sum, floor_neg_log2

dyadics = st.builds(Dyadic, st.integers(0, 1 << 20), st.integers(0, 24))


def test_normalization():
    assert Dyadic(4, 2) == Dyadic(1, 0)
    assert Dyadic(6, 3) == Dyadic(3, 2)
    assert Dyadic(0, 7).exp == 0


def test_negative_exponent_scales_numerator():
    assert Dyadic(3, -2) == Dyadic(12, 0)


def test_parse_format_roundtrip():
    for text in ("3/2^3", "1/2^0", "0/2^0", "14585/2^14"):
        assert str(Dyadic.parse(text)) == text


@settings(max_examples=200, derandomize=True)
@given(dyadics, dyadics)
def test_arithmetic_matches_fractions(a, b):
    assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
    assert (a < b) == (a.as_fraction() < b.as_fraction())
    if a >= b:
        assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()


def test_subtraction_rejects_negative():
    with pytest.raises(ValueError):
        Dyadic(1, 3) - Dyadic(1, 1)


def test_ceil_neg_log2_examples():
    assert ceil_neg_log2(Dyadic(1, 2)) == 2  # exact power of two
    assert ceil_neg_log2(Dyadic(3, 3)) == 2  # 1/4 <= 3/8 < 1/2
    assert ceil_neg_log2(Dyadic.one()) == 0  # full measure


def test_ceil_neg_log2_rejects_zero():
    with pytest.raises(ValueError):
        ceil_neg_log2(Dyadic.zero())


@settings(max_examples=200, derandomize=True)
@given(st.integers(1, 1 << 20), st.integers(0, 24), st.integers(1, 1 << 10))
def test_integer_logs_bracket_the_value(num, exp, odd):
    q = Dyadic(num, exp)
    if q > Dyadic.one():
        return
    k = ceil_neg_log2(q)
    assert Dyadic.pow2(-k) <= q
    assert k == 0 or q < Dyadic.pow2(-(k - 1))
    f = floor_neg_log2(q)
    assert q <= Dyadic.pow2(-f)
    assert q > Dyadic.pow2(-(f + 1))
    assert (ceil_neg_log2(q.as_fraction()), floor_neg_log2(q.as_fraction())) == (k, f)
    # a Fraction just above q whose denominator keeps the odd factor d > 1
    d = 2 * odd + 1
    r = Fraction(d * num + 1, d << exp)
    if r <= 1:
        k, f = ceil_neg_log2(r), floor_neg_log2(r)
        assert Fraction(1, 1 << k) <= r < Fraction(2, 1 << k)
        assert Fraction(1, 2 << f) < r <= Fraction(1, 1 << f)


def test_dyadic_sum_telescopes():
    parts = [Dyadic(1, k) for k in range(1, 11)]
    assert dyadic_sum(parts) == Dyadic((1 << 10) - 1, 10)


def test_shifted():
    assert Dyadic(3, 5).shifted(2) == Dyadic(3, 3)
    assert Dyadic(3, 1).shifted(4) == Dyadic(24, 0)
    assert Dyadic(1, 0).halved() == Dyadic(1, 1)
