"""Exact dyadic arithmetic against the Fraction oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from powcorr import DyadicRational, DomainError, as_dyadic


dyadics = st.builds(DyadicRational,
                    st.integers(min_value=-2 ** 80, max_value=2 ** 80),
                    st.integers(min_value=0, max_value=120))


def test_construction_normalizes():
    assert DyadicRational(4, 2) == DyadicRational(1, 0)
    assert DyadicRational(6, 1) == DyadicRational(3, 0)
    assert DyadicRational(0, 7) == DyadicRational(0, 0)


def test_negative_exponent_rejected():
    with pytest.raises(DomainError):
        DyadicRational(1, -1)


@given(dyadics, dyadics)
@settings(max_examples=300, deadline=None)
def test_add_sub_mul_match_fractions(p, q):
    assert (p + q).as_fraction() == p.as_fraction() + q.as_fraction()
    assert (p - q).as_fraction() == p.as_fraction() - q.as_fraction()
    assert (p * q).as_fraction() == p.as_fraction() * q.as_fraction()


@given(dyadics, dyadics)
@settings(max_examples=300, deadline=None)
def test_comparisons_match_fractions(p, q):
    assert (p < q) == (p.as_fraction() < q.as_fraction())
    assert (p == q) == (p.as_fraction() == q.as_fraction())
    assert (p <= q) == (p.as_fraction() <= q.as_fraction())


@given(dyadics)
@settings(max_examples=200, deadline=None)
def test_parse_roundtrip(p):
    assert DyadicRational.parse(str(p)) == p


def test_float_conversion_small_values_exact():
    # binary64 represents every dyadic with <= 53 mantissa bits exactly
    assert float(DyadicRational(3, 1)) == 1.5
    assert float(DyadicRational(-7, 3)) == -0.875


def test_as_dyadic_accepts_floats_and_dyadic_fractions():
    assert as_dyadic(0.375) == DyadicRational(3, 3)
    assert as_dyadic(Fraction(5, 4)) == DyadicRational(5, 2)
    assert as_dyadic(-2) == DyadicRational(-2, 0)


def test_as_dyadic_rejects_non_dyadic():
    with pytest.raises(DomainError):
        as_dyadic(Fraction(1, 3))


def test_float_of_1_02_is_dyadic_but_not_51_over_50():
    # decimal literals are read as binary64 values, which are dyadic by
    # construction even when the decimal itself is not
    d = as_dyadic(1.02)
    assert d.as_fraction() != Fraction(51, 50)
    assert float(d) == 1.02


@pytest.mark.parametrize("text, value", [
    ("3/2^1", Fraction(3, 2)),
    ("-38170074242229842421/2^64", Fraction(-38170074242229842421, 2 ** 64)),
    ("3/2", Fraction(3, 2)),
    ("+6/8", Fraction(3, 4)),
    (" 5 / 2^2 ", Fraction(5, 4)),
    ("12345678901234567890123", Fraction(12345678901234567890123)),
    ("0.375", Fraction(3, 8)),
    ("1.02", Fraction(1.02)),
])
def test_parse_grammar(text, value):
    assert DyadicRational.parse(text).as_fraction() == value


@pytest.mark.parametrize("text", [
    "1/3", "3/0", "inf", "-inf", "nan", "1e400", "abc", "2^3", "1/2^-1",
    "5 / 4", "1/2^100000", "9" * 5000 + "/2^3",
], ids=lambda text: text if len(text) < 20 else "5000-digit-numerator")
def test_parse_refuses_non_dyadic_and_non_finite_input(text):
    with pytest.raises(DomainError):
        DyadicRational.parse(text)
