from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wbcorr
from wbcorr.rationals import (
    Rational,
    floor_frac,
    format_rational,
    gen_factorial,
    parse_rational,
)

rational_values = st.builds(
    lambda p, q: Rational(p, q), st.integers(-200, 200), st.integers(1, 60)
)


def test_floor_frac_examples():
    assert floor_frac(Rational(3, 2)) == (1, Rational(1, 2))
    assert floor_frac(Rational(-1, 2)) == (-1, Rational(1, 2))
    assert floor_frac(Rational(2)) == (2, Rational(0))


@settings(max_examples=80, deadline=None)
@given(rational_values)
def test_floor_frac_roundtrip(q):
    n, f = floor_frac(q)
    assert n + f == q
    assert 0 <= f < 1


@settings(max_examples=80, deadline=None)
@given(rational_values, st.integers(-5, 5))
def test_frac_shift_invariance(q, n):
    assert floor_frac(q + n)[1] == floor_frac(q)[1]


def test_gen_factorial_examples():
    assert gen_factorial(3, 2) == 6
    assert gen_factorial(Rational(1, 2), 0) == Rational(1, 2)
    assert gen_factorial(Rational(7, 3), -1) == 1


@settings(max_examples=60, deadline=None)
@given(rational_values, st.integers(0, 8))
def test_gen_factorial_recursion(c, m):
    assert gen_factorial(c, m) == gen_factorial(c, m - 1) * (c - m)


def naive_gen_factorial(c, m):
    """Reference: one ``Fraction`` multiply per factor ``c - k``."""
    out = Fraction(1)
    for k in range(m + 1):
        out *= Fraction(c) - k
    return out


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.integers(-100, -1).map(Rational),  # negative integral
        st.integers(0, 100).map(Rational),  # nonnegative integral
        st.builds(Rational, st.integers(-300, 300), st.integers(2, 60)),  # mostly non-integral
    ),
    st.integers(-1, 40),
)
@example(Rational(-7, 3), -1)
@example(Rational(0), -1)
@example(Rational(5, 2), 0)
@example(Rational(4), 6)
def test_gen_factorial_matches_naive_loop(c, m):
    assert gen_factorial(c, m) == naive_gen_factorial(c, m)


def test_gen_factorial_rejects_bad_range():
    with pytest.raises(ValueError):
        gen_factorial(1, -2)


def test_parse_format_roundtrip():
    for text, value in [
        ("3", Rational(3)),
        ("-1/2", Rational(-1, 2)),
        ("+4/6", Rational(2, 3)),
        ("−1/2", Rational(-1, 2)),
        ("0", Rational(0)),
    ]:
        assert parse_rational(text) == value
    assert format_rational(Rational(3, 1)) == "3"
    assert format_rational(Rational(-1, 2)) == "-1/2"
    assert parse_rational(format_rational(Rational(22, 7))) == Rational(22, 7)


def test_parse_rejects_malformed():
    for bad in ["", "1/0", "1.5", "a/b", "1/2/3", "1 / 2"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_exactness_no_spurious_denominators():
    # denominators of sums/products divide products of input denominators
    a, b = Rational(3, 8), Rational(5, 12)
    assert (a * b).denominator in (96, 48, 32, 24, 16, 12, 8, 6, 4, 3, 2, 1)
    assert (96 * (a + b)).denominator == 1


def test_every_rational_is_a_fraction():
    q = Fraction(3, 4)
    assert wbcorr.BACKEND == "fraction"
    assert type(Rational(1, 2)) is Fraction
    assert Rational(q) is q
    assert type(parse_rational("3/4")) is Fraction
