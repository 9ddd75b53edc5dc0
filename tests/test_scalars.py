"""Exact scalar extension by i and the value encodings."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homotrace.scalars import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    GaussianRational,
    decode_value,
    encode_value,
    session_tol,
)

rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 20))


@given(rationals, rationals, rationals, rationals)
@settings(max_examples=50, deadline=None)
def test_gaussian_field_axioms(a, b, c, d):
    x = GaussianRational(a, b)
    y = GaussianRational(c, d)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * x == x * x + y * x
    if y:
        assert (x / y) * y == x


def test_gaussian_basics():
    i = GaussianRational(0, 1)
    assert i * i == -1
    assert i.conjugate() == GaussianRational(0, -1)
    assert complex(GaussianRational(Fraction(1, 2), 2)) == 0.5 + 2j
    assert GaussianRational(3) == 3
    assert bool(GaussianRational(0, 0)) is False
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


@given(rationals, rationals)
@settings(max_examples=30, deadline=None)
def test_exact_encoding_round_trip(a, b):
    assert decode_value(encode_value(Fraction(a)), EXACT) == Fraction(a)
    g = GaussianRational(a, b)
    assert decode_value(encode_value(g), EXACT) == g


def test_real_gaussian_encodes_as_its_rational():
    """The JSON type of an exact value depends on the value, not on the
    arithmetic that produced it."""
    assert encode_value(GaussianRational(1, 0)) == "1"
    assert encode_value(GaussianRational(Fraction(-3, 4))) == "-3/4"
    assert encode_value(GaussianRational(0, 2)) == {"re": "0", "im": "2"}


@given(st.floats(-1e6, 1e6, allow_nan=False), st.floats(-1e6, 1e6, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_float_encoding_round_trip(re, im):
    z = complex(re, im)
    assert decode_value(encode_value(z), FLOAT) == z


def test_decode_rejects_garbage():
    with pytest.raises(ValueError):
        decode_value([1, 2, 3], FLOAT)
    with pytest.raises(ValueError):
        decode_value(0.5, EXACT)


def test_session_tol_is_exact_or_the_float_default():
    """Exact comparisons ignore a tolerance; float ones use the given one,
    or DEFAULT_TOL when none is given."""
    assert session_tol(EXACT, None) is None
    assert session_tol(EXACT, 1e-3) is None
    assert session_tol(FLOAT, None) == DEFAULT_TOL
    assert session_tol(FLOAT, 1e-3) == 1e-3
