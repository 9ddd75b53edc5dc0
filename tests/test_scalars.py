"""Exact scalar extension by i and the value encodings."""

import math
import random
import time
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
    rational_float,
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


def _outcome(read, x):
    """A float read of x as ("ok", value, sign of value) or the error's
    type and message."""
    try:
        value = read(x)
    except Exception as exc:        # the errors themselves are compared
        return type(exc).__name__, str(exc)
    return "ok", value, math.copysign(1.0, value)


def test_rational_float_is_float_of_fraction():
    """On seeded strings over the characters of a decimal, a fraction and
    an exponent, on exponents on both sides of the shortcut's bound, and
    on non-strings, ``rational_float`` gives float(Fraction(x)): the same
    value and sign of zero, or the same error and message."""
    rng = random.Random(0)
    alphabet = "0123456789._eE+-/ d"
    cases = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
             for _ in range(20000)]
    cases += [fmt.format(m, e)
              for m in ["1", "-1", "0", "-0", "9.99", "-0.0001", ".5", "5.",
                        " 7", "1_0", "123456789"]
              for e in [*range(300, 400, 7), *range(-400, -300, 7), 1000,
                        -1000]
              for fmt in ["{}e{}", "{}E+{} ", "{}e{}x", "{}/2e{}"]]
    cases += [1, 2.5, Fraction(1, 3), True, None, "1/0", "1e5e5", "1 e5"]
    for x in cases:
        assert _outcome(rational_float, x) == _outcome(
            lambda y: float(Fraction(y)), x), x


def test_rational_float_decides_a_huge_exponent_at_once():
    """Exponents of ten million are decided from their sign, as float of
    the Fraction would decide them after expanding 10^exp: overflow, or a
    zero of the mantissa's sign."""
    start = time.perf_counter()
    for text in ["1e10000000", "-2.5E+10000000"]:
        with pytest.raises(OverflowError):
            rational_float(text)
    assert _outcome(rational_float, "-1e-10000000") == ("ok", 0.0, -1.0)
    assert _outcome(rational_float, "1e-10000000") == ("ok", 0.0, 1.0)
    assert _outcome(rational_float, "-0e10000000") == ("ok", 0.0, 1.0)
    assert time.perf_counter() - start < 1.0
