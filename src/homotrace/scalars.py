"""Scalar arithmetic for the two computation modes.

Exact mode works over the rationals (``fractions.Fraction``) optionally
extended by i (``GaussianRational``); float mode works over complex
doubles.  Float comparisons always go through a single session tolerance
passed down by the caller, never a per-call epsilon: a public entry takes
``tol=None`` and resolves it where it enters, by the one rule
``session_tol``, the only code that names the default ``DEFAULT_TOL``.
"""

from __future__ import annotations

import cmath
import re
from fractions import Fraction

DEFAULT_TOL = 1e-10
# |decimal exponent| of an exact value's text: Fraction expands 10^exp in
# full.  verify on T1 with one entry 1e10000 took 0.30 s (0.25 s with
# plain entries), 1e100000 3.1 s and 1e1000000 210 s
MAX_EXACT_EXPONENT = 10_000

EXACT = "exact"
FLOAT = "float"


def session_tol(mode: str, tol: float | None) -> float | None:
    """The tolerance a comparison in ``mode`` uses: None (exact) in exact
    mode; in float mode ``tol``, or DEFAULT_TOL when it is None."""
    return None if mode == EXACT else DEFAULT_TOL if tol is None else tol


class GaussianRational:
    """a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        return f"{self.re}+{self.im}i"


def encode_value(x) -> object:
    """JSON-stable encoding: exact values as strings (a Gaussian rational
    with zero imaginary part as its rational), floats round-trip via repr."""
    if isinstance(x, GaussianRational) and x.im == 0:
        x = x.re
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, GaussianRational):
        return {"re": str(x.re), "im": str(x.im)}
    if isinstance(x, complex):
        if x.imag == 0.0:
            return x.real
        return [x.real, x.imag]
    if isinstance(x, (int, float)):
        return float(x)
    raise TypeError(f"cannot encode scalar {x!r}")


def decode_value(obj, mode: str):
    """Inverse of encode_value; mode decides the target scalar type.

    Float values must be finite: NaN, infinities and numbers beyond the
    double range raise ValueError.  An exact text whose decimal exponent
    exceeds MAX_EXACT_EXPONENT in size raises ValueError too.
    """
    if mode == EXACT:
        if isinstance(obj, (str, int)):
            return _exact_fraction(obj)
        if isinstance(obj, dict):
            return GaussianRational(_exact_fraction(obj["re"]),
                                    _exact_fraction(obj["im"]))
        raise ValueError(f"not an exact scalar encoding: {obj!r}")
    if mode == FLOAT:
        try:
            z = _decode_float(obj)
        except OverflowError as exc:
            raise ValueError(f"float scalar out of range: {obj!r}") from exc
        if not cmath.isfinite(z):
            raise ValueError(f"non-finite float scalar: {obj!r}")
        return z
    raise ValueError(f"unknown scalar mode {mode!r}")


def _decode_float(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(obj[0], obj[1])
    if isinstance(obj, str):
        return complex(rational_float(obj))
    if isinstance(obj, dict):
        return complex(rational_float(obj["re"]), rational_float(obj["im"]))
    raise ValueError(f"not a float scalar encoding: {obj!r}")


# a decimal with an exponent, as Fraction reads it: the mantissa ends in a
# digit or a point and holds no slash, so it is a valid Fraction string
# exactly when the whole text is
_EXPONENT = re.compile(
    r"(?P<mantissa>[^/eE]*[\d.])[eE](?P<exp>[-+]?\d+(?:_\d+)*)\s*")


def _exact_fraction(x) -> Fraction:
    """Fraction(x), refusing (ValueError) a text whose decimal exponent is
    above MAX_EXACT_EXPONENT in size before 10^exp is expanded."""
    m = _EXPONENT.fullmatch(x) if isinstance(x, str) else None
    if m is not None and abs(int(m["exp"])) > MAX_EXACT_EXPONENT:
        raise ValueError(f"exact value {x[:40]!r} has a decimal exponent "
                         f"above the cap {MAX_EXACT_EXPONENT}")
    return Fraction(x)


def rational_float(x) -> float:
    """float(Fraction(x)), with the same value and the same errors, but
    without expanding a huge decimal exponent.  A nonzero mantissa of a
    text of length len lies between 10^-len and 10^len, so beyond |exp| =
    len + 330 the value overflows (OverflowError) or rounds to the zero of
    the mantissa's sign, as ``float`` of the Fraction would; a nearer
    exponent is read by Fraction."""
    m = _EXPONENT.fullmatch(x) if isinstance(x, str) else None
    if m is not None:
        try:
            mantissa, exp = Fraction(m["mantissa"]), int(m["exp"])
        except ValueError:      # Fraction(x) raises its own error below
            pass
        else:
            if abs(exp) > len(x) + 330:
                if exp > 0 and mantissa:
                    raise OverflowError("integer division result too large "
                                        "for a float")
                return -0.0 if mantissa < 0 else 0.0
    return float(Fraction(x))


def times_sign(x, sign: int):
    """x times a Koszul sign +1 or -1.  An exact scalar is negated, or
    returned as it is: the same value as the product, without the gcd a
    Fraction product takes.  A float scalar is multiplied, because -z and
    z * -1 differ in the sign of a zero part of a complex z."""
    if type(x) is Fraction or type(x) is GaussianRational:
        return x if sign > 0 else -x
    return x * sign


# Fractions are immutable, so every exact zero and one can be these two
_ZERO, _ONE = Fraction(0), Fraction(1)


def zero_scalar(mode: str):
    return _ZERO if mode == EXACT else 0j


def one_scalar(mode: str):
    return _ONE if mode == EXACT else 1 + 0j
