"""Adaptive cube quadrature: failure reporting."""

import math

import numpy as np
import pytest

from homotrace.errors import QuadratureBudgetError
from homotrace.quadrature import integrate_cube


def test_non_finite_estimate_fails_fast():
    """A NaN cell estimate raises at once and names the cell, instead
    of refining until the budget runs out."""
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return np.array([math.nan if x[0] > 0.5 else 1.0])

    with pytest.raises(QuadratureBudgetError, match=r"lo=\[0\.0\] hi=\[1\.0\]"
                       ) as info:
        integrate_cube(f, 1, rel_tol=1e-9, budget=10 ** 5)
    assert math.isnan(info.value.estimate)
    assert calls <= 3 * (16 + 8)
