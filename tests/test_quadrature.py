"""Adaptive cube quadrature: the batched tensor rule and failure reporting."""

import math
import time

import numpy as np
import pytest

from homotrace.errors import QuadratureBudgetError
from homotrace.quadrature import _rule, _tensor_rule, integrate_cube


def _monomial(points):
    """[1, x^1 y^3 z^5] on the leading axes of each point, one row each."""
    powers = np.prod(points ** np.array([1, 3, 5][:points.shape[1]]), axis=1)
    return np.stack([np.ones(len(points)), powers], axis=1)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_one_cell_is_exact_on_a_vector_monomial(dim):
    """Both rules integrate degree <= 15 exactly, so one cell converges
    within a one-cell budget; the distinct powers per axis pin how nodes
    pair with weights."""
    calls = []

    def f(points):
        calls.append(points.shape)
        return _monomial(points)

    value, est = integrate_cube(f, dim, rel_tol=1e-12,
                                budget=16 ** dim + 8 ** dim)
    expect = 1.0 / math.prod([2, 4, 6][:dim])
    assert np.abs(value - [1.0, expect]).max() <= 1e-14
    assert est <= 1e-14
    assert calls == [(16 ** dim, dim), (8 ** dim, dim)]


def test_budget_below_one_cell_evaluates_nothing():
    """A budget of 10 is below the 16^2 + 8^2 evaluations of one dim-2
    cell: the integration raises before ``f`` is called, with no best
    estimate."""
    def f(points):
        raise AssertionError("f called")

    with pytest.raises(QuadratureBudgetError) as info:
        integrate_cube(f, 2, rel_tol=1e-9, budget=10)
    assert info.value.best is None


def test_tensor_rule_keeps_each_axis_on_its_interval():
    """On the box [0,1] x [0,2] x [0,3] the monomial's integral changes
    under any exchange of axes."""
    value = _tensor_rule(_monomial, np.zeros(3), np.array([1.0, 2.0, 3.0]),
                         _rule(16, 3))
    expect = (1 / 2) * (2 ** 4 / 4) * (3 ** 6 / 6)
    assert np.abs(value - [6.0, expect]).max() <= 1e-12 * expect


def test_dimension_zero_is_one_point():
    value, est = integrate_cube(lambda p: np.full((len(p), 2), 3.0), 0,
                                rel_tol=1e-9)
    assert value.tolist() == [3.0, 3.0] and est == 0.0


def test_non_finite_estimate_fails_fast():
    """A NaN cell estimate raises at once and names the cell, instead
    of refining until the budget runs out."""
    calls = 0

    def f(points):
        nonlocal calls
        calls += 1
        return np.where(points[:, :1] > 0.5, math.nan, 1.0)

    with pytest.raises(QuadratureBudgetError, match=r"lo=\[0\.0\] hi=\[1\.0\]"
                       ) as info:
        integrate_cube(f, 1, rel_tol=1e-9, budget=10 ** 5)
    assert math.isnan(info.value.estimate)
    assert calls <= 3 * 2


def test_cost_grows_linearly_with_the_cells():
    """A dim-1 integrand that never converges costs less than 16 times as
    much at 8 times the budget: each split updates running totals instead
    of summing every cell again."""
    def seconds(cells):
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(QuadratureBudgetError):
                integrate_cube(np.sqrt, 1, rel_tol=1e-30, budget=24 * cells)
            best = min(best, time.perf_counter() - start)
        return best

    assert seconds(4000) < 16 * seconds(500)
