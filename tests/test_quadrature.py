"""Adaptive Gauss-Legendre quadrature on (0, 1): the batched rule and
failure reporting."""

import math
import time

import numpy as np
import pytest

from homotrace.errors import QuadratureBudgetError, ShapeError
from homotrace.quadrature import integrate_interval
from homotrace.transfer import transfer_quadrature
from oracles import instance


def _never(nodes):
    raise AssertionError("f called")


def test_one_cell_is_exact_on_a_vector_monomial():
    """Both rules integrate degree <= 15 exactly, so one cell of 16 + 8
    nodes converges within a one-cell budget; each power x^0 .. x^15 in
    its own column pins how nodes pair with weights."""
    calls = []

    def f(nodes):
        calls.append(nodes.shape)
        return nodes[:, None] ** np.arange(16)

    value, est = integrate_interval(f, rel_tol=1e-12, budget=16 + 8)
    assert np.abs(value - 1.0 / np.arange(1, 17)).max() <= 1e-14
    assert est <= 1e-14
    assert calls == [(16,), (8,)]


def test_budget_below_one_cell_evaluates_nothing():
    """A budget of 23 is below the 16 + 8 evaluations of one cell: the
    integration raises before ``f`` is called, with no best estimate."""
    with pytest.raises(QuadratureBudgetError, match=r"\(24 evaluations\)"
                       ) as info:
        integrate_interval(_never, rel_tol=1e-9, budget=23)
    assert info.value.best is None


def test_non_finite_estimate_fails_fast():
    """A NaN cell estimate raises at once and names the cell, instead
    of refining until the budget runs out."""
    calls = 0

    def f(nodes):
        nonlocal calls
        calls += 1
        return np.where(nodes[:, None] > 0.5, math.nan, 1.0)

    with pytest.raises(QuadratureBudgetError, match=r"cell \(0\.0, 1\.0\)"
                       ) as info:
        integrate_interval(f, rel_tol=1e-9, budget=10 ** 5)
    assert math.isnan(info.value.estimate)
    assert calls == 2


def test_cost_grows_linearly_with_the_cells():
    """An integrand that never converges costs less than 16 times as much
    at 8 times the budget: each split updates running totals instead of
    summing every cell again."""
    def seconds(cells):
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(QuadratureBudgetError):
                integrate_interval(lambda x: np.sqrt(x)[:, None],
                                   rel_tol=1e-30, budget=24 * cells)
            best = min(best, time.perf_counter() - start)
        return best

    assert seconds(4000) < 16 * seconds(500)


@pytest.mark.parametrize("order", [1, 0, -2])
def test_order_below_two_is_a_shape_error(order):
    """The embedded rule of ``order // 2`` nodes needs a node: a lower
    order is refused by name, directly and through the transfer, and
    never reaches numpy's Gauss-Legendre nodes."""
    with pytest.raises(ShapeError, match=f"order {order} "):
        integrate_interval(_never, rel_tol=1e-9, order=order)
    t1f = instance("T1f")
    with pytest.raises(ShapeError, match=f"order {order} "):
        transfer_quadrature([8, 3], t1f.splitting, t1f.bundle, order=order)
