"""Adaptive tensor-product Gauss-Legendre integration over the unit cube.

Cells are refined dyadically on the axis of largest extent, worst
estimated error first.  Error estimates compare the full-order rule with
the embedded half-order rule on the same cell.  The integrand is batched:
each rule evaluates all its nodes on a cell in one call, and the cell's
value is the weight vector times the returned value array.  Running
totals of value and error follow each split; the returned value and error
are summed in a fixed order (cells sorted by corner), so results are
reproducible for a fixed scheme.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from homotrace.errors import QuadratureBudgetError

DEFAULT_ORDER = 16
DEFAULT_BUDGET = 10 ** 6
_UNIT = np.finfo(float).eps / 2  # unit round-off of one float addition


def _rule(order: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The tensor Gauss-Legendre rule of ``order`` nodes per axis on
    (0,1)^dim: its points, one per row, and their weights."""
    x, w = np.polynomial.legendre.leggauss(order)
    idx = np.indices((order,) * dim).reshape(dim, -1).T
    return (x[idx] + 1.0) / 2.0, (w[idx] / 2.0).prod(axis=1)


def _tensor_rule(f, lo: np.ndarray, hi: np.ndarray, rule) -> np.ndarray:
    points, weights = rule
    return (weights * np.prod(hi - lo)) @ f(lo + (hi - lo) * points)


@dataclass(order=True)
class _Cell:
    neg_err: float
    corner: tuple
    lo: np.ndarray = None
    hi: np.ndarray = None
    value: np.ndarray = None
    err: float = 0.0


def integrate_cube(f, dim: int, *, rel_tol: float,
                   order: int = DEFAULT_ORDER,
                   budget: int = DEFAULT_BUDGET) -> tuple[np.ndarray, float]:
    """Integrate the vector-valued ``f`` over (0,1)^dim.

    ``f`` maps a ``(nodes, dim)`` array of points to a ``(nodes, m)`` array
    of values; it is called once per rule on a cell, twice per cell.
    Returns (value, error estimate); raises QuadratureBudgetError carrying
    the best estimate if the budget runs out before the tolerance holds
    (``best`` None, before any evaluation, if one cell exceeds it), or
    at once, naming the cell, if a cell's value or error estimate is not
    finite (refining it would only burn the budget).
    """
    if dim == 0:
        return f(np.zeros((1, 0)))[0], 0.0
    evals_per_cell = order ** dim + (order // 2) ** dim
    if evals_per_cell > budget:
        raise QuadratureBudgetError(f"evaluation budget {budget} is below "
                                    f"one cell ({evals_per_cell} evaluations)")
    rules = _rule(order, dim), _rule(order // 2, dim)
    used = 0
    heap: list[_Cell] = []

    def make_cell(lo: np.ndarray, hi: np.ndarray) -> _Cell:
        nonlocal used
        used += evals_per_cell
        full, coarse = (_tensor_rule(f, lo, hi, r) for r in rules)
        err = float(np.max(np.abs(full - coarse))) if full.size else 0.0
        if not math.isfinite(err):
            raise QuadratureBudgetError(
                f"non-finite estimate {err} on the cell lo={lo.tolist()} "
                f"hi={hi.tolist()} after {used} evaluations",
                best=_corner_sum(heap)[0] if heap else full, estimate=err)
        return _Cell(neg_err=-err, corner=tuple(lo.tolist()),
                     lo=lo, hi=hi, value=full, err=err)

    heap.append(make_cell(np.zeros(dim), np.ones(dim)))
    # Running totals over the cells in the heap; the corner-sorted sum is
    # taken only when they may have converged, and at exit.  ``drift``
    # bounds the round-off of the running error, so round-off cannot hold
    # off the sorted sum once the error has fallen below the tolerance.
    value, total_err = heap[0].value, heap[0].err
    drift = 0.0
    while True:
        if total_err - drift <= rel_tol * _scale(value):
            value, total_err = _corner_sum(heap)
            drift = 2 * _UNIT * len(heap) * total_err
            if total_err <= rel_tol * _scale(value):
                return value, total_err
        if used + 2 * evals_per_cell > budget:
            value, total_err = _corner_sum(heap)
            raise QuadratureBudgetError(
                f"evaluation budget {budget} exhausted at estimate "
                f"{total_err:.3e}", best=value, estimate=total_err)
        worst = heap[0]
        axis = int(np.argmax(worst.hi - worst.lo))
        mid = (worst.lo[axis] + worst.hi[axis]) / 2.0
        lo2, hi1 = worst.lo.copy(), worst.hi.copy()
        lo2[axis] = mid
        hi1[axis] = mid
        low, high = make_cell(worst.lo, hi1), make_cell(lo2, worst.hi)
        heapq.heapreplace(heap, low)
        heapq.heappush(heap, high)
        value = value - worst.value + low.value + high.value
        before = total_err
        total_err = total_err - worst.err + low.err + high.err
        drift += 3 * _UNIT * max(before, total_err)


def _scale(value: np.ndarray) -> float:
    """The tolerance scale max(1, |value|_max)."""
    return max(1.0, float(np.max(np.abs(value))) if value.size else 0.0)


def _corner_sum(cells: list[_Cell]) -> tuple[np.ndarray, float]:
    """The summed value and error of the cells, in corner order."""
    cells = sorted(cells, key=lambda c: c.corner)
    value = cells[0].value
    for c in cells[1:]:
        value = value + c.value
    return value, sum(c.err for c in cells)
