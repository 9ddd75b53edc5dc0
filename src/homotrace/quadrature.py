"""Adaptive tensor-product Gauss-Legendre integration over the unit cube.

Cells are refined dyadically on the axis of largest extent, worst
estimated error first.  Error estimates compare the full-order rule with
the embedded half-order rule on the same cell.  Summation order is fixed
(cells sorted by corner), so results are reproducible for a fixed scheme.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from homotrace.errors import QuadratureBudgetError

DEFAULT_ORDER = 16
DEFAULT_BUDGET = 10 ** 6


def _panel(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


def _tensor_rule(f, lo: np.ndarray, hi: np.ndarray, order: int) -> np.ndarray:
    nodes, weights = _panel(order)
    dim = lo.size
    scale = hi - lo
    grids = [lo[d] + scale[d] * nodes for d in range(dim)]
    total = None
    idx = np.zeros(dim, dtype=int)
    while True:
        point = np.array([grids[d][idx[d]] for d in range(dim)])
        wgt = float(np.prod([weights[idx[d]] for d in range(dim)]))
        val = f(point) * (wgt * float(np.prod(scale)))
        total = val if total is None else total + val
        d = 0
        while d < dim:
            idx[d] += 1
            if idx[d] < order:
                break
            idx[d] = 0
            d += 1
        if d == dim:
            break
    return total


@dataclass(order=True)
class _Cell:
    neg_err: float
    corner: tuple
    lo: np.ndarray = None
    hi: np.ndarray = None
    value: np.ndarray = None
    err: float = 0.0


def integrate_cube(f, dim: int, rel_tol: float = 1e-9,
                   order: int = DEFAULT_ORDER,
                   budget: int = DEFAULT_BUDGET) -> tuple[np.ndarray, float]:
    """Integrate the vector-valued ``f`` over (0,1)^dim.

    Returns (value, error estimate); raises QuadratureBudgetError carrying
    the best estimate if the budget runs out before the tolerance holds, or
    at once, naming the cell, if a cell's value or error estimate is not
    finite (refining it would only burn the budget).
    """
    if dim == 0:
        return f(np.zeros(0)), 0.0
    evals_per_cell = order ** dim + (order // 2) ** dim
    used = 0
    value = None

    def make_cell(lo: np.ndarray, hi: np.ndarray) -> _Cell:
        nonlocal used
        used += evals_per_cell
        full = _tensor_rule(f, lo, hi, order)
        coarse = _tensor_rule(f, lo, hi, order // 2)
        err = float(np.max(np.abs(full - coarse))) if full.size else 0.0
        if not math.isfinite(err):
            raise QuadratureBudgetError(
                f"non-finite estimate {err} on the cell lo={lo.tolist()} "
                f"hi={hi.tolist()} after {used} evaluations",
                best=full if value is None else value, estimate=err)
        return _Cell(neg_err=-err, corner=tuple(lo.tolist()),
                     lo=lo, hi=hi, value=full, err=err)

    heap: list[_Cell] = [make_cell(np.zeros(dim), np.ones(dim))]
    while True:
        cells = sorted(heap, key=lambda c: c.corner)
        value = cells[0].value
        for c in cells[1:]:
            value = value + c.value
        total_err = sum(c.err for c in cells)
        scale = max(1.0, float(np.max(np.abs(value))) if value.size else 0.0)
        if total_err <= rel_tol * scale:
            return value, total_err
        if used + 2 * evals_per_cell > budget:
            raise QuadratureBudgetError(
                f"evaluation budget {budget} exhausted at estimate "
                f"{total_err:.3e}", best=value, estimate=total_err)
        worst = heapq.heappop(heap)
        axis = int(np.argmax(worst.hi - worst.lo))
        mid = (worst.lo[axis] + worst.hi[axis]) / 2.0
        lo2, hi1 = worst.lo.copy(), worst.hi.copy()
        lo2[axis] = mid
        hi1[axis] = mid
        heapq.heappush(heap, make_cell(worst.lo, hi1))
        heapq.heappush(heap, make_cell(lo2, worst.hi))
