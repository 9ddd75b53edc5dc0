"""Adaptive Gauss-Legendre integration over the unit interval (0, 1).

Cells are bisected worst estimated error first.  Error estimates compare
the full-order rule with the embedded half-order rule on the same cell.
The integrand is batched: each rule evaluates all its nodes on a cell in
one call, and the cell's value is the weight vector times the returned
value array.  Running totals of value and error follow each split; the
returned value and error are summed in a fixed order (cells sorted by left
end), so results are reproducible for a fixed scheme.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from homotrace.errors import QuadratureBudgetError, ShapeError

DEFAULT_ORDER = 16
DEFAULT_BUDGET = 10 ** 6
_UNIT = np.finfo(float).eps / 2  # unit round-off of one float addition


def _rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre rule of ``order`` nodes on (0,1): its nodes and
    their weights."""
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


def _cell_cost(order: int, budget: int) -> int:
    """The evaluations one cell takes, order + order // 2; raises what
    ``integrate_interval`` raises before its first evaluation: ShapeError
    if ``order`` is below 2, QuadratureBudgetError (``best`` None) if one
    cell exceeds ``budget``."""
    if order < 2:
        raise ShapeError(f"quadrature order {order} is below 2")
    evals_per_cell = order + order // 2
    if evals_per_cell > budget:
        raise QuadratureBudgetError(f"evaluation budget {budget} is below "
                                    f"one cell ({evals_per_cell} evaluations)")
    return evals_per_cell


def integrate_interval(f, *, rel_tol: float, order: int = DEFAULT_ORDER,
                       budget: int = DEFAULT_BUDGET
                       ) -> tuple[np.ndarray, float]:
    """Integrate the vector-valued ``f`` over (0,1).

    ``f`` maps a 1-D array of nodes to a ``(nodes, m)`` array of values; it
    is called once per rule on a cell, twice per cell.  Returns (value,
    error estimate); raises ShapeError if ``order`` is below 2 (the embedded
    rule needs a node), and QuadratureBudgetError carrying the best
    estimate if the budget runs out before the tolerance holds (``best``
    None, before any evaluation, if one cell exceeds it), or at once,
    naming the cell, if a cell's value or error estimate is not finite
    (refining it would only burn the budget).
    """
    evals_per_cell = _cell_cost(order, budget)
    rules = _rule(order), _rule(order // 2)
    used = 0
    # a cell is (-error, lo, hi, value): the heap's first is the worst cell
    heap: list[tuple] = []

    def make_cell(lo: float, hi: float) -> tuple:
        nonlocal used
        used += evals_per_cell
        full, coarse = ((hi - lo) * w @ f(lo + (hi - lo) * x)
                        for x, w in rules)
        err = float(np.max(np.abs(full - coarse))) if full.size else 0.0
        if not math.isfinite(err):
            raise QuadratureBudgetError(
                f"non-finite estimate {err} on the cell ({lo}, {hi}) after "
                f"{used} evaluations",
                best=_ordered_sum(heap)[0] if heap else full, estimate=err)
        return -err, lo, hi, full

    heap.append(make_cell(0.0, 1.0))
    # Running totals over the cells in the heap; the ordered sum is taken
    # only when they may have converged, and at exit.  ``drift`` bounds the
    # round-off of the running error, so round-off cannot hold off the
    # ordered sum once the error has fallen below the tolerance.
    value, total_err = heap[0][3], -heap[0][0]
    drift = 0.0
    while True:
        if total_err - drift <= rel_tol * _scale(value):
            value, total_err = _ordered_sum(heap)
            drift = 2 * _UNIT * len(heap) * total_err
            if total_err <= rel_tol * _scale(value):
                return value, total_err
        if used + 2 * evals_per_cell > budget:
            value, total_err = _ordered_sum(heap)
            raise QuadratureBudgetError(
                f"evaluation budget {budget} exhausted at estimate "
                f"{total_err:.3e}", best=value, estimate=total_err)
        neg_err, lo, hi, worst = heap[0]
        mid = (lo + hi) / 2.0
        low, high = make_cell(lo, mid), make_cell(mid, hi)
        heapq.heapreplace(heap, low)
        heapq.heappush(heap, high)
        value = value - worst + low[3] + high[3]
        before = total_err
        total_err = total_err + neg_err - low[0] - high[0]
        drift += 3 * _UNIT * max(before, total_err)


def _scale(value: np.ndarray) -> float:
    """The tolerance scale max(1, |value|_max)."""
    return max(1.0, float(np.max(np.abs(value))) if value.size else 0.0)


def _ordered_sum(cells: list[tuple]) -> tuple[np.ndarray, float]:
    """The summed value and error of the cells, in order of their left
    ends."""
    cells = sorted(cells, key=lambda c: c[1])
    value = cells[0][3]
    for c in cells[1:]:
        value = value + c[3]
    return value, sum(-c[0] for c in cells)
