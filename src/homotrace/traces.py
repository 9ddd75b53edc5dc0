"""Supertrace functionals: cohomological, canonical, projected, transferred,
and the cyclic higher traces.

The transferred trace is the canonical supertrace pulled back through the
push-forward on Hochschild chains; it vanishes on total boundaries and
agrees with the cohomological supertrace on closed degree-0 operators
(both facts are exercised exactly by the test suite).  The cyclic trace
sums the supertraced slot product over the signed cyclic orbit, the
canonical cocycle shape; its weights on all-even slots are +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from homotrace.dgcore import CohomologyData, EndoAlgebra, Splitting
from homotrace.errors import ShapeError
from homotrace.glinalg import GradedMap, compose, supercommutator
from homotrace.hochschild import (
    HochschildChain,
    boundary_parts,
    cyclic_shift_term,
    push_chain,
    target_algebra,
)
from homotrace.scalars import zero_scalar
from homotrace.transfer import AInfinityMorphism


def supertrace_on_cohomology(op: GradedMap, coh: CohomologyData,
                             q: GradedMap | None = None,
                             tol: float | None = None):
    """Alternating trace of the induced action on cohomology.

    ``op`` must be a degree-0 chain map (checked against ``q`` when given).
    """
    if op.degree != 0:
        raise ShapeError("supertrace on cohomology needs a degree-0 operator")
    if q is not None and not supercommutator(q, op).is_zero(tol):
        raise ShapeError("operator does not commute with the differential")
    induced = compose(coh.project, compose(op, coh.include))
    return induced.supertrace()


def canonical_supertrace(chain: HochschildChain, endo: EndoAlgebra,
                         ):
    """Nonzero only on single-slot degree-0 terms: even trace minus odd trace."""
    total = zero_scalar(chain.algebra.mode)
    for flats, c in chain.terms.items():
        if len(flats) != 1:
            continue
        if chain.algebra.basis_degree(flats[0]) != 0:
            continue
        total = total + c * endo.maps[flats[0]].supertrace()
    return total


def projected_supertrace(op: GradedMap, splitting: Splitting):
    """Supertrace of the operator squeezed between the cohomology projectors."""
    if op.degree != 0:
        return zero_scalar(op.mode)
    squeezed = compose(splitting.pi0, compose(op, splitting.pi0))
    return squeezed.supertrace()


def transferred_trace(chain: HochschildChain, f: AInfinityMorphism):
    """The canonical supertrace pulled back through the push-forward.

    Only terms of total chain degree 0 (internal degree = slots - 1)
    contribute; the value is linear in the chain.
    """
    endo = target_algebra(f)
    relevant = HochschildChain.zero(chain.algebra)
    for flats, c in chain.terms.items():
        if sum(chain.algebra.basis_degree(x) for x in flats) == len(flats) - 1:
            relevant.add_term(flats, c)
    return canonical_supertrace(push_chain(relevant, f), endo)


@dataclass(frozen=True)
class TraceFunctional:
    """A family of tensor-length components evaluated on chains."""

    provenance: str  # "canonical" | "pulled-back" | "direct"
    evaluate: Callable[[HochschildChain], object]

    def __call__(self, chain: HochschildChain):
        return self.evaluate(chain)


def trace_functional(f: AInfinityMorphism) -> TraceFunctional:
    return TraceFunctional(provenance="pulled-back",
                           evaluate=lambda chain: transferred_trace(chain, f))


def trace_defect(alpha: HochschildChain, trace: TraceFunctional):
    """Value of the trace on the total boundary of alpha; zero for a trace."""
    hoch, internal = boundary_parts(alpha)
    return trace(hoch) + trace(internal)


def cyclic_trace(chain: HochschildChain, endo: EndoAlgebra, level: int):
    """Higher trace on tensor length 2*level + 1: the supertraced slot
    product summed over the signed cyclic orbit.

    Terms of the wrong tensor length raise; terms off the degree-0 total
    contribute nothing.
    """
    k = 2 * level + 1
    alg = chain.algebra
    total = zero_scalar(alg.mode)
    for flats, c in chain.terms.items():
        if len(flats) != k:
            raise ShapeError(
                f"cyclic trace at level {level} needs tensor length {k}, "
                f"got {len(flats)}")
        if sum(alg.basis_degree(x) for x in flats) != 0:
            continue
        cur, sign = flats, 1
        for _ in range(k):
            m = endo.maps[cur[0]]
            for idx in cur[1:]:
                m = compose(m, endo.maps[idx])
            total = total + c * sign * m.supertrace()
            cur, step = cyclic_shift_term(alg, cur)
            sign *= step
    return total


def transferred_cyclic_trace(chain: HochschildChain, f: AInfinityMorphism,
                             level: int):
    """Pull-back of the cyclic trace through the push-forward."""
    endo = target_algebra(f)
    pushed = push_chain(chain, f)
    k = 2 * level + 1
    filtered = HochschildChain.zero(pushed.algebra)
    for flats, c in pushed.terms.items():
        if len(flats) == k:
            filtered.add_term(flats, c)
    return cyclic_trace(filtered, endo, level)


def antisymmetrized_supertrace(ops: list[GradedMap], coh: CohomologyData,
                               q: GradedMap | None = None,
                               tol: float | None = None):
    """Cohomological supertrace of the cyclic-orbit-signed product of three
    closed degree-0 operators; the finite counterpart of the level-1 trace."""
    if len(ops) != 3:
        raise ShapeError("expected exactly three operators")
    for op in ops:
        if op.degree != 0:
            raise ShapeError("operators must have degree 0")
        if q is not None and not supercommutator(q, op).is_zero(tol):
            raise ShapeError("operators must commute with the differential")
    induced = [compose(coh.project, compose(op, coh.include)) for op in ops]
    total = zero_scalar(ops[0].mode)
    order = [0, 1, 2]
    for _ in range(3):
        prod = compose(induced[order[0]],
                       compose(induced[order[1]], induced[order[2]]))
        total = total + prod.supertrace()
        order = [order[2]] + order[:2]
    return total
