"""Supertrace functionals: cohomological, transferred, and the cyclic
higher traces.

The transferred trace is the canonical supertrace pulled back through the
push-forward on Hochschild chains; it vanishes on total boundaries and
agrees with the cohomological supertrace on closed degree-0 operators
(both facts are exercised exactly by the test suite).  The cyclic trace
sums the supertraced slot product over the signed cyclic orbit, the
canonical cocycle shape; its weights on all-even slots are +1.
"""

from __future__ import annotations

from homotrace.dgcore import EndoAlgebra, Splitting
from homotrace.errors import ShapeError
from homotrace.glinalg import GradedMap, compose, supercommutator, supertrace
from homotrace.hochschild import (
    HochschildChain,
    _push,
    _signed_rotations,
    hochschild_boundary,
)
from homotrace.scalars import session_tol, times_sign, zero_scalar
from homotrace.transfer import AInfinityMorphism


def supertrace_on_cohomology(op: GradedMap, splitting: Splitting,
                             q: GradedMap | None = None,
                             tol: float | None = None):
    """Alternating trace of the induced action on cohomology.

    ``op`` must be a degree-0 chain map (checked against ``q`` when given).
    """
    if op.degree != 0:
        raise ShapeError("supertrace on cohomology needs a degree-0 operator")
    if q is not None and not supercommutator(q, op).is_zero(
            session_tol(op.mode, tol)):
        raise ShapeError("operator does not commute with the differential")
    return supertrace(splitting.project, compose(op, splitting.include))


def transferred_trace(chain: HochschildChain, f: AInfinityMorphism):
    """The canonical supertrace pulled back through the push-forward: the
    sum of c sign str f_k(rotation) over the k signed rotations of each
    term of internal degree slots - 1, the single-slot terms of the
    push-forward and the only ones the canonical supertrace reads; nothing
    is expanded over End(M0)."""
    src = chain.algebra
    if src.space.dims != f.bundle.algebra.space.dims:
        raise ShapeError("chain algebra does not match the morphism's source")
    total = zero_scalar(src.mode)
    for flats, c in chain.terms.items():
        if sum(src.basis_degree(x) for x in flats) != len(flats) - 1:
            continue
        for rot, sign in _signed_rotations(src, flats):
            if st := f.supertrace(rot):
                total = total + times_sign(c, sign) * st
    return total


def trace_defect(alpha: HochschildChain, f: AInfinityMorphism):
    """Transferred trace of the total boundary of alpha; zero for a trace."""
    return transferred_trace(hochschild_boundary(alpha), f)


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
        for cur, sign in _signed_rotations(alg, flats):
            total = total + c * sign * supertrace(
                *(endo.maps[idx] for idx in cur))
    return total


def transferred_cyclic_trace(chain: HochschildChain, f: AInfinityMorphism,
                             level: int):
    """Pull-back of the cyclic trace through the push-forward.  The cyclic
    trace reads only terms of tensor length 2*level + 1, and those come only
    from partitions into that many blocks, so only those are pushed
    (``hochschild._push`` with that block count), in the full push's order,
    so sums keep their order."""
    return cyclic_trace(_push(chain, f, 2 * level + 1), f.target, level)


def antisymmetrized_supertrace(ops: list[GradedMap], splitting: Splitting,
                               q: GradedMap | None = None,
                               tol: float | None = None):
    """Cohomological supertrace of the cyclic-orbit-signed product of three
    closed degree-0 operators; the finite counterpart of the level-1 trace."""
    if len(ops) != 3:
        raise ShapeError("expected exactly three operators")
    for op in ops:
        if op.degree != 0:
            raise ShapeError("operators must have degree 0")
        if q is not None and not supercommutator(q, op).is_zero(
                session_tol(op.mode, tol)):
            raise ShapeError("operators must commute with the differential")
    induced = [compose(splitting.project, compose(op, splitting.include)) for op in ops]
    total = zero_scalar(ops[0].mode)
    order = [0, 1, 2]
    for _ in range(3):
        total = total + supertrace(
            induced[order[0]], compose(induced[order[1]], induced[order[2]]))
        order = [order[2]] + order[:2]
    return total
