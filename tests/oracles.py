"""Test oracles: independent, deliberately plain reference computations
that the package results are checked against.  None of these is used by
the package itself."""

from fractions import Fraction

from homotrace.dgcore import EndoAlgebra, Splitting
from homotrace.errors import ShapeError
from homotrace.glinalg import GradedMap, compose, zeros_matrix
from homotrace.hochschild import HochschildChain, cyclic_shift_term
from homotrace.scalars import EXACT, zero_scalar


def matrix_from_rows(rows, mode: str):
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    m = zeros_matrix(nr, nc, mode)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            m[i, j] = Fraction(x) if mode == EXACT and isinstance(x, int) else x
    return m


def describe(chain: HochschildChain) -> str:
    """The chain's terms by basis name, for assertion messages."""
    a = chain.algebra
    parts = []
    for flats in sorted(chain.terms):
        names = ",".join(a.basis_name(f) for f in flats)
        parts.append(f"({names}): {chain.terms[flats]}")
    return " + ".join(parts) if parts else "0"


def cyclic_shift(chain: HochschildChain) -> HochschildChain:
    out = HochschildChain.zero(chain.algebra)
    for flats, c in chain.terms.items():
        rot, sign = cyclic_shift_term(chain.algebra, flats)
        out.add_term(rot, c * sign)
    return out


def cyclic_project(chain: HochschildChain) -> HochschildChain:
    """Canonical representative modulo im(1 - C): the signed orbit average."""
    out = HochschildChain.zero(chain.algebra)
    mode = chain.algebra.mode
    for flats, coeff in chain.terms.items():
        orbit: list[tuple[tuple[int, ...], int]] = []
        cur, sign = flats, 1
        while True:
            orbit.append((cur, sign))
            cur, step = cyclic_shift_term(chain.algebra, cur)
            sign *= step
            if cur == flats and sign == 1:
                break
            if len(orbit) > 2 * len(flats):
                raise ShapeError("cyclic orbit failed to close")
        ln = len(orbit)
        inv = Fraction(1, ln) if mode == EXACT else 1.0 / ln
        for rot, s in orbit:
            out.add_term(rot, coeff * s * inv)
    return out


def canonical_supertrace(chain: HochschildChain, endo: EndoAlgebra):
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
