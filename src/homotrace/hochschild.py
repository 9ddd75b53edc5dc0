"""Hochschild and cyclic chains of a dg algebra and the transferred push-forward.

Chains are formal combinations of elementary tensors of homogeneous basis
operators, stored as {tuple of flat basis indices: coefficient}.

Every graded sign comes from one mechanism: a tensor is a word b_1 ... b_m
of degree-shifted slots (slot parity = degree - 1), and structure maps act
on the word with Koszul passage signs only (``glinalg.bar_signs``):

  internal:  b_i -> d b_i            sigma_i = (-1)^(sum_{l<i} (deg b_l - 1))
  merge:     (b_i, b_{i+1}) -> b_i b_{i+1}          sigma_i (-1)^(deg b_i)
  rotation:  last slot to the front, passage sign

The wrap-around term of the differential is merge-after-rotation.  The
push-forward applies the transferred components f_m(b_1, ..., b_m) =
p rho(b_1) h ... h rho(b_m) i (``AInfinityMorphism.on_basis``) blockwise to
every rotation whose leading block contains the first slot.  On shifted
words these components have degree 0, so they add no sign; the
push-forward is a chain map because f satisfies the bar relation with the
same two signs (``transfer.ainfinity_defect``).  The test suite checks, in
exact arithmetic, that the differential squares to zero, matches the
ungraded textbook signs and descends to the cyclic quotient, and that the
push-forward is a chain map on every basis chain of length <= 3 of several
random instances, including ones whose cohomology has odd components.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from homotrace.dgcore import DgAlgebra, EndoAlgebra, endomorphism_algebra
from homotrace.errors import ShapeError
from homotrace.glinalg import bar_signs
from homotrace.scalars import EXACT, one_scalar
from homotrace.transfer import AInfinityMorphism


@dataclass
class HochschildChain:
    """Formal combination of elementary tensors over a fixed algebra basis."""

    algebra: DgAlgebra
    terms: dict[tuple[int, ...], object]

    @staticmethod
    def zero(algebra: DgAlgebra) -> "HochschildChain":
        return HochschildChain(algebra, {})

    @staticmethod
    def of(algebra: DgAlgebra, flats: tuple[int, ...], coeff=None
           ) -> "HochschildChain":
        coeff = one_scalar(algebra.mode) if coeff is None else coeff
        out = HochschildChain(algebra, {})
        out.add_term(tuple(flats), coeff)
        return out

    def add_term(self, flats: tuple[int, ...], coeff) -> None:
        if not coeff:
            return
        cur = self.terms.get(flats)
        new = coeff if cur is None else cur + coeff
        if new:
            self.terms[flats] = new
        elif cur is not None:
            del self.terms[flats]

    def __add__(self, other: "HochschildChain") -> "HochschildChain":
        out = HochschildChain(self.algebra, dict(self.terms))
        for t, c in other.terms.items():
            out.add_term(t, c)
        return out

    def __sub__(self, other: "HochschildChain") -> "HochschildChain":
        return self + other.scale(-one_scalar(self.algebra.mode))

    def scale(self, c) -> "HochschildChain":
        if not c:
            return HochschildChain.zero(self.algebra)
        return HochschildChain(self.algebra,
                               {t: v * c for t, v in self.terms.items()})

    def term_degree(self, flats: tuple[int, ...]) -> int:
        """Total degree: internal sum minus (slots - 1)."""
        a = self.algebra
        return sum(a.basis_degree(f) for f in flats) - (len(flats) - 1)

    def internal_degree(self, flats: tuple[int, ...]) -> int:
        a = self.algebra
        return sum(a.basis_degree(f) for f in flats)

    def max_coeff(self) -> float:
        return max((abs(complex(c)) for c in self.terms.values()), default=0.0)

    def is_zero(self, tol: float | None = None) -> bool:
        if tol is None:
            return not self.terms
        return self.max_coeff() <= tol

    def describe(self) -> str:
        a = self.algebra
        parts = []
        for flats in sorted(self.terms):
            names = ",".join(a.basis_name(f) for f in flats)
            parts.append(f"({names}): {self.terms[flats]}")
        return " + ".join(parts) if parts else "0"


def _degs(algebra: DgAlgebra, flats: tuple[int, ...]) -> list[int]:
    return [algebra.basis_degree(f) for f in flats]


def _expand_slot(chain_out: HochschildChain, flats_before: tuple[int, ...],
                 vec: np.ndarray, flats_after: tuple[int, ...], coeff) -> None:
    for idx, c in enumerate(vec):
        if c:
            chain_out.add_term(flats_before + (idx,) + flats_after, coeff * c)


def cyclic_shift_term(algebra: DgAlgebra, flats: tuple[int, ...]
                      ) -> tuple[tuple[int, ...], int]:
    """One signed cyclic rotation: last slot to the front.

    Sign exponent (deg a_k + 1)(deg a_1 + ... + deg a_{k-1} + k - 1); this
    is the Koszul sign of the rotation on the shifted word.
    """
    k = len(flats)
    if k == 1:
        return flats, 1
    degs = _degs(algebra, flats)
    exponent = (degs[-1] + 1) * (sum(degs[:-1]) + (k - 1))
    return (flats[-1],) + flats[:-1], (-1) ** (exponent % 2)


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


def boundary_parts(chain: HochschildChain
                   ) -> tuple[HochschildChain, HochschildChain]:
    """(merge-and-wrap part, internal part) of the total differential."""
    a = chain.algebra
    hoch = HochschildChain.zero(a)
    internal = HochschildChain.zero(a)
    for flats, coeff in chain.terms.items():
        k = len(flats)
        for i, (passage, cut) in enumerate(bar_signs(_degs(a, flats))):
            _expand_slot(internal, flats[:i], a.diff_flat(flats[i]),
                         flats[i + 1:], coeff * passage)
            if i < k - 1:
                _expand_slot(hoch, flats[:i],
                             a.mul_flat(flats[i], flats[i + 1]),
                             flats[i + 2:], coeff * cut)
        if k >= 2:
            rot, rs = cyclic_shift_term(a, flats)
            own = -1 if a.basis_degree(rot[0]) % 2 else 1
            _expand_slot(hoch, (), a.mul_flat(rot[0], rot[1]), rot[2:],
                         coeff * rs * own)
    return hoch, internal


def hochschild_boundary(chain: HochschildChain) -> HochschildChain:
    """Total differential (merges + wrap-around + internal); squares to zero."""
    hoch, internal = boundary_parts(chain)
    return hoch + internal


# ---------------------------------------------------------------------------
# Push-forward along the transferred morphism


def _compositions(k: int):
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1):
        for rest in _compositions(k - first):
            yield (first,) + rest


def target_algebra(f: AInfinityMorphism) -> EndoAlgebra:
    """End(M0) with zero differential; cached on the morphism."""
    got = getattr(f, "_target_endo", None)
    if got is None:
        got = endomorphism_algebra(f.splitting.m0, None, f.bundle.mode)
        f._target_endo = got
    return got


def push_chain(chain: HochschildChain, f: AInfinityMorphism) -> HochschildChain:
    """Induced map on Hochschild chains (serves the cyclic complexes too).

    Sums over cyclic rotations whose leading block contains the first
    slot, each ordered partition mapping blockwise through the transferred
    components; exact chain map for the total differential.
    """
    src = chain.algebra
    if src.space.dims != f.bundle.algebra.space.dims:
        raise ShapeError("chain algebra does not match the morphism's source")
    endo = target_algebra(f)
    out = HochschildChain.zero(endo.algebra)
    for flats, coeff in chain.terms.items():
        k = len(flats)
        for r in range(k):
            rot, cc = flats, coeff
            for _ in range(r):
                rot, step = cyclic_shift_term(src, rot)
                cc = cc * step
            for comp in _compositions(k):
                if comp[0] <= r:
                    continue
                stack: list[tuple[tuple[int, ...], object]] = [((), cc)]
                pos = 0
                for size in comp:
                    vec = endo.expand(f.on_basis(rot[pos:pos + size]))
                    pos += size
                    stack = [(fl + (idx,), c2 * v) for fl, c2 in stack
                             for idx, v in enumerate(vec) if v]
                    if not stack:
                        break
                for fl, c2 in stack:
                    out.add_term(fl, c2)
    return out


@dataclass(frozen=True)
class ChainMapReport:
    defect: HochschildChain
    max_coeff: float
    passed: bool


def chain_map_defect(chain: HochschildChain, f: AInfinityMorphism,
                     tol: float | None = None) -> ChainMapReport:
    """boundary(push(x)) - push(boundary(x)); pass iff zero."""
    lhs = hochschild_boundary(push_chain(chain, f))
    rhs = push_chain(hochschild_boundary(chain), f)
    defect = lhs - rhs
    return ChainMapReport(defect=defect, max_coeff=defect.max_coeff(),
                          passed=defect.is_zero(tol))
