"""Hochschild and cyclic chains of a dg algebra and the transferred push-forward.

Chains are formal combinations of elementary tensors of homogeneous basis
operators, stored as {tuple of flat basis indices: coefficient}.

Every graded sign comes from one mechanism: a tensor is a word b_1 ... b_m
of degree-shifted slots (slot parity = degree - 1), and structure maps act
on the word with Koszul passage signs only (``glinalg.bar_signs``):

  internal:  b_i -> d b_i            sigma_i = (-1)^(sum_{l<i} (deg b_l - 1))
  merge:     (b_i, b_{i+1}) -> b_i b_{i+1}          sigma_i (-1)^(deg b_i)
  rotation:  last slot to the front, passage sign

The internal and merge terms of a basis word are the bar terms of
``DgAlgebra.bar_terms``, the one source that the A-infinity check reads
too; the differential adds the wrap-around term, merge-after-rotation.  The
push-forward applies the transferred components f_m(b_1, ..., b_m) =
p rho(b_1) h ... h rho(b_m) i (``AInfinityMorphism.on_basis``) blockwise to
every rotation whose leading block contains the first slot, by one
depth-first walk over cut points (``_push``), which the cyclic pull-back
runs with a block count.  On shifted words these components have
degree 0, so they add no sign; the push-forward is a chain map because f
satisfies the bar relation with the same bar terms
(``transfer.ainfinity_defect``).  The test suite checks, in
exact arithmetic, that the differential squares to zero, matches the
ungraded textbook signs and descends to the cyclic quotient, and that the
push-forward is a chain map on every basis chain of length <= 3 of several
random instances, including ones whose cohomology has odd components.
``cycle_basis`` builds the cycles a trace reads: one per column of the exact
kernel of the boundary on the words of degree k - 1 (``trace_words``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from homotrace.dgcore import DgAlgebra
from homotrace.errors import ShapeError
from homotrace.glinalg import max_abs, nullspace_and_pivots
from homotrace.scalars import EXACT, one_scalar, session_tol, times_sign
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

    def max_coeff(self) -> float:
        return max_abs(np.array(list(self.terms.values()), dtype=object))

    def is_zero(self, tol: float | None = None) -> bool:
        if tol is None:
            return not self.terms
        return self.max_coeff() <= tol


def cyclic_shift_term(algebra: DgAlgebra, flats: tuple[int, ...]
                      ) -> tuple[tuple[int, ...], int]:
    """One signed cyclic rotation: last slot to the front.

    Sign exponent (deg a_k + 1)(deg a_1 + ... + deg a_{k-1} + k - 1); this
    is the Koszul sign of the rotation on the shifted word.
    """
    k = len(flats)
    if k == 1:
        return flats, 1
    degs = [algebra.basis_degree(f) for f in flats]
    exponent = (degs[-1] + 1) * (sum(degs[:-1]) + (k - 1))
    return (flats[-1],) + flats[:-1], (-1) ** (exponent % 2)


def _signed_rotations(algebra: DgAlgebra, flats: tuple[int, ...]):
    """The len(flats) rotations of a word, each with its sign relative to it:
    the product of the ``cyclic_shift_term`` signs that reach it, read off
    one list of shifted slot parities.  Moving the last slot, of parity s,
    to the front passes the others, whose parities sum to total - s, so the
    step flips the sign when s (total - s) is odd: when s is odd and the
    total even."""
    k = len(flats)
    parity = [(algebra.basis_degree(b) + 1) % 2 for b in flats]
    even, sign = sum(parity) % 2 == 0, 1
    for r in range(k):
        yield flats[k - r:] + flats[:k - r], sign
        if even and parity[k - 1 - r]:
            sign = -sign


def hochschild_boundary(chain: HochschildChain) -> HochschildChain:
    """Total differential: the bar terms of each word (internal and merges)
    plus the wrap-around merge; squares to zero."""
    a = chain.algebra
    out = HochschildChain.zero(a)
    for flats, coeff in chain.terms.items():
        # an exact coefficient one multiplies nothing (floats keep the
        # bits of the product)
        one = a.mode == EXACT and coeff == 1
        for word, c in a.bar_terms(flats):
            out.add_term(word, c if one else coeff * c)
        if len(flats) >= 2:
            rot, rs = cyclic_shift_term(a, flats)
            own = -1 if a.basis_degree(rot[0]) % 2 else 1
            for k, c in a.product_terms[rot[0]][rot[1]]:
                # one sign at a time, so floats keep the bits of the product
                out.add_term((k,) + rot[2:], times_sign(c, rs * own) if one
                             else times_sign(times_sign(coeff, rs), own) * c)
    return out


def trace_words(algebra: DgAlgebra, max_len: int) -> list[tuple[int, ...]]:
    """The basis words a trace reads: length k <= max_len and degree k - 1,
    by length and then in ``itertools.product`` order."""
    return [w for k in range(1, max_len + 1)
            for w in itertools.product(range(algebra.n_basis), repeat=k)
            if sum(algebra.basis_degree(b) for b in w) == k - 1]


def cycle_basis(algebra: DgAlgebra, max_len: int) -> list[HochschildChain]:
    """One exact cycle per kernel vector (``nullspace_and_pivots``) of the
    boundary matrix, whose columns are the ``trace_words`` and whose rows
    are their boundaries' words in order of first appearance, handed over
    as sparse rows."""
    if algebra.mode != EXACT:
        raise ShapeError("cycle_basis needs an exact algebra")
    words = trace_words(algebra, max_len)
    rows: dict = {}
    for j, w in enumerate(words):
        for t, c in hochschild_boundary(HochschildChain.of(algebra, w)
                                        ).terms.items():
            rows.setdefault(t, {})[j] = c
    null = nullspace_and_pivots(list(rows.values()), len(words))[0]
    return [HochschildChain(algebra, {words[i]: x for i, x in v.items()})
            for v in null]


# ---------------------------------------------------------------------------
# Push-forward along the transferred morphism


def push_chain(chain: HochschildChain, f: AInfinityMorphism) -> HochschildChain:
    """Induced map on Hochschild chains (serves the cyclic complexes too):
    ``_push`` into any number of blocks; exact chain map for the total
    differential."""
    return _push(chain, f)


def _push(chain: HochschildChain, f: AInfinityMorphism,
          blocks: int | None = None) -> HochschildChain:
    """Sum over cyclic rotations whose leading block contains the first
    slot, each ordered partition into ``blocks`` blocks (None: any number)
    mapping blockwise through the transferred components.  A partition
    adds to the output terms of its own length only, so a block count
    computes those terms as the full push does.

    Each rotation is walked depth first over cut points on an explicit
    stack, shortest next block first, so partitions come in lexicographic
    order of their block sizes.  A block reads the nonzero End(M0)
    coordinates of its component (``AInfinityMorphism.coordinates``, once
    per morphism) when the walk reaches it; the expansion before it is
    extended once for every partition below, and an empty one ends its
    subtree."""
    src = chain.algebra
    if src.space.dims != f.bundle.algebra.space.dims:
        raise ShapeError("chain algebra does not match the morphism's source")
    out = HochschildChain.zero(f.target.algebra)

    def ends(k: int, start: int, placed: int) -> range:
        """Ends of the block at ``start`` after ``placed`` blocks of a
        k-slot word, longest first: the stack pops the last."""
        if blocks is None:
            return range(k, start, -1)
        left = blocks - placed - 1      # blocks after this one
        return range(k - left, start if left else k - 1, -1)

    for flats, coeff in chain.terms.items():
        k = len(flats)
        for r, (rot, sign) in enumerate(_signed_rotations(src, flats)):
            # (block start, end, blocks before it, their expansion)
            first = [((), times_sign(coeff, sign))]
            todo = [(0, end, 0, first) for end in ends(k, 0, 0) if end > r]
            while todo:
                start, end, placed, before = todo.pop()
                coords = f.coordinates(rot[start:end])
                expansion = [(fl + (idx,), c * v) for fl, c in before
                             for idx, v in coords]
                if not expansion:
                    continue
                if end < k:
                    todo += [(end, nxt, placed + 1, expansion)
                             for nxt in ends(k, end, placed + 1)]
                else:
                    for fl, c in expansion:
                        out.add_term(fl, c)
    return out


@dataclass(frozen=True)
class ChainMapReport:
    defect: HochschildChain
    max_coeff: float
    passed: bool


def chain_map_defect(chain: HochschildChain, f: AInfinityMorphism,
                     tol: float | None = None) -> ChainMapReport:
    """boundary(push(x)) - push(boundary(x)); pass iff zero (session_tol)."""
    tol = session_tol(chain.algebra.mode, tol)
    lhs = hochschild_boundary(push_chain(chain, f))
    rhs = push_chain(hochschild_boundary(chain), f)
    defect = lhs - rhs
    return ChainMapReport(defect=defect, max_coeff=defect.max_coeff(),
                          passed=defect.is_zero(tol))
