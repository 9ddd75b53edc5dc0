"""Graded vector spaces, degree-homogeneous maps, and exact elimination.

Matrices are dense numpy arrays: ``object`` dtype holding Fractions (or
GaussianRationals) in exact mode, ``complex128`` in float mode.  Maps are
stored block-per-source-degree; missing blocks are zero.  All values are
immutable after construction.

Exact elimination is ``rref`` and what is read off one run of it (null
space with its pivots, inverse, block solve).  Every greedy "keep it if it
is independent of what is kept" choice goes through ``ExactSpan``.  Float
rank decisions go through ``float_rank`` and the session tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from homotrace.errors import RankAmbiguousError, ShapeError
from homotrace.scalars import EXACT, zero_scalar, one_scalar

# Float rank decisions are "ambiguous" when a normalized singular value
# falls in (tol, AMBIGUITY_BAND * tol].
AMBIGUITY_BAND = 100.0


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def zeros_matrix(rows: int, cols: int, mode: str) -> np.ndarray:
    if mode == EXACT:
        m = np.empty((rows, cols), dtype=object)
        m[...] = Fraction(0)
        return m
    return np.zeros((rows, cols), dtype=complex)


def identity_matrix(n: int, mode: str) -> np.ndarray:
    m = zeros_matrix(n, n, mode)
    for i in range(n):
        m[i, i] = one_scalar(mode)
    return m


def matrix_from_rows(rows, mode: str) -> np.ndarray:
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    m = zeros_matrix(nr, nc, mode)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            m[i, j] = Fraction(x) if mode == EXACT and isinstance(x, int) else x
    return m


def max_abs(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(max(abs(complex(x)) for x in a.flat))


def matrices_equal(a: np.ndarray, b: np.ndarray, tol: float | None) -> bool:
    if a.shape != b.shape:
        return False
    if tol is None:
        return all(x == y for x, y in zip(a.flat, b.flat))
    return max_abs(a - b) <= tol


@dataclass(frozen=True)
class GradedVectorSpace:
    """Finite-support map degree -> dimension, with basis labels for reports."""

    dims: tuple[tuple[int, int], ...]
    labels: tuple[tuple[int, tuple[str, ...]], ...] = ()

    @staticmethod
    def make(dims: dict[int, int], labels: dict[int, list[str]] | None = None
             ) -> "GradedVectorSpace":
        clean = {d: n for d, n in dims.items() if n > 0}
        lab = {}
        for d, n in clean.items():
            given = (labels or {}).get(d)
            if given is not None:
                if len(given) != n:
                    raise ShapeError(f"{n} labels expected in degree {d}", degree=d)
                lab[d] = tuple(given)
            else:
                lab[d] = tuple(f"d{d}_{i}" for i in range(n))
        return GradedVectorSpace(
            dims=tuple(sorted(clean.items())),
            labels=tuple(sorted(lab.items())),
        )

    def dim(self, degree: int) -> int:
        for d, n in self.dims:
            if d == degree:
                return n
        return 0

    def degrees(self) -> list[int]:
        return [d for d, _ in self.dims]

    @property
    def total_dim(self) -> int:
        return sum(n for _, n in self.dims)

    def label(self, degree: int, index: int) -> str:
        for d, names in self.labels:
            if d == degree:
                return names[index]
        return f"d{degree}_{index}"

    def labels_in(self, degree: int) -> tuple[str, ...]:
        for d, names in self.labels:
            if d == degree:
                return names
        return ()

    def euler_characteristic(self) -> int:
        return sum((-1) ** (d % 2) * n for d, n in self.dims)


def tensor_space(v: GradedVectorSpace, w: GradedVectorSpace) -> GradedVectorSpace:
    """(V (x) W)_n = direct sum over p+q=n of V_p (x) W_q, blocks ordered by p."""
    dims: dict[int, int] = {}
    labels: dict[int, list[str]] = {}
    for p, np_ in v.dims:
        for q, nq in w.dims:
            n = p + q
            dims[n] = dims.get(n, 0) + np_ * nq
            labs = labels.setdefault(n, [])
            for i in range(np_):
                for j in range(nq):
                    labs.append(f"{v.label(p, i)}*{w.label(q, j)}")
    return GradedVectorSpace.make(dims, labels)


def tensor_layout(v: GradedVectorSpace, w: GradedVectorSpace
                  ) -> dict[int, list[tuple[int, int, int]]]:
    """Per total degree: ordered (p, q, offset) blocks inside tensor_space(v, w)."""
    layout: dict[int, list[tuple[int, int, int]]] = {}
    offsets: dict[int, int] = {}
    for p, np_ in v.dims:
        for q, nq in w.dims:
            n = p + q
            off = offsets.get(n, 0)
            layout.setdefault(n, []).append((p, q, off))
            offsets[n] = off + np_ * nq
    return layout


@dataclass(frozen=True)
class GradedMap:
    """Degree-homogeneous linear map; block per source degree."""

    source: GradedVectorSpace
    target: GradedVectorSpace
    degree: int
    blocks: tuple[tuple[int, np.ndarray], ...]
    mode: str

    @staticmethod
    def build(source: GradedVectorSpace, target: GradedVectorSpace, degree: int,
              blocks: dict[int, np.ndarray], mode: str) -> "GradedMap":
        stored = {}
        for d, m in blocks.items():
            rows, cols = target.dim(d + degree), source.dim(d)
            if m.shape != (rows, cols):
                raise ShapeError(
                    f"block at source degree {d} has shape {m.shape}, "
                    f"expected {(rows, cols)}", degree=d)
            if rows and cols and any(bool(x) for x in m.flat):
                stored[d] = _freeze(np.array(m, copy=True))
        return GradedMap(source, target, degree,
                         tuple(sorted(stored.items())), mode)

    @staticmethod
    def zero(source: GradedVectorSpace, target: GradedVectorSpace, degree: int,
             mode: str) -> "GradedMap":
        return GradedMap(source, target, degree, (), mode)

    @staticmethod
    def identity(space: GradedVectorSpace, mode: str) -> "GradedMap":
        blocks = {d: identity_matrix(n, mode) for d, n in space.dims}
        return GradedMap.build(space, space, 0, blocks, mode)

    def block(self, source_degree: int) -> np.ndarray:
        for d, m in self.blocks:
            if d == source_degree:
                return m
        return zeros_matrix(self.target.dim(source_degree + self.degree),
                            self.source.dim(source_degree), self.mode)

    def __add__(self, other: "GradedMap") -> "GradedMap":
        if self.degree != other.degree:
            # a zero map has no meaningful degree
            if not other.blocks:
                return self
            if not self.blocks:
                return GradedMap(other.source, other.target, other.degree,
                                 other.blocks, other.mode)
        self._check_parallel(other)
        blocks = {d: self.block(d) + other.block(d) for d in self.source.degrees()}
        return GradedMap.build(self.source, self.target, self.degree, blocks, self.mode)

    def __sub__(self, other: "GradedMap") -> "GradedMap":
        if self.degree != other.degree and (not self.blocks or not other.blocks):
            return self + other.scale(-one_scalar(other.mode))
        self._check_parallel(other)
        blocks = {d: self.block(d) - other.block(d) for d in self.source.degrees()}
        return GradedMap.build(self.source, self.target, self.degree, blocks, self.mode)

    def __neg__(self) -> "GradedMap":
        return self.scale(-one_scalar(self.mode))

    def scale(self, c) -> "GradedMap":
        blocks = {d: m * c for d, m in self.blocks}
        return GradedMap.build(self.source, self.target, self.degree, blocks, self.mode)

    def __matmul__(self, other: "GradedMap") -> "GradedMap":
        return compose(self, other)

    def _check_parallel(self, other: "GradedMap") -> None:
        if (self.source.dims != other.source.dims
                or self.target.dims != other.target.dims
                or self.degree != other.degree):
            raise ShapeError("maps are not parallel (source/target/degree differ)")

    def is_zero(self, tol: float | None = None) -> bool:
        return all(matrices_equal(m, zeros_matrix(*m.shape, self.mode), tol)
                   for _, m in self.blocks)

    def equals(self, other: "GradedMap", tol: float | None = None) -> bool:
        if (self.source.dims != other.source.dims
                or self.target.dims != other.target.dims):
            return False
        if self.degree != other.degree:
            # the zero map carries no meaningful degree
            return self.is_zero(tol) and other.is_zero(tol)
        return (self - other).is_zero(tol)

    def max_abs(self) -> float:
        return max((max_abs(m) for _, m in self.blocks), default=0.0)

    def supertrace(self):
        """Sum over degrees of (-1)^d tr(diagonal block); needs degree 0."""
        if self.degree != 0:
            raise ShapeError("supertrace needs a degree-0 endomorphism")
        total = zero_scalar(self.mode)
        for d, m in self.blocks:
            if m.shape[0] != m.shape[1]:
                raise ShapeError("supertrace needs an endomorphism", degree=d)
            t = zero_scalar(self.mode)
            for i in range(m.shape[0]):
                t = t + m[i, i]
            total = total + ((-1) ** (d % 2)) * t
        return total


def compose(f: GradedMap, g: GradedMap) -> GradedMap:
    """f after g; degree adds."""
    if f.mode != g.mode:
        raise ShapeError("cannot compose maps of different scalar modes")
    if g.target.dims != f.source.dims:
        for d in set(g.target.degrees()) | set(f.source.degrees()):
            if g.target.dim(d) != f.source.dim(d):
                raise ShapeError(
                    f"composition mismatch in degree {d}: "
                    f"{g.target.dim(d)} vs {f.source.dim(d)}", degree=d)
    blocks = {}
    for d in g.source.degrees():
        mid = d + g.degree
        if f.source.dim(mid) == 0:
            continue
        out_rows = f.target.dim(mid + f.degree)
        if out_rows == 0:
            continue
        blocks[d] = f.block(mid) @ g.block(d)
    return GradedMap.build(g.source, f.target, f.degree + g.degree, blocks, f.mode)


def supercommutator(f: GradedMap, g: GradedMap) -> GradedMap:
    """{f, g} = f g - (-1)^{|f||g|} g f on endomorphisms of one space."""
    if f.source.dims != f.target.dims or g.source.dims != g.target.dims:
        raise ShapeError("supercommutator needs endomorphisms")
    if f.source.dims != g.source.dims:
        raise ShapeError("supercommutator needs endomorphisms of the same space")
    sign = (-1) ** ((f.degree % 2) * (g.degree % 2))
    return compose(f, g) - compose(g, f).scale(sign * one_scalar(f.mode))


def tensor_map(f: GradedMap, g: GradedMap) -> GradedMap:
    """(f (x) g)(x (x) y) = (-1)^{|g| |x|} f(x) (x) g(y) on homogeneous x."""
    if f.mode != g.mode:
        raise ShapeError("cannot tensor maps of different scalar modes")
    mode = f.mode
    src = tensor_space(f.source, g.source)
    tgt = tensor_space(f.target, g.target)
    src_layout = tensor_layout(f.source, g.source)
    tgt_layout = tensor_layout(f.target, g.target)
    deg = f.degree + g.degree
    blocks: dict[int, np.ndarray] = {}
    for n, src_blocks in src_layout.items():
        rows, cols = tgt.dim(n + deg), src.dim(n)
        if rows == 0 or cols == 0:
            continue
        out = zeros_matrix(rows, cols, mode)
        tgt_offsets = {(p, q): off for p, q, off in tgt_layout.get(n + deg, [])}
        for p, q, off in src_blocks:
            fp, gq = f.block(p), g.block(q)
            if fp.size == 0 or gq.size == 0:
                continue
            t_off = tgt_offsets.get((p + f.degree, q + g.degree))
            if t_off is None:
                continue
            sign = (-1) ** ((g.degree % 2) * (p % 2))
            kron = np.kron(fp, gq) * (sign * one_scalar(mode))
            out[t_off:t_off + kron.shape[0], off:off + kron.shape[1]] = kron
        blocks[n] = out
    return GradedMap.build(src, tgt, deg, blocks, mode)


def bar_signs(degrees) -> list[tuple[int, int]]:
    """Koszul signs of the shifted bar word b_1 ... b_m, one pair per slot.

    sigma_i = (-1)^(sum_{l<i} (deg b_l - 1)) is the passage sign of an odd
    map moved to slot i (the differential insertion); sigma_i (-1)^(deg
    b_i) is the sign of cutting after slot i (the merge b_i b_{i+1}, or
    the split into b_1..b_i and b_{i+1}..b_m).
    """
    out, sigma = [], 1
    for d in degrees:
        own = sigma if d % 2 == 0 else -sigma
        out.append((sigma, own))
        sigma = -own
    return out


# ---------------------------------------------------------------------------
# Plain-matrix elimination helpers


def rref(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over exact scalars; returns (R, pivot columns)."""
    m = np.array(matrix, copy=True)
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pr = next((i for i in range(r, rows) if m[i, c]), None)
        if pr is None:
            continue
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = m[r] * (1 / m[r, c])
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = m[i] - m[i, c] * m[r]
        pivots.append(c)
        r += 1
    return m, pivots


def nullspace_and_pivots(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """A deterministic basis of ker(matrix), as columns, and the pivot
    columns of the same elimination; exact scalars.  The standard vectors
    at the pivots span a complement of the kernel."""
    cols = matrix.shape[1]
    r, pivots = rref(matrix)
    free = [c for c in range(cols) if c not in pivots]
    basis = zeros_matrix(cols, len(free), EXACT)
    for k, fc in enumerate(free):
        basis[fc, k] = Fraction(1)
        for i, pc in enumerate(pivots):
            basis[pc, k] = -r[i, fc]
    return basis, pivots


def exact_nullspace(matrix: np.ndarray) -> np.ndarray:
    """Columns form a deterministic basis of ker(matrix); exact scalars."""
    return nullspace_and_pivots(matrix)[0]


class ExactSpan:
    """The span of the exact vectors kept so far, grown one candidate at a time.

    Each kept vector is stored reduced: 1 at its own pivot and 0 at the
    pivots of the vectors kept before it.  ``add`` therefore decides
    independence with one pass over the stored rows, and keeping every
    candidate that ``add`` accepts, in order, picks the same vectors as
    the pivot columns of one elimination of all the candidates.
    """

    def __init__(self):
        self._rows: list[tuple[int, np.ndarray]] = []

    def add(self, vec: np.ndarray) -> bool:
        """Keep ``vec`` if it lies outside the span; report whether it did."""
        v = np.asarray(vec)
        for p, row in self._rows:
            if v[p]:
                v = v - v[p] * row
        nonzero = np.flatnonzero(v)
        if not nonzero.size:
            return False
        p = int(nonzero[0])
        self._rows.append((p, v * (1 / v[p])))
        return True


def invert_exact(matrix: np.ndarray) -> np.ndarray:
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ShapeError("inversion needs a square matrix")
    aug = np.concatenate([np.array(matrix, copy=True), identity_matrix(n, EXACT)],
                         axis=1)
    r, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ShapeError("matrix is singular")
    return r[:, n:]


def solve_exact(matrix: np.ndarray, rhs: np.ndarray
                ) -> tuple[np.ndarray, list[int]]:
    """Solve matrix @ X = rhs over exact scalars with one elimination.

    ``rhs`` holds one right-hand side per column.  The columns of
    ``matrix`` must be linearly independent (ShapeError otherwise), so each
    solvable column has exactly one solution.  Returns X and the indices
    of the columns of ``rhs`` outside the column span of ``matrix``; their
    columns of X are meaningless.
    """
    cols = matrix.shape[1]
    r, pivots = rref(np.concatenate([matrix, rhs], axis=1))
    rank = sum(1 for p in pivots if p < cols)
    if rank < cols:
        raise ShapeError("matrix columns are linearly dependent")
    unsolved = [j for j in range(rhs.shape[1]) if any(r[rank:, cols + j])]
    return np.array(r[:cols, cols:]), unsolved


def float_rank(svals: np.ndarray, tol: float) -> int:
    """Rank from singular values; raises inside the ambiguity band."""
    if svals.size == 0:
        return 0
    scale = max(1.0, float(svals[0]))
    rank = 0
    for s in svals:
        rel = float(s) / scale
        if rel > AMBIGUITY_BAND * tol:
            rank += 1
        elif rel > tol:
            raise RankAmbiguousError(
                f"singular value {s:.3e} sits in the ambiguity band "
                f"({tol:.1e}, {AMBIGUITY_BAND * tol:.1e}] relative to scale")
    return rank
