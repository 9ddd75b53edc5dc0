"""Dg algebras, dg modules with actions, axiom validation, and splittings.

A ``DgAlgebra`` carries its product as structure constants over a
homogeneous basis.  ``algebra_from_operators`` derives those constants,
the unit and the differential from a basis of operators on a dg module.
A ``DgModuleBundle`` couples an algebra to a module via the action rho
(one graded map per basis operator).  ``Splitting`` realizes the
decomposition of the module into its cohomology part and an acyclic part,
with contracting homotopy, in either projector or Laplacian normalization.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from homotrace.errors import (
    ClosureError,
    InputError,
    ShapeError,
    SpectralGapError,
)
from homotrace.glinalg import (
    AMBIGUITY_BAND,
    GradedMap,
    GradedVectorSpace,
    compose,
    float_rank,
    identity_matrix,
    invert_exact,
    kernel_image_split,
    max_abs,
    rref,
    solve_exact,
    supercommutator,
    zeros_matrix,
)
from homotrace.scalars import DEFAULT_TOL, EXACT, FLOAT, one_scalar

ASSOCIATIVITY_SAMPLE_CAP = 4000


@dataclass(frozen=True)
class DgAlgebra:
    """Unital dg algebra over a homogeneous named basis."""

    space: GradedVectorSpace
    differential: GradedMap
    mul: tuple[tuple[np.ndarray, ...], ...]
    unit: np.ndarray
    mode: str

    @property
    def n_basis(self) -> int:
        return self.space.total_dim

    def flat_offsets(self) -> dict[int, int]:
        off, out = 0, {}
        for d, n in self.space.dims:
            out[d] = off
            off += n
        return out

    def flat_to_graded(self, k: int) -> tuple[int, int]:
        off = 0
        for d, n in self.space.dims:
            if k < off + n:
                return d, k - off
            off += n
        raise IndexError(k)

    def basis_degree(self, k: int) -> int:
        return self.flat_to_graded(k)[0]

    def basis_name(self, k: int) -> str:
        d, i = self.flat_to_graded(k)
        return self.space.label(d, i)

    def flat_by_name(self, name: str) -> int | None:
        for k in range(self.n_basis):
            if self.basis_name(k) == name:
                return k
        return None

    def mul_flat(self, i: int, j: int) -> np.ndarray:
        """Coefficients of e_i * e_j over the flat basis."""
        return self.mul[i][j]

    def diff_flat(self, i: int) -> np.ndarray:
        """Coefficients of d(e_i) over the flat basis."""
        d, idx = self.flat_to_graded(i)
        col = self.differential.block(d)[:, idx] if self.space.dim(d) else None
        out = self._zero_vec()
        if col is not None and self.space.dim(d + 1):
            off = self.flat_offsets().get(d + 1)
            if off is not None:
                out[off:off + self.space.dim(d + 1)] = col
        return out

    def _zero_vec(self) -> np.ndarray:
        v = np.empty(self.n_basis, dtype=object) if self.mode == EXACT \
            else np.zeros(self.n_basis, dtype=complex)
        if self.mode == EXACT:
            v[...] = Fraction(0)
        return v

    def mul_vectors(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = self._zero_vec()
        for i in range(self.n_basis):
            if not _nz(a[i]):
                continue
            for j in range(self.n_basis):
                if not _nz(b[j]):
                    continue
                out = out + (a[i] * b[j]) * self.mul[i][j]
        return out


def _nz(x) -> bool:
    return bool(x) if not isinstance(x, complex) else x != 0


def make_algebra(space: GradedVectorSpace, differential: GradedMap,
                 mul_table: list[list[np.ndarray]], unit: np.ndarray,
                 mode: str) -> DgAlgebra:
    """Assemble the algebra from its structure constants (frozen copies)."""
    frozen = tuple(tuple(_freeze_vec(v) for v in row) for row in mul_table)
    return DgAlgebra(space, differential, frozen, _freeze_vec(unit), mode)


def _freeze_vec(v: np.ndarray) -> np.ndarray:
    v = np.array(v, copy=True)
    v.setflags(write=False)
    return v


def algebra_from_operators(space: GradedVectorSpace, q: GradedMap,
                           maps: list[GradedMap], names: list[str], mode: str,
                           tol: float = DEFAULT_TOL
                           ) -> tuple[DgAlgebra, tuple[GradedMap, ...]]:
    """The dg algebra whose basis is the given homogeneous operators on (space, q).

    The basis is ordered by (degree, input order); returns the algebra and
    the operators in that order (the action rho).  Every product, the
    identity and every {Q, op} is expanded over the operators of its own
    degree, with one elimination (exact) or one factorization (float) per
    degree.  An operator outside the span raises ClosureError naming it;
    linearly dependent operators raise InputError.  In float mode ``tol``
    decides the rank, and the expansion residual may reach
    AMBIGUITY_BAND * tol.
    """
    order = sorted(range(len(maps)), key=lambda k: maps[k].degree)
    rho = tuple(maps[k] for k in order)
    rho_names = [names[k] for k in order]
    by_deg: dict[int, list[GradedMap]] = {}
    labels: dict[int, list[str]] = {}
    for m, name in zip(rho, rho_names):
        by_deg.setdefault(m.degree, []).append(m)
        labels.setdefault(m.degree, []).append(name)
    aspace = GradedVectorSpace.make({g: len(v) for g, v in by_deg.items()},
                                    labels)
    n = len(rho)

    def operators():
        for i in range(n):
            for j in range(n):
                yield (f"product {rho_names[i]}*{rho_names[j]}",
                       compose(rho[i], rho[j]))
        yield "the identity operator", GradedMap.identity(space, mode)
        for k in range(n):
            yield f"differential of {rho_names[k]}", supercommutator(q, rho[k])

    if mode == EXACT:
        coeffs = _expand_exact(space, by_deg, operators())
    else:
        coeffs = _expand_float(space, by_deg, operators(), tol)

    off, o = {}, 0
    for g, dim in aspace.dims:
        off[g], o = o, o + dim

    def flat(degree: int, c: np.ndarray) -> np.ndarray:
        v = zeros_matrix(n, 1, mode)[:, 0]
        if c.size:
            v[off[degree]:off[degree] + c.size] = c
        return v

    mul_table = [[flat(rho[i].degree + rho[j].degree, coeffs[i * n + j])
                  for j in range(n)] for i in range(n)]
    unit = flat(0, coeffs[n * n])
    diffs = coeffs[n * n + 1:]
    blocks = {g: np.stack(diffs[off[g]:off[g] + dim], axis=1)
              for g, dim in aspace.dims if aspace.dim(g + 1)}
    differential = GradedMap.build(aspace, aspace, 1, blocks, mode)
    return make_algebra(aspace, differential, mul_table, unit, mode), rho


def _columns(space: GradedVectorSpace, degree: int, ops: list[GradedMap],
             mode: str) -> np.ndarray:
    """One column per operator of the given degree: its entries, block by block."""
    rows = sum(space.dim(d + degree) * n for d, n in space.dims)
    out = zeros_matrix(rows, len(ops), mode)
    for c, m in enumerate(ops):
        cells = [m.block(d).reshape(-1) for d, _ in space.dims
                 if space.dim(d + degree)]
        if cells:
            out[:, c] = np.concatenate(cells)
    return out


def _dependent(degree: int) -> InputError:
    return InputError(
        f"the declared operators of degree {degree} are linearly dependent")


def _expand_exact(space: GradedVectorSpace, by_deg: dict[int, list[GradedMap]],
                  operators) -> list[np.ndarray]:
    """Coefficients of each (label, operator) over the basis of its degree,
    all operators of one degree solved in one elimination."""
    labels: list[str] = []
    jobs: dict[int, list[tuple[int, GradedMap]]] = {}
    for label, m in operators:
        jobs.setdefault(m.degree, []).append((len(labels), m))
        labels.append(label)
    out: list[np.ndarray] = [None] * len(labels)
    escaped: list[int] = []
    for g in sorted(set(by_deg) | set(jobs)):
        todo = jobs.get(g, [])
        basis = _columns(space, g, by_deg.get(g, []), EXACT)
        rhs = _columns(space, g, [m for _, m in todo], EXACT)
        try:
            x, unsolved = solve_exact(basis, rhs)
        except ShapeError as exc:
            raise _dependent(g) from exc
        escaped += [todo[j][0] for j in unsolved]
        for j, (idx, _) in enumerate(todo):
            out[idx] = x[:, j]
    if escaped:
        raise ClosureError(f"{labels[min(escaped)]} is not in the span of "
                           "the declared operators")
    return out


def _expand_float(space: GradedVectorSpace, by_deg: dict[int, list[GradedMap]],
                  operators, tol: float) -> list[np.ndarray]:
    """Coefficients of each (label, operator) over the basis of its degree,
    through a pseudo-inverse factored once per degree; operators are
    expanded one at a time as they are produced."""
    factors = {}
    for g, ops in by_deg.items():
        basis = _columns(space, g, ops, FLOAT)
        u, s, vh = np.linalg.svd(basis, full_matrices=False)
        if float_rank(s, tol) < len(ops):
            raise _dependent(g)
        factors[g] = (basis, vh.conj().T @ (u.conj().T / s[:, None]))
    out = []
    for label, m in operators:
        v = _columns(space, m.degree, [m], FLOAT)[:, 0]
        basis, pinv = factors.get(
            m.degree, (np.zeros((v.size, 0)), np.zeros((0, v.size))))
        x = pinv @ v
        if v.size and np.max(np.abs(basis @ x - v)) > AMBIGUITY_BAND * tol:
            raise ClosureError(
                f"{label} is not in the span of the declared operators")
        out.append(x)
    return out


@dataclass(frozen=True)
class DgModuleBundle:
    """A dg algebra together with a dg module and the action rho."""

    algebra: DgAlgebra
    space: GradedVectorSpace
    q: GradedMap
    rho: tuple[GradedMap, ...]
    mode: str

    def rho_flat(self, k: int) -> GradedMap:
        return self.rho[k]

    def rho_vector(self, coeffs: np.ndarray) -> GradedMap:
        """rho of a (flat) coefficient vector; degree of the combination."""
        deg = None
        acc = None
        for k in range(self.algebra.n_basis):
            if not _nz(coeffs[k]):
                continue
            d = self.algebra.basis_degree(k)
            if deg is None:
                deg = d
            elif deg != d:
                raise ShapeError("rho of a non-homogeneous element", degree=d)
            term = self.rho[k].scale(coeffs[k])
            acc = term if acc is None else acc + term
        if acc is None:
            return GradedMap.zero(self.space, self.space, 0, self.mode)
        return acc

    def unit_map(self) -> GradedMap:
        return self.rho_vector(self.algebra.unit)


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            tail = f"  [{c.witness}]" if c.witness and not c.passed else ""
            out.append(f"{status}  {c.name}{tail}")
        return out


def _vec_zero(v: np.ndarray, tol: float | None) -> bool:
    if tol is None:
        return all(not _nz(x) for x in v)
    return all(abs(complex(x)) <= tol for x in v)


def validate_bundle(bundle: DgModuleBundle, tol: float | None = None,
                    associativity_cap: int = ASSOCIATIVITY_SAMPLE_CAP
                    ) -> ValidationReport:
    """Check every dg-module axiom; failures are data, not errors."""
    if bundle.mode == FLOAT and tol is None:
        tol = DEFAULT_TOL
    a = bundle.algebra
    checks: list[CheckResult] = []

    qq = compose(bundle.q, bundle.q)
    wit = None
    if not qq.is_zero(tol):
        d = next(d for d, m in qq.blocks if max_abs(m) > (tol or 0))
        idx = next(j for j in range(bundle.space.dim(d))
                   if _col_nz(qq.block(d), j, tol))
        wit = bundle.space.label(d, idx)
    checks.append(CheckResult("Q-squared", qq.is_zero(tol), wit))

    dd = compose(a.differential, a.differential)
    checks.append(CheckResult("algebra-differential-squared", dd.is_zero(tol),
                              None if dd.is_zero(tol) else "d_A^2 != 0"))

    n = a.n_basis
    leib_wit = None
    for i in range(n):
        if leib_wit:
            break
        di = a.diff_flat(i)
        sgn_i = (-1) ** (a.basis_degree(i) % 2)
        for j in range(n):
            dj = a.diff_flat(j)
            lhs = _diff_vector(a, a.mul_flat(i, j))
            rhs = a.mul_vectors(di, _unit_vec(a, j)) \
                + sgn_i * a.mul_vectors(_unit_vec(a, i), dj)
            if not _vec_zero(lhs - rhs, tol):
                leib_wit = f"({a.basis_name(i)}, {a.basis_name(j)})"
                break
    checks.append(CheckResult("leibniz", leib_wit is None, leib_wit))

    assoc_wit = None
    triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    if len(triples) > associativity_cap:
        rng = random.Random(0)
        triples = rng.sample(triples, associativity_cap)
    for i, j, k in triples:
        lhs = a.mul_vectors(a.mul_flat(i, j), _unit_vec(a, k))
        rhs = a.mul_vectors(_unit_vec(a, i), a.mul_flat(j, k))
        if not _vec_zero(lhs - rhs, tol):
            assoc_wit = f"({a.basis_name(i)}, {a.basis_name(j)}, {a.basis_name(k)})"
            break
    checks.append(CheckResult("associativity", assoc_wit is None, assoc_wit))

    unit_wit = None
    for i in range(n):
        left = a.mul_vectors(a.unit, _unit_vec(a, i))
        right = a.mul_vectors(_unit_vec(a, i), a.unit)
        e = _unit_vec(a, i)
        if not (_vec_zero(left - e, tol) and _vec_zero(right - e, tol)):
            unit_wit = a.basis_name(i)
            break
    if unit_wit is None:
        rho_unit = bundle.unit_map()
        if not rho_unit.equals(GradedMap.identity(bundle.space, bundle.mode), tol):
            unit_wit = "rho(unit) != id"
    checks.append(CheckResult("unit", unit_wit is None, unit_wit))

    chain_wit = None
    for i in range(n):
        lhs = bundle.rho_vector(a.diff_flat(i))
        rhs = supercommutator(bundle.q, bundle.rho_flat(i))
        if not lhs.equals(rhs, tol):
            chain_wit = a.basis_name(i)
            break
    checks.append(CheckResult("action-chain-map", chain_wit is None, chain_wit))

    mult_wit = None
    for i in range(n):
        if mult_wit:
            break
        for j in range(n):
            lhs = bundle.rho_vector(a.mul_flat(i, j))
            rhs = compose(bundle.rho_flat(i), bundle.rho_flat(j))
            if not lhs.equals(rhs, tol):
                mult_wit = f"({a.basis_name(i)}, {a.basis_name(j)})"
                break
    checks.append(CheckResult("action-multiplicative", mult_wit is None, mult_wit))

    return ValidationReport(tuple(checks))


def _col_nz(m: np.ndarray, j: int, tol: float | None) -> bool:
    return any(abs(complex(m[i, j])) > (tol or 0) for i in range(m.shape[0]))


def _unit_vec(a: DgAlgebra, k: int) -> np.ndarray:
    v = a._zero_vec()
    v[k] = one_scalar(a.mode)
    return v


def _diff_vector(a: DgAlgebra, coeffs: np.ndarray) -> np.ndarray:
    out = a._zero_vec()
    for k in range(a.n_basis):
        if _nz(coeffs[k]):
            out = out + coeffs[k] * a.diff_flat(k)
    return out


# ---------------------------------------------------------------------------
# Cohomology and splittings


@dataclass(frozen=True)
class CohomologyData:
    space: GradedVectorSpace
    include: GradedMap
    project: GradedMap
    euler: int

    def dims(self) -> dict[int, int]:
        return dict(self.space.dims)


@dataclass(frozen=True)
class Splitting:
    """Module = cohomology part + acyclic part, with contracting homotopy.

    Invariants (validated by ``check_splitting``): pi0 + pi1 = id, both
    idempotent and commuting with Q, Q pi0 = pi0 Q = 0; kappa has degree
    -1 with kappa^2 = 0, kappa pi0 = pi0 kappa = 0; {Q, kappa} = pi1
    (projector kind) or the Laplacian (laplacian kind).  ``homotopy`` is
    the normalized homotopy with {Q, homotopy} = pi1 in both kinds.
    """

    pi0: GradedMap
    pi1: GradedMap
    kappa: GradedMap
    kind: str  # "projector" | "laplacian"
    m0: GradedVectorSpace
    include: GradedMap
    project: GradedMap
    homotopy: GradedMap
    mode: str
    delta: GradedMap | None = None
    lambda1: float | None = None


def build_splitting_projector(space: GradedVectorSpace, q: GradedMap,
                              shear_seed: int | None = None) -> Splitting:
    """Deterministic exact splitting from row reduction.

    ``shear_seed`` perturbs the complement choices (still valid) to
    produce distinct splittings of the same complex.
    """
    if q.mode != EXACT:
        raise ShapeError("projector splitting is exact-mode only")
    if not compose(q, q).is_zero():
        raise ShapeError("Q^2 != 0")
    rng = random.Random(shear_seed) if shear_seed is not None else None
    degrees = space.degrees()

    z_bases: dict[int, np.ndarray] = {}
    w_bases: dict[int, np.ndarray] = {}
    b_bases: dict[int, np.ndarray] = {}
    for d in degrees:
        nd = space.dim(d)
        split = kernel_image_split(
            GradedMap.build(space, space, 1, {d: q.block(d)}, EXACT)
            if nd else GradedMap.zero(space, space, 1, EXACT))
        zcols = split.kernel[1].block(d) if split.kernel[0].dim(d) else \
            zeros_matrix(nd, 0, EXACT)
        wcols = split.kernel_complement[1].block(d) \
            if split.kernel_complement[0].dim(d) else zeros_matrix(nd, 0, EXACT)
        z_bases[d], w_bases[d] = zcols, wcols
    for d in degrees:
        prev = d - 1
        if prev in w_bases and w_bases[prev].shape[1]:
            b_bases[d] = q.block(prev) @ w_bases[prev]
        else:
            b_bases[d] = zeros_matrix(space.dim(d), 0, EXACT)

    h_bases: dict[int, np.ndarray] = {}
    for d in degrees:
        z, b = z_bases[d], b_bases[d]
        chosen = []
        current = b
        for c in range(z.shape[1]):
            trial = np.concatenate([current, z[:, c:c + 1]], axis=1)
            _, pivots = rref(trial)
            if len(pivots) == trial.shape[1]:
                chosen.append(c)
                current = trial
        h = z[:, chosen] if chosen else zeros_matrix(space.dim(d), 0, EXACT)
        h_bases[d] = h

    if rng is not None:
        for d in degrees:
            h, b, w, z = h_bases[d], b_bases[d], w_bases[d], z_bases[d]
            if h.shape[1] and b.shape[1]:
                s1 = _small_int_matrix(rng, b.shape[1], h.shape[1])
                h_bases[d] = h + b @ s1
            if w.shape[1] and z.shape[1]:
                s2 = _small_int_matrix(rng, z.shape[1], w.shape[1])
                w_bases[d] = w + z @ s2

    pi0_blocks, pi1_blocks, kappa_blocks = {}, {}, {}
    include_blocks, project_blocks = {}, {}
    m0_dims = {}
    t_inv: dict[int, np.ndarray] = {}
    t_parts: dict[int, tuple[int, int, int]] = {}
    for d in degrees:
        h, b, w = h_bases[d], b_bases[d], w_bases[d]
        nd = space.dim(d)
        t = np.concatenate([h, b, w], axis=1) if nd else zeros_matrix(0, 0, EXACT)
        ti = invert_exact(t) if nd else t
        t_inv[d] = ti
        t_parts[d] = (h.shape[1], b.shape[1], w.shape[1])
        nh = h.shape[1]
        m0_dims[d] = nh
        sel0 = zeros_matrix(nd, nd, EXACT)
        for i in range(nh):
            sel0[i, i] = Fraction(1)
        pi0_blocks[d] = t @ sel0 @ ti
        pi1_blocks[d] = identity_matrix(nd, EXACT) - pi0_blocks[d]
        if nh:
            include_blocks[d] = h
            project_blocks[d] = ti[:nh, :]
    for d in degrees:
        prev = d - 1
        nh, nb, nw = t_parts[d]
        if nb == 0 or prev not in t_parts:
            continue
        nw_prev = t_parts[prev][2]
        if nw_prev == 0:
            continue
        b_coords = t_inv[d][nh:nh + nb, :]
        kappa_blocks[d] = w_bases[prev] @ b_coords

    m0 = GradedVectorSpace.make(
        m0_dims, {d: [f"h{d}_{i}" for i in range(n)] for d, n in m0_dims.items()})
    pi0 = GradedMap.build(space, space, 0, pi0_blocks, EXACT)
    pi1 = GradedMap.build(space, space, 0, pi1_blocks, EXACT)
    kappa = GradedMap.build(space, space, -1, kappa_blocks, EXACT)
    include = GradedMap.build(m0, space, 0, include_blocks, EXACT)
    project = GradedMap.build(space, m0, 0, project_blocks, EXACT)
    return Splitting(pi0=pi0, pi1=pi1, kappa=kappa, kind="projector", m0=m0,
                     include=include, project=project, homotopy=kappa, mode=EXACT)


def _small_int_matrix(rng: random.Random, rows: int, cols: int) -> np.ndarray:
    m = zeros_matrix(rows, cols, EXACT)
    for i in range(rows):
        for j in range(cols):
            m[i, j] = Fraction(rng.randint(-2, 2))
    return m


def build_splitting_hodge(space: GradedVectorSpace, q: GradedMap,
                          inner_product: dict[int, np.ndarray] | None = None,
                          tol: float = DEFAULT_TOL) -> Splitting:
    """Splitting from Hodge theory: adjoint, Laplacian, harmonic projection.

    The returned splitting is in laplacian kind with kappa the adjoint of
    Q and {Q, kappa} the Laplacian; ``homotopy`` is the Green-normalized
    homotopy satisfying the projector-kind identity.
    """
    if q.mode != FLOAT:
        raise ShapeError("Hodge splitting is float-mode only")
    degrees = space.degrees()
    chol: dict[int, np.ndarray] = {}
    for d in degrees:
        nd = space.dim(d)
        g = None if inner_product is None else inner_product.get(d)
        if g is None:
            chol[d] = np.eye(nd, dtype=complex)
        else:
            g = np.asarray(g, dtype=complex)
            if g.shape != (nd, nd) or max_abs(g - g.conj().T) > tol:
                raise ShapeError(f"inner product in degree {d} is not Hermitian",
                                 degree=d)
            chol[d] = np.linalg.cholesky(g).conj().T  # upper factor L^H

    def to_tilde(mat: np.ndarray, d_src: int, d_tgt: int) -> np.ndarray:
        return chol[d_tgt] @ mat @ np.linalg.inv(chol[d_src])

    def from_tilde(mat: np.ndarray, d_src: int, d_tgt: int) -> np.ndarray:
        return np.linalg.inv(chol[d_tgt]) @ mat @ chol[d_src]

    q_t = {d: to_tilde(q.block(d), d, d + 1) for d in degrees if space.dim(d + 1)}

    eig: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    lambda1 = None
    for d in degrees:
        nd = space.dim(d)
        delta_t = np.zeros((nd, nd), dtype=complex)
        if d in q_t:
            delta_t += q_t[d].conj().T @ q_t[d]
        if (d - 1) in q_t:
            delta_t += q_t[d - 1] @ q_t[d - 1].conj().T
        vals, vecs = np.linalg.eigh((delta_t + delta_t.conj().T) / 2)
        scale = max(1.0, float(vals[-1]) if nd else 1.0)
        for v in vals:
            rel = abs(float(v)) / scale
            if tol < rel <= AMBIGUITY_BAND * tol:
                raise SpectralGapError(
                    f"Laplacian eigenvalue {v:.3e} in degree {d} is too close "
                    f"to zero to classify at tolerance {tol:.1e}")
        eig[d] = (vals, vecs)
        for v in vals:
            if abs(float(v)) / scale > AMBIGUITY_BAND * tol:
                lambda1 = float(v) if lambda1 is None else min(lambda1, float(v))

    pi0_b, pi1_b, kappa_b, delta_b, hom_b = {}, {}, {}, {}, {}
    include_b, project_b, m0_dims = {}, {}, {}
    green_t: dict[int, np.ndarray] = {}
    harm_t: dict[int, np.ndarray] = {}
    for d in degrees:
        nd = space.dim(d)
        vals, vecs = eig[d]
        scale = max(1.0, float(vals[-1]) if nd else 1.0)
        harmonic = np.array([abs(float(v)) / scale <= tol for v in vals])
        u0 = vecs[:, harmonic]
        harm_t[d] = u0
        pi0_t = u0 @ u0.conj().T
        inv_vals = np.array([0.0 if h else 1.0 / float(v)
                             for v, h in zip(vals, harmonic)])
        green_t[d] = vecs @ np.diag(inv_vals) @ vecs.conj().T
        delta_t = vecs @ np.diag(vals) @ vecs.conj().T
        pi0_b[d] = from_tilde(pi0_t, d, d)
        pi1_b[d] = np.eye(nd, dtype=complex) - pi0_b[d]
        delta_b[d] = from_tilde(delta_t, d, d)
        m0_dims[d] = int(u0.shape[1])
        if u0.shape[1]:
            include_b[d] = np.linalg.inv(chol[d]) @ u0
            project_b[d] = u0.conj().T @ chol[d]
    for d in degrees:
        if (d - 1) in q_t and space.dim(d):
            kap_t = q_t[d - 1].conj().T
            kappa_b[d] = from_tilde(kap_t, d, d - 1)
            hom_b[d] = from_tilde(green_t[d - 1] @ kap_t, d, d - 1)

    m0 = GradedVectorSpace.make(
        m0_dims, {d: [f"h{d}_{i}" for i in range(n)] for d, n in m0_dims.items()})
    return Splitting(
        pi0=GradedMap.build(space, space, 0, pi0_b, FLOAT),
        pi1=GradedMap.build(space, space, 0, pi1_b, FLOAT),
        kappa=GradedMap.build(space, space, -1, kappa_b, FLOAT),
        kind="laplacian",
        m0=m0,
        include=GradedMap.build(m0, space, 0, include_b, FLOAT),
        project=GradedMap.build(space, m0, 0, project_b, FLOAT),
        homotopy=GradedMap.build(space, space, -1, hom_b, FLOAT),
        mode=FLOAT,
        delta=GradedMap.build(space, space, 0, delta_b, FLOAT),
        lambda1=lambda1,
    )


def check_splitting(space: GradedVectorSpace, q: GradedMap, splitting: Splitting,
                    tol: float | None = None) -> ValidationReport:
    """Every splitting invariant, including the side conditions on kappa."""
    if splitting.mode == FLOAT and tol is None:
        tol = DEFAULT_TOL
    s = splitting
    ident = GradedMap.identity(space, s.mode)
    checks = [
        CheckResult("pi0+pi1=id", (s.pi0 + s.pi1).equals(ident, tol)),
        CheckResult("pi0-idempotent", compose(s.pi0, s.pi0).equals(s.pi0, tol)),
        CheckResult("pi1-idempotent", compose(s.pi1, s.pi1).equals(s.pi1, tol)),
        CheckResult("pi0pi1=0", compose(s.pi0, s.pi1).is_zero(tol)),
        CheckResult("Qpi0=0", compose(q, s.pi0).is_zero(tol)),
        CheckResult("pi0Q=0", compose(s.pi0, q).is_zero(tol)),
        CheckResult("pi1-chain", supercommutator(q, s.pi1).is_zero(tol)),
        CheckResult("kappa-squared", compose(s.kappa, s.kappa).is_zero(tol)),
        CheckResult("kappa-pi0=0", compose(s.kappa, s.pi0).is_zero(tol)),
        CheckResult("pi0-kappa=0", compose(s.pi0, s.kappa).is_zero(tol)),
        CheckResult("include-project", compose(s.project, s.include).equals(
            GradedMap.identity(s.m0, s.mode), tol)),
        CheckResult("pi0-factorizes", compose(s.include, s.project).equals(
            s.pi0, tol)),
    ]
    bracket = supercommutator(q, s.kappa)
    if s.kind == "projector":
        checks.append(CheckResult("Q-kappa-bracket=pi1", bracket.equals(s.pi1, tol)))
    else:
        checks.append(CheckResult("Q-kappa-bracket=delta",
                                  bracket.equals(s.delta, tol)))
        checks.append(CheckResult("delta-kills-pi0",
                                  compose(s.delta, s.pi0).is_zero(tol)))
        checks.append(CheckResult("delta-preserves-pi1", compose(
            s.pi0, compose(s.delta, s.pi1)).is_zero(tol)))
    checks.append(CheckResult("normalized-homotopy", supercommutator(
        q, s.homotopy).equals(s.pi1, tol)))
    checks.append(CheckResult("homotopy-side-conditions",
                              compose(s.homotopy, s.homotopy).is_zero(tol)
                              and compose(s.homotopy, s.pi0).is_zero(tol)
                              and compose(s.pi0, s.homotopy).is_zero(tol)))
    return ValidationReport(tuple(checks))


def cohomology(space: GradedVectorSpace, q: GradedMap,
               tol: float | None = None) -> CohomologyData:
    """Per-degree cohomology with representative cocycles and class coordinates."""
    if not compose(q, q).is_zero(tol if q.mode == FLOAT else None):
        raise ShapeError("Q^2 != 0")
    if q.mode == EXACT:
        s = build_splitting_projector(space, q)
    else:
        s = build_splitting_hodge(space, q, tol=tol or DEFAULT_TOL)
    euler = s.m0.euler_characteristic()
    return CohomologyData(space=s.m0, include=s.include, project=s.project,
                          euler=euler)


def euler_characteristic(space: GradedVectorSpace,
                         q: GradedMap | None = None) -> int:
    """Alternating dimension sum; with Q, the cohomology variant (equal value)."""
    if q is None:
        return space.euler_characteristic()
    return cohomology(space, q).euler


# ---------------------------------------------------------------------------
# Endomorphism algebras


@dataclass(frozen=True)
class EndoAlgebra:
    """End(V) as a dg algebra plus the bookkeeping tying basis elements to
    their concrete graded maps (entries are (src_deg, src_idx, tgt_deg,
    tgt_idx) in flat basis order)."""

    algebra: DgAlgebra
    space: GradedVectorSpace
    maps: tuple[GradedMap, ...]
    entries: tuple[tuple[int, int, int, int], ...]

    def expand(self, m: GradedMap) -> np.ndarray:
        """Flat coefficients of a homogeneous endomorphism over the basis."""
        out = self.algebra._zero_vec()
        for k, (sd, i, td, j) in enumerate(self.entries):
            if td - sd != m.degree:
                continue
            blk = m.block(sd)
            if blk.size:
                out[k] = blk[j, i]
        return out


def endomorphism_algebra(space: GradedVectorSpace, q: GradedMap | None,
                         mode: str) -> EndoAlgebra:
    """End(space) as a dg algebra (differential {Q, .}, zero when q is None),
    basis ordered by (algebra degree, source degree, source index, target
    index)."""
    degrees = space.degrees()
    entries: dict[int, list[tuple[int, int, int, int]]] = {}
    for p in degrees:
        for t_deg in degrees:
            g = t_deg - p
            for i in range(space.dim(p)):
                for j in range(space.dim(t_deg)):
                    entries.setdefault(g, []).append((p, i, t_deg, j))
    dims = {g: len(v) for g, v in entries.items()}
    labels = {
        g: [f"E[{space.label(td, j)}<-{space.label(sd, i)}]"
            for sd, i, td, j in v]
        for g, v in entries.items()
    }
    aspace = GradedVectorSpace.make(dims, labels)

    maps: list[GradedMap] = []
    order: list[tuple[int, int, int, int]] = []
    for g in sorted(entries):
        order.extend(entries[g])
    for sd, i, td, j in order:
        m = zeros_matrix(space.dim(td), space.dim(sd), mode)
        m[j, i] = one_scalar(mode)
        maps.append(GradedMap.build(
            space, space, td - sd, {sd: m}, mode))

    n = len(order)
    pos = {key: k for k, key in enumerate(order)}

    def zero_vec():
        v = np.empty(n, dtype=object) if mode == EXACT else np.zeros(n, dtype=complex)
        if mode == EXACT:
            v[...] = Fraction(0)
        return v

    mul_table: list[list[np.ndarray]] = []
    for a_idx, (sd_a, i_a, td_a, j_a) in enumerate(order):
        row = []
        for b_idx, (sd_b, i_b, td_b, j_b) in enumerate(order):
            v = zero_vec()
            # composition order[a] after order[b]
            if (td_b, j_b) == (sd_a, i_a):
                v[pos[(sd_b, i_b, td_a, j_a)]] = one_scalar(mode)
            row.append(v)
        mul_table.append(row)

    unit = zero_vec()
    for p in degrees:
        for i in range(space.dim(p)):
            unit[pos[(p, i, p, i)]] = one_scalar(mode)

    algebra = make_algebra(aspace, GradedMap.zero(aspace, aspace, 1, mode),
                           mul_table, unit, mode)
    endo = EndoAlgebra(algebra=algebra, space=space, maps=tuple(maps),
                       entries=tuple(order))
    if q is None:
        return endo
    off = algebra.flat_offsets()
    blocks = {}
    for g, dim in aspace.dims:
        rows = aspace.dim(g + 1)
        if rows:
            blocks[g] = np.stack(
                [endo.expand(supercommutator(q, maps[off[g] + i]))
                 [off[g + 1]:off[g + 1] + rows] for i in range(dim)], axis=1)
    differential = GradedMap.build(aspace, aspace, 1, blocks, mode)
    return replace(endo, algebra=replace(algebra, differential=differential))


def endomorphism_bundle(space: GradedVectorSpace, q: GradedMap,
                        mode: str) -> DgModuleBundle:
    """The module together with all of End(module) acting tautologically."""
    ea = endomorphism_algebra(space, q, mode)
    return DgModuleBundle(algebra=ea.algebra, space=space, q=q, rho=ea.maps,
                          mode=mode)
