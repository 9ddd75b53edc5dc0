"""Dg algebras, dg modules with actions, axiom validation, and splittings.

A ``DgAlgebra`` carries its product as one structure-constant tensor over
a homogeneous basis.  ``algebra_from_operators`` derives the tensor, the
unit and the differential from a basis of operators on a dg module, and
``validate_bundle`` checks the algebra axioms on every basis pair and
triple.  A ``DgModuleBundle`` couples an algebra to a module via the action
rho (one graded map per basis operator).  ``Splitting`` realizes the
decomposition of the module into its cohomology part and an acyclic part,
with contracting homotopy, in either projector or Laplacian normalization,
and carries the spectrum of {Q, kappa} that the propagator reads.
"""

from __future__ import annotations

import random
from collections import defaultdict
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
    invert_exact,
    kernel_image_split,
    max_abs,
    rref,
    solve_exact,
    supercommutator,
    zeros_matrix,
)
from homotrace.scalars import (DEFAULT_TOL, EXACT, FLOAT, one_scalar,
                               scalar_is_zero)


@dataclass(frozen=True)
class DgAlgebra:
    """Unital dg algebra over a homogeneous named basis; ``mul`` is the
    read-only (n, n, n) structure-constant tensor, mul[i, j] holding the
    coefficients of e_i e_j over the flat basis."""

    space: GradedVectorSpace
    differential: GradedMap
    mul: np.ndarray
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
        return self.mul[i, j]

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
        right = np.flatnonzero(b)
        for i in np.flatnonzero(a):
            for j in right:
                out = out + (a[i] * b[j]) * self.mul[i, j]
        return out


def make_algebra(space: GradedVectorSpace, differential: GradedMap,
                 mul: np.ndarray, unit: np.ndarray, mode: str) -> DgAlgebra:
    """Assemble the algebra from its (n, n, n) structure-constant tensor
    and unit vector (read-only copies)."""
    mul, unit = np.array(mul), np.array(unit)
    mul.setflags(write=False)
    unit.setflags(write=False)
    return DgAlgebra(space, differential, mul, unit, mode)


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

    mul = np.stack([flat(rho[i].degree + rho[j].degree, coeffs[i * n + j])
                    for i in range(n) for j in range(n)]).reshape(n, n, n)
    unit = flat(0, coeffs[n * n])
    diffs = coeffs[n * n + 1:]
    blocks = {g: np.stack(diffs[off[g]:off[g] + dim], axis=1)
              for g, dim in aspace.dims if aspace.dim(g + 1)}
    differential = GradedMap.build(aspace, aspace, 1, blocks, mode)
    return make_algebra(aspace, differential, mul, unit, mode), rho


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
        for k in np.flatnonzero(coeffs):
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


def validate_bundle(bundle: DgModuleBundle, tol: float | None = None
                    ) -> ValidationReport:
    """Check every dg-module axiom; failures are data, not errors.

    Leibniz, associativity and the unit hold on every basis pair or triple
    (the witness is the first failing one), exactly or, with ``tol``, to
    ``tol`` relative to the largest coefficient on either side (at least 1).
    """
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

    def names(key):
        return key and "(" + ", ".join(map(a.basis_name, key)) + ")"

    leib, assoc, unit = _algebra_failures(a, tol)
    checks.append(CheckResult("leibniz", leib is None, names(leib)))
    checks.append(CheckResult("associativity", assoc is None, names(assoc)))

    unit_wit = None if unit is None else a.basis_name(unit)
    if unit_wit is None:
        rho_unit = bundle.unit_map()
        if not rho_unit.equals(GradedMap.identity(bundle.space, bundle.mode), tol):
            unit_wit = "rho(unit) != id"
    checks.append(CheckResult("unit", unit_wit is None, unit_wit))

    n = a.n_basis
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
            try:
                lhs = bundle.rho_vector(a.mul_flat(i, j))
            except ShapeError:  # e_i e_j has terms in several degrees
                lhs = None
            rhs = compose(bundle.rho_flat(i), bundle.rho_flat(j))
            if lhs is None or not lhs.equals(rhs, tol):
                mult_wit = f"({a.basis_name(i)}, {a.basis_name(j)})"
                break
    checks.append(CheckResult("action-multiplicative", mult_wit is None, mult_wit))

    return ValidationReport(tuple(checks))


def _col_nz(m: np.ndarray, j: int, tol: float | None) -> bool:
    return any(abs(complex(m[i, j])) > (tol or 0) for i in range(m.shape[0]))


def _algebra_failures(a: DgAlgebra, tol: float | None) -> tuple:
    """The first failing basis pair (i, j) of the Leibniz rule, triple
    (i, j, k) of associativity and element i of the unit law, or None.
    Each side is contracted over the nonzero structure constants and
    differential entries into a dict keyed by basis indices and output."""
    n = a.n_basis
    mul = _entries(a.mul)                    # e_i e_j = ... + c e_m
    left = [[] for _ in range(n)]            # left[i]: (j, m, c)
    right = [[] for _ in range(n)]           # right[j]: (i, m, c)
    for i, j, m, c in mul:
        left[i].append((j, m, c))
        right[j].append((i, m, c))
    d_of = [_entries(a.diff_flat(i)) for i in range(n)]  # d(e_i): (m, x)
    sign = [(-1) ** (a.basis_degree(i) % 2) for i in range(n)]

    # d(e_i e_j) = d(e_i) e_j + (-1)^|i| e_i d(e_j)
    lhs, rhs = defaultdict(int), defaultdict(int)
    for i, j, m, c in mul:
        for l, x in d_of[m]:
            lhs[i, j, l] += c * x
    for i in range(n):
        for m, x in d_of[i]:
            for j, l, c in left[m]:
                rhs[i, j, l] += x * c
            for h, l, c in right[m]:
                rhs[h, i, l] += sign[h] * c * x
    leibniz = _first_mismatch(lhs, rhs, tol)

    # (e_i e_j) e_k = e_i (e_j e_k), as (e_i e_j) e_k and e_h (e_i e_j)
    lhs, rhs = defaultdict(int), defaultdict(int)
    for i, j, m, c in mul:
        for k, l, x in left[m]:
            lhs[i, j, k, l] += c * x
        for h, l, x in right[m]:
            rhs[h, i, j, l] += x * c
    assoc = _first_mismatch(lhs, rhs, tol)

    # 1 e_i = e_i (side 0) and e_i 1 = e_i (side 1)
    lhs = defaultdict(int)
    for m, u in _entries(a.unit):
        for i, l, c in left[m]:
            lhs[i, 0, l] += u * c
        for i, l, c in right[m]:
            lhs[i, 1, l] += c * u
    one = one_scalar(a.mode)
    unit = _first_mismatch(lhs, {(i, s, i): one for i in range(n)
                                 for s in (0, 1)}, tol)
    return leibniz and leibniz[:2], assoc and assoc[:3], unit and unit[0]


def _entries(t: np.ndarray) -> list[tuple]:
    """(index..., value) of every nonzero entry, in index order."""
    idx = np.nonzero(t)
    return list(zip(*(x.tolist() for x in idx), t[idx].tolist()))


def _first_mismatch(lhs: dict, rhs: dict, tol: float | None) -> tuple | None:
    """The smallest key at which the two sides differ: exactly when tol is
    None, else by more than tol times the largest entry of either side
    (at least 1)."""
    if tol is not None:
        tol *= max([1.0] + [abs(complex(v))
                            for v in (*lhs.values(), *rhs.values())])
    return min((key for key in lhs.keys() | rhs.keys()
                if not scalar_is_zero(lhs.get(key, 0) - rhs.get(key, 0), tol)),
               default=None)


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
    -1 with kappa^2 = 0, kappa pi0 = pi0 kappa = 0; {Q, kappa} = Delta, which
    is pi1 (projector kind) or the Laplacian (laplacian kind).  ``homotopy``
    is the normalized homotopy with {Q, homotopy} = pi1 in both kinds.

    ``spectrum[d] = (L, lam, R)`` with Delta_d = L diag(lam) R, R L = 1 and
    lam exactly 0 on cohomology, so exp(-t Delta) = L diag(e^(-t lam)) R in
    both kinds.  Projector: L = [h | b | w] (cocycle representatives,
    coboundaries, complement), R = L^-1, lam 0 on h and 1 on b, w.
    Laplacian: L = C^-1 V, R = V^H C, with C the inner product's Cholesky
    factor and V orthonormal eigenvectors of C Delta C^-1.
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
    spectrum: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]

    @property
    def delta(self) -> GradedMap:
        """Delta = {Q, kappa}, as L diag(lam) R per degree."""
        return GradedMap.build(self.pi0.source, self.pi0.source, 0, {
            d: (l * lam) @ r for d, (l, lam, r) in self.spectrum.items()},
            self.mode)

    @property
    def lambda1(self) -> float | None:
        """The spectral gap: the smallest nonzero eigenvalue of Delta."""
        return min((float(v) for _, lam, _ in self.spectrum.values()
                    for v in lam if v), default=None)


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

    pi0_blocks, kappa_blocks = {}, {}
    include_blocks, project_blocks = {}, {}
    m0_dims = {}
    t_parts: dict[int, tuple[int, int, int]] = {}
    spectrum = {}
    for d in degrees:
        h, b, w = h_bases[d], b_bases[d], w_bases[d]
        nd = space.dim(d)
        t = np.concatenate([h, b, w], axis=1) if nd else zeros_matrix(0, 0, EXACT)
        ti = invert_exact(t) if nd else t
        t_parts[d] = (h.shape[1], b.shape[1], w.shape[1])
        nh = h.shape[1]
        m0_dims[d] = nh
        lam = np.array([Fraction(int(i >= nh)) for i in range(nd)], dtype=object)
        spectrum[d] = (t, lam, ti)
        pi0_blocks[d] = t[:, :nh] @ ti[:nh, :]
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
        kappa_blocks[d] = w_bases[prev] @ spectrum[d][2][nh:nh + nb, :]

    m0 = GradedVectorSpace.make(
        m0_dims, {d: [f"h{d}_{i}" for i in range(n)] for d, n in m0_dims.items()})
    pi0 = GradedMap.build(space, space, 0, pi0_blocks, EXACT)
    pi1 = GradedMap.identity(space, EXACT) - pi0
    kappa = GradedMap.build(space, space, -1, kappa_blocks, EXACT)
    include = GradedMap.build(m0, space, 0, include_blocks, EXACT)
    project = GradedMap.build(space, m0, 0, project_blocks, EXACT)
    return Splitting(pi0=pi0, pi1=pi1, kappa=kappa, kind="projector", m0=m0,
                     include=include, project=project, homotopy=kappa, mode=EXACT,
                     spectrum=spectrum)


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

    # Q in orthonormal coordinates, degree by degree
    q_t = {d: chol[d + 1] @ q.block(d) @ np.linalg.inv(chol[d])
           for d in degrees if space.dim(d + 1)}

    spectrum, pi0_b, kappa_b, hom_b = {}, {}, {}, {}
    include_b, project_b, m0_dims = {}, {}, {}
    for d in degrees:
        nd = space.dim(d)
        delta_t = np.zeros((nd, nd), dtype=complex)
        if d in q_t:
            delta_t += q_t[d].conj().T @ q_t[d]
        if (d - 1) in q_t:
            delta_t += q_t[d - 1] @ q_t[d - 1].conj().T
        vals, vecs = np.linalg.eigh((delta_t + delta_t.conj().T) / 2)
        scale = max(1.0, float(vals[-1]) if nd else 1.0)
        rel = np.abs(vals) / scale
        ambiguous = vals[(rel > tol) & (rel <= AMBIGUITY_BAND * tol)]
        if ambiguous.size:
            raise SpectralGapError(
                f"Laplacian eigenvalue {ambiguous[0]:.3e} in degree {d} is too "
                f"close to zero to classify at tolerance {tol:.1e}")
        harmonic = rel <= tol
        lam = np.where(harmonic, 0.0, vals)
        left, right = np.linalg.inv(chol[d]) @ vecs, vecs.conj().T @ chol[d]
        spectrum[d] = (left, lam, right)
        pi0_b[d] = left[:, harmonic] @ right[harmonic]
        m0_dims[d] = int(harmonic.sum())
        include_b[d] = left[:, harmonic]
        project_b[d] = right[harmonic]
        if d in q_t:  # kappa and the Green-normalized homotopy into degree d
            kappa_b[d + 1] = (np.linalg.inv(chol[d]) @ q_t[d].conj().T
                              @ chol[d + 1])
            inv = np.divide(1.0, lam, out=np.zeros(nd), where=~harmonic)
            hom_b[d + 1] = ((left * inv) @ right) @ kappa_b[d + 1]

    m0 = GradedVectorSpace.make(
        m0_dims, {d: [f"h{d}_{i}" for i in range(n)] for d, n in m0_dims.items()})
    pi0 = GradedMap.build(space, space, 0, pi0_b, FLOAT)
    return Splitting(
        pi0=pi0,
        pi1=GradedMap.identity(space, FLOAT) - pi0,
        kappa=GradedMap.build(space, space, -1, kappa_b, FLOAT),
        kind="laplacian",
        m0=m0,
        include=GradedMap.build(m0, space, 0, include_b, FLOAT),
        project=GradedMap.build(space, m0, 0, project_b, FLOAT),
        homotopy=GradedMap.build(space, space, -1, hom_b, FLOAT),
        mode=FLOAT,
        spectrum=spectrum,
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
    one = one_scalar(mode)
    mul = zeros_matrix(n * n, n, mode).reshape(n, n, n)
    for a_idx, (sd_a, i_a, td_a, j_a) in enumerate(order):
        for b_idx, (sd_b, i_b, td_b, j_b) in enumerate(order):
            # composition order[a] after order[b]
            if (td_b, j_b) == (sd_a, i_a):
                mul[a_idx, b_idx, pos[(sd_b, i_b, td_a, j_a)]] = one

    unit = zeros_matrix(n, 1, mode)[:, 0]
    for p in degrees:
        for i in range(space.dim(p)):
            unit[pos[(p, i, p, i)]] = one

    algebra = make_algebra(aspace, GradedMap.zero(aspace, aspace, 1, mode),
                           mul, unit, mode)
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
