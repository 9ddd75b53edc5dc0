"""Dg algebras, dg modules with actions, axiom validation, and splittings.

A ``DgAlgebra`` is stored once, as the nonzero entries of its table of
products, unit and differential, read through one sparse view in both
modes (``sparse_view``).  A ``DgModuleBundle`` couples an algebra to a
module via the action rho (one graded map per basis operator), and its
``residuals`` check the three action identities as one join over the
nonzero entries of rho and Q.  ``algebra_from_operators`` is the one way
a bundle is built from operators (``instances.build_instance``, which
file loads, the generators and the float copy share): it reads those
entries once into a ``ModuleView`` (cleared once in exact mode), reads
the algebra's entries off n_g pivot entries per degree of that view
(exact: the pivots and the inverse of their block from one elimination),
and proves closure from the residuals, which read the same view.  Only
End(M0), the push-forward's target, has its entries in closed form
(``endomorphism_algebra``).  ``validate_bundle`` checks each algebra
axiom as one join over nonzero entries (``glinalg.first_unequal``) and
reads the action checks off the residuals.  A ``Splitting`` of the
module into its cohomology part and an acyclic part is (kind, kappa,
spectrum of {Q, kappa}), in projector or Laplacian normalization; m0,
include, project, pi0, pi1 and the normalized homotopy are read off the
spectrum.
"""

from __future__ import annotations

import random
from collections import defaultdict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from homotrace.errors import (
    ClosureError,
    InputError,
    RankAmbiguousError,
    ShapeError,
    SpectralGapError,
)
from homotrace.glinalg import (
    AMBIGUITY_BAND,
    ExactSpan,
    GradedMap,
    GradedVectorSpace,
    bar_signs,
    clear_denominators,
    compose,
    coo,
    densified,
    first_unequal,
    invert_exact,
    join,
    key_sums,
    magnitudes,
    max_abs,
    nullspace_and_pivots,
    sparse_pivots,
    stored_entries,
    sum_dtype,
    supercommutator,
    zeros_matrix,
)
from homotrace.scalars import (EXACT, FLOAT, one_scalar, session_tol,
                               times_sign)


@dataclass(frozen=True, eq=False)
class DgAlgebra:
    """Unital dg algebra over a homogeneous named basis, stored as the
    nonzero entries ((row, column) indices, values; in index order) of its
    (n^2 + 1 + n, n) table over the flat basis: row i n + j is e_i e_j, row
    n^2 the unit and row n^2 + 1 + k d(e_k), as in ``_escaped``.  The
    sparse view, the per-basis tables and ``differential`` are read off it
    once per algebra, on request, and the tensor ``mul`` on each
    request."""

    space: GradedVectorSpace
    entries: tuple[tuple[np.ndarray, np.ndarray], np.ndarray]
    mode: str

    @cached_property
    def n_basis(self) -> int:
        return self.space.total_dim

    @cached_property
    def graded_index(self) -> tuple[tuple[int, int], ...]:
        """(degree, index within the degree) of each flat index."""
        return tuple((d, i) for d, n in self.space.dims for i in range(n))

    @cached_property
    def sparse_view(self) -> tuple[tuple, ...]:
        """The nonzero structure constants, unit coordinates and
        differential entries, each as (indices, D values, D, bound) of
        ``_scaled``: indices (i, j, k) for the coefficient of e_k in e_i
        e_j, (k,) for the unit's and (i, k) for that in d(e_i)."""
        n = self.n_basis
        (row, col), vals = self.entries
        a, b = np.searchsorted(row, (n * n, n * n + 1))
        return tuple((idx, *_scaled(v, self.mode)) for idx, v in (
            ((row[:a] // n, row[:a] % n, col[:a]), vals[:a]),
            ((col[a:b],), vals[a:b]),
            ((row[b:] - n * n - 1, col[b:]), vals[b:])))

    @cached_property
    def _row_terms(self) -> list[list[tuple]]:
        """(column, value) per nonzero entry of each row of the table."""
        out = [[] for _ in range(self.n_basis * (self.n_basis + 1) + 1)]
        (row, col), vals = self.entries
        for r, k, c in zip(row.tolist(), col.tolist(), vals.tolist()):
            out[r].append((k, c))
        return out

    @cached_property
    def product_terms(self) -> list[list[list[tuple]]]:
        """product_terms[i][j]: (k, c) per nonzero coefficient of e_i e_j."""
        n = self.n_basis
        return [self._row_terms[i * n:i * n + n] for i in range(n)]

    @cached_property
    def differential_terms(self) -> list[list[tuple]]:
        """differential_terms[i]: (k, c) per nonzero coefficient of d(e_i)."""
        return self._row_terms[self.n_basis ** 2 + 1:]

    def _dense_rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo to hi - 1 of the table, dense and read-only."""
        (row, col), vals = self.entries
        a, b = np.searchsorted(row, (lo, hi))
        out = zeros_matrix(hi - lo, self.n_basis, self.mode)
        out[row[a:b] - lo, col[a:b]] = vals[a:b]
        out.setflags(write=False)
        return out

    @cached_property
    def differential(self) -> GradedMap:
        """d as a graded map of degree 1, read off the rows d(e_k)."""
        n, space, off = self.n_basis, self.space, self.space.offsets()
        d = self._dense_rows(n * n + 1, n * n + 1 + n).T   # column k: d(e_k)
        return GradedMap.build(space, space, 1, {
            g: d[off[g + 1]:off[g + 1] + space.dim(g + 1), off[g]:off[g] + dim]
            for g, dim in space.dims if space.dim(g + 1)}, self.mode)

    @property
    def mul(self) -> np.ndarray:
        """The read-only (n, n, n) tensor, mul[i, j] holding the
        coefficients of e_i e_j, formed anew on each request and kept by
        nothing; only ``mul_vectors`` asks for it."""
        n = self.n_basis
        return self._dense_rows(0, n * n).reshape(n, n, n)

    @cached_property
    def name_index(self) -> dict[str, int]:
        """Flat index of each basis name (its first, if a name repeats)."""
        return {self.basis_name(k): k for k in reversed(range(self.n_basis))}

    def basis_degree(self, k: int) -> int:
        return self.graded_index[k][0]

    def basis_name(self, k: int) -> str:
        return self.space.label(*self.graded_index[k])

    def flat_by_name(self, name: str) -> int | None:
        return self.name_index.get(name)

    def bar_terms(self, flats: tuple[int, ...]):
        """(word, coeff) for each term sigma_i d(b_i), then each merge
        cut_i b_i b_(i+1), of the bar differential on the basis word
        ``flats`` (signs from ``glinalg.bar_signs``); nonzero entries only."""
        signs = bar_signs([self.basis_degree(b) for b in flats])
        for i, (sigma, _) in enumerate(signs):
            for k, c in self.differential_terms[flats[i]]:
                yield flats[:i] + (k,) + flats[i + 1:], times_sign(c, sigma)
        for i, (_, cut) in enumerate(signs[:-1]):
            for k, c in self.product_terms[flats[i]][flats[i + 1]]:
                yield flats[:i] + (k,) + flats[i + 2:], times_sign(c, cut)

    def mul_vectors(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.tensordot(np.outer(a, b), self.mul)


def _scaled(values: np.ndarray, mode: str) -> tuple:
    """(D values, D, bound): exact values as ``glinalg.clear_denominators``
    clears them, float ones as they are, with D = 1 and bound None."""
    return clear_denominators(values) if mode == EXACT else (values, 1, None)


def algebra_from_operators(space: GradedVectorSpace, q: GradedMap,
                           maps: list[GradedMap], names: list[str], mode: str,
                           tol: float | None = None) -> DgModuleBundle:
    """The bundle of the dg algebra whose basis is the given homogeneous
    operators on (space, q), with rho those operators ordered by (degree,
    input order).

    The nonzero entries of rho and Q are read once (``module_view``).
    Every product, the identity and every {Q, op} is expanded over the
    operators of its degree from its sums at n_g pivot entries of that
    degree (``_expand_pivots``), whose nonzero entries are the algebra's,
    and the bundle's ``residuals``, read off the same view, prove closure:
    the first operator outside the span
    (products in row-major order, the identity, each {Q, op}), nonzero
    (exact) or above AMBIGUITY_BAND * tol (float), raises ClosureError
    naming it.  Linearly dependent operators raise InputError (in float,
    ``tol`` decides the rank; None is the session tolerance).
    """
    tol = session_tol(mode, tol)
    order = sorted(range(len(maps)), key=lambda k: maps[k].degree)
    rho = tuple(maps[k] for k in order)
    rho_names = [names[k] for k in order]
    view = module_view(space, q, rho, mode)
    algebra = DgAlgebra(_basis_space(rho, rho_names),
                        _expand_pivots(view, tol), mode)
    bundle = DgModuleBundle(algebra, space, q, rho, mode)
    vars(bundle)["_view"] = view             # lent to the residuals once
    bad = _first_failure(bundle.residuals,
                         None if tol is None else AMBIGUITY_BAND * tol)
    if bad is not None:
        raise _escaped(bad, rho_names)
    return bundle


def _basis_space(maps, names: list[str]) -> GradedVectorSpace:
    """The algebra's basis space: the operators' names by degree, in the
    order given."""
    labels = defaultdict(list)
    for m, name in zip(maps, names):
        labels[m.degree].append(name)
    return GradedVectorSpace.make({g: len(v) for g, v in labels.items()},
                                  labels)


def _escaped(row: int, names: list[str]) -> ClosureError:
    """Row i n + j is rho_i rho_j, n^2 the identity, n^2 + 1 + k {Q, rho_k}."""
    n = len(names)
    label = (f"product {names[row // n]}*{names[row % n]}" if row < n * n
             else "the identity operator" if row == n * n
             else f"differential of {names[row - n * n - 1]}")
    return ClosureError(f"{label} is not in the span of the declared "
                        "operators")


ModuleView = namedtuple("ModuleView", "mode size degrees op pos val ints "
                        "d top keys sums bound")
ModuleView.__doc__ = """The nonzero entries of rho and Q and the module side
of each action identity, read once (``module_view``).  Entry e of rho is
entry ``pos[e]`` = r * size + c of rho_``op[e]``, in (op, r, c) order,
with value ``val[e]``; exact ``ints`` are the values times ``d``, the
least common multiple of the denominators of rho's and Q's entries, and
``top`` bounds them.  ``sums[t]`` is entry (r, c) of rho_i rho_j (row
i n + j), of the identity (row n^2) or of {Q, rho_k} (row n^2 + 1 + k)
at ``keys[t]`` = row * size^2 + r * size + c, times d^2 and bounded by
``bound``.  In float mode d is 1 and the bounds are None."""


def module_view(space: GradedVectorSpace, q: GradedMap,
                rho: tuple[GradedMap, ...], mode: str) -> ModuleView:
    """The ``ModuleView`` of rho (sorted by degree) and Q.  Q is operator n
    here, so the sums are one join of the entries with themselves
    (``glinalg.key_sums``), in int64 when the bound allows it."""
    size, n, deg = space.total_dim, len(rho), [m.degree for m in rho]
    (op, row, col), val = stored_entries((*rho, q))
    ints, d, top = _scaled(val, mode)
    bound = None if top is None else 2 * size * top * top + d * d
    dtype = sum_dtype(mode, bound)
    # the row of _escaped and the sign of each product of two operators:
    # rho_i rho_j, Q rho_k and -(-1)^|k| rho_k Q (Q Q is left out)
    k = np.arange(n + 1)
    line = k[:, None] * n + k
    line[n], line[:, n] = n * n + 1 + k, n * n + 1 + k
    sign = np.ones((n + 1, n + 1), dtype=int)
    sign[:n, n] = 2 * (np.array(deg, dtype=int) % 2) - 1
    a, b = join(col, row)                     # left[r, s] right[s, c]
    keep = np.flatnonzero(op[a] + op[b] < 2 * n)
    a, b = a[keep], b[keep]
    x, diag = ints.astype(dtype), np.arange(size)
    with np.errstate(over="ignore", invalid="ignore"):
        keys, sums = key_sums([
            ((line[op[a], op[b]] * size + row[a]) * size + col[b],
             sign[op[a], op[b]] * x[a] * x[b]),
            ((n * n * size + diag) * size + diag,
             np.full(size, d * d, dtype))], [])
    r = np.searchsorted(op, n)                # Q's entries come last
    return ModuleView(mode, size, tuple(deg), op[:r], row[:r] * size + col[:r],
                      val[:r], ints[:r], d, top, keys, sums[:, 0], bound)


def _expand_pivots(view: ModuleView, tol: float) -> tuple:
    """The ``DgAlgebra.entries`` of each product, the identity and each {Q,
    op} over the flat basis (meaningless outside the span).  The n_g
    operators of degree g are factored once at n_g of their nonzero
    entries (``glinalg.sparse_pivots``), where the view's sums give every
    row, so no product is formed.  Only the rows with a sum at some pivot
    are tabled, and both modes expand only those with a nonzero sum at a
    degree's pivots: float solves them, exact multiplies them by the
    integer inverse of the pivot block that one elimination reads off."""
    deg, mode = view.degrees, view.mode
    n = len(deg)
    pivot, factors = np.zeros(n, dtype=int), []
    for g in sorted(set(deg)):
        at = slice(deg.index(g), deg.index(g) + deg.count(g))
        lo, hi = np.searchsorted(view.op, (at.start, at.stop))
        try:
            pivot[at], factor, d = sparse_pivots(
                view.pos[lo:hi], view.op[lo:hi] - at.start, view.val[lo:hi],
                at.stop - at.start, mode, tol)
        except ShapeError as exc:
            raise InputError(f"the declared operators of degree {g} are "
                             "linearly dependent") from exc
        except RankAmbiguousError as exc:
            raise RankAmbiguousError(
                f"the declared operators of degree {g} are neither clearly "
                f"independent nor dependent: {exc}") from exc
        factors.append((at, factor, d * view.d ** 2))
    line, pos = np.divmod(view.keys, view.size ** 2)
    a, b = join(pos, pivot)
    line, k = np.unique(line[a], return_inverse=True)
    got = np.zeros((len(line), n), dtype=view.sums.dtype)
    got[k, b] = view.sums[a]                  # each tabled row at each pivot
    hits = [(np.zeros(0, dtype=int),) * 2
            + (np.zeros(0, dtype=complex if mode == FLOAT else object),)]
    for at, factor, d in factors:
        rows = got[:, at].astype(bool).any(axis=1).nonzero()[0]
        if mode == FLOAT:
            part = np.linalg.solve(factor, got[rows, at].T).T
        else:
            part = got[rows, at].astype(object) @ factor
        nz, val = coo(part, part.dtype)
        hits.append((line[rows[nz[0]]], at.start + nz[1], val if mode == FLOAT
                     else [Fraction(x, d) if type(x) is int
                           else x * Fraction(1, d) for x in val.tolist()]))
    row, col, val = (np.concatenate(x) for x in zip(*hits))
    order = np.lexsort((col, row))
    return (row[order], col[order]), val[order]


@dataclass(frozen=True, eq=False)
class DgModuleBundle:
    """A dg algebra together with a dg module and the action rho."""

    algebra: DgAlgebra
    space: GradedVectorSpace
    q: GradedMap
    rho: tuple[GradedMap, ...]
    mode: str

    @cached_property
    def residuals(self) -> np.ndarray:
        """The action identities in the rows of ``_escaped``: rho(e_i e_j)
        against rho_i rho_j, rho(unit) against the identity, rho(d e_k)
        against {Q, rho_k}, as one join over the nonzero entries of rho and
        Q.  Float rows hold the largest entry difference (NaN kept), exact
        rows whether the sides differ.  Computed once."""
        return _action_residuals(self)


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


def validate_bundle(bundle: DgModuleBundle, tol: float | None = None
                    ) -> ValidationReport:
    """Check every dg-module axiom; failures are data, not errors.

    Exact checks are exact (``tol`` is ignored), float ones hold to
    ``tol`` (default DEFAULT_TOL).  Leibniz, associativity and the unit
    hold on every basis pair or triple (the witness is the first failing
    one), in float relative to the largest coefficient on either side (at
    least 1); each law is one join over the algebra's ``sparse_view``
    (``_algebra_failures``).  rho(unit) = id, the chain-map identity of
    each rho_k and rho(e_i e_j) = rho(e_i) rho(e_j) on every pair are read
    off ``bundle.residuals`` per row; the witness is the first failing
    basis element or pair.
    """
    tol = session_tol(bundle.mode, tol)
    a = bundle.algebra
    checks: list[CheckResult] = []

    qq = compose(bundle.q, bundle.q)
    wit = next((bundle.space.label(d, j) for d, m in qq.blocks
                for j in range(m.shape[1]) if max_abs(m[:, j]) > (tol or 0)),
               None)
    checks.append(CheckResult("Q-squared", qq.is_zero(tol), wit))

    dd = compose(a.differential, a.differential)
    checks.append(CheckResult("algebra-differential-squared", dd.is_zero(tol),
                              None if dd.is_zero(tol) else "d_A^2 != 0"))

    def names(key):
        return key and "(" + ", ".join(map(a.basis_name, key)) + ")"

    leib, assoc, unit = _algebra_failures(a, tol)
    checks.append(CheckResult("leibniz", leib is None, names(leib)))
    checks.append(CheckResult("associativity", assoc is None, names(assoc)))

    n, res = a.n_basis, bundle.residuals
    unit_wit = None if unit is None else a.basis_name(unit)
    if unit is None and _first_failure(res[n * n:n * n + 1], tol) is not None:
        unit_wit = "rho(unit) != id"
    checks.append(CheckResult("unit", unit_wit is None, unit_wit))

    chain = _first_failure(res[n * n + 1:], tol)
    checks.append(CheckResult("action-chain-map", chain is None,
                              None if chain is None else a.basis_name(chain)))

    mult = _first_failure(res[:n * n], tol)
    checks.append(CheckResult("action-multiplicative", mult is None,
                              names(None if mult is None else divmod(mult, n))))

    return ValidationReport(tuple(checks))


def _first_failure(residuals: np.ndarray, tol: float | None) -> int | None:
    """The first row of ``DgModuleBundle.residuals`` that fails: nonzero
    when tol is None, else above tol (NaN fails)."""
    bad = np.flatnonzero(residuals if tol is None else ~(residuals <= tol))
    return int(bad[0]) if bad.size else None


def _action_residuals(bundle: DgModuleBundle) -> np.ndarray:
    """``DgModuleBundle.residuals``, as one join over the nonzero entries:
    each structure constant, unit coordinate and differential entry t[m]
    meets the entries of rho_m, and ``glinalg.key_sums`` adds these terms
    per (row, r, c) against the module side of the ``ModuleView`` that the
    bundle's load lent it (read here otherwise, and not kept).  A product
    with terms outside degree |i| + |j| fails too, since rho is injective
    on each degree.  The sums run on the algebra's ``sparse_view`` and the
    module view's scaled values, each side times the other's scales: exact
    ones in int64 when a bound allows it; float rows are computed with
    overflow ignored, so an inf or NaN row fails."""
    view = vars(bundle).pop("_view", None) or module_view(
        bundle.space, bundle.q, bundle.rho, bundle.mode)
    a, exact = bundle.algebra, bundle.mode == EXACT
    n, sq = a.n_basis, view.size * view.size
    # coefficient c of rho_m in row t: rho(e_i e_j), rho(unit), rho(d e_k)
    (t, m), _ = a.entries
    (_, mc, dm, tm), (_, uc, du, tu), (_, dc, dd, td) = a.sparse_view
    lift, scales = view.d, (dm, du, dd)
    dtype = sum_dtype(a.mode, None if None in (tm, td, tu, view.bound) else
                      n * max(tm, td, tu) * view.top * lift
                      + view.bound * max(scales))
    c = np.concatenate([mc, uc, dc]).astype(dtype)
    p, e = join(m, view.op)
    rhs = view.sums.astype(dtype)
    cut = np.searchsorted(view.keys, (n * n * sq, (n * n + 1) * sq))
    with np.errstate(over="ignore", invalid="ignore"):
        keys, sums = key_sums(
            [(t[p] * sq + view.pos[e],
              c[p] * view.ints[e].astype(dtype) * lift)],
            [(view.keys[lo:hi], rhs[lo:hi] * scale)
             for lo, hi, scale in zip((0, *cut), (*cut, None), scales)])
        gap = sums[:, 0] - sums[:, 1]
    row = np.unravel_index(keys, (n * n + 1 + n, sq))[0]
    out = np.zeros(n * n + 1 + n, dtype=bool if exact else float)
    if exact:
        out[row[gap.astype(bool)]] = True
    else:
        starts = np.flatnonzero(np.diff(row, prepend=-1))
        out[row[starts]] = np.maximum.reduceat(magnitudes(gap), starts)
    out.setflags(write=False)
    return out


def _algebra_failures(a: DgAlgebra, tol: float | None) -> tuple:
    """The first failing basis pair (i, j) of the Leibniz rule, triple
    (i, j, k) of associativity and element i of the unit law, or None.
    Each identity is one join over the nonzero entries: every pair of
    structure constants or differential entries that meet on a basis
    index is a term, and ``glinalg.first_unequal`` sums the terms per
    output key, exactly without ``tol``, else to ``tol``.  The sums run on
    ``sparse_view``, whose scales D multiply both sides of an identity
    alike: exact ones in int64 when a bound on every sum allows it and in
    Python ints (or GaussianRationals) otherwise, float ones with overflow
    read as a failing inf or NaN."""
    n, view = a.n_basis, a.sparse_view
    (_, _, dm, tm), (_, _, du, tu), (_, _, _, td) = view
    one = dm * du
    dtype = sum_dtype(a.mode, None if None in (tm, td, tu) else
                      3 * n * max(tm, td, tu) ** 2 + one)
    parts = [(idx, ints.astype(dtype)) for idx, ints, _, _ in view]
    # e_i e_j = ... + c e_m, unit = ... + u e_um, d(e_di) = ... + x e_dl
    ((i, j, m), c), ((um,), u), ((di, dl), x) = parts
    sign = np.array([(-1) ** (a.basis_degree(k) % 2) for k in range(n)]
                    ).astype(dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        # d(e_i e_j) = d(e_i) e_j + (-1)^|i| e_i d(e_j)
        p, q = join(m, di)
        r, s = join(dl, i)
        t, w = join(dl, j)
        leibniz = first_unequal((n, n, n), [
            ((i[p], j[p], dl[q]), c[p] * x[q])], [
            ((di[r], j[s], m[s]), x[r] * c[s]),
            ((i[w], di[t], m[w]), sign[i[w]] * c[w] * x[t])], tol)

        # (e_i e_j) e_k = e_i (e_j e_k)
        p, q = join(m, i)
        r, s = join(m, j)
        assoc = first_unequal((n, n, n, n), [
            ((i[p], j[p], j[q], m[q]), c[p] * c[q])], [
            ((i[s], i[r], j[r], m[s]), c[s] * c[r])], tol)

        # 1 e_i = e_i (side 0) and e_i 1 = e_i (side 1)
        p, q = join(um, i)
        r, s = join(um, j)
        k, ones = np.arange(n), np.full(n, one, dtype)
        unit = first_unequal((n, 2, n), [
            ((j[q], 0, m[q]), u[p] * c[q]), ((i[s], 1, m[s]), c[s] * u[r])],
            [((k, 0, k), ones), ((k, 1, k), ones)], tol)
    return leibniz and leibniz[:2], assoc and assoc[:3], unit and unit[0]


# ---------------------------------------------------------------------------
# Cohomology and splittings


@dataclass(frozen=True, eq=False)
class Splitting:
    """Module = cohomology part + acyclic part, with contracting homotopy,
    as (kind, kappa, spectrum); the mode and the module space are kappa's.

    ``spectrum[d] = (L, lam, R)`` with Delta_d = {Q, kappa}_d = L diag(lam)
    R, R L = 1 and lam exactly 0 on cohomology, so exp(-t Delta) = L
    diag(e^(-t lam)) R in both kinds.  Projector kind (exact): L = [h | b |
    w] (cocycle representatives, coboundaries, complement), R = L^-1, lam
    0 on h and 1 on b, w, so Delta = pi1.  Laplacian kind (float): L =
    C^-1 V, R = V^H C, with C the inner product's Cholesky factor and V
    orthonormal eigenvectors of C Delta C^-1.

    Read off the spectrum once: ``m0`` (lam = 0 per degree), ``include`` =
    L[:, lam = 0], ``project`` = R[lam = 0], ``pi0`` = include project,
    ``pi1`` = ``identity`` - pi0 and ``homotopy`` = L diag(1/lam) R kappa
    (0 where lam = 0), with {Q, homotopy} = pi1 in both kinds; it is kappa
    in the projector kind.  So are the heat factors ``r_kappa``,
    ``lambda1`` and ``float_copy`` that the propagator and quadrature
    read.
    ``check_splitting`` validates: pi0, pi1 complementary idempotents
    commuting with Q, Q pi0 = pi0 Q = 0, kappa^2 = 0 and kappa pi0 = pi0
    kappa = 0, and the same side conditions on homotopy.
    """

    kind: str  # "projector" | "laplacian"
    kappa: GradedMap
    spectrum: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]

    @property
    def mode(self) -> str:
        return self.kappa.mode

    @cached_property
    def _harmonic(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Per degree, the columns of L and the rows of R where lam = 0."""
        return {d: (l[:, lam == 0], r[lam == 0])
                for d, (l, lam, r) in self.spectrum.items()}

    @cached_property
    def m0(self) -> GradedVectorSpace:
        dims = {d: len(r) for d, (_, r) in self._harmonic.items()}
        return GradedVectorSpace.make(dims, {
            d: [f"h{d}_{i}" for i in range(n)] for d, n in dims.items()})

    @cached_property
    def include(self) -> GradedMap:
        return GradedMap.build(self.m0, self.kappa.source, 0, {
            d: l for d, (l, _) in self._harmonic.items()}, self.mode)

    @cached_property
    def project(self) -> GradedMap:
        return GradedMap.build(self.kappa.source, self.m0, 0, {
            d: r for d, (_, r) in self._harmonic.items()}, self.mode)

    @cached_property
    def pi0(self) -> GradedMap:
        return compose(self.include, self.project)

    @cached_property
    def identity(self) -> GradedMap:
        """The identity of the module, built once per splitting."""
        return GradedMap.identity(self.kappa.source, self.mode)

    @cached_property
    def pi1(self) -> GradedMap:
        return self.identity - self.pi0

    @cached_property
    def homotopy(self) -> GradedMap:
        """L diag(1/lam) R, formed on the targets of kappa, after kappa."""
        weighted = {}
        for d, _ in self.kappa.blocks:         # kappa: degree d -> d - 1
            l, lam, r = self.spectrum[d - 1]
            inv = np.divide(1, lam, out=np.zeros_like(lam), where=lam != 0)
            weighted[d - 1] = (l * inv) @ r
        space = self.kappa.source
        return compose(GradedMap.build(space, space, 0, weighted, self.mode),
                       self.kappa)

    @cached_property
    def delta(self) -> GradedMap:
        """Delta = {Q, kappa}, as L diag(lam) R per degree."""
        space = self.kappa.source
        return GradedMap.build(space, space, 0, {
            d: (l * lam) @ r for d, (l, lam, r) in self.spectrum.items()},
            self.mode)

    @cached_property
    def r_kappa(self) -> GradedMap:
        """R_(d-1) kappa_d per source degree d, 0 on rows where lam = 0."""
        blocks = {}
        for d, k in self.kappa.blocks:
            _, lam, r = self.spectrum[d - 1]
            blocks[d] = r @ k
            blocks[d][lam == 0] = 0
        space = self.kappa.source
        return GradedMap.build(space, space, -1, blocks, self.mode)

    @property
    def float_copy(self) -> "Splitting":
        """Itself in float mode (not kept: a reference cycle), else cast."""
        return self if self.mode == FLOAT else self._cast

    @cached_property
    def _cast(self) -> "Splitting":
        return Splitting(self.kind, self.kappa.to_float(), {
            d: (l.astype(complex), lam.astype(float), r.astype(complex))
            for d, (l, lam, r) in self.spectrum.items()})

    @cached_property
    def lambda1(self) -> float | None:
        """The spectral gap: the smallest nonzero eigenvalue of Delta."""
        return min((float(v) for _, lam, _ in self.spectrum.values()
                    for v in lam if v), default=None)


def build_splitting_projector(space: GradedVectorSpace, q: GradedMap,
                              shear_seed: int | None = None) -> Splitting:
    """Deterministic exact splitting from row reduction: per degree the
    spectrum L = [h | b | w], lam, R = L^-1 and kappa = w_(d-1) R_b, where
    b = Q w_(d-1).  Q must square to zero, which this builder does not
    check: ``cohomology`` and ``instances.build_instance`` refuse any
    other Q before they call it.

    z, w, b and h are sparse columns (dicts index -> value): w the
    standard vectors at the pivots of the kernel z of Q, so b is Q's
    columns at those pivots; the dense spectrum and kappa's blocks are
    formed at the end.  ``shear_seed`` perturbs the complement choices
    (still valid), h + b s1 and w + z s2 for s1, s2 drawn row by row in
    [-2, 2], to produce distinct splittings of the same complex.
    """
    if q.mode != EXACT:
        raise ShapeError("projector splitting is exact-mode only")
    rng = random.Random(shear_seed) if shear_seed is not None else None
    degrees = space.degrees()
    q_rows = {d: [{} for _ in range(space.dim(d + 1))] for d in degrees}
    for d, i, j, x in q.nonzero_entries():
        q_rows[d][i][j] = x

    z, pivots, w, b, h = {}, {}, {}, {}, {}
    for d in degrees:                         # ascending
        z[d], pivots[d] = nullspace_and_pivots(q_rows[d], space.dim(d))
        w[d] = [{c: Fraction(1)} for c in pivots[d]]
        b[d] = [{i: row[c] for i, row in enumerate(q_rows[d - 1]) if c in row}
                for c in pivots.get(d - 1, [])]
        # cohomology representatives: the cocycles independent of the
        # coboundaries and of the cocycles kept before them
        span = ExactSpan()
        for v in b[d]:
            span.add(v)
        h[d] = [v for v in z[d] if span.add(v)]

    if rng is not None:
        for d in degrees:
            for vs, by in ((h, b), (w, z)):
                s = [[rng.randint(-2, 2) for _ in vs[d]] for _ in by[d]]
                vs[d] = [_plus(v, [(row[j], u) for row, u in zip(s, by[d])])
                         for j, v in enumerate(vs[d])]

    spectrum, kappa_blocks = {}, {}
    for d in degrees:
        n, nh, nb = space.dim(d), len(h[d]), len(b[d])
        t = [{} for _ in range(n)]
        for k, v in enumerate(h[d] + b[d] + w[d]):
            for i, x in v.items():
                t[i][k] = x
        ti = invert_exact(t)
        lam = np.array([Fraction(int(i >= nh)) for i in range(n)],
                       dtype=object)
        spectrum[d] = (densified(t, n), lam, densified(ti, n))
        if nb:
            kappa_blocks[d] = densified([_plus({}, [
                (v[i], r) for v, r in zip(w[d - 1], ti[nh:nh + nb]) if i in v])
                for i in range(space.dim(d - 1))], n)
    return Splitting("projector",
                     GradedMap.build(space, space, -1, kappa_blocks, EXACT),
                     spectrum)


def _plus(v: dict, terms) -> dict:
    """The sparse vector v + the sum of c u over the (c, u) terms."""
    v = dict(v)
    for c, u in terms:
        for i, x in u.items():
            v[i] = v.get(i, 0) + c * x
    return v


def build_splitting_hodge(space: GradedVectorSpace, q: GradedMap,
                          inner_product: dict[int, np.ndarray] | None = None,
                          tol: float | None = None) -> Splitting:
    """Splitting from Hodge theory, in laplacian kind: kappa is the adjoint
    of Q and the spectrum is the eigendecomposition of the Laplacian
    {Q, kappa}; the harmonic part and the Green-normalized homotopy are
    read off it (``Splitting``), eigenvalues up to ``tol`` as zero.  A
    Laplacian outside the double range raises InputError."""
    if q.mode != FLOAT:
        raise ShapeError("Hodge splitting is float-mode only")
    tol = session_tol(FLOAT, tol)
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

    spectrum, kappa_b = {}, {}
    with np.errstate(over="ignore", invalid="ignore"):
        # Q in orthonormal coordinates, degree by degree
        q_t = {d: chol[d + 1] @ q.block(d) @ np.linalg.inv(chol[d])
               for d in degrees if space.dim(d + 1)}
        for d in degrees:
            nd = space.dim(d)
            delta_t = np.zeros((nd, nd), dtype=complex)
            if d in q_t:
                delta_t += q_t[d].conj().T @ q_t[d]
            if (d - 1) in q_t:
                delta_t += q_t[d - 1] @ q_t[d - 1].conj().T
            delta_t = (delta_t + delta_t.conj().T) / 2
            if not np.isfinite(delta_t).all():
                raise InputError(f"the Laplacian of Q in degree {d} is "
                                 "outside the double range")
            vals, vecs = np.linalg.eigh(delta_t)
            rel = np.abs(vals) / max(1.0, float(vals[-1]))
            ambiguous = vals[(rel > tol) & (rel <= AMBIGUITY_BAND * tol)]
            if ambiguous.size:
                raise SpectralGapError(
                    f"Laplacian eigenvalue {ambiguous[0]:.3e} in degree {d} "
                    f"is too close to zero to classify at tolerance "
                    f"{tol:.1e}")
            inv = np.linalg.inv(chol[d])
            spectrum[d] = (inv @ vecs, np.where(rel <= tol, 0.0, vals),
                           vecs.conj().T @ chol[d])
            if d in q_t:  # kappa into degree d
                kappa_b[d + 1] = inv @ q_t[d].conj().T @ chol[d + 1]
    return Splitting("laplacian",
                     GradedMap.build(space, space, -1, kappa_b, FLOAT),
                     spectrum)


def check_splitting(space: GradedVectorSpace, q: GradedMap, splitting: Splitting,
                    tol: float | None = None) -> ValidationReport:
    """Every splitting invariant, including the side conditions on kappa."""
    tol = session_tol(splitting.mode, tol)
    s = splitting
    checks = [
        CheckResult("pi0+pi1=id", space.dims == s.kappa.source.dims
                    and (s.pi0 + s.pi1).equals(s.identity, tol)),
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
               tol: float | None = None) -> Splitting:
    """The splitting onto cohomology: projector kind in exact arithmetic,
    Hodge in float; ``m0`` holds the per-degree cohomology dimensions."""
    tol = session_tol(q.mode, tol)
    if not compose(q, q).is_zero(tol):
        raise ShapeError("Q^2 != 0")
    if q.mode == EXACT:
        return build_splitting_projector(space, q)
    return build_splitting_hodge(space, q, tol=tol)


def euler_characteristic(space: GradedVectorSpace,
                         q: GradedMap | None = None) -> int:
    """Alternating dimension sum; with Q, the cohomology variant (equal value)."""
    if q is None:
        return space.euler_characteristic()
    return cohomology(space, q).m0.euler_characteristic()


# ---------------------------------------------------------------------------
# Endomorphism algebras


@dataclass(frozen=True, eq=False)
class EndoAlgebra:
    """End(V) as a dg algebra plus the bookkeeping tying basis elements to
    their concrete graded maps (entries are (src_deg, src_idx, tgt_deg,
    tgt_idx) in flat basis order).  An endomorphism's coordinates over
    the basis are read as its nonzero terms (``coordinates``), and no
    dense coefficient vector is formed."""

    algebra: DgAlgebra
    space: GradedVectorSpace
    maps: tuple[GradedMap, ...]
    entries: tuple[tuple[int, int, int, int], ...]

    @cached_property
    def _index(self) -> dict[tuple[int, int, int, int], int]:
        return {e: k for k, e in enumerate(self.entries)}

    def coordinates(self, m: GradedMap) -> list:
        """(k, c) per nonzero coefficient of a homogeneous endomorphism
        over the basis, in index order, read off its stored entries."""
        return sorted((self._index[sd, i, sd + m.degree, j], x)
                      for sd, j, i, x in m.nonzero_entries())


def matrix_units(space: GradedVectorSpace, mode: str) -> tuple:
    """The matrix units E[t<-s] of End(space): their entries (source degree,
    source index, target degree, target index), maps and names, ordered by
    (algebra degree, source degree, source index, target index)."""
    entries = tuple(key[1:] for key in sorted(
        (td - sd, sd, i, td, j) for sd, ns in space.dims
        for td, nt in space.dims for i in range(ns) for j in range(nt)))
    maps, names = [], []
    for sd, i, td, j in entries:
        m = zeros_matrix(space.dim(td), space.dim(sd), mode)
        m[j, i] = one_scalar(mode)
        maps.append(GradedMap.build(space, space, td - sd, {sd: m}, mode))
        names.append(f"E[{space.label(td, j)}<-{space.label(sd, i)}]")
    return entries, maps, names


def endomorphism_algebra(space: GradedVectorSpace, mode: str) -> EndoAlgebra:
    """End(space) with zero differential, on the matrix units, with its
    entries in closed form: E[u<-t] E[t<-s] = E[u<-s], and the unit is the
    sum of the E[s<-s].  This is End(M0), the push-forward's target; a
    bundle acting on a module goes through ``algebra_from_operators``
    (``instances.matrix_instance`` passes it the matrix units)."""
    entries, maps, names = matrix_units(space, mode)
    n, off, size = len(entries), space.offsets(), space.total_dim
    src = np.array([off[sd] + i for sd, i, _, _ in entries], dtype=int)
    tgt = np.array([off[td] + j for _, _, td, j in entries], dtype=int)
    unit_at = np.zeros((size, size), dtype=int)   # E[t<-s] is unit_at[s, t]
    unit_at[src, tgt] = np.arange(n)
    a, b = join(src, tgt)                         # E_a after E_b
    row = np.concatenate([a * n + b, np.full(size, n * n)])
    col = np.concatenate([unit_at[src[b], tgt[a]],
                          np.sort(unit_at.diagonal())])
    vals = np.full(len(row), one_scalar(mode))
    return EndoAlgebra(DgAlgebra(_basis_space(maps, names), ((row, col), vals),
                                 mode), space, tuple(maps), entries)
