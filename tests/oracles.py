"""Test oracles: independent, deliberately plain reference computations
that the package results are checked against.  None of these is used by
the package itself."""

import math
from fractions import Fraction

import numpy as np

from homotrace.dgcore import (DgAlgebra, DgModuleBundle, EndoAlgebra,
                              Splitting, matrix_units)
from homotrace.errors import ClosureError, ShapeError
from homotrace.glinalg import (GradedMap, GradedVectorSpace, bar_signs,
                               clear_denominators, compose, coo, join,
                               sparse_pivots, supercommutator, zeros_matrix)
from homotrace.hochschild import HochschildChain, cyclic_shift_term
from homotrace.instances import t1_instance
from homotrace.scalars import (EXACT, FLOAT, GaussianRational, encode_value,
                               one_scalar, zero_scalar)
from homotrace.serialize import instance_to_dict
from homotrace.transfer import AInfinityMorphism, Slot, _elements


def matrix_from_rows(rows, mode: str):
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    m = zeros_matrix(nr, nc, mode)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            m[i, j] = Fraction(x) if mode == EXACT and isinstance(x, int) else x
    return m


def dense(m: GradedMap) -> np.ndarray:
    """The map as one matrix between the flat bases (absent blocks 0)."""
    src, tgt = m.source.offsets(), m.target.offsets()
    out = zeros_matrix(m.target.total_dim, m.source.total_dim, m.mode)
    for d, block in m.blocks:
        r, c = tgt[d + m.degree], src[d]
        out[r:r + block.shape[0], c:c + block.shape[1]] = block
    return out


def entries(t: np.ndarray) -> list[tuple]:
    """(index..., value) of every nonzero entry, in index order."""
    idx = np.nonzero(t)
    return list(zip(*(x.tolist() for x in idx), t[idx].tolist()))


def make_algebra(space: GradedVectorSpace, differential: GradedMap,
                 mul: np.ndarray, unit: np.ndarray, mode: str) -> DgAlgebra:
    """The algebra of an (n, n, n) structure-constant tensor, a unit vector
    and a differential: the nonzero entries of the stacked [mul; unit;
    d^T] table, row i n + j the coefficients of e_i e_j, row n^2 the
    unit's and row n^2 + 1 + k those of d(e_k)."""
    n = space.total_dim
    table = np.concatenate([np.reshape(mul, (n * n, n)),
                            np.reshape(unit, (1, n)), dense(differential).T])
    return DgAlgebra(space, coo(table, object if mode == EXACT else complex),
                     mode)


def float_cast(bundle: DgModuleBundle) -> DgModuleBundle:
    """An exact bundle with its algebra's entries, Q and rho cast to
    doubles as they are (entries that cast to 0 dropped), instead of read
    again off the cast operators."""
    a = bundle.algebra
    (row, col), vals = a.entries
    vals = vals.astype(complex)
    keep = np.flatnonzero(vals)
    return DgModuleBundle(
        DgAlgebra(a.space, ((row[keep], col[keep]), vals[keep]), FLOAT),
        bundle.space, bundle.q.to_float(),
        tuple(r.to_float() for r in bundle.rho), FLOAT)


def endomorphism_tensor(space: GradedVectorSpace, mode: str) -> tuple:
    """The (n, n, n) product tensor and the unit of End(space) on the
    matrix units of ``dgcore.matrix_units``, filled in closed form one
    pair at a time: E[u<-t] E[t<-s] = E[u<-s], and the unit is the sum of
    the E[s<-s]."""
    units, _, _ = matrix_units(space, mode)
    n, one = len(units), one_scalar(mode)
    pos = {key: k for k, key in enumerate(units)}
    mul = zeros_matrix(n * n, n, mode).reshape(n, n, n)
    for a, (sd_a, i_a, td_a, j_a) in enumerate(units):
        for b, (sd_b, i_b, td_b, j_b) in enumerate(units):
            if (td_b, j_b) == (sd_a, i_a):      # units[a] after units[b]
                mul[a, b, pos[(sd_b, i_b, td_a, j_a)]] = one
    unit = zeros_matrix(n, 1, mode)[:, 0]
    for d, dim in space.dims:
        for i in range(dim):
            unit[pos[(d, i, d, i)]] = one
    return mul, unit


def t1_gaussian_dict() -> dict:
    """The T1 file with the operator E[e2<-e2] scaled by i and its
    coefficient in the element that holds it by -i."""
    data = instance_to_dict(t1_instance())
    next(op for op in data["algebra"] if op[0] == "E[e2<-e2]")[2][0][2] = {
        "re": "0", "im": "1"}
    next(c for c in data["elements"][0][2] if c[0] == "E[e2<-e2]")[1] = {
        "re": "0", "im": "-1"}
    return data


def stepwise_rotations(algebra, flats: tuple[int, ...]) -> list:
    """The len(flats) rotations of a word, each with the product of the
    ``cyclic_shift_term`` signs of the steps that reach it, taken one step
    at a time."""
    out, sign = [], 1
    for _ in flats:
        out.append((flats, sign))
        flats, step = cyclic_shift_term(algebra, flats)
        sign *= step
    return out


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


def rho_vector(bundle: DgModuleBundle, coeffs: np.ndarray) -> GradedMap:
    """rho of a (flat) coefficient vector, term by term; a zero vector
    gives the zero map of degree 0."""
    deg = None
    acc = None
    for k in np.flatnonzero(coeffs):
        d = bundle.algebra.basis_degree(k)
        if deg is None:
            deg = d
        elif deg != d:
            raise ShapeError("rho of a non-homogeneous element", degree=d)
        term = bundle.rho[k].scale(coeffs[k])
        acc = term if acc is None else acc + term
    if acc is None:
        return GradedMap.zero(bundle.space, bundle.space, 0, bundle.mode)
    return acc


def zero_vec(a: DgAlgebra) -> np.ndarray:
    """The zero coefficient vector over the flat basis of ``a``."""
    return zeros_matrix(1, a.n_basis, a.mode)[0]


def unit_vector(a: DgAlgebra) -> np.ndarray:
    """The unit's coordinates over the flat basis of ``a`` (read-only):
    row n^2 of its table."""
    n = a.n_basis
    return a._dense_rows(n * n, n * n + 1)[0]


def expand(endo: EndoAlgebra, m: GradedMap) -> np.ndarray:
    """The dense flat coefficients of a homogeneous endomorphism over the
    basis of End, read one matrix unit at a time (absent blocks 0): the
    reference for ``EndoAlgebra.coordinates``."""
    out = zero_vec(endo.algebra)
    for k, (sd, i, td, j) in enumerate(endo.entries):
        if td - sd == m.degree and m.block(sd).size:
            out[k] = m.block(sd)[j, i]
    return out


def basis_slot(bundle: DgModuleBundle, k: int) -> Slot:
    """The basis element e_k as a dense ``Slot``."""
    a = bundle.algebra
    v = zero_vec(a)
    v[k] = one_scalar(a.mode)
    return Slot(a.basis_degree(k), v)


def projected_supertrace(op: GradedMap, splitting: Splitting):
    """Supertrace of the operator squeezed between the cohomology projectors."""
    if op.degree != 0:
        return zero_scalar(op.mode)
    squeezed = compose(splitting.pi0, compose(op, splitting.pi0))
    return squeezed.supertrace()


def fraction_closure(space, q, generators, bound):
    """Unital span closure under composition and {Q, .} in Fraction
    arithmetic: every candidate a formed ``GradedMap``, and independence
    decided per degree by Fraction rows kept reduced (1 at their pivot, 0
    at the pivots kept before them)."""
    basis, spans = [], {}

    def try_add(m):
        v = np.concatenate([m.block(d).reshape(-1) for d in space.degrees()])
        rows = spans.setdefault(m.degree, [])
        for p, row in rows:
            if v[p]:
                v = v - v[p] * row
        nonzero = np.flatnonzero(v)
        if not nonzero.size:
            return False
        p = int(nonzero[0])
        rows.append((p, v * (1 / v[p])))
        basis.append(m)
        if len(basis) > bound:
            raise ClosureError(
                f"algebra closure exceeded the dimension bound {bound}")
        return True

    try_add(GradedMap.identity(space, EXACT))
    queue = list(generators)
    while queue:
        m = queue.pop()
        if try_add(m):
            queue.append(supercommutator(q, m))
            for b in list(basis):
                queue.append(compose(b, m))
                queue.append(compose(m, b))
    return basis


def value(f: AInfinityMorphism, inputs) -> GradedMap:
    """f on basis indices and Slots, extended multilinearly."""
    return f._combination(_elements(f.bundle, inputs))


def termwise_defect(f: AInfinityMorphism, word: tuple[int, ...]) -> GradedMap:
    """The bar relation of f on a basis word, one map per term: each bar
    term scaled and added, each cut composed, scaled and subtracted."""
    a = f.bundle.algebra
    degrees = [a.basis_degree(b) for b in word]
    total = GradedMap.zero(f.m0, f.m0, sum(degrees) + 2 - len(word), a.mode)
    for w, c in a.bar_terms(word):
        if (got := f.on_basis(w)).blocks:
            total = total + got.scale(c)
    for i, (_, cut) in enumerate(bar_signs(degrees)[:-1]):
        if not (left := f.on_basis(word[:i + 1])).blocks:
            continue
        if (right := f.on_basis(word[i + 1:])).blocks:
            total = total - compose(left, right).scale(cut)
    return total


def expand_all_rows(view, tol) -> tuple:
    """The ``DgAlgebra.entries`` that ``algebra_from_operators`` reads off a
    ``ModuleView``, expanded at the pivots on every row of the (n^2 + 1 +
    n, n) table: float solves all the rows of a degree and scans the dense
    result for its nonzero entries, exact multiplies each nonzero row by
    the inverse of the pivot block and scales by ``x * Fraction(1, D)``."""
    deg, mode = view.degrees, view.mode
    n = len(deg)
    pivot, factors = np.zeros(n, dtype=int), []
    for g in sorted(set(deg)):
        at = slice(deg.index(g), deg.index(g) + deg.count(g))
        lo, hi = np.searchsorted(view.op, (at.start, at.stop))
        pivot[at], factor = sparse_pivots(
            view.pos[lo:hi], view.op[lo:hi] - at.start, view.val[lo:hi],
            at.stop - at.start, mode, tol)
        factors.append((at, factor))
    got = np.zeros((n * n + 1 + n, n), dtype=view.sums.dtype)
    rows, pos = np.unravel_index(view.keys, (len(got), view.size ** 2))
    a, b = join(pos, pivot)
    got[rows[a], b] = view.sums[a]
    if mode == FLOAT:
        vals = np.zeros((len(got), n), dtype=complex)
        for at, factor in factors:
            vals[:, at] = np.linalg.solve(factor, got[:, at].T).T
        return coo(vals, complex)
    hits = [(np.zeros(0, dtype=int),) * 2 + (np.zeros(0, dtype=object),)]
    for at, factor in factors:
        rows = np.flatnonzero(got[:, at].astype(bool).any(axis=1))
        inv_t, d, _ = clear_denominators(factor)
        part = got[rows, at].astype(object) @ inv_t
        nz = np.nonzero(part.astype(bool))
        hits.append((rows[nz[0]], at.start + nz[1],
                     part[nz] * Fraction(1, d * view.d * view.d)))
    row, col, val = (np.concatenate(x) for x in zip(*hits))
    order = np.lexsort((col, row))
    return (row[order], col[order]), val[order]


def exact_product(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """a @ b on object-dtype blocks in Fraction (or GaussianRational)
    arithmetic, summed over nonzero entry pairs only and frozen; None when
    every entry is zero: the exact product before maps kept their rows."""
    out = None
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b.tolist()]
    for i, row in enumerate(a.tolist()):
        acc: dict[int, object] = {}
        for k, x in enumerate(row):
            if x:
                for j, y in b_rows[k]:
                    acc[j] = acc[j] + x * y if j in acc else x * y
        for j, v in acc.items():
            if v:
                if out is None:
                    out = zeros_matrix(a.shape[0], b.shape[1], EXACT)
                out[i, j] = v
    if out is not None:
        out.setflags(write=False)
    return out


def dense_triplets(space: GradedVectorSpace, m: GradedMap) -> list:
    """The instance file's [source label, target label, value] entries of
    m, read off every entry of every degree's dense block (absent blocks
    as zeros), column by column: the writer before it walked the stored
    blocks."""
    out = []
    for d in space.degrees():
        blk = m.block(d)
        for j in range(blk.shape[1]):
            for i in range(blk.shape[0]):
                if blk[i, j]:
                    out.append([space.label(d, j),
                                space.label(d + m.degree, i),
                                encode_value(blk[i, j])])
    return out


def _list_content(row: list) -> int:
    try:
        return math.gcd(*row)
    except TypeError:                   # the row holds Gaussian integers
        return math.gcd(*(p for x in row for p in (
            (x,) if type(x) is int else (x.re.numerator, x.im.numerator))))


def _list_divided(row: list, g: int) -> list:
    return [x // g if type(x) is int else x * Fraction(1, g) for x in row]


def _list_primitive(row: list) -> list:
    g = _list_content(row)
    return row if g <= 1 else _list_divided(row, g)


def _list_integer_row(values: list) -> list:
    d = math.lcm(*[math.lcm(x.re.denominator, x.im.denominator)
                   if type(x) is GaussianRational else x.denominator
                   for x in values])
    return _list_primitive([x * d if type(x) is GaussianRational
                            else x.numerator * (d // x.denominator)
                            for x in values])


def _list_eliminate(row: list, pivot_row: list, c: int, support: list[int]
                    ) -> list:
    a, b = _list_divided([pivot_row[c], row[c]],
                         _list_content([pivot_row[c], row[c]]))
    out = [a * x for x in row]
    for j in support:
        out[j] = out[j] - b * pivot_row[j]
    return _list_primitive(out)


def first_row_rref(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """A dense fraction-free reduced row echelon form, the reference for
    ``glinalg.rref``: each row a dense list of integers, the pivot at each
    column the first candidate row, that column cleared from every other
    row, and R formed at the end as entry / pivot."""
    rows, cols = matrix.shape
    m = [_list_integer_row(row) for row in matrix.tolist()]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        support = [j for j, x in enumerate(m[r]) if x]
        for i in range(rows):
            if i != r and m[i][c]:
                m[i] = _list_eliminate(m[i], m[r], c, support)
        pivots.append(c)
        r += 1
    out = zeros_matrix(rows, cols, EXACT)
    for i, c in enumerate(pivots):
        p = m[i][c]
        for j, x in enumerate(m[i]):
            if x:
                out[i, j] = (Fraction(x, p) if type(x) is type(p) is int
                             else x / p)
    return out, pivots


def densified(rows: list[dict], cols: int) -> np.ndarray:
    """The dense exact matrix of sparse rows (dicts column -> value)."""
    out = zeros_matrix(len(rows), cols, EXACT)
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[i, j] = x
    return out
