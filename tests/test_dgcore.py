"""Dg validation, cohomology, and both splitting constructions."""

import dataclasses
import functools
import math
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homotrace import dgcore, instances
from homotrace.dgcore import (
    _action_residuals,
    _algebra_failures,
    _expand_pivots,
    algebra_from_operators,
    build_splitting_hodge,
    build_splitting_projector,
    check_splitting,
    cohomology,
    endomorphism_algebra,
    euler_characteristic,
    matrix_units,
    module_view,
    validate_bundle,
)
from homotrace.errors import ClosureError, ShapeError
from homotrace.glinalg import (
    AMBIGUITY_BAND,
    GradedMap,
    GradedVectorSpace,
    clear_denominators,
    compose,
    identity_matrix,
    magnitudes,
    max_abs,
    rref,
    supercommutator,
    zeros_matrix,
)
from homotrace.instances import matrix_instance, random_instance
from homotrace.scalars import (DEFAULT_TOL, EXACT, FLOAT, GaussianRational,
                               one_scalar, session_tol)
from oracles import (dense, dense_projector_splitting, densified,
                     endomorphism_tensor, entries, expand_all_rows,
                     float_cast, fresh, inner_product, instance,
                     make_algebra, matrix_from_rows, names, rho_vector,
                     rows_of, unit_vector)


def t1_space_q():
    v = GradedVectorSpace.make({0: 2, 1: 1}, {0: ["e1", "e2"], 1: ["f"]})
    q = GradedMap.build(v, v, 1, {0: matrix_from_rows([[1, 0]], EXACT)}, EXACT)
    return v, q


def test_validate_t1_endomorphism_bundle(t1):
    rep = validate_bundle(t1.bundle)
    assert rep.ok, [c.name for c in rep.failures()]


def test_values_holding_arrays_compare_and_hash_by_identity(t1):
    """Maps, algebras, bundles, splittings and End(V) hold numpy arrays, so
    a field-wise ``==`` would raise ValueError and ``hash`` TypeError;
    ``GradedMap.equals`` compares values."""
    b, s = t1.bundle, t1.splitting
    values = [*b.rho, b.algebra, b, s, endomorphism_algebra(s.m0, EXACT)]
    assert len(set(values)) == len(values) and b.rho[0] != b.rho[1]
    copy = dataclasses.replace(b.rho[1])
    assert copy != b.rho[1] and copy.equals(b.rho[1])


def test_algebra_size_is_the_sum_of_its_dims(t1, torus1):
    """``n_basis`` is the sum of the dims of the algebra's space, one per
    flat index, and 0 for End of the empty space."""
    for a in (t1.bundle.algebra, torus1.bundle.algebra,
              instance("r7").bundle.algebra):
        assert a.n_basis == sum(n for _, n in a.space.dims)
        assert a.n_basis == len(a.graded_index) > 0
    empty = endomorphism_algebra(GradedVectorSpace.make({}), EXACT).algebra
    assert empty.n_basis == empty.space.total_dim == 0


def test_validate_catches_broken_q():
    v = GradedVectorSpace.make({0: 1, 1: 1, 2: 1}, {0: ["e1"], 1: ["f"], 2: ["g"]})
    q = GradedMap.build(v, v, 1, {
        0: matrix_from_rows([[1]], EXACT),
        1: matrix_from_rows([[1]], EXACT),
    }, EXACT)
    _, maps, names = matrix_units(v, EXACT)
    bundle = algebra_from_operators(v, q, maps, names, EXACT)
    rep = validate_bundle(bundle)
    failed = {c.name: c for c in rep.failures()}
    assert "Q-squared" in failed
    assert failed["Q-squared"].witness == "e1"
    with pytest.raises(ShapeError, match=r"^Q\^2 != 0$"):
        cohomology(v, q)


def test_validate_catches_broken_unit(t1):
    import dataclasses
    a = t1.bundle.algebra
    bad_unit = np.array(unit_vector(a), copy=True)
    diag = a.flat_by_name("E[e1<-e1]")
    assert bad_unit[diag] == 1
    bad_unit[diag] = Fraction(0)
    bad_alg = make_algebra(a.space, a.differential, a.mul, bad_unit, a.mode)
    bad = dataclasses.replace(t1.bundle, algebra=bad_alg)
    rep = validate_bundle(bad)
    assert not rep.ok
    assert any(c.name == "unit" for c in rep.failures())


def _with_constant(bundle, index, delta):
    """The bundle with one structure constant changed by delta."""
    a = bundle.algebra
    mul = np.array(a.mul)
    mul[index] += delta
    algebra = make_algebra(a.space, a.differential, mul, unit_vector(a),
                           a.mode)
    return dataclasses.replace(bundle, algebra=algebra)


def test_off_degree_constant_fails_action_multiplicative():
    """A constant putting e_i e_j outside degree |i| + |j| is a failed
    check with the pair as witness, not an error."""
    bundle = random_instance(2, {0: 1, 1: 1}).bundle
    a = bundle.algebra
    assert a.basis_degree(0) + a.basis_degree(0) != a.basis_degree(2)
    bad = _with_constant(bundle, (0, 0, 2), Fraction(1))
    failed = {c.name: c for c in validate_bundle(bad).failures()}
    name = a.basis_name(0)
    assert failed["action-multiplicative"].witness == f"({name}, {name})"


def _first_failure(lhs, rhs, tol, key_len):
    """Dense reference of a check's witness: the first index prefix of
    length key_len at which lhs and rhs differ, exactly or beyond tol
    relative to their largest entry."""
    if tol is None:
        bad = lhs != rhs
    else:
        scale = max(1.0, np.abs(lhs.astype(complex)).max(initial=0.0),
                    np.abs(rhs.astype(complex)).max(initial=0.0))
        bad = np.abs((lhs - rhs).astype(complex)) > tol * scale
    rows = np.argwhere(bad.reshape(bad.shape[:key_len] + (-1,)).any(axis=-1))
    return tuple(int(x) for x in rows[0]) if len(rows) else None


def _dense_witnesses(alg, tol):
    """First failing pair, triple and element of the Leibniz rule,
    associativity and the unit law, from dense einsum contractions."""
    n = alg.n_basis
    m = np.array(alg.mul)
    d = dense(alg.differential).T                # row i: d(e_i)
    sign = np.array([(-1) ** (alg.basis_degree(i) % 2) for i in range(n)])
    leibniz = _first_failure(
        np.einsum("ijm,ml->ijl", m, d),
        np.einsum("im,mjl->ijl", d, m)
        + sign[:, None, None] * np.einsum("jm,iml->ijl", d, m), tol, 2)
    assoc = _first_failure(np.einsum("ijm,mkl->ijkl", m, m),
                           np.einsum("jkm,iml->ijkl", m, m), tol, 3)
    u = np.array(unit_vector(alg))
    eye = identity_matrix(n, alg.mode)
    unit = _first_failure(
        np.stack([np.einsum("m,mil->il", u, m), np.einsum("m,iml->il", u, m)],
                 axis=1),
        np.stack([eye, eye], axis=1), tol, 1)
    return leibniz, assoc, unit


def _witness(alg, key):
    if key is None:
        return None
    return "(" + ", ".join(alg.basis_name(k) for k in key) + ")"


def test_associativity_checked_on_every_triple():
    """All 18 triples this constant breaks lie outside a seeded sample of
    4000 of m32's 15 625 triples; checking every triple catches it at the
    first of them."""
    m32 = instance("m32")
    a = m32.bundle.algebra
    # E[d0_2<-d1_0] E[d1_0<-d0_1] gains a spurious E[d0_1<-d0_0] term
    index = tuple(a.flat_by_name(x) for x in (
        "E[d0_2<-d1_0]", "E[d1_0<-d0_1]", "E[d0_1<-d0_0]"))
    bad = _with_constant(m32.bundle, index, Fraction(1))
    m = np.array(bad.algebra.mul, dtype=complex)
    first = _first_failure(np.einsum("ijm,mkl->ijkl", m, m),
                           np.einsum("jkm,iml->ijkl", m, m), DEFAULT_TOL, 3)
    assert first is not None
    failed = {c.name: c for c in validate_bundle(bad).failures()}
    assert failed["associativity"].witness == _witness(a, first)


@functools.lru_cache(maxsize=None)
def _random_bundle(seed, dims, mode):
    """A seeded random bundle; in float its exact constants and operators
    cast as they are (``oracles.float_cast``), so the property tests draw
    from every seed, including float copies that ``to_float_instance``
    refuses (seed 18, dims (1, 3): its cast operators are rank-ambiguous
    in doubles)."""
    bundle = random_instance(seed, dict(dims)).bundle
    return bundle if mode == EXACT else float_cast(bundle)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 40),
       dims=st.sampled_from([((0, 1), (1, 1)), ((0, 2), (1, 1)),
                             ((0, 1), (1, 2)), ((0, 2), (1, 2)),
                             ((0, 1), (1, 1), (2, 1))]),
       mode=st.sampled_from([EXACT, FLOAT]),
       perturb=st.none() | st.tuples(st.integers(0, 728),
                                     st.sampled_from([1, -2, Fraction(1, 3)])))
def test_algebra_axioms_match_dense_reference(seed, dims, mode, perturb):
    """Leibniz, associativity and unit verdicts and witnesses equal those
    of a dense einsum reference, with and without one changed constant."""
    bundle = _random_bundle(seed, dims, mode)
    alg = bundle.algebra
    n = alg.n_basis
    assume(n <= 9)
    if perturb is not None:
        # a position inside degree |i| + |j|, so e_i e_j stays homogeneous
        deg = [alg.basis_degree(k) for k in range(n)]
        slots = [(i, j, k) for i in range(n) for j in range(n)
                 for k in range(n) if deg[k] == deg[i] + deg[j]]
        assume(slots)
        pick, delta = perturb
        bundle = _with_constant(bundle, slots[pick % len(slots)],
                                delta if mode == EXACT else complex(delta))
        alg = bundle.algebra
    tol = None if mode == EXACT else DEFAULT_TOL
    leibniz, assoc, unit = _dense_witnesses(alg, tol)
    checks = {c.name: c for c in validate_bundle(bundle).checks}
    assert checks["leibniz"].witness == _witness(alg, leibniz)
    assert checks["associativity"].witness == _witness(alg, assoc)
    assert checks["leibniz"].passed == (leibniz is None)
    assert checks["associativity"].passed == (assoc is None)
    if unit is not None:
        assert checks["unit"].witness == alg.basis_name(unit[0])
    else:
        assert checks["unit"].passed


def _multiplicative_reference(bundle, tol):
    """The first pair (i, j) with rho(e_i e_j) != rho(e_i) rho(e_j), pair by
    pair through ``rho_vector`` and ``compose``; a product with terms in
    several degrees fails."""
    a = bundle.algebra
    mul = a.mul
    for i in range(a.n_basis):
        for j in range(a.n_basis):
            try:
                lhs = rho_vector(bundle, mul[i, j])
            except ShapeError:
                return i, j
            if not lhs.equals(compose(bundle.rho[i], bundle.rho[j]), tol):
                return i, j
    return None


def _rebased(bundle, c):
    """The same action on the basis c_k e_k: rho_k c_k and constants
    mul[i, j, m] c_i c_j / c_m (the differential is left as it is)."""
    a = bundle.algebra
    c = np.array(c, dtype=object)
    mul = np.array(a.mul) * c[:, None, None] * c[None, :, None] / c
    algebra = make_algebra(a.space, a.differential, mul,
                           np.array(unit_vector(a)) / c, a.mode)
    rho = tuple(m.scale(x) for m, x in zip(bundle.rho, c))
    return dataclasses.replace(bundle, algebra=algebra, rho=rho)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 40),
       dims=st.sampled_from([((0, 1), (1, 1)), ((0, 2), (1, 1)),
                             ((0, 1), (1, 2)), ((0, 1), (1, 1), (2, 1))]),
       kind=st.sampled_from(["fraction", "gaussian", "float", "beyond-int64"]),
       perturb=st.none() | st.tuples(st.integers(0, 10 ** 6),
                                     st.sampled_from([1, -2, Fraction(1, 3)])))
def test_action_multiplicative_matches_per_pair_reference(seed, dims, kind,
                                                          perturb):
    """The one contraction gives the per-pair verdict and witness, with
    Fraction, GaussianRational and float entries, and with cleared
    constants too large for int64; the changed constant may put e_i e_j
    in several degrees.  The chain-map and rho(unit) rows of the same
    residuals agree with ``rho_vector`` and ``supercommutator`` per basis
    element (rebasing leaves the differential as it is, so the chain map
    can fail)."""
    bundle = _random_bundle(seed, dims, FLOAT if kind == "float" else EXACT)
    n = bundle.algebra.n_basis
    assume(n <= 9)
    if kind == "gaussian":
        bundle = _rebased(bundle, [GaussianRational(1, k % 3 + 1)
                                   for k in range(n)])
    elif kind == "beyond-int64":
        bundle = _rebased(bundle, [Fraction(2 ** 64 + k, 2 * k + 1)
                                   for k in range(n)])
        assert max(abs(x) for m in bundle.rho for _, b in m.blocks
                   for x in b.flat) >= 2 ** 63
    if perturb is not None:
        pick, delta = perturb
        bundle = _with_constant(bundle, np.unravel_index(pick % n ** 3,
                                                         (n, n, n)),
                                complex(delta) if kind == "float" else delta)
    tol = DEFAULT_TOL if kind == "float" else None
    want = _multiplicative_reference(bundle, tol)
    checks = {c.name: c for c in validate_bundle(bundle).checks}
    check = checks["action-multiplicative"]
    assert check.passed == (want is None)
    assert check.witness == _witness(bundle.algebra, want)
    a = bundle.algebra
    chain = next((a.basis_name(k) for k in range(a.n_basis)
                  if not rho_vector(bundle, dense(a.differential)[:, k]).equals(
                      supercommutator(bundle.q, bundle.rho[k]), tol)),
                 None)
    assert checks["action-chain-map"].witness == chain
    if checks["unit"].witness in (None, "rho(unit) != id"):
        assert checks["unit"].passed == rho_vector(
            bundle, unit_vector(a)).equals(
            GradedMap.identity(bundle.space, bundle.mode), tol)


def _lstsq_reference(space, q, rho, names, tol):
    """Float expansion through formed products and a pseudo-inverse per
    degree, as loading did before pivot entries: every product (row-major),
    the identity and every {Q, op} over the operators of its degree, each
    accepted at residual AMBIGUITY_BAND * tol.  ``rho`` is sorted by
    degree.  Returns the rows (products, unit, d(e_k)) over the flat basis,
    or the label of the first operator outside the span."""
    n = len(rho)
    ops = [(f"product {names[i]}*{names[j]}", compose(rho[i], rho[j]))
           for i in range(n) for j in range(n)]
    ops.append(("the identity operator", GradedMap.identity(space, FLOAT)))
    ops += [(f"differential of {names[k]}", supercommutator(q, rho[k]))
            for k in range(n)]
    out = np.zeros((len(ops), n), dtype=complex)
    for row, (label, m) in enumerate(ops):
        at = [k for k in range(n) if rho[k].degree == m.degree]
        v = dense(m).reshape(-1)             # zero entries change no solve
        basis = np.array([dense(rho[k]).reshape(-1) for k in at]
                         ).reshape(len(at), v.size).T
        u, s, vh = np.linalg.svd(basis, full_matrices=False)
        x = vh.conj().T @ (u.conj().T @ v / s)
        if np.max(np.abs(basis @ x - v)) > AMBIGUITY_BAND * tol:
            return label
        out[row, at] = x
    return out


def _recombined(seed, dims, cond):
    """The operators of a float random bundle, each degree's recombined by
    a seeded complex matrix U diag(s) V^H with s spread from 1 to 1/cond
    (U, V unitary), with names."""
    bundle = _random_bundle(seed, dims, FLOAT)
    rng = np.random.default_rng(seed)
    maps, names = [], []
    for g in sorted({m.degree for m in bundle.rho}):
        ops = [m for m in bundle.rho if m.degree == g]
        shape = (len(ops),) * 2
        u, v = (np.linalg.qr(rng.normal(size=shape)
                             + 1j * rng.normal(size=shape))[0] for _ in "uv")
        mix = u * np.geomspace(1.0, 1.0 / cond, len(ops)) @ v.conj().T
        for a in range(len(ops)):
            maps.append(functools.reduce(GradedMap.__add__, [
                m.scale(mix[k, a]) for k, m in enumerate(ops)]))
            names.append(f"b{g}_{a}")
    return bundle, maps, names


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 40),
       dims=st.sampled_from([((0, 1), (1, 1)), ((0, 2), (1, 1)),
                             ((0, 1), (1, 2)), ((0, 2), (1, 2)),
                             ((0, 3), (1, 1)), ((0, 1), (1, 3)),
                             ((0, 1), (1, 1), (2, 1))]),
       cond=st.sampled_from([2.0, 1e3, 1e4, 1e5, 1e6]))
def test_pivot_expansion_matches_lstsq_reference(seed, dims, cond):
    """Constants, unit and differential read off pivot entries equal the
    pseudo-inverse expansion to AMBIGUITY_BAND * tol relative, and with
    any one operator dropped both name the same first operator outside
    the span, or none.  Degrees hold up to 4 operators, recombined with
    condition number up to 1e6 (the operator basis then reaches about
    4e7, still above the float_rank band).  Operator sets whose reference
    residual already exceeds the bound are skipped: the reference does
    not load them either."""
    bundle, maps, names = _recombined(seed, dims, cond)
    n = len(maps)
    assume(n <= 10 and max(Counter(m.degree for m in maps).values()) <= 4)
    space, q, tol = bundle.space, bundle.q, DEFAULT_TOL
    ref = _lstsq_reference(space, q, maps, names, tol)
    assume(not isinstance(ref, str))         # round-off above the bound
    alg = algebra_from_operators(space, q, maps, names, FLOAT, tol).algebra
    got = np.concatenate([alg.mul.reshape(n * n, n), [unit_vector(alg)],
                          dense(alg.differential).T])
    assert np.max(np.abs(got - ref)) <= AMBIGUITY_BAND * tol * max(
        1.0, np.max(np.abs(ref)))
    for k in range(n):
        kept, kept_names = maps[:k] + maps[k + 1:], names[:k] + names[k + 1:]
        want = _lstsq_reference(space, q, kept, kept_names, tol)
        try:
            algebra_from_operators(space, q, kept, kept_names, FLOAT, tol)
            raised = None
        except ClosureError as exc:
            raised = str(exc)
        assert raised == (None if not isinstance(want, str) else
                          f"{want} is not in the span of the declared "
                          "operators")


def _elimination_reference(space, q, rho):
    """The rows of ``_expand_pivots`` by the exact load's former route:
    every product, the identity and every {Q, op} formed, and the entries
    of each degree's rows solved against that degree's operators in one
    ``rref`` of [operators | rows]; the operators must be independent and
    every row must lie in their span (no pivot past the operators)."""
    ops = ([compose(a, b) for a in rho for b in rho]
           + [GradedMap.identity(space, EXACT)]
           + [supercommutator(q, m) for m in rho])
    out = zeros_matrix(len(ops), len(rho), EXACT)
    for g in sorted({m.degree for m in rho}):
        at = [t for t, m in enumerate(rho) if m.degree == g]
        rows = [t for t, m in enumerate(ops) if m.degree == g]
        if not rows:
            continue
        cols = [rho[t] for t in at] + [ops[t] for t in rows]
        stacked = np.stack([dense(m).reshape(-1) for m in cols], axis=1)
        r, pivots = rref(rows_of(stacked), len(cols))
        assert pivots == list(range(len(at)))
        out[np.ix_(rows, at)] = densified(r, len(cols))[:len(at), len(at):].T
    return out


def _scaled_t1():
    """T1 with one operator of each degree scaled by a Gaussian rational
    (its algebra left as T1's): operators over Q(i) in every degree."""
    bundle = instance("T1").bundle
    rho = list(bundle.rho)
    for g, c in ((-1, GaussianRational(1, 2)), (0, GaussianRational(0, -3)),
                 (1, GaussianRational(Fraction(1, 2), 1))):
        k = next(k for k, m in enumerate(rho) if m.degree == g)
        rho[k] = rho[k].scale(c)
    return dataclasses.replace(bundle, rho=tuple(rho))


@pytest.mark.parametrize("case", names(EXACT) + ["r42", "T1-scaled"])
def test_exact_pivot_expansion_matches_elimination(case):
    """Exact constants, unit and differential read off pivot entries equal
    the per-degree elimination of every formed product, identity and {Q,
    op}, over Q and over Q(i): the expansion's entries are the nonzero
    entries of the elimination's rows, in index order."""
    bundle = _scaled_t1() if case == "T1-scaled" else instance(case).bundle
    (row, col), val = _expand_pivots(module_view(
        bundle.space, bundle.q, bundle.rho, EXACT), DEFAULT_TOL)
    want = _elimination_reference(bundle.space, bundle.q, bundle.rho)
    assert [row.tolist(), col.tolist(), val.tolist()] == [
        list(x) for x in zip(*entries(want))]
    names = [f"b{k}" for k in range(len(bundle.rho))]
    loaded = algebra_from_operators(bundle.space, bundle.q, list(bundle.rho),
                                    names, EXACT)
    assert validate_bundle(loaded).ok


@pytest.mark.parametrize("name", names() + ["r11f", "torus2"])
def test_expansion_of_nonzero_rows_keeps_every_entry(name):
    """The algebra read off the rows with a nonzero sum at the pivots is
    the one read off every row (``oracles.expand_all_rows``): the same
    indices, values and dtypes, float values bit for bit and exact ones
    of the same types."""
    bundle = instance(name).bundle
    (row, col), val = bundle.algebra.entries
    (want_row, want_col), want = expand_all_rows(
        module_view(bundle.space, bundle.q, bundle.rho, bundle.mode),
        session_tol(bundle.mode, None))
    assert (row.dtype, col.dtype, val.dtype) == (
        want_row.dtype, want_col.dtype, want.dtype)
    assert row.tolist() == want_row.tolist()
    assert col.tolist() == want_col.tolist()
    if bundle.mode == FLOAT:
        assert val.tobytes() == want.tobytes()
    else:
        assert [(type(x), x) for x in val] == [(type(x), x) for x in want]


def test_float_expansion_solves_only_rows_with_a_nonzero_pivot_sum(
        monkeypatch):
    """On torus N=2, 26 of the 651 rows of the product table (the 25
    products P P = P and the identity) have a nonzero sum at the pivots,
    and the expansion passes only those to ``np.linalg.solve``; every row
    was solved before, 651 right-hand sides."""
    bundle = instance("torus2").bundle
    view = module_view(bundle.space, bundle.q, bundle.rho, FLOAT)
    sizes, solve = [], np.linalg.solve

    def counting(a, b):
        sizes.append(b.shape[-1])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    (row, col), val = _expand_pivots(view, DEFAULT_TOL)
    assert sum(sizes) == 26
    (want_row, want_col), want = bundle.algebra.entries
    assert row.tolist() == want_row.tolist() and col.tolist() == want_col.tolist()
    assert val.tobytes() == want.tobytes()


def test_exact_build_squares_q_twice(monkeypatch):
    """An exact build composes Q with itself twice: once to refuse a Q that
    does not square to zero (``build_instance``) and once for the witness
    of the ``Q-squared`` check (``validate_bundle``); the projector
    splitting does not square it again."""
    calls = []

    def counting(f, g):
        calls.append((f, g))
        return compose(f, g)

    monkeypatch.setattr(dgcore, "compose", counting)
    monkeypatch.setattr(instances, "compose", counting)
    q = fresh("r11").bundle.q
    assert sum(f is q and g is q for f, g in calls) == 2


def test_cohomology_t1():
    v, q = t1_space_q()
    coh = cohomology(v, q)
    assert dict(coh.m0.dims) == {0: 1}
    assert coh.m0.euler_characteristic() == 1
    # representative is the class of e2
    rep = coh.include.block(0)
    assert list(rep.ravel()) == [0, 1]


def test_cohomology_zero_differential():
    v = GradedVectorSpace.make({0: 2, 1: 3})
    q = GradedMap.zero(v, v, 1, EXACT)
    coh = cohomology(v, q)
    assert dict(coh.m0.dims) == {0: 2, 1: 3}
    assert coh.m0.euler_characteristic() == -1


def test_cohomology_rejects_non_square_zero():
    """The same ShapeError in both modes, from ``cohomology`` itself: the
    projector builder leaves the check to its callers."""
    v = GradedVectorSpace.make({0: 1, 1: 1, 2: 1})
    q = GradedMap.build(v, v, 1, {
        0: matrix_from_rows([[1]], EXACT),
        1: matrix_from_rows([[1]], EXACT),
    }, EXACT)
    with pytest.raises(ShapeError, match=r"^Q\^2 != 0$"):
        cohomology(v, q)
    qf = GradedMap.build(v, v, 1, {d: m.astype(complex) for d, m in q.blocks},
                         FLOAT)
    with pytest.raises(ShapeError, match=r"^Q\^2 != 0$"):
        cohomology(v, qf, DEFAULT_TOL)


def test_euler_characteristic_variants():
    v, q = t1_space_q()
    assert euler_characteristic(v) == 1
    assert euler_characteristic(v, q) == 1
    assert euler_characteristic(GradedVectorSpace.make({})) == 0
    assert euler_characteristic(GradedVectorSpace.make({1: 3})) == -3


def test_projector_splitting_t1():
    v, q = t1_space_q()
    s = build_splitting_projector(v, q)
    assert check_splitting(v, q, s).ok
    # pi0 projects onto e2, kappa(f) = e1
    assert list(s.pi0.block(0).ravel()) == [0, 0, 0, 1]
    assert list(s.kappa.block(1).ravel()) == [1, 0]
    # kappa Q restricted to degree 0 equals pi1 restricted to degree 0
    kq = compose(s.kappa, q)
    assert (kq.block(0) == s.pi1.block(0)).all()
    assert supercommutator(q, s.kappa).equals(s.pi1)


def test_projector_splitting_zero_differential():
    v = GradedVectorSpace.make({0: 2})
    q = GradedMap.zero(v, v, 1, EXACT)
    s = build_splitting_projector(v, q)
    assert s.pi0.equals(GradedMap.identity(v, EXACT))
    assert s.pi1.is_zero() and s.kappa.is_zero()


def test_projector_splitting_acyclic():
    """Invertible 1-dim Q: pi0 = 0 and {Q, kappa} = id."""
    v = GradedVectorSpace.make({0: 1, 1: 1})
    q = GradedMap.build(v, v, 1, {0: matrix_from_rows([[2]], EXACT)}, EXACT)
    s = build_splitting_projector(v, q)
    assert s.pi0.is_zero()
    assert supercommutator(q, s.kappa).equals(GradedMap.identity(v, EXACT))


def test_sheared_splittings_differ_and_validate():
    v, q = t1_space_q()
    base = build_splitting_projector(v, q)
    seen = []
    for seed in (1, 2, 3):
        s = build_splitting_projector(v, q, shear_seed=seed)
        assert check_splitting(v, q, s).ok
        seen.append(s)
    distinct = {tuple(map(str, (s.pi0.block(0).tolist(),
                                s.kappa.block(1).tolist()))) for s in seen}
    assert len(distinct) >= 2


def test_hodge_splitting_t1():
    v, q = t1_space_q()
    qf = q.to_float()
    s = build_splitting_hodge(v, qf)
    assert check_splitting(v, qf, s, tol=1e-10).ok
    # Laplacian acts as the identity on span(e1, f), kernel is e2
    assert abs(s.lambda1 - 1.0) < 1e-12
    d0 = s.delta.block(0)
    assert np.allclose(d0, np.diag([1.0, 0.0]))


def test_hodge_green_homotopy_reduces_to_projector_mode():
    v, q = t1_space_q()
    qf = q.to_float()
    s = build_splitting_hodge(v, qf)
    h = s.homotopy
    assert supercommutator(qf, h).equals(s.pi1, 1e-12)
    assert compose(h, h).is_zero(1e-12)
    assert compose(h, s.pi0).is_zero(1e-12)
    assert compose(s.pi0, h).is_zero(1e-12)


def _stored_fields_reference(s):
    """pi0, pi1, include, project, homotopy and m0 as the builders stored
    them when a splitting carried all ten fields, from its kappa and
    spectrum: the projector kind from the first nh columns of L = [h | b |
    w] and rows of R, with homotopy = kappa; the laplacian kind from the
    harmonic columns and rows, with the Green homotopy L diag(1/lam) R
    kappa formed into each target degree."""
    space, mode = s.kappa.source, s.kappa.mode
    pi0_b, inc_b, proj_b, hom_b, m0_dims = {}, {}, {}, {}, {}
    for d, (left, lam, right) in s.spectrum.items():
        if s.kind == "projector":
            nh = sum(1 for v in lam if v == 0)
            pi0_b[d] = left[:, :nh] @ right[:nh, :]
            if nh:
                inc_b[d], proj_b[d] = left[:, :nh], right[:nh, :]
        else:
            harmonic = lam == 0
            nh = int(harmonic.sum())
            pi0_b[d] = left[:, harmonic] @ right[harmonic]
            inc_b[d], proj_b[d] = left[:, harmonic], right[harmonic]
            if space.dim(d + 1):
                inv = np.divide(1.0, lam, out=np.zeros(len(lam)),
                                where=~harmonic)
                hom_b[d + 1] = ((left * inv) @ right) @ s.kappa.block(d + 1)
        m0_dims[d] = nh
    m0 = GradedVectorSpace.make(m0_dims, {
        d: [f"h{d}_{i}" for i in range(n)] for d, n in m0_dims.items()})
    pi0 = GradedMap.build(space, space, 0, pi0_b, mode)
    return {"pi0": pi0, "pi1": GradedMap.identity(space, mode) - pi0,
            "include": GradedMap.build(m0, space, 0, inc_b, mode),
            "project": GradedMap.build(space, m0, 0, proj_b, mode),
            "homotopy": (s.kappa if s.kind == "projector" else
                         GradedMap.build(space, space, -1, hom_b, mode)),
            "m0": m0}


def _same_bits(a, b) -> bool:
    """Equal spaces, degree and stored blocks; float blocks byte for byte,
    exact ones entry by entry with the same scalar types."""
    if isinstance(a, GradedVectorSpace):
        return a == b
    if (a.source, a.target, a.degree, a.mode) != (b.source, b.target,
                                                  b.degree, b.mode):
        return False
    if [d for d, _ in a.blocks] != [d for d, _ in b.blocks]:
        return False
    for (_, x), (_, y) in zip(a.blocks, b.blocks):
        if x.dtype != y.dtype or x.shape != y.shape:
            return False
        if x.dtype != object and x.tobytes() != y.tobytes():
            return False
        if x.dtype == object and not all(
                type(u) is type(v) and u == v for u, v in zip(x.flat, y.flat)):
            return False
    return True


@pytest.mark.parametrize("case, option", [
    *((c, seed) for c in names(EXACT) for seed in (None, 1, 2)),
    *((c, ip) for c in names(FLOAT) for ip in ("identity", "seeded"))])
def test_splitting_fields_read_off_spectrum_match_stored(case, option):
    """Every field the splitting reads off (kind, kappa, spectrum) is bit
    for bit what the builders stored before, for projector splittings at
    three shears and Hodge splittings under the identity and a seeded
    inner product; the projector's homotopy is kappa itself."""
    bundle = instance(case).bundle
    if bundle.mode == EXACT:
        s = build_splitting_projector(bundle.space, bundle.q, option)
    else:
        inner = None if option == "identity" else inner_product(
            bundle.space, 0)
        s = build_splitting_hodge(bundle.space, bundle.q, inner)
    assert [f.name for f in dataclasses.fields(s)] == ["kind", "kappa",
                                                       "spectrum"]
    for name, want in _stored_fields_reference(s).items():
        assert _same_bits(getattr(s, name), want), name
    if s.kind == "projector":
        assert _same_bits(s.homotopy, s.kappa)


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
@pytest.mark.parametrize("case", names(EXACT))
def test_projector_splitting_matches_the_dense_builder(case, seed):
    """The projector splitting built on sparse columns has the spectrum
    and kappa of the dense builder it replaced
    (``oracles.dense_projector_splitting``), entry for entry and type for
    type, unsheared and at three shears."""
    bundle = instance(case).bundle
    got = build_splitting_projector(bundle.space, bundle.q, seed)
    want = dense_projector_splitting(bundle.space, bundle.q, seed)
    assert _same_bits(got.kappa, want.kappa)
    assert list(got.spectrum) == list(want.spectrum)
    for d, arrays in want.spectrum.items():
        for x, y in zip(got.spectrum[d], arrays, strict=True):
            assert x.shape == y.shape
            assert [(type(u), u) for u in x.flat] == [(type(v), v)
                                                      for v in y.flat]


def _loaded_bundle(case: str):
    """The registered instance's bundle, or, for "T1-scaled", the bundle
    loaded from the operators of ``_scaled_t1`` (structure constants in
    Q(i) in every degree)."""
    if case != "T1-scaled":
        return instance(case).bundle
    b = _scaled_t1()
    return algebra_from_operators(b.space, b.q, list(b.rho), [
        f"b{k}" for k in range(len(b.rho))], EXACT)


def _table_algebra(case: str):
    if case == "End(T1)":
        t1 = instance("T1").bundle
        _, maps, labels = matrix_units(t1.space, EXACT)
        return algebra_from_operators(t1.space, t1.q, maps, labels,
                                      EXACT).algebra
    return _loaded_bundle(case).algebra


@pytest.mark.parametrize("case", names() + ["End(T1)", "T1-scaled"])
def test_algebra_tables_match_their_definitions(case):
    """The per-basis tables of a DgAlgebra equal the definitions they
    replace: the scan over the graded dims, the nonzero entries of each
    mul[i, j] and of each column i of the differential, and the scan over
    the names."""
    alg = _table_algebra(case)
    n = alg.n_basis

    def scan(k):
        off = 0
        for d, dim in alg.space.dims:
            if k < off + dim:
                return d, k - off
            off += dim
        raise IndexError(k)

    assert alg.graded_index == tuple(scan(k) for k in range(n))
    names = [alg.space.label(*scan(k)) for k in range(n)]
    for i in range(n):
        assert alg.basis_degree(i) == scan(i)[0]
        assert alg.basis_name(i) == names[i]
        assert alg.flat_by_name(names[i]) == names.index(names[i])
        assert alg.differential_terms[i] == entries(
            dense(alg.differential)[:, i])
        for j in range(n):
            assert alg.product_terms[i][j] == entries(alg.mul[i, j])
    assert alg.flat_by_name("no such name") is None


def _same_entries(a, b) -> bool:
    """Equal entry indices, values and value dtype, in the same order."""
    ((row, col), vals), ((row_b, col_b), vals_b) = a.entries, b.entries
    return ([row.tolist(), col.tolist(), vals.tolist(), vals.dtype]
            == [row_b.tolist(), col_b.tolist(), vals_b.tolist(), vals_b.dtype])


@pytest.mark.parametrize("case", names() + ["T1-scaled"])
def test_entries_round_trip_through_dense_forms(case):
    """The dense forms read off an algebra's entries (``mul``, ``unit`` and
    ``differential``) give the same entries back: the dense oracle
    assembles an algebra with equal indices and values, in the same
    order."""
    alg = _table_algebra(case)
    assert _same_entries(make_algebra(alg.space, alg.differential, alg.mul,
                                      unit_vector(alg), alg.mode), alg)


@pytest.mark.parametrize("case", names() + ["torus2", "acyclic"])
def test_endomorphism_entries_match_closed_form_tensor(case):
    """End(M0)'s entries, built without a tensor, are the nonzero entries
    of the product tensor and unit that the pairwise closed form fills
    (``oracles.endomorphism_tensor``), in order, and its differential is
    zero; over the M0 of each registered instance, the float torus N=2
    and a zero-dimensional M0 (an acyclic complex)."""
    inst = (matrix_instance({0: 1, 1: 1}, q_entries=[("d0_0", "d1_0", 1)])
            if case == "acyclic" else instance(case))
    m0, mode = inst.splitting.m0, inst.mode
    assert (m0.total_dim == 0) == (case == "acyclic")
    alg = endomorphism_algebra(m0, mode).algebra
    mul, unit = endomorphism_tensor(m0, mode)
    assert _same_entries(alg, make_algebra(
        alg.space, GradedMap.zero(alg.space, alg.space, 1, mode), mul, unit,
        mode))
    assert alg.differential.is_zero() and alg.n_basis == m0.total_dim ** 2


def _dict_algebra_failures(a, tol):
    """The dict-based axiom check that the join of ``_algebra_failures``
    replaced, kept as its oracle: each side of an identity contracted over
    the nonzero structure constants and differential entries into a dict
    keyed by basis indices and output, and the smallest key at which the
    sides differ (exactly, or beyond tol times the largest value of either
    side, at least 1).  Without tol on the cleared integers."""
    n = a.n_basis
    mul, diff = a.mul, dense(a.differential).T  # row i: d(e_i)
    unit, one = unit_vector(a), one_scalar(a.mode)
    if tol is None:
        mul, dm, _ = clear_denominators(mul)
        diff = clear_denominators(diff)[0]
        unit, du, _ = clear_denominators(unit)
        one = dm * du
    mul = entries(mul)
    left = [[] for _ in range(n)]            # left[i]: (j, m, c)
    right = [[] for _ in range(n)]           # right[j]: (i, m, c)
    for i, j, m, c in mul:
        left[i].append((j, m, c))
        right[j].append((i, m, c))
    d_of = [entries(row) for row in diff]    # d(e_i): (m, x)
    sign = [(-1) ** (a.basis_degree(i) % 2) for i in range(n)]

    def differ(x, scaled):
        return bool(x) if tol is None else not abs(complex(x)) <= scaled

    def first_mismatch(lhs, rhs):
        scaled = tol and tol * max([1.0] + [abs(complex(v)) for v in (
            *lhs.values(), *rhs.values())])
        return min((key for key in lhs.keys() | rhs.keys()
                    if differ(lhs.get(key, 0) - rhs.get(key, 0), scaled)),
                   default=None)

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
    leibniz = first_mismatch(lhs, rhs)

    lhs, rhs = defaultdict(int), defaultdict(int)
    for i, j, m, c in mul:
        for k, l, x in left[m]:
            lhs[i, j, k, l] += c * x
        for h, l, x in right[m]:
            rhs[h, i, j, l] += x * c
    assoc = first_mismatch(lhs, rhs)

    lhs = defaultdict(int)
    for m, u in entries(unit):
        for i, l, c in left[m]:
            lhs[i, 0, l] += u * c
        for i, l, c in right[m]:
            lhs[i, 1, l] += c * u
    unit = first_mismatch(lhs, {(i, s, i): one for i in range(n)
                                for s in (0, 1)})
    return leibniz and leibniz[:2], assoc and assoc[:3], unit and unit[0]


def _perturbed_algebras(a):
    """Copies of the algebra with its first nonzero structure constant, its
    first nonzero unit coordinate or an entry of its differential (where
    the algebra has two adjacent degrees) raised by 1."""
    one = one_scalar(a.mode)
    mul, unit = np.array(a.mul), np.array(unit_vector(a))
    mul[tuple(np.argwhere(mul.astype(bool))[0])] += one
    unit[np.flatnonzero(unit)[0]] += one
    copies = [make_algebra(a.space, a.differential, mul, unit_vector(a),
                           a.mode),
              make_algebra(a.space, a.differential, a.mul, unit, a.mode)]
    for g in a.space.degrees()[:-1]:
        if a.space.dim(g + 1):
            blocks = dict(a.differential.blocks)
            blocks[g] = np.array(a.differential.block(g))
            blocks[g][-1, 0] += one
            copies.append(make_algebra(a.space, GradedMap.build(
                a.space, a.space, 1, blocks, a.mode), a.mul, unit_vector(a),
                a.mode))
            break
    return copies


@pytest.mark.parametrize("case", names() + ["T1-scaled", "r42"])
def test_algebra_axiom_join_matches_dict_oracle(case):
    """The join returns the dict oracle's (leibniz, associativity, unit)
    witnesses on each instance and on copies with one structure constant,
    the unit or one differential entry (not on torus1, all in degree 0)
    raised by 1, every copy failing some law.  r42's cleared constants
    exceed int64, so its sums run on Python ints (only its
    structure-constant copy is checked: the oracle takes about 0.5 s
    there); T1-gaussian's and T1-scaled's run on GaussianRationals."""
    alg = _table_algebra(case)
    tol = None if alg.mode == EXACT else DEFAULT_TOL
    copies = _perturbed_algebras(alg)[:1 if case == "r42" else None]
    assert len(copies) == {"r42": 1, "torus1": 2}.get(case, 3)
    for a in [alg, *copies]:
        assert _algebra_failures(a, tol) == _dict_algebra_failures(a, tol)
    assert all(_algebra_failures(a, tol) != (None, None, None)
               for a in copies)
    if case == "r42":
        assert alg.sparse_view[0][3] >= 2 ** 63


def _dense_action_residuals(bundle):
    """The dense contraction that the join of ``_action_residuals``
    replaced, kept as its oracle: rho as one dense (n, size, size) stack,
    and for each left factor i the sums sum_m mul[i, j, m] rho_m against
    rho_i rho_j for every j in one contraction, on the rows where either
    side can be nonzero; then the unit row and the differential rows one
    at a time.  Exact residuals run on Python ints, each array scaled by
    the least common multiple of its denominators and each side of an
    identity by the other side's scales."""
    a, exact = bundle.algebra, bundle.mode == EXACT
    n, size = a.n_basis, bundle.space.total_dim
    stack = np.empty((n, size, size), dtype=object if exact else complex)
    for k, m in enumerate(bundle.rho):
        stack[k] = dense(m)
    (mul, dm, _), (diff, dd, _), (unit, du, _) = [
        clear_denominators(t) if exact else (t, 1, None)
        for t in (a.mul, dense(a.differential).T, unit_vector(a))]
    (rho, dr, _), (q, dq, _) = [
        clear_denominators(t) if exact else (t, 1, None)
        for t in (stack, dense(bundle.q))]
    used_by = mul.astype(bool).any(axis=1)   # used_by[i, m]: some mul[i, j, m]
    live = rho.astype(bool).any(axis=2)      # the nonzero rows of each rho_m
    out = np.empty(n * n + 1 + n, dtype=bool if exact else float)

    def row(coeffs, scale, target):
        got = sum((c * rho[m] for m, c in entries(coeffs)),
                  np.zeros((size, size), dtype=rho.dtype)) * scale - target
        return got.astype(bool).any() if exact else max_abs(got)

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            used = np.flatnonzero(used_by[i])
            rows = np.flatnonzero(live[i] | live[used].any(axis=0))
            part = rho[np.ix_(used, rows)].reshape(len(used), len(rows) * size)
            got = (mul[i][:, used] @ (part * dr)
                   - np.matmul(rho[i, rows] * dm, rho).reshape(n, -1))
            out[i * n:i * n + n] = (
                got.astype(bool).any(axis=1) if exact else
                np.max(magnitudes(got), axis=1, initial=0.0))
        out[n * n] = row(unit, 1, np.eye(size, dtype=rho.dtype) * (du * dr))
        for k in range(n):
            sign = (-1) ** (a.basis_degree(k) % 2)
            out[n * n + 1 + k] = row(diff[k], dq,
                                     (q @ rho[k] - sign * rho[k] @ q) * dd)
    return out


def _raised_rho(bundle):
    """The bundle with the first nonzero stored entry of its first nonzero
    operator raised by 1."""
    k = next(k for k, m in enumerate(bundle.rho) if m.blocks)
    m = bundle.rho[k]
    d, block = m.blocks[0]
    block = np.array(block)
    block[tuple(np.argwhere(block.astype(bool))[0])] += one_scalar(m.mode)
    raised = GradedMap.build(m.source, m.target, m.degree,
                             {**dict(m.blocks), d: block}, m.mode)
    return dataclasses.replace(
        bundle, rho=bundle.rho[:k] + (raised,) + bundle.rho[k + 1:])


@pytest.mark.parametrize("case", names() + ["T1-scaled", "r42", "torus2"])
def test_action_residual_join_matches_dense_oracle(case):
    """The join gives the dense contraction's residuals on each instance and
    on copies with one structure constant, unit coordinate, differential
    entry (where two degrees are adjacent) or rho entry raised by 1, each
    copy failing some row: exact rows equal, float rows equal to round-off
    (NaN where the oracle has NaN), and ``_first_failure`` picks the same
    row, exactly or at both float thresholds.  r42's cleared constants
    exceed int64, so its sums run on Python ints; T1-gaussian's and
    T1-scaled's run on GaussianRationals."""
    first_row = dgcore._first_failure
    bundle = _loaded_bundle(case)
    copies = [dataclasses.replace(bundle, algebra=alg)
              for alg in _perturbed_algebras(bundle.algebra)]
    copies.append(_raised_rho(bundle))
    exact = bundle.mode == EXACT
    for b in [bundle, *copies]:
        got, want = _action_residuals(b), _dense_action_residuals(b)
        if exact:
            assert got.dtype == bool and np.array_equal(got, want)
        else:
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12,
                               equal_nan=True)
        for tol in ((None,) if exact else (DEFAULT_TOL,
                                           AMBIGUITY_BAND * DEFAULT_TOL)):
            assert first_row(got, tol) == first_row(want, tol)
    assert all(first_row(_action_residuals(b), None if exact else DEFAULT_TOL)
               is not None for b in copies)


def test_heat_decay_bound(torus1):
    """exp(-t Delta) restricted to the acyclic part contracts at rate lambda1."""
    s = torus1.splitting
    space = torus1.bundle.space
    for t in (1.0, 10.0):
        for d in space.degrees():
            vals, vecs = np.linalg.eigh(np.asarray(s.delta.block(d)))
            et = vecs @ np.diag(np.exp(-t * np.clip(vals, 0, None))) @ vecs.conj().T
            p1 = np.asarray(s.pi1.block(d))
            norm = np.linalg.norm(et @ p1, 2)
            assert norm <= math.exp(-t * s.lambda1) + 1e-10


def test_float_cohomology_reads_tol_none_as_the_session_tolerance():
    """Q of random seed 11 in a seeded orthonormal basis per degree squares
    to rounding only.  ``cohomology`` and ``euler_characteristic`` with
    tol=None compare Q^2 to DEFAULT_TOL, as with that tolerance given,
    not exactly."""
    inst = instance("r11")
    v, q = inst.bundle.space, inst.bundle.q.to_float()
    rng = np.random.default_rng(0)
    u = {d: np.linalg.qr(rng.standard_normal((n, n)))[0] for d, n in v.dims}
    qr = GradedMap.build(v, v, 1, {d: u[d + 1] @ m @ u[d].T
                                   for d, m in q.blocks}, FLOAT)
    assert 0 < compose(qr, qr).max_abs() <= DEFAULT_TOL
    dims = dict(cohomology(v, qr, DEFAULT_TOL).m0.dims)
    assert dict(cohomology(v, qr).m0.dims) == dims
    assert dims == dict(inst.splitting.m0.dims)
    assert euler_characteristic(v, qr) == euler_characteristic(v, q)


@pytest.mark.parametrize("which", names())
def test_projections_and_homotopy_keep_their_dense_values(which):
    """pi0 (include after project) and the homotopy (L diag(1/lam) R after
    kappa) are formed by ``compose``: their blocks are those of the dense
    products l @ r and ((l * inv) @ r) @ k per degree, equal in exact
    mode and bit for bit in float mode, with the zero blocks left out."""
    s = instance(which).splitting
    pi0 = {d: l[:, lam == 0] @ r[lam == 0]
           for d, (l, lam, r) in s.spectrum.items()}
    homotopy = {}
    for d, k in s.kappa.blocks:
        l, lam, r = s.spectrum[d - 1]
        inv = np.divide(1, lam, out=np.zeros_like(lam), where=lam != 0)
        homotopy[d] = ((l * inv) @ r) @ k
    for got, want in ((s.pi0, pi0), (s.homotopy, homotopy)):
        want = {d: m for d, m in want.items() if np.count_nonzero(m)}
        assert [d for d, _ in got.blocks] == sorted(want)
        for d, m in got.blocks:
            assert (m.tobytes() == want[d].tobytes() if m.dtype != object
                    else (m == want[d]).all())
