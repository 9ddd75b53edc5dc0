"""Dg validation, cohomology, and both splitting constructions."""

import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homotrace.dgcore import (
    build_splitting_hodge,
    build_splitting_projector,
    check_splitting,
    cohomology,
    endomorphism_bundle,
    euler_characteristic,
    make_algebra,
    validate_bundle,
)
from homotrace.errors import ShapeError
from homotrace.glinalg import (
    GradedMap,
    GradedVectorSpace,
    compose,
    identity_matrix,
    matrix_from_rows,
    supercommutator,
)
from homotrace.instances import matrix_instance, random_instance, \
    to_float_instance
from homotrace.scalars import DEFAULT_TOL, EXACT, FLOAT
from homotrace.transfer import _to_float


def t1_space_q():
    v = GradedVectorSpace.make({0: 2, 1: 1}, {0: ["e1", "e2"], 1: ["f"]})
    q = GradedMap.build(v, v, 1, {0: matrix_from_rows([[1, 0]], EXACT)}, EXACT)
    return v, q


def test_validate_t1_endomorphism_bundle(t1):
    rep = validate_bundle(t1.bundle)
    assert rep.ok, [c.name for c in rep.failures()]


def test_validate_catches_broken_q():
    v = GradedVectorSpace.make({0: 1, 1: 1, 2: 1}, {0: ["e1"], 1: ["f"], 2: ["g"]})
    q = GradedMap.build(v, v, 1, {
        0: matrix_from_rows([[1]], EXACT),
        1: matrix_from_rows([[1]], EXACT),
    }, EXACT)
    bundle = endomorphism_bundle(v, q, EXACT)
    rep = validate_bundle(bundle)
    failed = {c.name: c for c in rep.failures()}
    assert "Q-squared" in failed
    assert failed["Q-squared"].witness == "e1"


def test_validate_catches_broken_unit(t1):
    import dataclasses
    a = t1.bundle.algebra
    bad_unit = np.array(a.unit, copy=True)
    diag = a.flat_by_name("E[e1<-e1]")
    assert bad_unit[diag] == 1
    bad_unit[diag] = Fraction(0)
    bad_alg = dataclasses.replace(a, unit=bad_unit)
    bad = dataclasses.replace(t1.bundle, algebra=bad_alg)
    rep = validate_bundle(bad)
    assert not rep.ok
    assert any(c.name == "unit" for c in rep.failures())


def _with_constant(bundle, index, delta):
    """The bundle with one structure constant changed by delta."""
    a = bundle.algebra
    mul = np.array(a.mul)
    mul[index] += delta
    algebra = make_algebra(a.space, a.differential, mul, a.unit, a.mode)
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
    d = np.stack([alg.diff_flat(i) for i in range(n)])   # row i: d(e_i)
    sign = np.array([(-1) ** (alg.basis_degree(i) % 2) for i in range(n)])
    leibniz = _first_failure(
        np.einsum("ijm,ml->ijl", m, d),
        np.einsum("im,mjl->ijl", d, m)
        + sign[:, None, None] * np.einsum("jm,iml->ijl", d, m), tol, 2)
    assoc = _first_failure(np.einsum("ijm,mkl->ijkl", m, m),
                           np.einsum("jkm,iml->ijkl", m, m), tol, 3)
    u = np.array(alg.unit)
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
    m32 = matrix_instance({0: 3, 1: 2}, q_entries=[("d0_0", "d1_0", 1)])
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
    inst = random_instance(seed, dict(dims))
    return (inst if mode == EXACT else to_float_instance(inst)).bundle


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


def test_cohomology_t1():
    v, q = t1_space_q()
    coh = cohomology(v, q)
    assert coh.dims() == {0: 1}
    assert coh.euler == 1
    # representative is the class of e2
    rep = coh.include.block(0)
    assert list(rep.ravel()) == [0, 1]


def test_cohomology_zero_differential():
    v = GradedVectorSpace.make({0: 2, 1: 3})
    q = GradedMap.zero(v, v, 1, EXACT)
    coh = cohomology(v, q)
    assert coh.dims() == {0: 2, 1: 3}
    assert coh.euler == -1


def test_cohomology_rejects_non_square_zero():
    v = GradedVectorSpace.make({0: 1, 1: 1, 2: 1})
    q = GradedMap.build(v, v, 1, {
        0: matrix_from_rows([[1]], EXACT),
        1: matrix_from_rows([[1]], EXACT),
    }, EXACT)
    with pytest.raises(ShapeError):
        cohomology(v, q)


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
    qf = _to_float(q)
    s = build_splitting_hodge(v, qf)
    assert check_splitting(v, qf, s, tol=1e-10).ok
    # Laplacian acts as the identity on span(e1, f), kernel is e2
    assert abs(s.lambda1 - 1.0) < 1e-12
    d0 = s.delta.block(0)
    assert np.allclose(d0, np.diag([1.0, 0.0]))


def test_hodge_green_homotopy_reduces_to_projector_mode():
    v, q = t1_space_q()
    qf = _to_float(q)
    s = build_splitting_hodge(v, qf)
    h = s.homotopy
    assert supercommutator(qf, h).equals(s.pi1, 1e-12)
    assert compose(h, h).is_zero(1e-12)
    assert compose(h, s.pi0).is_zero(1e-12)
    assert compose(s.pi0, h).is_zero(1e-12)


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
