"""The transfer engine: propagator, connection form, closed vs quadrature,
coherence relations, almost-closedness."""

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homotrace.dgcore import build_splitting_hodge, check_splitting
from homotrace.errors import ShapeError
from homotrace.glinalg import GradedMap, compose, supercommutator
from homotrace.instances import (random_instance, t1_instance, to_float_instance,
                                 torus_instance)
from homotrace.scalars import DEFAULT_TOL, EXACT, FLOAT
from homotrace.transfer import (
    ConfigurationPoint,
    PropagatorCache,
    Slot,
    ainfinity_defect,
    almost_closed_check,
    operator_form,
    propagator,
    transfer_closed,
    transfer_quadrature,
    transferred_morphism,
    _to_float,
)


def test_propagator_limits(t1):
    s = t1.splitting
    even, odd = propagator(0, s)
    assert even.equals(GradedMap.identity(t1.bundle.space, EXACT))
    assert odd.equals(s.kappa.scale(-1))
    even, odd = propagator(math.inf, s)
    assert even.equals(s.pi0)
    assert odd.is_zero()
    with pytest.raises(ShapeError):
        propagator(-1.0, s)


def test_propagator_limit_at_infinity_is_pi0_laplacian():
    """P(inf) is the splitting's pi0 for the Laplacian kind too."""
    inst = to_float_instance(random_instance(9, {0: 2, 1: 2, 2: 1}))
    s = inst.splitting
    assert s.kind == "laplacian"
    even, odd = propagator(math.inf, s)
    assert (even - s.pi0).max_abs() <= DEFAULT_TOL
    assert odd.is_zero()


def test_propagator_generic_t_matches_series(t1):
    """pi0 + e^-t pi1 and -e^-t kappa, checked against the matrix exponential
    of the Laplacian-mode formula on the float copy."""
    s = t1.splitting
    t = 1.0
    even, odd = propagator(t, s)
    w = math.exp(-1.0)
    assert even.equals(_to_float(s.pi0) + _to_float(s.pi1).scale(complex(w)),
                       1e-14)
    assert odd.equals(_to_float(s.kappa).scale(complex(-w)), 1e-14)
    t1f = to_float_instance(t1_instance())
    evenf, oddf = propagator(t, t1f.splitting)
    # the Hodge Laplacian of T1 is the identity on the acyclic part
    assert evenf.equals(even, 1e-12)
    assert oddf.equals(compose(evenf, _to_float(t1f.splitting.kappa)).scale(
        complex(-1)), 1e-12)


_FLOAT_INSTANCES = {
    "T1": lambda: to_float_instance(t1_instance()),
    "r7": lambda: to_float_instance(random_instance(7, {0: 2, 1: 2})),
    "torus1": lambda: torus_instance(1),
}


@functools.lru_cache(maxsize=None)
def _float_instance(name):
    return _FLOAT_INSTANCES[name]()


def _inner_product(space, seed):
    """A seeded Hermitian positive-definite inner product A A^H + n I per
    degree."""
    rng = np.random.default_rng(seed)
    out = {}
    for d in space.degrees():
        n = space.dim(d)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out[d] = a @ a.conj().T + n * np.eye(n)
    return out


def _expm(a):
    """exp(a) by scaling and squaring a Taylor series."""
    norm = np.abs(a).sum(axis=1).max(initial=0.0)
    s = max(0, int(math.ceil(math.log2(norm))) + 1) if norm else 0
    a = a / 2 ** s
    term = out = np.eye(len(a), dtype=complex)
    for k in range(1, 20):
        term = term @ a / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(_FLOAT_INSTANCES)),
       seed=st.integers(0, 2 ** 16),
       t=st.floats(0.05, 4.0))
def test_heat_kernel_with_random_inner_product(name, seed, t):
    """P(0) = id, P(inf) = pi0 and P(t) = exp(-t {Q, kappa}) for Hodge
    splittings of seeded random inner products; the reference exponentiates
    {Q, kappa} itself, not the stored spectrum."""
    inst = _float_instance(name)
    space, q = inst.bundle.space, inst.bundle.q
    s = build_splitting_hodge(space, q, _inner_product(space, seed))
    assert check_splitting(space, q, s).ok
    cache = PropagatorCache(s)
    even, odd = cache.value(0.0)
    assert even.equals(GradedMap.identity(space, FLOAT), DEFAULT_TOL)
    assert odd.equals(s.kappa.scale(-1.0), DEFAULT_TOL)
    even, odd = cache.value(math.inf)
    assert even.equals(s.pi0, DEFAULT_TOL)
    assert odd.is_zero()
    laplacian = supercommutator(q, s.kappa)
    even, odd = cache.value(t)
    expect = GradedMap.build(space, space, 0, {
        d: _expm(-t * np.asarray(laplacian.block(d))) for d in space.degrees()},
        FLOAT)
    assert even.equals(expect, 1e-9)
    assert odd.equals(compose(expect, s.kappa).scale(-1.0), 1e-9)


def test_quadrature_matches_closed_form_with_inner_product():
    """Quadrature matches the closed form under a non-identity inner
    product, where Delta is not Hermitian in the module basis."""
    t1f = _float_instance("T1")
    space = t1f.bundle.space
    s = build_splitting_hodge(space, t1f.bundle.q, _inner_product(space, 0))
    closed = transfer_closed([8, 2], s, t1f.bundle)
    assert closed.max_abs() > 1e-3
    quad, _ = transfer_quadrature([8, 2], s, t1f.bundle, budget=20000)
    assert (quad - closed).max_abs() <= 1e-8 * closed.max_abs()


def test_transfer_closed_arity_one(t1, t1_morphism):
    alg = t1.bundle.algebra
    unit_slot = Slot(0, alg.unit)
    val = transfer_closed([unit_slot], t1.splitting, t1.bundle)
    assert val.equals(GradedMap.identity(t1.splitting.m0, EXACT))


def test_transfer_closed_t1_two_slot_example(t1):
    """a_1 = E[f<-e2] (degree +1), a_2 = E[e2<-e1]: the value is -id on the
    one-dimensional cohomology in degree 0."""
    alg = t1.bundle.algebra
    a1 = alg.flat_by_name("E[f<-e2]")
    a2 = alg.flat_by_name("E[e2<-e1]")
    val = transfer_closed([a1, a2], t1.splitting, t1.bundle)
    assert val.degree == 0
    assert val.block(0)[0, 0] == -1


def test_transfer_closed_units_vanish(t1):
    alg = t1.bundle.algebra
    unit_slot = Slot(0, alg.unit)
    for k in (2, 3):
        val = transfer_closed([unit_slot] * k, t1.splitting, t1.bundle)
        assert val.is_zero()


def test_omega_arity_one_is_configuration_independent(t1):
    alg = t1.bundle.algebra
    form = operator_form([3], ConfigurationPoint(()), t1.splitting, t1.bundle)
    assert form.arity == 1 and set(form.components) == {frozenset()}


def test_ainfinity_defect_zero_exact_t1(t1, t1_morphism):
    rng = random.Random(0)
    n = t1.bundle.algebra.n_basis
    for k in range(1, 5):
        for _ in range(30):
            tup = [rng.randrange(n) for _ in range(k)]
            assert ainfinity_defect(t1_morphism, tup).is_zero()


def test_ainfinity_defect_zero_on_random_instances():
    for seed, dims in [(11, {0: 2, 1: 2}), (12, {-1: 1, 0: 2, 1: 1})]:
        inst = random_instance(seed, dims)
        f = transferred_morphism(inst.bundle, inst.splitting)
        rng = random.Random(seed)
        n = inst.bundle.algebra.n_basis
        for k in range(1, 5):
            for _ in range(15):
                tup = [rng.randrange(n) for _ in range(k)]
                assert ainfinity_defect(f, tup).is_zero()


def test_on_basis_is_chain_order_component(t1, t1_morphism):
    """f_m(b_1, ..., b_m) = p rho(b_1) h ... h rho(b_m) i, with no sign."""
    s, rho = t1.splitting, t1.bundle.rho_flat
    n = t1.bundle.algebra.n_basis
    for flats in itertools.product(range(n), repeat=2):
        a, b = flats
        expect = compose(compose(compose(compose(
            s.project, rho(a)), s.homotopy), rho(b)), s.include)
        assert t1_morphism.on_basis(flats).equals(expect)


def test_ainfinity_defect_detects_a_flipped_component(t1):
    """Flipping the sign of one nonzero arity-2 component breaks the
    relation, so a zero defect is not vacuous."""
    f = transferred_morphism(t1.bundle, t1.splitting)
    n = t1.bundle.algebra.n_basis
    pairs = [p for p in itertools.product(range(n), repeat=2)
             if not f.on_basis(p).is_zero()]
    assert pairs
    flipped = pairs[0]
    f._cache[flipped] = f.on_basis(flipped).scale(Fraction(-1))
    assert any(not ainfinity_defect(f, list(t)).is_zero()
               for k in (2, 3) for t in itertools.product(range(n), repeat=k))


def test_arity_one_defect_is_projected_chain_defect(t1, t1_morphism):
    """k = 1 reduces to pi0 {Q, rho(a)} pi0 = 0."""
    n = t1.bundle.algebra.n_basis
    for k in range(n):
        assert ainfinity_defect(t1_morphism, [k]).is_zero()


def test_quadrature_matches_closed_form_t1_float():
    t1f = to_float_instance(t1_instance())
    alg = t1f.bundle.algebra
    checked = 0
    for k in (2, 3):
        for tup in itertools.product(range(alg.n_basis), repeat=k):
            closed = transfer_closed(list(tup), t1f.splitting, t1f.bundle)
            if closed.max_abs() < 1e-12 and checked > 3:
                continue
            quad, est = transfer_quadrature(list(tup), t1f.splitting,
                                            t1f.bundle, rel_tol=1e-9)
            rel = (quad - closed).max_abs() / (1.0 + closed.max_abs())
            assert rel <= 1e-8
            checked += 1
            if checked >= 8:
                break
        if checked >= 8:
            break
    assert checked >= 4


def test_quadrature_arity_one_exact(t1):
    t1f = to_float_instance(t1_instance())
    val, est = transfer_quadrature([3], t1f.splitting, t1f.bundle)
    assert est == 0.0
    closed = transfer_closed([3], t1f.splitting, t1f.bundle)
    assert val.equals(closed, 1e-14)


def test_quadrature_rejects_large_arity(t1):
    t1f = to_float_instance(t1_instance())
    with pytest.raises(ShapeError):
        transfer_quadrature([0] * 5, t1f.splitting, t1f.bundle, max_arity=4)


def test_quadrature_budget_error_carries_best_estimate():
    from homotrace.errors import QuadratureBudgetError
    from homotrace.glinalg import GradedMap

    t1f = to_float_instance(t1_instance())
    alg = t1f.bundle.algebra
    tup = [alg.flat_by_name("E[f<-e2]"), alg.flat_by_name("E[e2<-e1]")]
    with pytest.raises(QuadratureBudgetError) as info:
        transfer_quadrature(tup, t1f.splitting, t1f.bundle, rel_tol=1e-14,
                            order=4, budget=60)
    assert isinstance(info.value.best, GradedMap)
    assert info.value.estimate is not None
    closed = transfer_closed(tup, t1f.splitting, t1f.bundle)
    assert (info.value.best - closed).max_abs() <= 1e-3


def test_almost_closed_second_order_rate():
    t1f = to_float_instance(t1_instance())
    alg = t1f.bundle.algebra
    a = alg.flat_by_name("E[f<-e2]")
    b = alg.flat_by_name("E[e2<-f]")
    pt = ConfigurationPoint((0.8,))
    r3 = almost_closed_check([a, b], pt, t1f.splitting, t1f.bundle, 1e-3)
    r4 = almost_closed_check([a, b], pt, t1f.splitting, t1f.bundle, 1e-4)
    assert r3 > 0
    assert 50 <= r3 / r4 <= 200


def test_almost_closed_cocycle_inputs_are_constant(torus1):
    """All-closed degree-0 inputs: no configuration dependence at arity 1."""
    r = almost_closed_check([0], ConfigurationPoint(()), torus1.splitting,
                            torus1.bundle, 1e-3)
    assert r <= 1e-12


def test_almost_closed_torus(torus1):
    r = almost_closed_check([2, 5], ConfigurationPoint((0.9,)),
                            torus1.splitting, torus1.bundle, 1e-4)
    assert r <= 1e-6


def _stratum_diffs(inst, a1, a2, eps):
    alg = inst.bundle.algebra
    form = operator_form([a1, a2], ConfigurationPoint((eps,)), inst.splitting,
                         inst.bundle)
    merged_slot = Slot(alg.basis_degree(a1) + alg.basis_degree(a2),
                       alg.mul_flat(a2, a1))
    merged = operator_form([merged_slot], ConfigurationPoint(()),
                           inst.splitting, inst.bundle)
    d_merge = (form.component(()) - merged.component(())).max_abs()
    form_inf = operator_form([a1, a2], ConfigurationPoint((1.0 / eps,)),
                             inst.splitting, inst.bundle)
    fa = operator_form([a1], ConfigurationPoint(()), inst.splitting,
                       inst.bundle).component(())
    fb = operator_form([a2], ConfigurationPoint(()), inst.splitting,
                       inst.bundle).component(())
    d_split = (form_inf.component(()) - compose(fb, fa)).max_abs()
    return d_merge, d_split


def test_boundary_strata_arity_two():
    t1f = to_float_instance(t1_instance())
    alg = t1f.bundle.algebra
    a1 = alg.flat_by_name("E[f<-e2]")
    a2 = alg.flat_by_name("E[e2<-f]")
    m3, s3 = _stratum_diffs(t1f, a1, a2, 1e-3)
    m4, s4 = _stratum_diffs(t1f, a1, a2, 1e-4)
    assert m4 <= 1e-3 and s4 <= 1e-3
    assert 5 <= m3 / m4 <= 20  # first order in eps
    assert s4 <= 1e-9


def test_boundary_strata_arity_three_merge():
    """At t1 -> 0 the dt2-coefficient matches the merged two-slot form."""
    t1f = to_float_instance(t1_instance())
    alg = t1f.bundle.algebra
    tup = (alg.flat_by_name("E[e1<-e2]"), alg.flat_by_name("E[f<-e1]"),
           alg.flat_by_name("E[e2<-e1]"))
    t2 = 0.9
    base = operator_form(list(tup), ConfigurationPoint((0.5, t2)),
                         t1f.splitting, t1f.bundle)
    assert base.component({1}).max_abs() > 1e-9
    diffs = []
    for eps in (1e-3, 1e-4):
        form = operator_form(list(tup), ConfigurationPoint((eps, t2)),
                             t1f.splitting, t1f.bundle)
        merged_slot = Slot(alg.basis_degree(tup[0]) + alg.basis_degree(tup[1]),
                           alg.mul_flat(tup[1], tup[0]))
        mform = operator_form([merged_slot, tup[2]], ConfigurationPoint((t2,)),
                              t1f.splitting, t1f.bundle)
        diffs.append((form.component({1}) - mform.component({0})).max_abs())
    assert diffs[1] <= 1e-3
    assert 5 <= diffs[0] / max(diffs[1], 1e-300) <= 20


def test_boundary_strata_arity_three_split():
    """At t2 -> inf the dt1-coefficient factorizes through the projection."""
    t1f = to_float_instance(t1_instance())
    alg = t1f.bundle.algebra
    tup = (alg.flat_by_name("E[f<-e2]"), alg.flat_by_name("E[e2<-e1]"),
           alg.flat_by_name("E[e2<-e2]"))
    t1_gap = 0.7
    pair = operator_form([tup[0], tup[1]], ConfigurationPoint((t1_gap,)),
                         t1f.splitting, t1f.bundle).component({0})
    assert pair.max_abs() > 1e-9
    single = operator_form([tup[2]], ConfigurationPoint(()), t1f.splitting,
                           t1f.bundle).component(())
    for eps in (1e-3, 1e-4):
        sform = operator_form(list(tup), ConfigurationPoint((t1_gap, 1 / eps)),
                              t1f.splitting, t1f.bundle)
        assert (sform.component({0}) - compose(single, pair)).max_abs() <= 1e-3


def test_transfer_multilinearity(t1, t1_morphism):
    alg = t1.bundle.algebra
    v = alg._zero_vec()
    v[2] = Fraction(2)
    v[3] = Fraction(-1)
    combo = Slot(0, v)
    lhs = t1_morphism.value([combo, Slot.basis(t1.bundle, 7)])
    rhs = t1_morphism.on_basis((2, 7)).scale(Fraction(2)) - \
        t1_morphism.on_basis((3, 7))
    assert lhs.equals(rhs)
