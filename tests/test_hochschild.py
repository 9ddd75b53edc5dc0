"""Chain complex identities: the differential, the cyclic structure, and the
transferred push-forward as a chain map."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homotrace.hochschild import (
    HochschildChain,
    boundary_parts,
    chain_map_defect,
    cyclic_project,
    cyclic_shift,
    cyclic_shift_term,
    hochschild_boundary,
    push_chain,
    target_algebra,
)
from homotrace.instances import random_instance, to_float_instance
from homotrace.scalars import DEFAULT_TOL
from homotrace.traces import canonical_supertrace
from homotrace.transfer import transferred_morphism


def random_term(rng, algebra, k):
    return tuple(rng.randrange(algebra.n_basis) for _ in range(k))


@given(st.integers(1, 5), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_boundary_squares_to_zero(k, seed):
    inst = random_instance(3, {0: 2, 1: 1, 2: 1})
    alg = inst.bundle.algebra
    rng = random.Random(seed)
    c = HochschildChain.of(alg, random_term(rng, alg, k))
    assert hochschild_boundary(hochschild_boundary(c)).is_zero()


def test_boundary_squares_to_zero_t1(t1):
    alg = t1.bundle.algebra
    rng = random.Random(5)
    for _ in range(120):
        k = rng.randint(1, 5)
        c = HochschildChain.of(alg, random_term(rng, alg, k))
        assert hochschild_boundary(hochschild_boundary(c)).is_zero()


def test_degree_zero_pair_gives_commutator(t1):
    """a (x) b with both slots of degree 0: merge part is ab - ba."""
    alg = t1.bundle.algebra
    a = alg.flat_by_name("E[e2<-e1]")
    b = alg.flat_by_name("E[e1<-e2]")
    hoch, _ = boundary_parts(HochschildChain.of(alg, (a, b)))
    expect = HochschildChain.zero(alg)
    for idx, v in enumerate(alg.mul_flat(a, b)):
        expect.add_term((idx,), v)
    for idx, v in enumerate(alg.mul_flat(b, a)):
        expect.add_term((idx,), -v)
    assert (hoch - expect).is_zero()


def test_single_slot_boundary_is_differential(t1):
    alg = t1.bundle.algebra
    a = alg.flat_by_name("E[e1<-e2]")
    total = hochschild_boundary(HochschildChain.of(alg, (a,)))
    expect = HochschildChain.zero(alg)
    for idx, v in enumerate(alg.diff_flat(a)):
        expect.add_term((idx,), v)
    assert (total - expect).is_zero()


def test_cyclic_shift_signs(t1):
    alg = t1.bundle.algebra
    a = alg.flat_by_name("E[e2<-e1]")
    b = alg.flat_by_name("E[e1<-e2]")
    rot, sign = cyclic_shift_term(alg, (a, b))
    assert rot == (b, a) and sign == -1
    rot, sign = cyclic_shift_term(alg, (a,))
    assert rot == (a,) and sign == 1


def test_cyclic_shift_order(t1):
    """Iterating the signed shift returns to the start with sign +1."""
    alg = t1.bundle.algebra
    rng = random.Random(1)
    for _ in range(40):
        k = rng.randint(1, 4)
        flats = random_term(rng, alg, k)
        cur, sign, steps = flats, 1, 0
        while True:
            cur, s = cyclic_shift_term(alg, cur)
            sign *= s
            steps += 1
            if cur == flats and sign == 1:
                break
            assert steps <= 2 * k
        assert (2 * k) % steps == 0


def test_cyclic_project_kills_shift_image(t1):
    alg = t1.bundle.algebra
    rng = random.Random(2)
    for _ in range(40):
        k = rng.randint(1, 4)
        c = HochschildChain.of(alg, random_term(rng, alg, k))
        diff = c - cyclic_shift(c)
        assert cyclic_project(diff).is_zero()


def test_cyclic_project_idempotent(t1):
    alg = t1.bundle.algebra
    rng = random.Random(3)
    for _ in range(30):
        k = rng.randint(1, 4)
        c = HochschildChain.of(alg, random_term(rng, alg, k),
                               Fraction(rng.randint(1, 5)))
        p = cyclic_project(c)
        assert (cyclic_project(p) - p).is_zero()


def test_boundary_descends_to_cyclic_quotient(t1):
    """The differential maps im(1 - C) into im(1 - C)."""
    alg = t1.bundle.algebra
    rng = random.Random(4)
    for _ in range(40):
        k = rng.randint(2, 4)
        c = HochschildChain.of(alg, random_term(rng, alg, k))
        image = c - cyclic_shift(c)
        assert cyclic_project(hochschild_boundary(image)).is_zero()


def test_degree_zero_symmetric_pair_is_cyclic_boundaryless(t1):
    """a(x)b + b(x)a is the image of (1 - C), so it projects to zero."""
    alg = t1.bundle.algebra
    a = alg.flat_by_name("E[e2<-e1]")
    b = alg.flat_by_name("E[e1<-e2]")
    sym = HochschildChain.of(alg, (a, b)) + HochschildChain.of(alg, (b, a))
    assert cyclic_project(sym).is_zero()


def test_push_single_slot_is_first_component(t1, t1_morphism):
    alg = t1.bundle.algebra
    endo = target_algebra(t1_morphism)
    for k in range(alg.n_basis):
        pushed = push_chain(HochschildChain.of(alg, (k,)), t1_morphism)
        expect = HochschildChain.zero(endo.algebra)
        for idx, v in enumerate(endo.expand(t1_morphism.on_basis((k,)))):
            expect.add_term((idx,), v)
        assert (pushed - expect).is_zero()


def test_push_two_slots_has_three_term_shape(t1, t1_morphism):
    """Partitions (2) + rotated (2) + (1,1); no rotated (1,1) term."""
    alg = t1.bundle.algebra
    a = alg.flat_by_name("E[e2<-e1]")
    b = alg.flat_by_name("E[e1<-e2]")
    pushed = push_chain(HochschildChain.of(alg, (a, b)), t1_morphism)
    lengths = {len(t) for t in pushed.terms}
    assert lengths <= {1, 2}
    endo = target_algebra(t1_morphism)
    two_slot = HochschildChain(
        endo.algebra, {t: v for t, v in pushed.terms.items() if len(t) == 2})
    expect = HochschildChain.zero(endo.algebra)
    va = endo.expand(t1_morphism.on_basis((a,)))
    vb = endo.expand(t1_morphism.on_basis((b,)))
    for i, x in enumerate(va):
        for j, y in enumerate(vb):
            expect.add_term((i, j), x * y)
    assert (two_slot - expect).is_zero()


def test_chain_map_property_exact(t1, t1_morphism):
    alg = t1.bundle.algebra
    rng = random.Random(6)
    for _ in range(80):
        k = rng.randint(1, 4)
        rep = chain_map_defect(
            HochschildChain.of(alg, random_term(rng, alg, k)), t1_morphism)
        assert rep.passed, rep.defect.describe()


def test_chain_map_property_random_instances():
    for seed in (21, 22):
        inst = random_instance(seed, {0: 2, 1: 2})
        f = transferred_morphism(inst.bundle, inst.splitting)
        alg = inst.bundle.algebra
        rng = random.Random(seed)
        for _ in range(25):
            k = rng.randint(1, 4)
            rep = chain_map_defect(
                HochschildChain.of(alg, random_term(rng, alg, k)), f)
            assert rep.passed


@pytest.mark.xfail(
    strict=True,
    reason="known defect: in float mode the push-forward is not a chain map "
    "on random seed 7 (47 of 399 basis chains of length <= 3 fail, worst "
    "defect coefficient 50.9); the exact instance passes on all of them")
def test_chain_map_float_random_instance():
    inst = to_float_instance(random_instance(7, {0: 2, 1: 2}))
    f = transferred_morphism(inst.bundle, inst.splitting)
    alg = inst.bundle.algebra
    failed = [flats for k in (1, 2, 3)
              for flats in itertools.product(range(alg.n_basis), repeat=k)
              if not chain_map_defect(HochschildChain.of(alg, flats), f,
                                      DEFAULT_TOL).passed]
    assert failed == []


def test_chain_map_property_torus(torus1, torus_morphism):
    alg = torus1.bundle.algebra
    rng = random.Random(7)
    for _ in range(15):
        k = rng.randint(1, 3)
        rep = chain_map_defect(
            HochschildChain.of(alg, random_term(rng, alg, k)),
            torus_morphism, tol=1e-8)
        assert rep.passed


def test_push_matches_rotation_sum_for_traces(t1, t1_morphism):
    """The single-slot part of the push is the signed rotation sum of the top
    component, so the transferred trace has the advertised rotation shape."""
    from homotrace.hochschild import morphism_block_component

    alg = t1.bundle.algebra
    endo = target_algebra(t1_morphism)
    rng = random.Random(8)
    checked = 0
    for _ in range(200):
        k = rng.randint(1, 3)
        flats = random_term(rng, alg, k)
        if sum(alg.basis_degree(x) for x in flats) != k - 1:
            continue
        pushed = push_chain(HochschildChain.of(alg, flats), t1_morphism)
        got = canonical_supertrace(pushed, endo)
        total = Fraction(0)
        cur, sign = flats, 1
        for _r in range(k):
            val = morphism_block_component(t1_morphism, cur)
            if val.degree == 0:
                total += sign * val.supertrace()
            cur, s = cyclic_shift_term(alg, cur)
            sign *= s
        assert got == total
        checked += 1
        if checked >= 25:
            break
    assert checked >= 10
