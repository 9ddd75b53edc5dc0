"""Trace functionals: cohomological, canonical, projected, transferred, cyclic."""

import itertools
import random
from fractions import Fraction

import pytest

from homotrace.dgcore import (
    build_splitting_projector,
    cohomology,
    endomorphism_algebra,
)
from homotrace.errors import ShapeError
from homotrace.glinalg import GradedMap, GradedVectorSpace, compose, zeros_matrix
from homotrace.hochschild import (
    HochschildChain,
    cyclic_shift,
    hochschild_boundary,
    target_algebra,
)
from homotrace.instances import random_instance
from homotrace.scalars import EXACT
from homotrace.traces import (
    antisymmetrized_supertrace,
    canonical_supertrace,
    cyclic_trace,
    projected_supertrace,
    supertrace_on_cohomology,
    trace_defect,
    trace_functional,
    transferred_cyclic_trace,
    transferred_trace,
)
from homotrace.transfer import transferred_morphism


def test_supertrace_on_cohomology_identity(t1, torus1):
    coh = cohomology(t1.bundle.space, t1.bundle.q)
    ident = GradedMap.identity(t1.bundle.space, EXACT)
    assert supertrace_on_cohomology(ident, coh) == 1
    cohT = cohomology(torus1.bundle.space, torus1.bundle.q, 1e-10)
    identT = GradedMap.identity(torus1.bundle.space, "float")
    assert abs(complex(supertrace_on_cohomology(identT, cohT))) <= 1e-10


def test_supertrace_on_cohomology_rejects_non_chain_map(t1):
    coh = cohomology(t1.bundle.space, t1.bundle.q)
    op = t1.bundle.rho_flat(t1.bundle.algebra.flat_by_name("E[e1<-e2]"))
    with pytest.raises(ShapeError):
        supertrace_on_cohomology(op, coh, q=t1.bundle.q)


def test_supertrace_nilpotent_is_zero(t1):
    coh = cohomology(t1.bundle.space, t1.bundle.q)
    n = t1.bundle.rho_flat(t1.bundle.algebra.flat_by_name("E[e1<-e2]"))
    nn = compose(n, n)
    assert supertrace_on_cohomology(nn, coh, q=t1.bundle.q) == 0


def test_canonical_supertrace_support():
    v = GradedVectorSpace.make({0: 2, 1: 1})
    endo = endomorphism_algebra(v, None, EXACT)
    alg = endo.algebra
    ident = HochschildChain.zero(alg)
    for i, c in enumerate(alg.unit):
        ident.add_term((i,), c)
    assert canonical_supertrace(ident, endo) == 1  # 2 - 1
    two = HochschildChain.of(alg, (0, 1))
    assert canonical_supertrace(two, endo) == 0  # multi-slot terms ignored


def test_canonical_supertrace_balanced_space():
    v = GradedVectorSpace.make({0: 1, 1: 1})
    endo = endomorphism_algebra(v, None, EXACT)
    alg = endo.algebra
    ident = HochschildChain.zero(alg)
    for i, c in enumerate(alg.unit):
        ident.add_term((i,), c)
    assert canonical_supertrace(ident, endo) == 0  # 1 - 1


def test_projected_supertrace(t1):
    ident = GradedMap.identity(t1.bundle.space, EXACT)
    assert projected_supertrace(ident, t1.splitting) == 1
    kappa = t1.splitting.kappa
    assert projected_supertrace(kappa, t1.splitting) == 0  # degree != 0


def test_transferred_trace_identity(t1, t1_morphism, torus1, torus_morphism):
    alg = t1.bundle.algebra
    ident = HochschildChain.zero(alg)
    for i, c in enumerate(alg.unit):
        ident.add_term((i,), c)
    assert transferred_trace(ident, t1_morphism) == 1
    talg = torus1.bundle.algebra
    identT = HochschildChain.zero(talg)
    for i, c in enumerate(talg.unit):
        identT.add_term((i,), c)
    assert abs(complex(transferred_trace(identT, torus_morphism))) <= 1e-10


def test_transferred_trace_oracle_equivalence(t1, t1_morphism):
    """On closed degree-0 operators the transferred trace is the cohomological
    supertrace."""
    alg = t1.bundle.algebra
    coh = cohomology(t1.bundle.space, t1.bundle.q)
    for k in range(alg.n_basis):
        if alg.basis_degree(k) != 0:
            continue
        if any(bool(x) for x in alg.diff_flat(k)):
            continue
        ups = transferred_trace(HochschildChain.of(alg, (k,)), t1_morphism)
        ind = supertrace_on_cohomology(t1.bundle.rho_flat(k), coh)
        assert ups == ind


def test_trace_vanishes_on_boundaries_exact(t1, t1_morphism):
    alg = t1.bundle.algebra
    func = trace_functional(t1_morphism)
    rng = random.Random(0)
    tested = 0
    for _ in range(4000):
        k = rng.randint(2, 4)
        flats = tuple(rng.randrange(alg.n_basis) for _ in range(k))
        if sum(alg.basis_degree(x) for x in flats) != k - 2:
            continue
        assert trace_defect(HochschildChain.of(alg, flats), func) == 0
        tested += 1
        if tested >= 60:
            break
    assert tested >= 40


def test_trace_vanishes_on_boundaries_r11():
    """The exact benchmark instance, whose cohomology has odd components."""
    inst = random_instance(11, {0: 2, 1: 3, 2: 2})
    alg = inst.bundle.algebra
    func = trace_functional(transferred_morphism(inst.bundle, inst.splitting))
    rng = random.Random(11)
    failed, tested = [], 0
    while tested < 200:
        k = rng.randint(2, 4)
        flats = tuple(rng.randrange(alg.n_basis) for _ in range(k))
        if sum(alg.basis_degree(x) for x in flats) != k - 2:
            continue
        tested += 1
        if trace_defect(HochschildChain.of(alg, flats), func) != 0:
            failed.append(flats)
    assert failed == []


def test_trace_vanishes_on_boundaries_float(torus1, torus_morphism):
    talg = torus1.bundle.algebra
    func = trace_functional(torus_morphism)
    rng = random.Random(1)
    for _ in range(40):
        flats = (rng.randrange(talg.n_basis), rng.randrange(talg.n_basis))
        val = trace_defect(HochschildChain.of(talg, flats), func)
        assert abs(complex(val)) <= 1e-8


def test_commutator_of_closed_operators_traces_to_zero(t1, t1_morphism):
    alg = t1.bundle.algebra
    closed = [k for k in range(alg.n_basis)
              if alg.basis_degree(k) == 0
              and not any(bool(x) for x in alg.diff_flat(k))]
    for a, b in itertools.product(closed, repeat=2):
        comm = HochschildChain.zero(alg)
        for idx, v in enumerate(alg.mul_flat(a, b)):
            comm.add_term((idx,), v)
        for idx, v in enumerate(alg.mul_flat(b, a)):
            comm.add_term((idx,), -v)
        assert transferred_trace(comm, t1_morphism) == 0


def test_homotopy_independence_on_closed_chains(t1):
    from homotrace.glinalg import exact_nullspace

    alg = t1.bundle.algebra
    v, q = t1.bundle.space, t1.bundle.q
    splittings = [t1.splitting] + [
        build_splitting_projector(v, q, shear_seed=i) for i in (1, 2)]
    morphisms = [transferred_morphism(t1.bundle, s) for s in splittings]
    basis_tuples = [
        flats for k in (1, 2) for flats in
        itertools.product(range(alg.n_basis), repeat=k)
        if sum(alg.basis_degree(x) for x in flats) == k - 1]
    rows, cols = {}, []
    for t in basis_tuples:
        img = hochschild_boundary(HochschildChain.of(alg, t))
        cols.append(img)
        for tt in img.terms:
            rows.setdefault(tt, len(rows))
    m = zeros_matrix(len(rows), len(basis_tuples), EXACT)
    for j, img in enumerate(cols):
        for tt, val in img.terms.items():
            m[rows[tt], j] = val
    null = exact_nullspace(m)
    rng = random.Random(3)
    for _ in range(20):
        chain = HochschildChain.zero(alg)
        for j in range(null.shape[1]):
            cj = Fraction(rng.randint(-2, 2))
            if not cj:
                continue
            for i, t in enumerate(basis_tuples):
                if null[i, j]:
                    chain.add_term(t, cj * null[i, j])
        vals = {str(transferred_trace(chain, f)) for f in morphisms}
        assert len(vals) == 1


def test_cyclic_trace_level_zero_is_canonical(t1, t1_morphism):
    endo = target_algebra(t1_morphism)
    alg = endo.algebra
    chain = HochschildChain.of(alg, (0,))
    assert cyclic_trace(chain, endo, 0) == canonical_supertrace(chain, endo)


def test_cyclic_trace_wrong_length_raises(t1, t1_morphism):
    endo = target_algebra(t1_morphism)
    with pytest.raises(ShapeError):
        cyclic_trace(HochschildChain.of(endo.algebra, (0, 0)), endo, 1)


def test_cyclic_trace_descends_to_quotient():
    """Invariance under the signed cyclic shift, checked over an even space."""
    v = GradedVectorSpace.make({0: 2})
    endo = endomorphism_algebra(v, None, EXACT)
    alg = endo.algebra
    rng = random.Random(4)
    for _ in range(40):
        flats = tuple(rng.randrange(alg.n_basis) for _ in range(3))
        chain = HochschildChain.of(alg, flats)
        assert cyclic_trace(chain, endo, 1) == \
            cyclic_trace(cyclic_shift(chain), endo, 1)


def test_cyclic_trace_kills_boundaries_even_space():
    v = GradedVectorSpace.make({0: 2})
    endo = endomorphism_algebra(v, None, EXACT)
    alg = endo.algebra
    rng = random.Random(5)
    for _ in range(60):
        flats = tuple(rng.randrange(alg.n_basis) for _ in range(4))
        b = hochschild_boundary(HochschildChain.of(alg, flats))
        three = HochschildChain(
            alg, {t: v2 for t, v2 in b.terms.items() if len(t) == 3})
        assert cyclic_trace(three, endo, 1) == 0


def test_antisymmetrized_supertrace_identity(t1):
    coh = cohomology(t1.bundle.space, t1.bundle.q)
    ident = t1.bundle.unit_map()
    val = antisymmetrized_supertrace([ident] * 3, coh, q=t1.bundle.q)
    assert val == 3  # three cyclic orders, each contributing chi = 1


def test_cyclic_pullback_matches_antisymmetrized(t1, t1_morphism):
    """Level-1 pulled-back trace on closed triples equals the cyclic-signed
    cohomological supertrace."""
    alg = t1.bundle.algebra
    coh = cohomology(t1.bundle.space, t1.bundle.q)
    closed = [k for k in range(alg.n_basis)
              if alg.basis_degree(k) == 0
              and not any(bool(x) for x in alg.diff_flat(k))]
    rng = random.Random(6)
    for _ in range(15):
        trip = tuple(rng.choice(closed) for _ in range(3))
        chain = HochschildChain.of(alg, trip)
        lhs = transferred_cyclic_trace(chain, t1_morphism, 1)
        ops = [t1.bundle.rho_flat(k) for k in trip]
        rhs = antisymmetrized_supertrace(ops, coh, q=t1.bundle.q)
        assert lhs == rhs


def test_cyclic_pullback_kills_boundaries(t1, t1_morphism):
    """Level-1 pulled-back trace vanishes on total boundaries (the target
    cohomology of T1 is evenly graded)."""
    alg = t1.bundle.algebra
    rng = random.Random(7)
    tested = 0
    for _ in range(4000):
        flats = tuple(rng.randrange(alg.n_basis) for _ in range(4))
        if sum(alg.basis_degree(x) for x in flats) != 0:
            continue
        b = hochschild_boundary(HochschildChain.of(alg, flats))
        three = HochschildChain(
            alg, {t: v for t, v in b.terms.items() if len(t) == 3})
        assert transferred_cyclic_trace(three, t1_morphism, 1) == 0
        tested += 1
        if tested >= 25:
            break
    assert tested >= 15
