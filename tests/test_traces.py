"""Trace functionals: cohomological, transferred, cyclic, and the canonical
and projected oracles."""

import collections
import functools
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from homotrace.dgcore import (
    build_splitting_projector,
    cohomology,
    endomorphism_algebra,
)
from homotrace.errors import ShapeError
from homotrace.glinalg import (GradedMap, GradedVectorSpace, compose,
                               supercommutator, supertrace)
from homotrace.hochschild import (HochschildChain, _signed_rotations,
                                  cycle_basis, hochschild_boundary,
                                  push_chain)
from homotrace.scalars import EXACT, FLOAT, one_scalar, session_tol
from homotrace.traces import (
    antisymmetrized_supertrace,
    cyclic_trace,
    supertrace_on_cohomology,
    trace_defect,
    transferred_cyclic_trace,
    transferred_trace,
)
from homotrace.transfer import transferred_morphism
from oracles import (bits, by_source, canonical_supertrace, cyclic_shift,
                     fresh, instance, names, projected_supertrace, rho_vector,
                     unit_chain, unit_vector)


def test_supertrace_on_cohomology_identity(t1, torus1):
    coh = cohomology(t1.bundle.space, t1.bundle.q)
    ident = GradedMap.identity(t1.bundle.space, EXACT)
    assert supertrace_on_cohomology(ident, coh) == 1
    cohT = cohomology(torus1.bundle.space, torus1.bundle.q, 1e-10)
    identT = GradedMap.identity(torus1.bundle.space, "float")
    assert abs(complex(supertrace_on_cohomology(identT, cohT))) <= 1e-10


def test_supertrace_on_cohomology_rejects_non_chain_map(t1):
    coh = cohomology(t1.bundle.space, t1.bundle.q)
    op = t1.bundle.rho[t1.bundle.algebra.flat_by_name("E[e1<-e2]")]
    with pytest.raises(ShapeError):
        supertrace_on_cohomology(op, coh, q=t1.bundle.q)


def test_supertrace_nilpotent_is_zero(t1):
    coh = cohomology(t1.bundle.space, t1.bundle.q)
    n = t1.bundle.rho[t1.bundle.algebra.flat_by_name("E[e1<-e2]")]
    nn = compose(n, n)
    assert supertrace_on_cohomology(nn, coh, q=t1.bundle.q) == 0


def test_canonical_supertrace_support():
    v = GradedVectorSpace.make({0: 2, 1: 1})
    endo = endomorphism_algebra(v, EXACT)
    alg = endo.algebra
    assert canonical_supertrace(unit_chain(alg), endo) == 1  # 2 - 1
    two = HochschildChain.of(alg, (0, 1))
    assert canonical_supertrace(two, endo) == 0  # multi-slot terms ignored


def test_canonical_supertrace_balanced_space():
    v = GradedVectorSpace.make({0: 1, 1: 1})
    endo = endomorphism_algebra(v, EXACT)
    assert canonical_supertrace(unit_chain(endo.algebra), endo) == 0  # 1 - 1


def test_projected_supertrace(t1):
    ident = GradedMap.identity(t1.bundle.space, EXACT)
    assert projected_supertrace(ident, t1.splitting) == 1
    kappa = t1.splitting.kappa
    assert projected_supertrace(kappa, t1.splitting) == 0  # degree != 0


def test_transferred_trace_identity(t1, t1_morphism, torus1, torus_morphism):
    assert transferred_trace(unit_chain(t1.bundle.algebra), t1_morphism) == 1
    assert abs(complex(transferred_trace(unit_chain(torus1.bundle.algebra),
                                         torus_morphism))) <= 1e-10


def test_transferred_trace_oracle_equivalence(t1, t1_morphism):
    """On closed degree-0 operators the transferred trace is the cohomological
    supertrace."""
    alg = t1.bundle.algebra
    coh = cohomology(t1.bundle.space, t1.bundle.q)
    for k in range(alg.n_basis):
        if alg.basis_degree(k) != 0:
            continue
        if alg.differential_terms[k]:
            continue
        ups = transferred_trace(HochschildChain.of(alg, (k,)), t1_morphism)
        ind = supertrace_on_cohomology(t1.bundle.rho[k], coh)
        assert ups == ind


@pytest.mark.parametrize("name", [pytest.param("T1", id="t1"), "r11"])
def test_transferred_trace_is_supertrace_of_full_push(name):
    """Pushing only the single-block partition gives the canonical
    supertrace of the full push-forward, on seeded chains of total degree 0."""
    inst = instance(name)
    alg = inst.bundle.algebra
    f = transferred_morphism(inst.bundle, inst.splitting)
    rng = random.Random(name.lower())
    for _ in range(10):
        chain = HochschildChain.zero(alg)
        while len(chain.terms) < 4:
            k = rng.randint(1, 3)
            flats = tuple(rng.randrange(alg.n_basis) for _ in range(k))
            if sum(alg.basis_degree(x) for x in flats) == k - 1:
                chain.add_term(flats, Fraction(rng.randint(-3, 3)))
        full = canonical_supertrace(push_chain(chain, f), f.target)
        assert transferred_trace(chain, f) == full


@pytest.mark.parametrize("name", names(EXACT) + names("copy"))
def test_supertrace_per_word_is_the_components(name):
    """On every word of arity <= 3 whose component has degree 0, the
    supertrace read off the stored prefix and tail equals the supertrace
    of the formed component: == over Q, bit for bit in floats.  It forms
    no component.  (On the torus every such supertrace is 0.)"""
    inst = instance(name)
    alg = inst.bundle.algebra
    f = transferred_morphism(inst.bundle, inst.splitting)
    formed = transferred_morphism(inst.bundle, inst.splitting)
    nonzero = 0
    for k in (1, 2, 3):
        for word in itertools.product(range(alg.n_basis), repeat=k):
            if sum(alg.basis_degree(x) for x in word) != k - 1:
                continue
            got, want = f.supertrace(word), formed.on_basis(word).supertrace()
            assert bits(got) == bits(want), word
            nonzero += bool(want)
    assert nonzero and not f._cache


@pytest.mark.parametrize("name", ["T1", "r11"])
def test_transferred_trace_forms_no_component(name):
    """A transferred trace on a fresh closed-form morphism leaves its
    component store empty and equals the sum of the formed components'
    supertraces (the push-forward's canonical supertrace)."""
    inst = instance(name)
    alg = inst.bundle.algebra
    f = transferred_morphism(inst.bundle, inst.splitting)
    formed = transferred_morphism(inst.bundle, inst.splitting)
    chain = HochschildChain.zero(alg)
    for k in (1, 2, 3):
        for flats in itertools.product(range(alg.n_basis), repeat=k):
            if sum(alg.basis_degree(x) for x in flats) == k - 1:
                chain.add_term(flats, Fraction(1 + len(chain.terms) % 3))
    value = transferred_trace(chain, f)
    assert not f._cache
    assert value == canonical_supertrace(push_chain(chain, formed),
                                         formed.target)
    assert value


def test_trace_vanishes_on_boundaries_exact(t1, t1_morphism):
    alg = t1.bundle.algebra
    rng = random.Random(0)
    tested = 0
    for _ in range(4000):
        k = rng.randint(2, 4)
        flats = tuple(rng.randrange(alg.n_basis) for _ in range(k))
        if sum(alg.basis_degree(x) for x in flats) != k - 2:
            continue
        assert trace_defect(HochschildChain.of(alg, flats), t1_morphism) == 0
        tested += 1
        if tested >= 60:
            break
    assert tested >= 40


def test_trace_vanishes_on_boundaries_r11():
    """The exact benchmark instance, whose cohomology has odd components."""
    inst = instance("r11")
    alg = inst.bundle.algebra
    f = transferred_morphism(inst.bundle, inst.splitting)
    rng = random.Random(11)
    failed, tested = [], 0
    while tested < 200:
        k = rng.randint(2, 4)
        flats = tuple(rng.randrange(alg.n_basis) for _ in range(k))
        if sum(alg.basis_degree(x) for x in flats) != k - 2:
            continue
        tested += 1
        if trace_defect(HochschildChain.of(alg, flats), f) != 0:
            failed.append(flats)
    assert failed == []


def test_trace_vanishes_on_boundaries_float(torus1, torus_morphism):
    talg = torus1.bundle.algebra
    rng = random.Random(1)
    for _ in range(40):
        flats = (rng.randrange(talg.n_basis), rng.randrange(talg.n_basis))
        val = trace_defect(HochschildChain.of(talg, flats), torus_morphism)
        assert abs(complex(val)) <= 1e-8


def test_commutator_of_closed_operators_traces_to_zero(t1, t1_morphism):
    alg = t1.bundle.algebra
    closed = [k for k in range(alg.n_basis)
              if alg.basis_degree(k) == 0
              and not alg.differential_terms[k]]
    for a, b in itertools.product(closed, repeat=2):
        comm = HochschildChain.zero(alg)
        for idx, v in enumerate(alg.mul[a, b]):
            comm.add_term((idx,), v)
        for idx, v in enumerate(alg.mul[b, a]):
            comm.add_term((idx,), -v)
        assert transferred_trace(comm, t1_morphism) == 0


def test_homotopy_independence_on_closed_chains(t1):
    alg = t1.bundle.algebra
    v, q = t1.bundle.space, t1.bundle.q
    splittings = [t1.splitting] + [
        build_splitting_projector(v, q, shear_seed=i) for i in (1, 2)]
    morphisms = [transferred_morphism(t1.bundle, s) for s in splittings]
    basis = cycle_basis(alg, 2)
    rng = random.Random(3)
    for _ in range(20):
        chain = sum((z.scale(rng.randint(-2, 2)) for z in basis),
                    HochschildChain.zero(alg))
        vals = {str(transferred_trace(chain, f)) for f in morphisms}
        assert len(vals) == 1


@pytest.mark.parametrize("name, max_len, cycles, nonzero", [
    ("T1", 3, 71, 6), ("r7", 3, 55, 6), ("m32", 2, 131, 9),
    ("m32", 3, 1323, 18)])
def test_transferred_trace_is_the_module_supertrace_on_cycles(
        name, max_len, cycles, nonzero):
    """On every Hochschild cycle z of ``cycle_basis``, the transferred trace
    is sum c_w str rho(w) over the length-1 terms c_w w of z, exactly: the
    supertrace on M itself, which needs no splitting."""
    inst = instance(name)
    f = transferred_morphism(inst.bundle, inst.splitting)
    basis = cycle_basis(inst.bundle.algebra, max_len)
    assert all(hochschild_boundary(z).is_zero() for z in basis)
    traces = [transferred_trace(z, f) for z in basis]
    assert traces == [
        sum(c * inst.bundle.rho[w[0]].supertrace()
            for w, c in z.terms.items() if len(w) == 1) for z in basis]
    assert (len(basis), sum(1 for t in traces if t)) == (cycles, nonzero)


@pytest.mark.parametrize(
    "name, cycles", [("T1f", 71), ("r7f", 55)],
    ids=lambda v: by_source(v) if isinstance(v, str) else None)
def test_float_transferred_trace_is_the_module_supertrace_on_cycles(
        name, cycles):
    """The float form of the identity above: on every cycle of the exact
    source's ``cycle_basis`` up to length 3, read over its float copy (the
    same basis, each coefficient as a double), the float transferred
    trace is within the session tolerance of the exact sum c_w str
    rho(w), relative to 1 + its magnitude."""
    inst, fl = instance(by_source(name)), instance(name)
    f = transferred_morphism(fl.bundle, fl.splitting)
    tol = session_tol(FLOAT, None)
    basis = cycle_basis(inst.bundle.algebra, 3)
    assert len(basis) == cycles
    for z in basis:
        want = complex(sum(c * inst.bundle.rho[w[0]].supertrace()
                           for w, c in z.terms.items() if len(w) == 1))
        got = transferred_trace(HochschildChain(fl.bundle.algebra, {
            w: complex(c) for w, c in z.terms.items()}), f)
        assert abs(got - want) <= tol * (1 + abs(want)), (z.terms, got, want)


def test_cycle_basis_needs_an_exact_algebra():
    with pytest.raises(ShapeError):
        cycle_basis(instance("T1f").bundle.algebra, 1)


def test_cyclic_trace_level_zero_is_canonical(t1, t1_morphism):
    endo = t1_morphism.target
    alg = endo.algebra
    chain = HochschildChain.of(alg, (0,))
    assert cyclic_trace(chain, endo, 0) == canonical_supertrace(chain, endo)


def test_cyclic_trace_wrong_length_raises(t1, t1_morphism):
    endo = t1_morphism.target
    with pytest.raises(ShapeError):
        cyclic_trace(HochschildChain.of(endo.algebra, (0, 0)), endo, 1)


def test_cyclic_trace_descends_to_quotient():
    """Invariance under the signed cyclic shift, checked over an even space."""
    v = GradedVectorSpace.make({0: 2})
    endo = endomorphism_algebra(v, EXACT)
    alg = endo.algebra
    rng = random.Random(4)
    for _ in range(40):
        flats = tuple(rng.randrange(alg.n_basis) for _ in range(3))
        chain = HochschildChain.of(alg, flats)
        assert cyclic_trace(chain, endo, 1) == \
            cyclic_trace(cyclic_shift(chain), endo, 1)


def test_cyclic_trace_kills_boundaries_even_space():
    v = GradedVectorSpace.make({0: 2})
    endo = endomorphism_algebra(v, EXACT)
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
    ident = rho_vector(t1.bundle, unit_vector(t1.bundle.algebra))
    val = antisymmetrized_supertrace([ident] * 3, coh, q=t1.bundle.q)
    assert val == 3  # three cyclic orders, each contributing chi = 1


def test_cyclic_pullback_matches_antisymmetrized(t1, t1_morphism):
    """Level-1 pulled-back trace on closed triples equals the cyclic-signed
    cohomological supertrace."""
    alg = t1.bundle.algebra
    coh = cohomology(t1.bundle.space, t1.bundle.q)
    closed = [k for k in range(alg.n_basis)
              if alg.basis_degree(k) == 0
              and not alg.differential_terms[k]]
    rng = random.Random(6)
    for _ in range(15):
        trip = tuple(rng.choice(closed) for _ in range(3))
        chain = HochschildChain.of(alg, trip)
        lhs = transferred_cyclic_trace(chain, t1_morphism, 1)
        ops = [t1.bundle.rho[k] for k in trip]
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


def test_float_closedness_reads_tol_none_as_the_session_tolerance(torus1):
    """On torus N=1 the square of a seeded complex combination of the
    closed degree-0 operators commutes with Q up to rounding only; with
    q given and tol=None both cohomological traces accept it, as they do
    with no q, since None means DEFAULT_TOL in float mode."""
    b, s = torus1.bundle, torus1.splitting
    alg = b.algebra
    closed = [k for k in range(alg.n_basis)
              if alg.basis_degree(k) == 0 and not alg.differential_terms[k]]
    rounded = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(len(closed)) + 1j * rng.standard_normal(
            len(closed))
        c = sum((b.rho[k].scale(complex(y)) for k, y in zip(closed, x)),
                GradedMap.zero(b.space, b.space, 0, b.mode))
        op = compose(c, c)
        rounded += not supercommutator(b.q, op).is_zero()
        assert supertrace_on_cohomology(op, s, q=b.q) == \
            supertrace_on_cohomology(op, s)
        assert antisymmetrized_supertrace([op, c, op], s, q=b.q) == \
            antisymmetrized_supertrace([op, c, op], s)
    assert rounded > 0


@pytest.mark.parametrize("name", names(FLOAT))
def test_float_supertrace_of_a_product_keeps_the_composite_bits(name):
    """On seeded words of 1 to 4 operators of total degree 0, the float
    ``supertrace(*maps)`` is the supertrace of ``reduce(compose, maps)``:
    equal with ==, and of the same type."""
    inst = instance(name)
    rho, alg = inst.bundle.rho, inst.bundle.algebra
    rng = random.Random(3)
    seen = 0
    for k in range(1, 5):
        for _ in range(60):
            word = [rng.randrange(alg.n_basis) for _ in range(k)]
            if sum(alg.basis_degree(b) for b in word):
                continue
            maps = [rho[b] for b in word]
            got = supertrace(*maps)
            want = functools.reduce(compose, maps).supertrace()
            assert got == want and type(got) is type(want), word
            seen += 1
    assert seen >= 60


@pytest.mark.parametrize("name", ["r11", "r11f"])
def test_cyclic_pullback_is_the_full_push_at_its_length(name):
    """On seeded chains of 3 to 7 slots, mostly closed degree-0 operators,
    the level-1 and level-2 pulled-back traces equal the cyclic trace of
    the full push-forward's terms of length 3 and 5: == over Q, bit for
    bit in floats, so the partitions are pushed in the full push's
    order."""
    inst = instance(name)
    alg, one = inst.bundle.algebra, one_scalar(inst.mode)
    closed = [k for k in range(alg.n_basis)
              if alg.basis_degree(k) == 0 and not alg.differential_terms[k]]
    f = transferred_morphism(inst.bundle, inst.splitting)
    rng = random.Random(11)
    nonzero = 0
    for _ in range(12):
        chain = HochschildChain.zero(alg)
        for _ in range(3):
            word = tuple(rng.choice(closed) if rng.random() < 0.7
                         else rng.randrange(alg.n_basis)
                         for _ in range(rng.randint(3, 7)))
            chain.add_term(word, rng.choice([1, -2, 3]) * one)
        pushed = push_chain(chain, f)
        for level in (1, 2):
            want = cyclic_trace(HochschildChain(pushed.algebra, {
                t: c for t, c in pushed.terms.items()
                if len(t) == 2 * level + 1}), f.target, level)
            got = transferred_cyclic_trace(chain, f, level)
            assert bits(got) == bits(want), (chain.terms, level)
            nonzero += bool(want)
    assert nonzero >= 6


def _reads_by_word(f):
    """Counts ``f.coordinates`` calls by word, until the counter is
    dropped with ``del f.coordinates``."""
    reads, real = collections.Counter(), f.coordinates

    def counted(word):
        reads[word] += 1
        return real(word)

    f.coordinates = counted
    return reads


def _blocks_by_word(algebra, word):
    """How many (rotation, start, end) blocks of a term hold each word."""
    k = len(word)
    return collections.Counter(rot[a:b]
                               for rot, _ in _signed_rotations(algebra, word)
                               for a in range(k) for b in range(a + 1, k + 1))


def test_cyclic_pullback_forms_no_full_partition_list(t1):
    """A 30-slot term gets a cyclic trace without walking the 2^29 ordered
    partitions of 30: each component is read at most as often as the term
    has (rotation, start, end) blocks holding its word.  Level 0 is the
    transferred trace of the term (of degree 29), and level 1 is zero,
    since a 3-block partition of 30 slots has a block of 10 or more and no
    component of T1 above arity 4 is nonzero."""
    alg = t1.bundle.algebra
    one = alg.flat_by_name("E[f<-e1]")       # degree 1
    word = (alg.flat_by_name("E[e2<-e1]"),) + (one,) * 29
    chain = HochschildChain.of(alg, word)
    f = transferred_morphism(t1.bundle, t1.splitting)
    blocks = _blocks_by_word(alg, word)
    for level, value in [(0, transferred_trace(chain, f)), (1, 0)]:
        reads = _reads_by_word(f)
        assert transferred_cyclic_trace(chain, f, level) == value
        del f.coordinates
        assert all(n <= blocks[w] for w, n in reads.items()), level


def test_a_long_term_reads_each_block_at_most_once():
    """The cyclic pull-back of a seeded 24-slot r11 term, mostly closed
    degree-0 operators, reads each component's coordinates at most as
    often as the term has (rotation, start, end) blocks holding its word,
    at levels 0 to 2: 24, 276 and 271 reads.  Every block after a zero
    one is skipped; walking every partition read them 24, 2 047 and 44 275
    times, at level 2 more often than that for 152 words."""
    inst = fresh("r11")
    alg = inst.bundle.algebra
    closed = [k for k in range(alg.n_basis)
              if alg.basis_degree(k) == 0 and not alg.differential_terms[k]]
    rng = random.Random(11)
    word = tuple(rng.choice(closed) if rng.random() < 0.7
                 else rng.randrange(alg.n_basis) for _ in range(24))
    blocks = _blocks_by_word(alg, word)
    for level in (0, 1, 2):
        f = transferred_morphism(inst.bundle, inst.splitting)
        reads = _reads_by_word(f)
        transferred_cyclic_trace(HochschildChain.of(alg, word), f, level)
        assert all(n <= blocks[w] for w, n in reads.items()), level
        assert sum(reads.values()) == (24, 276, 271)[level]
