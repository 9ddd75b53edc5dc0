"""Chain complex identities: the differential, the cyclic structure, and the
transferred push-forward as a chain map."""

import itertools
import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homotrace.dgcore import EndoAlgebra, build_splitting_projector
from homotrace.hochschild import (
    HochschildChain,
    _push,
    _signed_rotations,
    chain_map_defect,
    cyclic_shift_term,
    hochschild_boundary,
    push_chain,
)
from homotrace.instances import random_instance
from homotrace.scalars import DEFAULT_TOL, one_scalar
from homotrace.traces import trace_defect
from homotrace.transfer import transferred_morphism
from oracles import bits, canonical_supertrace, compositions, \
    cyclic_project, cyclic_shift, describe, enumerated_push, expand, fresh, \
    instance, names, stepwise_rotations


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
    """a (x) b with both slots of degree 0: the boundary is ab - ba from the
    merge and the wrap-around, plus the internal terms d a (x) b - a (x) d b."""
    alg = t1.bundle.algebra
    a = alg.flat_by_name("E[e2<-e1]")
    b = alg.flat_by_name("E[e1<-e2]")
    assert alg.basis_degree(a) == alg.basis_degree(b) == 0
    total = hochschild_boundary(HochschildChain.of(alg, (a, b)))
    expect = HochschildChain.zero(alg)
    for idx, v in enumerate(alg.mul[a, b]):
        expect.add_term((idx,), v)
    for idx, v in enumerate(alg.mul[b, a]):
        expect.add_term((idx,), -v)
    for idx, v in alg.differential_terms[a]:
        expect.add_term((idx, b), v)
    for idx, v in alg.differential_terms[b]:
        expect.add_term((a, idx), -v)
    assert any(len(t) == 1 for t in total.terms)
    assert (total - expect).is_zero()


def test_single_slot_boundary_is_differential(t1):
    alg = t1.bundle.algebra
    a = alg.flat_by_name("E[e1<-e2]")
    total = hochschild_boundary(HochschildChain.of(alg, (a,)))
    expect = HochschildChain.zero(alg)
    for idx, v in alg.differential_terms[a]:
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


@pytest.mark.parametrize("name", ["T1", "T1-gaussian", "r11"])
def test_signed_rotations_match_the_stepwise_signs(name):
    """The rotation signs read off one parity list are the products of the
    ``cyclic_shift_term`` signs, step by step, on every word of length at
    most 4."""
    alg = instance(name).bundle.algebra
    for k in range(1, 5):
        for flats in itertools.product(range(alg.n_basis), repeat=k):
            assert list(_signed_rotations(alg, flats)) == \
                stepwise_rotations(alg, flats), flats


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


@pytest.mark.parametrize("name", names())
def test_coordinates_are_the_nonzero_dense_coefficients(name):
    """``EndoAlgebra.coordinates`` of every component of arity <= 2 lists
    the nonzero entries of the dense expansion over the matrix units, in
    index order, with the same values of the same types."""
    inst = instance(name)
    f = transferred_morphism(inst.bundle, inst.splitting)
    n = inst.bundle.algebra.n_basis
    for k in (1, 2):
        for word in itertools.product(range(n), repeat=k):
            m = f.on_basis(word)
            want = [(i, v) for i, v in enumerate(expand(f.target, m)) if v]
            got = f.target.coordinates(m)
            assert got == want, word
            assert [type(v) for _, v in got] == [type(v) for _, v in want]


def test_push_single_slot_is_first_component(t1, t1_morphism):
    alg = t1.bundle.algebra
    endo = t1_morphism.target
    for k in range(alg.n_basis):
        pushed = push_chain(HochschildChain.of(alg, (k,)), t1_morphism)
        expect = HochschildChain.zero(endo.algebra)
        for idx, v in enumerate(expand(endo, t1_morphism.on_basis((k,)))):
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
    endo = t1_morphism.target
    two_slot = HochschildChain(
        endo.algebra, {t: v for t, v in pushed.terms.items() if len(t) == 2})
    expect = HochschildChain.zero(endo.algebra)
    va = expand(endo, t1_morphism.on_basis((a,)))
    vb = expand(endo, t1_morphism.on_basis((b,)))
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
        assert rep.passed, describe(rep.defect)


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


def _short_chain_failures(inst, f, tol=None):
    """Basis chains of length <= 3 on which push_chain is not a chain map."""
    alg = inst.bundle.algebra
    return [flats for k in (1, 2, 3)
            for flats in itertools.product(range(alg.n_basis), repeat=k)
            if not chain_map_defect(HochschildChain.of(alg, flats), f,
                                    tol).passed]


def test_chain_map_float_random_instance():
    inst = instance("r7f")
    f = transferred_morphism(inst.bundle, inst.splitting)
    assert _short_chain_failures(inst, f, DEFAULT_TOL) == []


@pytest.mark.parametrize("seed, shear_seed", [(3, None), (8, None), (9, None),
                                              (7, 1)])
def test_chain_map_exhaustive_short_chains(seed, shear_seed):
    """Every basis chain of length <= 3, on instances and splittings where
    the push-forward once disagreed with the A-infinity relation's signs."""
    inst = random_instance(seed, {0: 2, 1: 2})
    splitting = build_splitting_projector(inst.bundle.space, inst.bundle.q,
                                          shear_seed=shear_seed)
    f = transferred_morphism(inst.bundle, splitting)
    assert _short_chain_failures(inst, f) == []


@given(st.lists(st.integers(0, 2), min_size=1, max_size=3).filter(
           lambda ns: 0 < sum(ns) <= 4),
       st.integers(0, 10 ** 4), st.booleans())
@settings(max_examples=60, deadline=None)
def test_chain_map_and_trace_on_random_instances(ns, seed, shear):
    """Exactly: push_chain is a chain map on every basis chain of length
    <= 2, and the transferred trace vanishes on the boundary of every basis
    chain of length 2-3 and internal degree k - 2, for the default
    splitting and a sheared one."""
    inst = random_instance(seed, {d: n for d, n in enumerate(ns) if n})
    splitting = (build_splitting_projector(inst.bundle.space, inst.bundle.q,
                                           shear_seed=seed)
                 if shear else inst.splitting)
    f = transferred_morphism(inst.bundle, splitting)
    alg = inst.bundle.algebra
    for k in (1, 2):
        for flats in itertools.product(range(alg.n_basis), repeat=k):
            assert chain_map_defect(HochschildChain.of(alg, flats), f).passed
    for k in (2, 3):
        for flats in itertools.product(range(alg.n_basis), repeat=k):
            if sum(alg.basis_degree(x) for x in flats) == k - 2:
                assert trace_defect(HochschildChain.of(alg, flats), f) == 0


def test_chain_map_property_torus(torus1, torus_morphism):
    alg = torus1.bundle.algebra
    rng = random.Random(7)
    for _ in range(15):
        k = rng.randint(1, 3)
        rep = chain_map_defect(
            HochschildChain.of(alg, random_term(rng, alg, k)),
            torus_morphism, tol=1e-8)
        assert rep.passed


def test_push_expands_each_nonzero_word_once(monkeypatch):
    """Pushing 20 seeded r11 chains twice through a fresh morphism reads a
    component's coordinates over End(M0) (``EndoAlgebra.coordinates``)
    only when it is nonzero, and each nonzero word at most once; the
    chains also read zero words."""
    inst = fresh("r11")
    f = transferred_morphism(inst.bundle, inst.splitting)
    alg = inst.bundle.algebra
    rng = random.Random(0)
    chains = [HochschildChain.of(alg, tuple(
        rng.randrange(alg.n_basis) for _ in range(rng.randint(1, 4))))
        for _ in range(20)]
    expanded, coordinates = [], EndoAlgebra.coordinates

    def counted(self, m):
        expanded.append(m)
        return coordinates(self, m)

    monkeypatch.setattr(EndoAlgebra, "coordinates", counted)
    for _ in range(2):
        for chain in chains:
            push_chain(chain, f)
    monkeypatch.undo()
    nonzero = {w for w in f.reads if f.on_basis(w).blocks}
    assert all(m.blocks for m in expanded)
    assert len(expanded) == len(nonzero) > 0
    assert len(f.reads) > len(nonzero)


def test_push_matches_rotation_sum_for_traces(t1, t1_morphism):
    """The single-slot part of the push is the signed rotation sum of the top
    component, so the transferred trace has the advertised rotation shape."""
    alg = t1.bundle.algebra
    endo = t1_morphism.target
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
            val = t1_morphism.on_basis(cur)
            if val.degree == 0:
                total += sign * val.supertrace()
            cur, s = cyclic_shift_term(alg, cur)
            sign *= s
        assert got == total
        checked += 1
        if checked >= 25:
            break
    assert checked >= 10


def _partition_writer(algebra):
    """A stand-in for the transferred morphism whose every component is
    nonzero with the one coordinate (its word, 1), so each term that the
    push-forward writes is the tuple of its partition's blocks."""
    return types.SimpleNamespace(
        bundle=types.SimpleNamespace(algebra=algebra),
        target=types.SimpleNamespace(algebra=algebra),
        coordinates=lambda word: [(word, 1)])


@pytest.mark.parametrize("k", range(7))
def test_compositions_are_every_ordered_partition_once(t1, k):
    """``_push`` walks each rotation of a k-slot term over every ordered
    partition into a given number of blocks (or into any number) whose
    leading block holds the first slot, once each, and writes them in
    lexicographic order of their block sizes, rotation by rotation.  The
    partitions are a brute-force enumeration by cut points: every subset
    of the k - 1 gaps between k units cuts them into one ordered
    partition; the oracle's ``compositions`` lists each of them once."""
    brute = set()
    for cuts in itertools.product((False, True), repeat=max(k - 1, 0)):
        parts, size = [], 1
        for cut in cuts:
            if cut:
                parts.append(size)
                size = 0
            size += 1
        brute.add(tuple(parts + [size]) if k else ())
    assert len(compositions(k)) == len(brute) and set(compositions(k)) == brute
    alg = t1.bundle.algebra
    word = tuple(range(k))
    for blocks in (None, 1, 3):
        want = []
        for r, (rot, _) in enumerate(_signed_rotations(alg, word)):
            for comp in sorted(brute):
                if comp[0] > r and blocks in (None, len(comp)):
                    ends = list(itertools.accumulate(comp))
                    want.append(tuple(rot[a:b]
                                      for a, b in zip([0] + ends, ends)))
        got = _push(HochschildChain.of(alg, word), _partition_writer(alg),
                    blocks)
        assert list(got.terms) == want, blocks


@pytest.mark.parametrize("name", names())
def test_the_walk_is_the_enumerated_push(name):
    """On seeded chains of two terms of 1 to 9 slots, mostly words of
    nonzero components of arity <= 3 laid end to end, ``push_chain`` and
    ``_push`` into 1, 3 and 5 blocks equal the push by enumeration of
    every partition (``oracles.enumerated_push``): the same terms in the
    same order, == over Q, bit for bit in floats.  Both ask for the same
    components in the same first-read order, so a quadrature morphism
    meets the same budget errors."""
    inst = instance(name)
    alg, one = inst.bundle.algebra, one_scalar(inst.mode)
    f = transferred_morphism(inst.bundle, inst.splitting)
    pieces = [w for m in (1, 2, 3)
              for w in itertools.product(range(alg.n_basis), repeat=m)
              if f.coordinates(w)]
    real = f.coordinates

    def pushed(push, chain, blocks):
        """The push and the words it read, in first-read order."""
        reads = {}

        def read(word):
            reads.setdefault(word)
            return real(word)

        f.coordinates = read
        try:
            return push(chain, f, blocks), list(reads)
        finally:
            del f.coordinates

    rng = random.Random(45)
    nonzero = dict.fromkeys((None, 1, 3, 5), 0)
    for _ in range(16):
        chain = HochschildChain.zero(alg)
        for _ in range(2):
            length, word = rng.randint(1, 9), ()
            while len(word) < length:
                word += (rng.choice(pieces) if rng.random() < 0.9
                         else (rng.randrange(alg.n_basis),))
            chain.add_term(word[:length], rng.choice([1, -2, 3]) * one)
        for blocks in nonzero:
            walk = (lambda c, g, _: push_chain(c, g)) if blocks is None \
                else _push
            got, got_reads = pushed(walk, chain, blocks)
            want, want_reads = pushed(enumerated_push, chain, blocks)
            assert list(got.terms) == list(want.terms), (chain.terms, blocks)
            assert [bits(c) for c in got.terms.values()] == [
                bits(c) for c in want.terms.values()], (chain.terms, blocks)
            assert got_reads == want_reads
            nonzero[blocks] += bool(got.terms)
    assert nonzero[None] >= 8 and nonzero[3] > 0, nonzero


def test_float_chain_map_defect_reads_tol_none_as_the_session_tolerance():
    """On random seed 7 in float, arity-3 chains leave rounding-level
    defects (8.9e-16 at most); with tol=None the check compares them to
    DEFAULT_TOL, not exactly, and passes."""
    inst = instance("r7f")
    f = transferred_morphism(inst.bundle, inst.splitting)
    alg = inst.bundle.algebra
    rounded = 0
    for flats in itertools.product(range(alg.n_basis), repeat=3):
        rep = chain_map_defect(HochschildChain.of(alg, flats), f)
        assert rep.passed and rep.max_coeff <= DEFAULT_TOL, flats
        rounded += rep.max_coeff > 0
    assert rounded > 0


@pytest.mark.parametrize("terms", [
    {(0,): 1e-12, (1,): math.nan}, {(1,): math.nan, (0,): 1e-12}],
    ids=["nan-last", "nan-first"])
def test_a_nan_coefficient_is_never_zero(terms):
    """The largest coefficient of a chain with a NaN is NaN, whatever the
    order of its terms, so the chain is not zero at any tolerance."""
    chain = HochschildChain(instance("T1f").bundle.algebra, terms)
    assert math.isnan(chain.max_coeff())
    assert not chain.is_zero(1e-10)
