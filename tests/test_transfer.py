"""The transfer engine: propagator, connection form, closed vs quadrature,
coherence relations, almost-closedness."""

import dataclasses
import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homotrace import transfer
from homotrace.dgcore import build_splitting_hodge, check_splitting
from homotrace.errors import QuadratureBudgetError, ShapeError
from homotrace.glinalg import GradedMap, bar_signs, compose, supercommutator
from homotrace.instances import (matrix_instance, random_instance,
                                 to_float_instance)
from homotrace.quadrature import integrate_interval
from homotrace.scalars import DEFAULT_TOL, EXACT, FLOAT, one_scalar
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
)
from oracles import (basis_slot, by_source, dense, fresh, inner_product,
                     instance, names, termwise_defect, unit_vector, value,
                     zero_vec)


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
    assert even.equals(s.pi0.to_float() + s.pi1.to_float().scale(complex(w)),
                       1e-14)
    assert odd.equals(s.kappa.to_float().scale(complex(-w)), 1e-14)
    t1f = instance("T1f")
    evenf, oddf = propagator(t, t1f.splitting)
    # the Hodge Laplacian of T1 is the identity on the acyclic part
    assert evenf.equals(even, 1e-12)
    assert oddf.equals(compose(evenf, t1f.splitting.kappa.to_float()).scale(
        complex(-1)), 1e-12)


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
@given(name=st.sampled_from(names(FLOAT)),
       seed=st.integers(0, 2 ** 16),
       t=st.floats(0.05, 4.0))
def test_heat_kernel_with_random_inner_product(name, seed, t):
    """P(0) = id, P(inf) = pi0 and P(t) = exp(-t {Q, kappa}) for Hodge
    splittings of seeded random inner products; the reference exponentiates
    {Q, kappa} itself, not the stored spectrum."""
    inst = instance(name)
    space, q = inst.bundle.space, inst.bundle.q
    s = build_splitting_hodge(space, q, inner_product(space, seed))
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
    t1f = instance("T1f")
    space = t1f.bundle.space
    s = build_splitting_hodge(space, t1f.bundle.q, inner_product(space, 0))
    closed = transfer_closed([8, 2], s, t1f.bundle)
    assert closed.max_abs() > 1e-3
    quad, _ = transfer_quadrature([8, 2], s, t1f.bundle, budget=20000)
    assert (quad - closed).max_abs() <= 1e-8 * closed.max_abs()


def test_transfer_closed_arity_one(t1, t1_morphism):
    alg = t1.bundle.algebra
    unit_slot = Slot(0, unit_vector(alg))
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
    unit_slot = Slot(0, unit_vector(alg))
    for k in (2, 3):
        val = transfer_closed([unit_slot] * k, t1.splitting, t1.bundle)
        assert val.is_zero()


def _sign(degrees):
    """The top-coefficient sign eps of the ``transfer`` docstring,
    (-1)^(k-1) (-1)^(sum_(j>=2) (j-1) deg a_j), with a_1 first."""
    return (-1) ** (len(degrees) - 1 + sum(
        j * d for j, d in enumerate(degrees)))


def _same(got, want):
    """Equal degree and blocks, every entry == (exact, or float bits)."""
    return (got.degree == want.degree
            and [d for d, _ in got.blocks] == [d for d, _ in want.blocks]
            and all(np.array_equal(x, y) for (_, x), (_, y)
                    in zip(got.blocks, want.blocks)))


def _bit_for_bit(got, want):
    """``_same``, with every block of ``got`` read-only and each float
    block of the same bytes as its match, so the sign of a zero counts."""
    return _same(got, want) and all(
        not x.flags.writeable
        and (x.dtype == object or x.tobytes() == y.tobytes())
        for (_, x), (_, y) in zip(got.blocks, want.blocks))


@pytest.mark.parametrize("name", ["T1", "r11", "T1f", "r7f"])
def test_transfer_closed_is_eps_times_a_fresh_component(name):
    """On every basis word of arity <= 3, and on each with one element
    replaced by the two-term Slot 2 b - 3 b' (b' the next basis element of
    b's degree), ``transfer_closed`` equals eps times the components of a
    fresh ``transferred_morphism`` on the reversed words: exactly over Q,
    entry for entry in floats, although its calls share one stored
    morphism.  On a basis word its blocks are read-only, and in floats
    they have the bytes of eps times the component, signed zeros too."""
    inst = instance(name)
    s, b = inst.splitting, inst.bundle
    alg, f, one = b.algebra, transferred_morphism(b, s), one_scalar(b.mode)
    n, deg = alg.n_basis, alg.basis_degree
    partner = {x: y for x, y in zip(range(n), range(1, n))
               if deg(x) == deg(y)}
    slots = 0
    for k in (1, 2, 3):
        for word in itertools.product(range(n), repeat=k):
            eps = one * _sign([deg(x) for x in word])
            want = f.on_basis(word[::-1]).scale(eps)
            assert _bit_for_bit(transfer_closed(list(word), s, b),
                                want), word
            i = next((i for i, x in enumerate(word) if x in partner), None)
            if i is not None:
                v = zero_vec(alg)
                v[word[i]], v[partner[word[i]]] = 2 * one, -3 * one
                other = word[:i] + (partner[word[i]],) + word[i + 1:]
                want = want.scale(2 * one) + f.on_basis(
                    other[::-1]).scale(eps * -3 * one)
                inputs = list(word[:i]) + [Slot(deg(word[i]), v)] + list(
                    word[i + 1:])
                assert _same(transfer_closed(inputs, s, b), want), inputs
                slots += 1
    assert slots


def test_transfer_closed_interleaved_pairs_match_fresh_values(t1):
    """Seeded calls alternating over T1, r11 and a copy of T1's bundle with
    rho doubled (same splitting, another bundle) return what a fresh
    morphism per pair gives: the copy gets its own values, 2^k times
    T1's."""
    r11 = instance("r11")
    doubled = dataclasses.replace(t1.bundle, rho=tuple(
        r.scale(Fraction(2)) for r in t1.bundle.rho))
    pairs = [(t1.bundle, t1.splitting), (r11.bundle, r11.splitting),
             (doubled, t1.splitting)]
    fresh = [transferred_morphism(b, s) for b, s in pairs]
    rng = random.Random(0)
    for _ in range(400):
        i = rng.randrange(len(pairs))
        b, s = pairs[i]
        word = [rng.randrange(b.algebra.n_basis)
                for _ in range(rng.randint(1, 3))]
        want = fresh[i].on_basis(tuple(word[::-1])).scale(
            Fraction(_sign([b.algebra.basis_degree(x) for x in word])))
        assert _same(transfer_closed(word, s, b), want), (i, word)
    a1 = t1.bundle.algebra.flat_by_name("E[f<-e2]")
    a2 = t1.bundle.algebra.flat_by_name("E[e2<-e1]")
    plain = transfer_closed([a1, a2], t1.splitting, t1.bundle)
    assert not plain.is_zero()
    assert transfer_closed([a1, a2], t1.splitting, doubled).equals(
        plain.scale(Fraction(4)))


def test_transfer_closed_keeps_one_pair(t1):
    """The store holds the last pair it was given and no other: a bundle
    no caller holds stays alive until a call on a second pair, then is
    freed."""
    inst = fresh("T1")
    ref = weakref.ref(inst.bundle)
    transfer_closed([2, 7], inst.splitting, inst.bundle)
    del inst
    gc.collect()
    assert ref() is not None
    transfer_closed([2, 7], t1.splitting, t1.bundle)
    gc.collect()
    assert ref() is None


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


def test_on_basis_is_chain_order_component(t1):
    """f_m(b_1, ..., b_m) = p rho(b_1) h ... h rho(b_m) i, with no sign, on
    every basis tuple of arity 1-3, against the plain left fold of that
    word.  Longest tuples come first, so the stored prefixes, steps and
    tails are both filled by longer words and read by shorter ones.  The
    registry's exact instances and two more random ones compare exactly;
    T1f, r7f and T1f under a seeded Hodge splitting at the session
    tolerance."""
    t1f, r7f = instance("T1f"), instance("r7f")
    space = t1f.bundle.space
    hodge = build_splitting_hodge(space, t1f.bundle.q,
                                  inner_product(space, 0))
    exact = [*map(instance, names(EXACT)),
             random_instance(3, {0: 2, 1: 1, 2: 1}),
             random_instance(9, {0: 2, 1: 2})]
    for inst, s, tol in [*((x, x.splitting, None) for x in exact),
                         (t1f, t1f.splitting, DEFAULT_TOL),
                         (r7f, r7f.splitting, DEFAULT_TOL),
                         (t1f, hodge, DEFAULT_TOL)]:
        f = transferred_morphism(inst.bundle, s)
        rho = inst.bundle.rho
        for k in (3, 2, 1):
            for flats in itertools.product(range(inst.bundle.algebra.n_basis),
                                           repeat=k):
                expect = compose(s.project, rho[flats[0]])
                for b in flats[1:]:
                    expect = compose(compose(expect, s.homotopy), rho[b])
                assert f.on_basis(flats).equals(compose(expect, s.include),
                                                tol), flats


def test_on_basis_miss_with_stored_prefix_is_one_compose(monkeypatch):
    """Once the prefix b_1 b_2 is stored (by evaluating b_1 b_2 b_0) and
    the tail h rho(b_3) i is (by any pair ending in b_3), a miss on
    b_1 b_2 b_3 costs one compose when the prefix is nonzero and none when
    it is zero, and a hit none."""
    inst = fresh("r11")
    f = transferred_morphism(inst.bundle, inst.splitting)
    n = inst.bundle.algebra.n_basis
    for pair in itertools.product(range(n), repeat=2):
        f.on_basis(pair)
        f.on_basis(pair + (0,))
    calls, seen = [], set()

    def counting(*args):
        calls.append(args)
        return compose(*args)

    monkeypatch.setattr(transfer, "compose", counting)
    for flats in itertools.product(range(n), range(n), range(1, n)):
        want = 1 if f._word(flats[:2]).blocks else 0
        seen.add(want)
        f.on_basis(flats)
        assert len(calls) == want, flats
        f.on_basis(flats)
        assert len(calls) == want, flats
        calls.clear()
    assert seen == {0, 1}


def test_a_long_word_fits_the_stack(t1):
    """On T1, a 1 200-slot word whose prefixes stay nonzero, of degree
    1 199 so that its supertrace is defined, is evaluated without a
    recursion per slot: ``on_basis`` and ``supertrace`` return, every
    prefix is stored, and each stored prefix is the one before it times
    h rho(b), as one compose."""
    f = transferred_morphism(t1.bundle, t1.splitting)
    a, s = t1.bundle.algebra, t1.splitting
    e21, f1 = a.flat_by_name("E[e2<-e1]"), a.flat_by_name("E[f<-e1]")
    word = (e21,) + (f1,) * 1199
    assert f.on_basis(word).degree == 0
    assert f.supertrace(word) == 0
    assert all(word[:k] in f._words for k in range(1, len(word)))
    step = compose(s.homotopy, t1.bundle.rho[word[-1]])
    for k in (2, 600, 1199):
        assert f._words[word[:k]].blocks
        assert f._words[word[:k]].equals(compose(f._words[word[:k - 1]],
                                                 step))


def test_zero_words_and_components_share_one_map_per_degree():
    """Every zero word and component, whether a zero prefix word makes it
    zero without a compose or its compose cancels, is per degree one map
    for the words (on the module) and one for the components (on M0)."""
    inst = instance("r11")
    f = transferred_morphism(inst.bundle, inst.splitting)
    n = inst.bundle.algebra.n_basis
    words = [w for k in (1, 2, 3)
             for w in itertools.product(range(n), repeat=k)]
    comps = {w: f.on_basis(w) for w in words}
    for maps, space in ((comps, inst.splitting.m0),
                        (f._words, inst.bundle.space)):
        zeros = [m for m in maps.values() if not m.blocks]
        assert any(f._word(w[:-1]).blocks for w, m in maps.items()
                   if len(w) > 1 and not m.blocks)
        assert zeros and len({id(m) for m in zeros}) == len(
            {m.degree for m in zeros})
        assert all(not m.blocks and m.source.dims == space.dims
                   for m in zeros)


def test_ainfinity_defect_composes_no_cut_with_a_zero_side(monkeypatch):
    """On 200 seeded r11 words of arity 2-4, once the components are
    stored, the only composes of ``ainfinity_defect`` are its cuts f(b_1
    .. b_i) f(b_(i+1) .. b_m) with two nonzero sides: one per such cut,
    and none for the cuts with a zero side, which the words include."""
    inst = fresh("r11")
    f = transferred_morphism(inst.bundle, inst.splitting)
    n = inst.bundle.algebra.n_basis
    rng = random.Random(0)
    words = [tuple(rng.randrange(n) for _ in range(rng.randint(2, 4)))
             for _ in range(200)]
    for word in words:
        assert ainfinity_defect(f, word).is_zero()
    calls = []

    def counting(*args):
        calls.append(args)
        return compose(*args)

    monkeypatch.setattr(transfer, "compose", counting)
    for word in words:
        assert ainfinity_defect(f, word).is_zero()
    monkeypatch.undo()
    sides = [(f.on_basis(w[:i]).blocks, f.on_basis(w[i:]).blocks)
             for w in words for i in range(1, len(w))]
    assert all(a.blocks and b.blocks for a, b in calls)
    assert len(calls) == sum(1 for left, right in sides if left and right)
    assert any(not (left and right) for left, right in sides)


def test_transferred_morphism_rejects_methods_it_cannot_evaluate(t1):
    """An unknown method, or quadrature on an exact bundle, is refused
    instead of falling back to the closed form."""
    t1f = instance("T1f")
    for inst, method in [(t1f, "bogus"), (t1, "bogus"), (t1, "quadrature")]:
        with pytest.raises(ShapeError):
            transferred_morphism(inst.bundle, inst.splitting, method=method)


def test_quadrature_morphism_matches_closed_on_basis():
    """The morphism's quadrature method agrees with its closed form to
    relative 1e-8 on every basis tuple of arity 2-3 of T1f whose closed
    value exceeds 1e-6, in chain order and without a sign."""
    t1f = instance("T1f")
    closed = transferred_morphism(t1f.bundle, t1f.splitting)
    quad = transferred_morphism(t1f.bundle, t1f.splitting,
                                method="quadrature", rel_tol=1e-9)
    checked = 0
    for k in (2, 3):
        for flats in itertools.product(range(t1f.bundle.algebra.n_basis),
                                       repeat=k):
            want = closed.on_basis(flats)
            if want.max_abs() <= 1e-6:
                continue
            got = quad.on_basis(flats)
            assert (got - want).max_abs() <= 1e-8 * want.max_abs(), flats
            checked += 1
    assert checked == 2
    assert quad.error_of(quad.reads) <= 1e-8


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


def _bits(m):
    """Degree and blocks of a map, float blocks as their bytes."""
    return m.degree, [(d, x.tolist() if x.dtype == object else x.tobytes())
                      for d, x in m.blocks]


@pytest.mark.parametrize("name", ["T1", "r11", "T1f", "r7f"])
def test_ainfinity_defect_is_the_termwise_sum(name):
    """With one nonzero arity-2 component flipped, so that defects are not
    zero, the blockwise sum equals the termwise one (one map per term,
    ``oracles.termwise_defect``) on every word of arity <= 3: == over Q,
    the same bits in floats."""
    inst = instance(name)
    f = transferred_morphism(inst.bundle, inst.splitting)
    n = inst.bundle.algebra.n_basis
    flipped = next(p for p in itertools.product(range(n), repeat=2)
                   if not f.on_basis(p).is_zero())
    f._cache[flipped] = f.on_basis(flipped).scale(-one_scalar(f.bundle.mode))
    nonzero = 0
    for k in (1, 2, 3):
        for word in itertools.product(range(n), repeat=k):
            got = ainfinity_defect(f, list(word))
            assert _bits(got) == _bits(termwise_defect(f, word)), word
            nonzero += bool(got.blocks)
    assert nonzero


def _slot_formula_defect(f, word):
    """Reference: the bar relation by slot arithmetic, with d b_i and
    b_i b_(i+1) as dense vectors over the flat basis, expanded again by
    ``oracles.value``."""
    alg = f.bundle.algebra
    mul, d = alg.mul, dense(alg.differential)     # column k: d(e_k)
    slots = [basis_slot(f.bundle, b) for b in word]
    signs = bar_signs([s.degree for s in slots])
    total = GradedMap.zero(f.m0, f.m0,
                           sum(s.degree for s in slots) + 2 - len(word),
                           alg.mode)
    for i, (sigma, _) in enumerate(signs):
        diff = Slot(slots[i].degree + 1, d[:, word[i]])
        total = total + value(
            f, slots[:i] + [diff] + slots[i + 1:]).scale(sigma)
    for i, (_, cut) in enumerate(signs[:-1]):
        merged = Slot(slots[i].degree + slots[i + 1].degree,
                      mul[word[i], word[i + 1]])
        term = value(f, slots[:i] + [merged] + slots[i + 2:]) - compose(
            value(f, slots[:i + 1]), value(f, slots[i + 1:]))
        total = total + term.scale(cut)
    return total


@pytest.mark.parametrize("name", ["T1", "r11"])
def test_ainfinity_defect_matches_slot_formula(name):
    """With one nonzero arity-2 component flipped, so that the defect is
    not zero, the bar-term defect equals the slot-arithmetic reference on
    every basis word of length <= 3, exactly.  r11 has cohomology in odd
    degree.  A ``Slot`` input is refused."""
    inst = instance(name)
    assert name == "T1" or any(d % 2 and n
                               for d, n in inst.splitting.m0.dims)
    f = transferred_morphism(inst.bundle, inst.splitting)
    n = inst.bundle.algebra.n_basis
    flipped = next(p for p in itertools.product(range(n), repeat=2)
                   if not f.on_basis(p).is_zero())
    f._cache[flipped] = f.on_basis(flipped).scale(Fraction(-1))
    nonzero = 0
    for k in (1, 2, 3):
        for word in itertools.product(range(n), repeat=k):
            got = ainfinity_defect(f, word)
            assert got.equals(_slot_formula_defect(f, word)), word
            nonzero += not got.is_zero()
    assert nonzero > 0
    with pytest.raises(ShapeError):
        ainfinity_defect(f, [basis_slot(inst.bundle, 0)])


def test_arity_one_defect_is_projected_chain_defect(t1, t1_morphism):
    """k = 1 reduces to pi0 {Q, rho(a)} pi0 = 0."""
    n = t1.bundle.algebra.n_basis
    for k in range(n):
        assert ainfinity_defect(t1_morphism, [k]).is_zero()


def test_quadrature_matches_closed_form_t1_float():
    t1f = instance("T1f")
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


@pytest.mark.parametrize("name, seed, arities, count", [
    ("T1f", None, (2, 3), 2),
    ("r7f", None, (2, 3, 4), 56),
    ("T1f", 0, (2, 3), 12),
    ("T1f", 1, (2, 3), 12),
], ids=["T1f", "r7f", "T1f-inner-0", "T1f-inner-1"])
def test_quadrature_matches_closed_form_on_every_nonzero_tuple(
        name, seed, arities, count):
    """Quadrature agrees with the closed form to relative 1e-8 on every
    basis tuple whose closed form exceeds 1e-6, for the instance's own
    splitting or the Hodge splitting of a seeded inner product."""
    inst = instance(name)
    s = _splitting(inst, seed)
    n = inst.bundle.algebra.n_basis
    checked = 0
    for k in arities:
        for tup in itertools.product(range(n), repeat=k):
            closed = transfer_closed(list(tup), s, inst.bundle)
            if closed.max_abs() <= 1e-6:
                continue
            quad, _ = transfer_quadrature(list(tup), s, inst.bundle,
                                          rel_tol=1e-9)
            assert (quad - closed).max_abs() <= 1e-8 * closed.max_abs(), tup
            checked += 1
    assert checked == count


def test_quadrature_converges_on_t1_arity_four():
    """T1f's spectrum {0, 1} makes every heat weight a polynomial in the
    spectral chart, so (8, 7, 7, 3) converges within the default budget."""
    t1f = instance("T1f")
    quad, _ = transfer_quadrature([8, 7, 7, 3], t1f.splitting, t1f.bundle,
                                  rel_tol=1e-9)
    closed = transfer_closed([8, 7, 7, 3], t1f.splitting, t1f.bundle)
    assert closed.max_abs() > 1e-6
    assert (quad - closed).max_abs() <= 1e-8 * closed.max_abs()


def _splitting(inst, seed):
    """The instance's own splitting, or the Hodge splitting of the seeded
    inner product."""
    if seed is None:
        return inst.splitting
    space = inst.bundle.space
    return build_splitting_hodge(space, inst.bundle.q,
                                 inner_product(space, seed))


def _nonzero_words(f, n, k):
    """The basis words of length k whose component exceeds 1e-6, grown
    from nonzero prefixes p rho(b_1) h ... rho(b_j), since every extension
    of a zero prefix is zero."""
    words = [()]
    for _ in range(k - 1):
        words = [w + (b,) for w in words for b in range(n)
                 if f._word(w + (b,)).max_abs() > 0]
    return [w + (b,) for w in words for b in range(n)
            if f.on_basis(w + (b,)).max_abs() > 1e-6]


@pytest.mark.parametrize("name", names("copy"), ids=by_source)
@pytest.mark.parametrize("seed", [None, 0])
def test_quadrature_matches_closed_form_at_arity_five(name, seed):
    """Arity 5 agrees with the closed form to relative 1e-8 on seeded
    samples of the basis words whose closed form exceeds 1e-6."""
    inst = instance(name)
    s = _splitting(inst, seed)
    nonzero = _nonzero_words(transferred_morphism(inst.bundle, s),
                             inst.bundle.algebra.n_basis, 5)
    assert nonzero
    for word in random.Random(0).sample(nonzero, min(3, len(nonzero))):
        tup = list(word[::-1])
        closed = transfer_closed(tup, s, inst.bundle)
        quad, _ = transfer_quadrature(tup, s, inst.bundle, rel_tol=1e-9)
        assert (quad - closed).max_abs() <= 1e-8 * closed.max_abs(), tup


@pytest.mark.parametrize("name", names("copy"), ids=by_source)
@pytest.mark.parametrize("seed", [None, 0, 1])
def test_quadrature_matches_closed_form_at_arities_six_to_eight(name, seed):
    """The gap integral factors into one integral per gap, so quadrature
    has no arity cap: arities 6, 7 and 8 agree with the closed form to
    relative 1e-8 on seeded samples of the nonzero basis words."""
    inst = instance(name)
    s = _splitting(inst, seed)
    f = transferred_morphism(inst.bundle, s)
    rng = random.Random(0)
    for k in (6, 7, 8):
        nonzero = _nonzero_words(f, inst.bundle.algebra.n_basis, k)
        assert nonzero
        for word in rng.sample(nonzero, min(3, len(nonzero))):
            tup = list(word[::-1])
            closed = transfer_closed(tup, s, inst.bundle)
            quad, _ = transfer_quadrature(tup, s, inst.bundle, rel_tol=1e-9)
            assert (quad - closed).max_abs() <= 1e-8 * closed.max_abs(), tup


@pytest.mark.parametrize("name", names("copy"), ids=by_source)
def test_factored_quadrature_is_the_gap_cube_integral(name):
    """The Fubini oracle.  A fixed tensor Gauss rule over the gap cube, in
    the chart t = -ln(1-sigma)/mu, integrates the top (all dt) component
    of the operator form, read at each node through the propagator; on
    T1f and r7f every lam/mu is 0 or 1, so the weights are constant and
    the rule is exact.  p (integral) i equals the factored quadrature on
    every nonzero basis tuple of arity 2-3."""
    inst = instance(name)
    s, n = inst.splitting, inst.bundle.algebra.n_basis
    x, w = np.polynomial.legendre.leggauss(4)
    x, w = (x + 1.0) / 2.0, w / 2.0
    checked = 0
    for k in (2, 3):
        for tup in itertools.product(range(n), repeat=k):
            if transfer_closed(list(tup), s, inst.bundle).max_abs() <= 1e-6:
                continue
            cube = GradedMap.zero(s.m0, s.m0, 0, FLOAT)
            for node in itertools.product(range(len(x)), repeat=k - 1):
                sigma = x[list(node)]
                t = tuple((-np.log1p(-sigma) / s.lambda1).tolist())
                jacobian = np.prod(w[list(node)] / (s.lambda1 * (1 - sigma)))
                top = operator_form(list(tup), ConfigurationPoint(t), s,
                                    inst.bundle).component(range(k - 1))
                cube = cube + compose(compose(s.project.to_float(), top),
                                      s.include.to_float()).scale(jacobian)
            quad, _ = transfer_quadrature(list(tup), s, inst.bundle)
            assert (cube - quad).max_abs() <= 1e-12 * quad.max_abs(), tup
            checked += 1
    assert checked == {"T1f": 2, "r7f": 24}[name]


@pytest.mark.parametrize("seed", [0, 1])
def test_quadrature_error_bounds_the_distance_on_torus(seed):
    """torus N=1 under a seeded inner product has lam/mu = 1.099, 1.616,
    ..., so its heat weights are not polynomials and G carries a positive
    error.  On every arity-2 basis tuple whose closed form exceeds 1e-6
    the reported estimate is positive and bounds the distance to the
    closed form, through ``transfer_quadrature`` and through the
    morphism's ``error_of``."""
    torus = instance("torus1")
    s = _splitting(torus, seed)
    closed = transferred_morphism(torus.bundle, s)
    quad = transferred_morphism(torus.bundle, s, method="quadrature")
    n = torus.bundle.algebra.n_basis
    checked = 0
    for tup in itertools.product(range(n), repeat=2):
        want = transfer_closed(list(tup), s, torus.bundle)
        if want.max_abs() <= 1e-6:
            continue
        got, est = transfer_quadrature(list(tup), s, torus.bundle)
        assert 0 < est and (got - want).max_abs() <= est, tup
        quad.reads.clear()
        distance = (quad.on_basis(tup) - closed.on_basis(tup)).max_abs()
        assert 0 < quad.error_of(quad.reads)
        assert distance <= quad.error_of(quad.reads), tup
        checked += 1
    assert checked == 25


def test_quadrature_without_positive_eigenvalue_is_zero():
    """With Q = 0 no eigenvalue is positive and R kappa is zero: the
    chart scale falls back to 1 and the component is the zero map, with
    no division by zero."""
    inst = to_float_instance(matrix_instance({0: 2, 1: 1}))
    assert inst.splitting.lambda1 is None
    with np.errstate(divide="raise", invalid="raise"):
        quad, est = transfer_quadrature([0, 1], inst.splitting, inst.bundle)
    assert quad.is_zero() and est == 0.0


def test_quadrature_arity_one_exact():
    t1f = instance("T1f")
    val, est = transfer_quadrature([3], t1f.splitting, t1f.bundle)
    assert est == 0.0
    closed = transfer_closed([3], t1f.splitting, t1f.bundle)
    assert val.equals(closed, 1e-14)


def test_quadrature_budget_error_carries_best_estimate():
    """torus N=1 under a seeded inner product has eigenvalues 4.4 to 72,
    whose ratios are not integers, so its weights are not polynomials and
    a 60-evaluation budget runs out."""
    torus = instance("torus1")
    s = _splitting(torus, 0)
    tup = [1, 1]
    with pytest.raises(QuadratureBudgetError) as info:
        transfer_quadrature(tup, s, torus.bundle, rel_tol=1e-14, order=4,
                            budget=60)
    assert isinstance(info.value.best, GradedMap)
    assert info.value.estimate is not None
    closed = transfer_closed(tup, s, torus.bundle)
    assert (info.value.best - closed).max_abs() <= 1e-3


def _has_zero_factor(s, bundle, word):
    """Whether a factor of the gap-cube product of the word stores no
    block: A_0 = (R kappa) rho(a_1) i, A_j = (R kappa) rho(a_(j+1)) L and
    A_(k-1) = p rho(a_k) L, on the splitting's float copy."""
    s = s.float_copy
    space = s.kappa.source
    ell = GradedMap.build(space, space, 0, {
        d: x for d, (x, _, _) in s.spectrum.items()}, FLOAT)
    rhos = [bundle.rho[b].to_float() for b in word]
    factors = ([compose(compose(s.r_kappa, rhos[0]), s.include)]
               + [compose(compose(s.r_kappa, r), ell) for r in rhos[1:-1]]
               + [compose(compose(s.project, rhos[-1]), ell)])
    return any(not a.blocks for a in factors)


@pytest.mark.parametrize("name", names(FLOAT), ids=by_source)
def test_quadrature_skips_the_gap_integral_when_a_factor_is_zero(
        name, monkeypatch):
    """On every word of arity 2-3 with a zero factor the component is what
    the integrated product gives, the zero map on M0 of degree sum deg + 1
    - k with estimate 0.0 (its norm bound is 0), and ``integrate_interval``
    is never called; every other word integrates G once."""
    inst = instance(name)
    s, b = inst.splitting, inst.bundle
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return integrate_interval(*args, **kwargs)

    monkeypatch.setattr(transfer, "integrate_interval", counted)
    n, deg = b.algebra.n_basis, b.algebra.basis_degree
    zero = other = 0
    for k in (2, 3):
        for word in itertools.product(range(n), repeat=k):
            before = len(calls)
            got, est = transfer_quadrature(list(word), s, b)
            if not _has_zero_factor(s, b, word):
                assert len(calls) == before + 1, word
                other += 1
                continue
            assert len(calls) == before and est == 0.0, word
            assert not got.blocks and got.mode == FLOAT
            assert got.degree == sum(deg(x) for x in word) + 1 - k
            assert got.source.dims == got.target.dims == s.m0.dims
            zero += 1
    assert zero and (other or name == "torus1")


@pytest.mark.parametrize("kwargs, error, text", [
    ({"order": 1}, ShapeError, "quadrature order 1 is below 2"),
    ({"budget": 10}, QuadratureBudgetError,
     "evaluation budget 10 is below one cell (24 evaluations)"),
], ids=["order-1", "budget-below-one-cell"])
def test_zero_factor_component_keeps_the_rule_checks(kwargs, error, text):
    """A word with a zero factor still raises what ``integrate_interval``
    raises before its first evaluation, with the same text, and a budget
    error carries no best value."""
    inst = instance("torus1")
    s, b = inst.splitting, inst.bundle
    assert _has_zero_factor(s, b, (1, 1))
    with pytest.raises(error) as direct:
        integrate_interval(lambda x: x[:, None], rel_tol=1e-9, **kwargs)
    with pytest.raises(error) as got:
        transfer_quadrature([1, 1], s, b, **kwargs)
    assert str(got.value) == str(direct.value) == text
    if error is QuadratureBudgetError:
        assert got.value.best is None and got.value.estimate is None


def test_zero_factor_component_needs_no_convergent_gap_integral():
    """Under a seeded inner product on r7f, G does not reach rel_tol 0
    within one cell, so a word without a zero factor raises a budget
    error; a word with one is exactly zero, estimate 0.0, under the same
    settings."""
    inst = instance("r7f")
    s, b = _splitting(inst, 1), inst.bundle
    settings = {"rel_tol": 0.0, "budget": 24}
    assert not _has_zero_factor(s, b, (1, 0))
    with pytest.raises(QuadratureBudgetError, match="budget 24 exhausted"):
        transfer_quadrature([1, 0], s, b, **settings)
    assert _has_zero_factor(s, b, (0, 0))
    got, est = transfer_quadrature([0, 0], s, b, **settings)
    assert not got.blocks and est == 0.0


def test_almost_closed_second_order_rate():
    t1f = instance("T1f")
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
                       alg.mul[a2, a1])
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
    t1f = instance("T1f")
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
    t1f = instance("T1f")
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
                           alg.mul[tup[1], tup[0]])
        mform = operator_form([merged_slot, tup[2]], ConfigurationPoint((t2,)),
                              t1f.splitting, t1f.bundle)
        diffs.append((form.component({1}) - mform.component({0})).max_abs())
    assert diffs[1] <= 1e-3
    assert 5 <= diffs[0] / max(diffs[1], 1e-300) <= 20


def test_boundary_strata_arity_three_split():
    """At t2 -> inf the dt1-coefficient factorizes through the projection."""
    t1f = instance("T1f")
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
    v = zero_vec(alg)
    v[2] = Fraction(2)
    v[3] = Fraction(-1)
    combo = Slot(0, v)
    lhs = value(t1_morphism, [combo, basis_slot(t1.bundle, 7)])
    rhs = t1_morphism.on_basis((2, 7)).scale(Fraction(2)) - \
        t1_morphism.on_basis((3, 7))
    assert lhs.equals(rhs)


@pytest.mark.parametrize(
    "degree, flats", [(0, (2, 7)), (1, (2,)), (0, (7,))],
    ids=["mixed", "declared-1-terms-0", "declared-0-terms-1"])
def test_every_input_path_refuses_the_same_bad_slot(degree, flats):
    """A Slot mixing degrees, or one whose terms are off its declared
    degree (which would give a wrong sign eps), raises one ShapeError from
    every transfer input path alike."""
    inst = instance("T1f")
    s, b = inst.splitting, inst.bundle
    v = zero_vec(b.algebra)
    v[list(flats)] = 1.0
    bad = Slot(degree, v)
    calls = [
        lambda: transfer_closed([bad], s, b),
        lambda: transfer_quadrature([bad, 3], s, b),
        lambda: operator_form([bad], ConfigurationPoint(()), s, b),
        lambda: value(transferred_morphism(b, s), [3, bad]),
        lambda: almost_closed_check([3, bad], ConfigurationPoint((0.5,)), s,
                                    b, 1e-3),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(ShapeError) as exc:
            call()
        messages.add(str(exc.value))
    assert messages == {"rho of a non-homogeneous element, or of one off "
                        "its declared degree"}


def test_inputs_are_basis_indices_or_slots(t1):
    """An index outside the basis, any other object and no input at all
    are refused before any work."""
    for inputs in ([t1.bundle.algebra.n_basis], [-1], ["e1"], [2.0], []):
        with pytest.raises(ShapeError):
            transfer_closed(inputs, t1.splitting, t1.bundle)


def test_zero_components_are_the_stored_zero_for_either_sign():
    """Every arity-3 word of T1f with a zero component gives that stored
    component itself, for eps = 1 and eps = -1 alike: a map with no blocks
    and the component's degree."""
    inst = fresh("T1f")
    b, s = inst.bundle, inst.splitting
    alg = b.algebra
    signs = set()
    for word in itertools.product(range(alg.n_basis), repeat=3):
        got = transfer_closed(list(word), s, b)
        stored = transfer._closed.on_basis(word[::-1])
        if stored.blocks:
            continue
        degrees = [alg.basis_degree(k) for k in word]
        signs.add(transfer._epsilon(degrees))
        assert got is stored
        assert not got.blocks and got.degree == sum(degrees) + 1 - 3
    assert signs == {1, -1}


def _alike(got, want):
    """``_same``, with blocks of one dtype, each exact entry of the type of
    its match and each float block of the same bytes, so the sign of a
    zero counts."""
    return _same(got, want) and all(
        x.dtype == y.dtype and (
            [type(e) for e in x.flat] == [type(e) for e in y.flat]
            if x.dtype == object else x.tobytes() == y.tobytes())
        for (_, x), (_, y) in zip(got.blocks, want.blocks))


@pytest.mark.parametrize("name", names())
def test_a_basis_word_is_its_one_hot_slot_word(name):
    """On every word of arity <= 3, ``transfer_closed`` of the basis
    indices equals ``transfer_closed`` of the word with each index given as
    a one-hot Slot: entries == and of the same type over Q, the same bytes
    in floats.  Where eps = 1 it is the stored component itself.  Both
    signs occur, and some component is nonzero (on T1f for either
    sign)."""
    inst = fresh(name)
    s, b = inst.splitting, inst.bundle
    alg, one = b.algebra, one_scalar(b.mode)
    slots = []
    for k in range(alg.n_basis):
        v = zero_vec(alg)
        v[k] = one
        slots.append(Slot(alg.basis_degree(k), v))
    signs = set()
    for k in (1, 2, 3):
        for word in itertools.product(range(alg.n_basis), repeat=k):
            got = transfer_closed(list(word), s, b)
            want = transfer_closed([slots[x] for x in word], s, b)
            assert _alike(got, want), word
            eps = transfer._epsilon([alg.basis_degree(x) for x in word])
            if eps == 1:
                assert got is transfer._closed.on_basis(word[::-1]), word
            signs.add((eps, bool(got.blocks)))
    assert {e for e, _ in signs} == {1, -1} and any(nz for _, nz in signs)


def test_a_basis_word_reads_no_element_list(monkeypatch):
    """A word of basis indices, as ints, bools or numpy integers and in
    any iterable, is read off the store: neither ``_elements`` nor
    ``_combination`` is called."""
    inst = instance("r7f")
    s, b = inst.splitting, inst.bundle
    want = [transfer_closed(w, s, b) for w in ([2, 5], [1], [5, 2, 6])]

    def refused(*args):
        raise AssertionError("a basis word was read as elements")

    monkeypatch.setattr(transfer, "_elements", refused)
    monkeypatch.setattr(transfer.AInfinityMorphism, "_combination", refused)
    for words in ([[2, 5], [1], [5, 2, 6]],
                  [(np.int64(2), 5), [True], np.array([5, 2, 6])],
                  [iter([2, 5]), (x for x in [1]), [5, 2, np.int32(6)]]):
        for w, m in zip(words, want):
            assert _same(transfer_closed(w, s, b), m)


@pytest.mark.parametrize("inputs, message", [
    ([], "transfer needs at least one input"),
    ([-1], "cannot interpret -1 as an algebra element"),
    ([3, 9], "cannot interpret 9 as an algebra element"),
    ([np.int64(9)], f"cannot interpret {np.int64(9)!r} as an algebra "
                    "element"),
    ([2, 2.0], "cannot interpret 2.0 as an algebra element"),
], ids=["empty", "negative", "out-of-range", "int64-out-of-range", "float"])
def test_a_word_that_is_no_basis_word_raises_as_before(t1, inputs, message):
    """Inputs that are neither basis indices nor Slots raise the one
    ShapeError ``_elements`` raises, whichever path reads the rest."""
    with pytest.raises(ShapeError) as exc:
        transfer_closed(inputs, t1.splitting, t1.bundle)
    assert str(exc.value) == message


@pytest.mark.parametrize("name", names(EXACT, without=("heavy", "gaussian")))
def test_cancelling_defect_terms_form_no_fraction(monkeypatch, name):
    """On a valid instance over Q every A-infinity defect is zero, and the
    one ``combination`` that sums its terms forms, multiplies and adds no
    Fraction: the terms cancel in integer arithmetic on their rows."""
    inst = fresh(name)
    f = transferred_morphism(inst.bundle, inst.splitting)
    n, rng = inst.bundle.algebra.n_basis, random.Random(4)
    words = [tuple(rng.randrange(n) for _ in range(k))
             for k in (1, 2, 3) for _ in range(40)]
    for w in words:                      # fill the store before counting
        assert not ainfinity_defect(f, w).blocks
    calls, counting = [0], [False]

    def counted(name):
        raw = getattr(Fraction, name)

        def fn(*args, **kwargs):
            calls[0] += counting[0]
            return raw(*args, **kwargs)
        return fn

    def combination(*args):
        counting[0] = True
        try:
            return raw_combination(*args)
        finally:
            counting[0] = False

    raw_combination = transfer.combination
    for name in ("__new__", "__mul__", "__rmul__", "__add__", "__radd__",
                 "__sub__", "__rsub__", "__neg__"):
        monkeypatch.setattr(Fraction, name, counted(name))
    monkeypatch.setattr(transfer, "combination", combination)
    assert not any(ainfinity_defect(f, w).blocks for w in words)
    monkeypatch.undo()
    assert calls == [0]


def test_a_morphism_takes_no_cache_as_an_argument():
    """The caches of ``AInfinityMorphism`` are not constructor keywords."""
    import inspect
    assert list(inspect.signature(transfer.AInfinityMorphism).parameters) == [
        "bundle", "splitting", "method", "rel_tol", "budget"]
