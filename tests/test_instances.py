"""Instance generators: validation, determinism, torus structure, bounds."""

import cmath
import collections
import hashlib
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from homotrace import glinalg
from homotrace.dgcore import (algebra_from_operators, build_splitting_hodge,
                              cohomology, euler_characteristic,
                              validate_bundle)
from homotrace.errors import CapError, InputError
from homotrace.instances import (
    DEFAULT_CLOSURE_BOUND,
    _closure,
    _random_generators,
    matrix_instance,
    random_instance,
    to_float_instance,
    torus_element,
    torus_instance,
)
from homotrace.scalars import FLOAT, GaussianRational
from homotrace.serialize import (instance_from_dict, instance_to_dict,
                                 load_instance, save_instance)
from homotrace.traces import transferred_trace
from homotrace.hochschild import HochschildChain
from homotrace.transfer import transfer_quadrature, transferred_morphism
from oracles import REGISTRY, fraction_closure, fresh, instance, names


def test_t1_shape(t1):
    assert t1.bundle.space.dims == ((0, 2), (1, 1))
    assert t1.bundle.algebra.n_basis == 9
    assert euler_characteristic(t1.bundle.space, t1.bundle.q) == 1
    assert validate_bundle(t1.bundle).ok


def test_matrix_instance_trivial_cases():
    one = matrix_instance({0: 1})
    assert euler_characteristic(one.bundle.space) == 1
    odd = matrix_instance({1: 3})
    assert euler_characteristic(odd.bundle.space) == -3


def test_one_dimensional_trace_is_the_scalar():
    """On a 1-dim module with zero differential the transferred trace of a
    scalar operator is that scalar."""
    from fractions import Fraction

    one = matrix_instance({0: 1})
    f = transferred_morphism(one.bundle, one.splitting)
    alg = one.bundle.algebra
    chain = HochschildChain.of(alg, (0,), Fraction(5, 3))
    assert transferred_trace(chain, f) == Fraction(5, 3)


def test_matrix_instance_rejects_bad_q():
    with pytest.raises(InputError):
        matrix_instance({0: 1, 1: 1, 2: 1},
                        q_entries=[("d0_0", "d1_0", 1), ("d1_0", "d2_0", 1)])


def test_random_instance_deterministic():
    a = random_instance(5, {0: 2, 1: 1})
    b = random_instance(5, {0: 2, 1: 1})
    assert a.meta == b.meta
    for d in a.bundle.space.degrees():
        assert (a.bundle.q.block(d) == b.bundle.q.block(d)).all()
    for i in range(a.bundle.algebra.n_basis):
        assert a.bundle.rho[i].equals(b.bundle.rho[i])


def test_random_instances_validate():
    for seed in range(1, 8):
        inst = random_instance(seed, {0: 2, 1: 2})
        assert validate_bundle(inst.bundle).ok


def test_random_instance_dimension_bound():
    with pytest.raises(InputError):
        random_instance(1, {0: 8, 1: 8})


def test_torus_instance_bounds():
    with pytest.raises(InputError):
        torus_instance(4)  # 2*(9)^2 = 162 > 64
    with pytest.raises(InputError):
        torus_instance(0)


def test_torus_mode_counts_and_cohomology():
    for n in (1, 2):
        tor = torus_instance(n)
        per = (2 * n + 1) ** 2
        assert tor.meta["modes_per_degree"] == per
        assert tor.bundle.space.total_dim == 2 * per
        coh = cohomology(tor.bundle.space, tor.bundle.q, 1e-10)
        assert dict(coh.m0.dims) == {0: 1, 1: 1}
        assert coh.m0.euler_characteristic() == 0


def test_torus_spectrum_square_modulus():
    """For tau = i the Laplacian spectrum is pi^2 (m^2 + n^2)."""
    tor = torus_instance(1, tau=1j)
    vals = sorted(
        float(x) for x in
        np.linalg.eigvalsh(np.asarray(tor.splitting.delta.block(0))))
    pi2 = cmath.pi ** 2
    expect = sorted(pi2 * (m * m + n * n)
                    for m in (-1, 0, 1) for n in (-1, 0, 1))
    assert np.allclose(vals, expect, atol=1e-9)
    assert abs(tor.splitting.lambda1 - pi2) < 1e-9


def test_torus_derivative_traces_to_zero(torus1, torus_morphism):
    """The constant-coefficient derivative kills the constant mode, so its
    induced action on cohomology has zero supertrace: its terms are the
    eight nonconstant mode projectors, in index order."""
    deg, terms = torus_element(torus1, 1)
    alg = torus1.bundle.algebra
    assert deg == 0
    assert [k for k, _ in terms] == [k for k in range(alg.n_basis)
                                     if alg.basis_name(k) != "P(0,0)"]
    chain = HochschildChain.zero(alg)
    for k, c in terms:
        chain.add_term((k,), c)
    assert abs(complex(transferred_trace(chain, torus_morphism))) <= 1e-10


def test_torus_order_cap_below_one_is_input_error():
    with pytest.raises(InputError, match="order cap"):
        torus_instance(1, order_cap=0)


@pytest.mark.parametrize("seed, dims, digest", [
    (11, {0: 2, 1: 3, 2: 2},
     "4fed6008668efec7156e7be4298dde70f127c8b6addd21e3c67c10873f2d125d"),
    (7, {0: 2, 1: 2},
     "5526ce106f993a65205329c044520bfaaf32adb247e4a420045fd735d431360b"),
], ids=["r11", "r7"])
def test_random_instance_file_is_unchanged(seed, dims, digest):
    """Golden digests of the instance files of the benchmark's random
    instances, taken before the closure moved to one span per degree."""
    text = json.dumps(instance_to_dict(random_instance(seed, dims)),
                      sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _same_spectrum(s, t) -> bool:
    return s.spectrum.keys() == t.spectrum.keys() and all(
        np.array_equal(x, y) for d in s.spectrum
        for x, y in zip(s.spectrum[d], t.spectrum[d]))


@pytest.mark.parametrize("name", names(FLOAT))
def test_float_entries_read_tol_none_as_the_session_tolerance(tmp_path,
                                                              name):
    """Every public float entry given tol=None builds what it builds with
    no tolerance: the float copy or torus, the instance read from a dict
    and from a file (the same file and the same spectrum, entry for
    entry), the Hodge splitting, the algebra read off the operators, and
    each arity-2 quadrature component with its estimate."""
    inst, source = instance(name), REGISTRY[name].source
    rebuilt = (torus_instance(inst.meta["truncation"], tol=None)
               if source is None else to_float_instance(instance(source), None))
    data, path = instance_to_dict(inst), tmp_path / "f.json"
    save_instance(inst, str(path))
    for got in (rebuilt, instance_from_dict(data, None),
                load_instance(str(path), None)):
        assert json.dumps(instance_to_dict(got), sort_keys=True) == \
            json.dumps(data, sort_keys=True)
        assert _same_spectrum(got.splitting, inst.splitting)
    b, s = inst.bundle, inst.splitting
    assert _same_spectrum(build_splitting_hodge(b.space, b.q, tol=None),
                          build_splitting_hodge(b.space, b.q))
    names = [b.algebra.basis_name(k) for k in range(b.algebra.n_basis)]
    ((row, col), vals), ((row0, col0), vals0) = [
        algebra_from_operators(b.space, b.q, list(b.rho), names, FLOAT,
                               *tol).algebra.entries for tol in ([None], [])]
    assert np.array_equal(row, row0) and np.array_equal(col, col0)
    assert np.array_equal(vals, vals0)
    for word in itertools.product(range(len(names)), repeat=2):
        got, est = transfer_quadrature(word, s, b, rel_tol=None)
        want, est0 = transfer_quadrature(word, s, b)
        assert got.equals(want) and est == est0, word


def test_torus_order_cap():
    tor = torus_instance(1, order_cap=2)
    torus_element(tor, 2)
    with pytest.raises(CapError):
        torus_element(tor, 3)


def test_torus_rejects_real_modulus():
    with pytest.raises(InputError):
        torus_instance(1, tau=2.0 + 0j)


def test_float_conversion_validates():
    f = instance("T1f")
    assert f.mode == "float"
    assert validate_bundle(f.bundle, 1e-10).ok
    assert f.splitting.kind == "laplacian"


def test_float_conversion_rejects_out_of_range_coefficient():
    """A coefficient beyond the double range is bad input."""
    inst = matrix_instance({0: 1, 1: 1},
                           q_entries=[("d0_0", "d1_0", 2 ** 1100)])
    with pytest.raises(InputError, match="double range"):
        to_float_instance(inst)


def test_unknown_element_errors(t1):
    with pytest.raises(InputError):
        t1.element("nonexistent")


@pytest.mark.parametrize("seed,dims", itertools.product(
    [7, 9, 11, 42, 48], [{0: 2, 1: 2}, {0: 2, 1: 3, 2: 2},
                         {0: 3, 1: 3, 2: 3}]))
def test_integer_closure_matches_fraction_closure(seed, dims):
    """The closure on integer blocks keeps the operators that the Fraction
    closure keeps, in the same order, block for block and entry for entry
    (every entry a Fraction)."""
    args = (*_random_generators(seed, dims), DEFAULT_CLOSURE_BOUND)
    got, want = _closure(*args), fraction_closure(*args)
    assert len(got) == len(want)
    for m, w in zip(got, want):
        assert (m.degree, [d for d, _ in m.blocks]) == (
            w.degree, [d for d, _ in w.blocks])
        for (_, b), (_, c) in zip(m.blocks, w.blocks):
            assert b.shape == c.shape
            assert all(type(x) is type(y) and x == y
                       for x, y in zip(b.flat, c.flat))


@pytest.mark.parametrize("seed,dims", itertools.product(
    [7, 9, 11, 42, 48], [{0: 2, 1: 2}, {0: 2, 1: 3, 2: 2}]))
def test_gaussian_closure_matches_fraction_closure(seed, dims):
    """Over Q(i) too: with its first generator scaled by 1 + i, the closure
    keeps the operators that the Fraction closure keeps, entry for entry
    and type for type; where it keeps the scaled generator, some entry is
    a GaussianRational."""
    space, q, gens = _random_generators(seed, dims)
    gens[0] = gens[0].scale(GaussianRational(1, 1))
    args = (space, q, gens, DEFAULT_CLOSURE_BOUND)
    got, want = _closure(*args), fraction_closure(*args)
    assert len(got) == len(want)
    for m, w in zip(got, want):
        assert (m.degree, [d for d, _ in m.blocks]) == (
            w.degree, [d for d, _ in w.blocks])
        for (_, b), (_, c) in zip(m.blocks, w.blocks):
            assert all(type(x) is type(y) and x == y
                       for x, y in zip(b.flat, c.flat))
    if any(m is gens[0] for m in got):
        assert any(type(x) is GaussianRational
                   for m in got for _, b in m.blocks for x in b.flat)


def test_a_rejected_closure_candidate_forms_no_fraction(monkeypatch):
    """r11's closure tests 323 candidates and keeps 17: over Q no Fraction
    is formed while it runs (``glinalg._exact_value``, which forms the
    kernels' values, is never called, nor is Fraction.__new__, while both
    are counted once a kept product's blocks are read), and no rejected
    candidate has formed its blocks."""
    space, q, gens = _random_generators(11, {0: 2, 1: 3, 2: 2})
    decided, add = [], glinalg.ExactSpan.add
    calls = collections.Counter()

    def recording(span, m):
        decided.append((m, add(span, m)))
        return decided[-1][1]

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(glinalg.ExactSpan, "add", recording)
    monkeypatch.setattr(glinalg, "_exact_value",
                        counting("_exact_value", glinalg._exact_value))
    monkeypatch.setattr(Fraction, "__new__",
                        counting("Fraction", Fraction.__new__))
    basis = _closure(space, q, gens, DEFAULT_CLOSURE_BOUND)
    assert not calls
    # the counters see a Fraction formed: reading a kept product's blocks
    next(m for m in basis if "blocks" not in vars(m)).blocks
    assert calls["_exact_value"] and calls["Fraction"]
    monkeypatch.undo()
    rejected = [m for m, kept in decided if not kept]
    assert (len(decided), len(basis), len(rejected)) == (323, 17, 306)
    assert not any("blocks" in vars(m) for m in rejected)


@pytest.mark.parametrize("name", names(without=()))
def test_a_registered_instance_has_its_tags(name):
    """Every registry entry builds an instance of its mode, over Q(i)
    exactly when it is tagged "gaussian", and a float copy is
    ``to_float_instance`` of its source.  The cached read is one object
    per name; a fresh build is a new object with the same file."""
    entry, inst = REGISTRY[name], instance(name)
    assert inst.mode == entry.mode and entry.mode in entry.tags
    values = [x for m in inst.bundle.rho for _, b in m.blocks for x in b.flat]
    assert any(isinstance(x, GaussianRational) for x in values) == (
        "gaussian" in entry.tags)
    data = instance_to_dict(inst)
    if entry.source is not None:
        assert data == instance_to_dict(to_float_instance(
            instance(entry.source)))
    again = fresh(name)
    assert instance(name) is inst and again is not inst
    assert instance_to_dict(again) == data
