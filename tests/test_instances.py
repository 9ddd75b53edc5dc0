"""Instance generators: validation, determinism, torus structure, bounds."""

import cmath
import hashlib
import itertools
import json

import numpy as np
import pytest

from homotrace import glinalg, instances
from homotrace.dgcore import cohomology, euler_characteristic, validate_bundle
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
from homotrace.serialize import instance_to_dict
from homotrace.traces import transferred_trace
from homotrace.hochschild import HochschildChain
from homotrace.transfer import transferred_morphism
from oracles import fraction_closure


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
    induced action on cohomology has zero supertrace."""
    deg, vec = torus_element(torus1, 1)
    assert deg == 0
    chain = HochschildChain.zero(torus1.bundle.algebra)
    for i, c in enumerate(vec):
        chain.add_term((i,), c)
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


def test_torus_order_cap():
    tor = torus_instance(1, order_cap=2)
    torus_element(tor, 2)
    with pytest.raises(CapError):
        torus_element(tor, 3)


def test_torus_rejects_real_modulus():
    with pytest.raises(InputError):
        torus_instance(1, tau=2.0 + 0j)


def test_float_conversion_validates(t1):
    f = to_float_instance(t1)
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


def test_closure_forms_no_graded_map_product(monkeypatch):
    """r11's closure makes no ``glinalg.compose`` call: its candidates are
    integer matmuls."""
    args = (*_random_generators(11, {0: 2, 1: 3, 2: 2}),
            DEFAULT_CLOSURE_BOUND)
    calls, compose = [], glinalg.compose

    def counted(f, g):
        calls.append(1)
        return compose(f, g)

    monkeypatch.setattr(glinalg, "compose", counted)
    monkeypatch.setattr(instances, "compose", counted)
    assert len(_closure(*args)) == 17
    assert not calls
