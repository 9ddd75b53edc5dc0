"""File formats: round trips, product recomputation, rejection of bad input."""

import dataclasses
import json
import re

import numpy as np
import pytest

from homotrace import cli
from homotrace.dgcore import validate_bundle
from homotrace.errors import ClosureError, InputError
from homotrace.hochschild import HochschildChain
from homotrace.instances import random_instance, to_float_instance
from homotrace.serialize import (
    instance_to_dict,
    load_chains,
    load_instance,
    save_instance,
)
from homotrace.traces import transferred_trace
from homotrace.transfer import transferred_morphism


def test_exact_round_trip(tmp_path, t1):
    path = tmp_path / "t1.json"
    save_instance(t1, str(path))
    loaded = load_instance(str(path))
    assert loaded.mode == "exact"
    b0, b1 = t1.bundle, loaded.bundle
    assert b0.space.dims == b1.space.dims
    for d in b0.space.degrees():
        assert (b0.q.block(d) == b1.q.block(d)).all()
    assert b0.algebra.n_basis == b1.algebra.n_basis
    for i in range(b0.algebra.n_basis):
        assert b0.rho_flat(i).equals(b1.rho_flat(i))
        for j in range(b0.algebra.n_basis):
            assert all(b0.algebra.mul_flat(i, j) == b1.algebra.mul_flat(i, j))


def test_float_round_trip(tmp_path, torus1):
    path = tmp_path / "torus.json"
    save_instance(torus1, str(path))
    loaded = load_instance(str(path))
    assert loaded.mode == "float"
    f = transferred_morphism(loaded.bundle, loaded.splitting)
    alg = loaded.bundle.algebra
    ident = HochschildChain.zero(alg)
    for i, c in enumerate(alg.unit):
        ident.add_term((i,), c)
    assert abs(complex(transferred_trace(ident, f))) <= 1e-10


def test_round_trip_preserves_elements(tmp_path, torus1):
    path = tmp_path / "torus.json"
    save_instance(torus1, str(path))
    loaded = load_instance(str(path))
    assert set(loaded.elements) == set(torus1.elements)
    deg, vec = loaded.element("ddz")
    assert deg == 0


def test_random_instance_round_trip(tmp_path):
    inst = random_instance(7, {0: 2, 1: 2})
    path = tmp_path / "r7.json"
    save_instance(inst, str(path))
    loaded = load_instance(str(path))
    f0 = transferred_morphism(inst.bundle, inst.splitting)
    f1 = transferred_morphism(loaded.bundle, loaded.splitting)
    alg = inst.bundle.algebra
    for i in range(alg.n_basis):
        assert f0.on_basis((i,)).equals(f1.on_basis((i,)))


def test_float_random_round_trip(tmp_path):
    """A float file written from a random instance loads again, and each
    product has coefficients only in its own degree."""
    path = tmp_path / "r7f.json"
    save_instance(to_float_instance(random_instance(7, {0: 2, 1: 2})),
                  str(path))
    alg = load_instance(str(path)).bundle.algebra
    for i in range(alg.n_basis):
        for j in range(alg.n_basis):
            degree = alg.basis_degree(i) + alg.basis_degree(j)
            assert all(c == 0 for k, c in enumerate(alg.mul_flat(i, j))
                       if alg.basis_degree(k) != degree)



@pytest.fixture(scope="module")
def r11f_path(tmp_path_factory):
    """The file of `gen --kind random --seed 11 --dims 2,3,2 --mode float`."""
    path = tmp_path_factory.mktemp("r11f") / "r11f.json"
    save_instance(to_float_instance(random_instance(11, {0: 2, 1: 3, 2: 2})),
                  str(path))
    return str(path)


def test_float_random_file_verifies(r11f_path, capsys):
    """The constants re-derived on load reach about 1.5e3 and their products
    2.5e4, so associativity holds only to about 2e-10 in absolute terms:
    round-off, which the relative tolerance accepts."""
    assert cli.main(["verify", "--instance", r11f_path]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_float_validation_catches_small_relative_change(r11f_path):
    """A 1e-8 relative change to the largest structure constant of that
    file still fails associativity."""
    bundle = load_instance(r11f_path).bundle
    mul = np.array(bundle.algebra.mul)
    index = np.unravel_index(np.argmax(np.abs(mul)), mul.shape)
    mul[index] *= 1 + 1e-8
    bad = dataclasses.replace(
        bundle, algebra=dataclasses.replace(bundle.algebra, mul=mul))
    assert "associativity" in [c.name for c in validate_bundle(bad).failures()]


def test_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "other/1"}))
    with pytest.raises(InputError):
        load_instance(str(path))


def test_rejects_broken_differential(tmp_path, t1):
    data = instance_to_dict(t1)
    # entries of squared-nonzero differential across three degrees
    data["module"] = [[0, 1, ["a"]], [1, 1, ["b"]], [2, 1, ["c"]]]
    data["Q"] = [["a", "b", "1"], ["b", "c", "1"]]
    data["algebra"] = [["Id", 0, [["a", "a", "1"], ["b", "b", "1"],
                                  ["c", "c", "1"]]]]
    data["elements"] = []
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InputError, match="Q-squared"):
        load_instance(str(path))


def _t1_dict(t1, mode: str) -> dict:
    data = instance_to_dict(t1 if mode == "exact" else to_float_instance(t1))
    data["elements"] = []
    return data


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_rejects_unclosed_algebra(tmp_path, t1, mode):
    data = _t1_dict(t1, mode)
    # E[e2<-e1] E[e1<-e2] = E[e2<-e2], which is not declared
    data["algebra"] = [row for row in data["algebra"]
                       if row[0] in ("E[e2<-e1]", "E[e1<-e2]")]
    path = tmp_path / "unclosed.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ClosureError,
                       match=re.escape("product E[e2<-e1]*E[e1<-e2]")):
        load_instance(str(path))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_rejects_dependent_operators(tmp_path, t1, mode):
    data = _t1_dict(t1, mode)
    _, deg, trips = data["algebra"][1]
    data["algebra"].append(["copy", deg, trips])
    path = tmp_path / "dependent.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InputError, match="linearly dependent"):
        load_instance(str(path))


def test_chain_loading(tmp_path, t1):
    ipath = tmp_path / "t1.json"
    save_instance(t1, str(ipath))
    inst = load_instance(str(ipath))
    cpath = tmp_path / "chains.json"
    cpath.write_text(json.dumps({
        "format": "homotrace-chains/1",
        "chains": [
            {"name": "identity", "terms": [{"coeff": "1", "slots": ["Id"]}]},
            {"name": "pair", "terms": [
                {"coeff": "2/3", "slots": ["E[e2<-e1]", "E[e1<-e2]"]}]},
        ],
    }))
    chains = load_chains(str(cpath), inst)
    assert [name for name, _ in chains] == ["identity", "pair"]
    f = transferred_morphism(inst.bundle, inst.splitting)
    assert transferred_trace(chains[0][1], f) == 1


def test_chain_with_unknown_slot(tmp_path, t1):
    ipath = tmp_path / "t1.json"
    save_instance(t1, str(ipath))
    inst = load_instance(str(ipath))
    cpath = tmp_path / "chains.json"
    cpath.write_text(json.dumps({
        "format": "homotrace-chains/1",
        "chains": [{"name": "x", "terms": [{"coeff": "1", "slots": ["nope"]}]}],
    }))
    with pytest.raises(InputError):
        load_chains(str(cpath), inst)
