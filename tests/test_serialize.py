"""File formats: round trips, product recomputation, rejection of bad input."""

import dataclasses
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from homotrace import cli, dgcore, glinalg, instances, serialize
from homotrace.dgcore import validate_bundle
from homotrace.errors import ClosureError, InputError
from homotrace.scalars import DEFAULT_TOL, EXACT
from homotrace.serialize import (
    instance_to_dict,
    load_chains,
    load_instance,
    save_instance,
)
from homotrace.traces import transferred_trace
from homotrace.transfer import transferred_morphism
from oracles import (by_source, dense_triplets, fresh, instance, make_algebra,
                     names, unit_chain, unit_vector)


def _same_map(f, g) -> bool:
    return (f.degree == g.degree
            and [d for d, _ in f.blocks] == [d for d, _ in g.blocks]
            and all(b.dtype == c.dtype and np.array_equal(b, c)
                    for (_, b), (_, c) in zip(f.blocks, g.blocks)))


@pytest.mark.parametrize("which", names(without=()))
def test_exact_round_trip(tmp_path, which):
    """A generated instance or float copy and the instance loaded from its
    file agree exactly (floats bit for bit): module, Q, operators, the
    algebra's entries (indices and values), unit, differential blocks,
    basis names and elements, since the generators, the float copy and
    the loader build an instance one way."""
    inst = instance(which)
    path = tmp_path / "instance.json"
    save_instance(inst, str(path))
    loaded = load_instance(str(path))
    assert loaded.mode == inst.mode
    b0, b1 = inst.bundle, loaded.bundle
    a0, a1 = b0.algebra, b1.algebra
    assert b0.space == b1.space and a0.space == a1.space
    assert _same_map(b0.q, b1.q)
    assert a0.n_basis == a1.n_basis
    assert all(_same_map(b0.rho[i], b1.rho[i]) for i in range(a0.n_basis))
    assert [a0.basis_name(k) for k in range(a0.n_basis)] == \
        [a1.basis_name(k) for k in range(a1.n_basis)]
    ((row0, col0), vals0), ((row1, col1), vals1) = a0.entries, a1.entries
    assert np.array_equal(row0, row1) and np.array_equal(col0, col1)
    assert vals0.dtype == vals1.dtype and np.array_equal(vals0, vals1)
    assert np.array_equal(a0.mul, a1.mul)
    assert np.array_equal(unit_vector(a0), unit_vector(a1))
    d0, d1 = dict(a0.differential.blocks), dict(a1.differential.blocks)
    assert d0.keys() == d1.keys()
    assert all(np.array_equal(d0[d], d1[d]) for d in d0)
    assert inst.elements == loaded.elements
    for name, (deg, terms) in loaded.elements.items():
        assert [type(v) for _, v in terms] == \
            [type(v) for _, v in inst.elements[name][1]]
        _assert_element_form(a1, deg, terms)


def _assert_element_form(algebra, degree, terms) -> None:
    """The stored form of an element: a tuple of (index, value) pairs with
    strictly increasing indices, all of the element's degree, and no zero
    value."""
    assert isinstance(terms, tuple)
    indices = [k for k, _ in terms]
    assert all(a < b for a, b in zip(indices, indices[1:]))
    assert all(v for _, v in terms)
    assert all(algebra.basis_degree(k) == degree for k in indices)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_hand_edited_element_loads_sorted_and_zero_free(tmp_path, mode):
    """A file element that lists its coordinates out of index order and
    with a "0" value loads to its nonzero terms in index order, and saves
    without the zero."""
    data = instance_to_dict(instance("T1" if mode == "exact" else "T1f"))
    names = ["E[f<-f]", "E[e1<-e1]", "E[e2<-e1]", "E[e1<-e2]"]
    data["elements"].append(["X", 0, [[names[0], "3"], [names[1], "0"],
                                      [names[2], "-1/2"], [names[3], 0]]])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    inst = load_instance(str(path))
    a = inst.bundle.algebra
    deg, terms = inst.element("X")
    _assert_element_form(a, deg, terms)
    assert {a.basis_name(k): v for k, v in terms} == {
        names[0]: 3, names[2]: Fraction(-1, 2)}
    save_instance(inst, str(path))
    saved = {name: coords
             for name, _, coords in json.loads(path.read_text())["elements"]}
    assert [op for op, _ in saved["X"]] == [a.basis_name(k) for k, _ in terms]


def test_float_round_trip(tmp_path, torus1):
    path = tmp_path / "torus.json"
    save_instance(torus1, str(path))
    loaded = load_instance(str(path))
    assert loaded.mode == "float"
    f = transferred_morphism(loaded.bundle, loaded.splitting)
    alg = loaded.bundle.algebra
    assert abs(complex(transferred_trace(unit_chain(alg), f))) <= 1e-10


def test_round_trip_preserves_elements(tmp_path, torus1):
    path = tmp_path / "torus.json"
    save_instance(torus1, str(path))
    loaded = load_instance(str(path))
    assert set(loaded.elements) == set(torus1.elements)
    deg, vec = loaded.element("ddz")
    assert deg == 0


def test_random_instance_round_trip(tmp_path):
    inst = instance("r7")
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
    save_instance(instance("r7f"), str(path))
    alg = load_instance(str(path)).bundle.algebra
    for i in range(alg.n_basis):
        for j in range(alg.n_basis):
            degree = alg.basis_degree(i) + alg.basis_degree(j)
            assert all(c == 0 for k, c in enumerate(alg.mul[i, j])
                       if alg.basis_degree(k) != degree)




@pytest.mark.parametrize("which", names("copy") + ["torus2"], ids=by_source)
def test_float_load_keeps_the_constants(tmp_path, which):
    """Constants re-derived from a float file have the nonzero pattern of
    the instance it was written from and its values to DEFAULT_TOL
    relative to the largest: round-off adds no terms."""
    source = instance(by_source(which))
    path = tmp_path / "f.json"
    save_instance(instance(which), str(path))
    got = load_instance(str(path)).bundle.algebra.mul
    want = source.bundle.algebra.mul.astype(complex)
    assert np.array_equal(got != 0, want != 0)
    assert np.max(np.abs(got - want)) <= DEFAULT_TOL * np.max(np.abs(want))


def _calls_inside_load(inst, path, monkeypatch, counted, scope):
    """The instance loaded from ``path`` (``inst`` saved there first), and
    how many times the function at each (module, name) of ``counted`` (one
    function) was called while the function at (module, name) ``scope``
    ran."""
    save_instance(inst, str(path))
    calls, inside = [0], [False]
    (owner, attr), (home, name) = counted[0], scope
    fn, within = getattr(owner, attr), getattr(home, name)

    def count(*args):
        calls[0] += inside[0]
        return fn(*args)

    def run(*args):
        inside[0] = True
        try:
            return within(*args)
        finally:
            inside[0] = False

    for owner, attr in counted:
        monkeypatch.setattr(owner, attr, count)
    monkeypatch.setattr(home, name, run)
    return load_instance(str(path)), calls[0]


def _composes_inside_load(inst, path, monkeypatch) -> tuple[int, int]:
    """The number of operators of the instance loaded from ``path`` (saved
    there first), and how many maps ``algebra_from_operators`` composed
    while loading it."""
    loaded, calls = _calls_inside_load(
        inst, path, monkeypatch, [(glinalg, "compose"), (dgcore, "compose")],
        (instances, "algebra_from_operators"))
    return loaded.bundle.algebra.n_basis, calls


def test_float_load_forms_no_product_per_pair(tmp_path, monkeypatch):
    """Loading the torus N=2 file composes fewer maps inside
    ``algebra_from_operators`` than the 25^2 products of its operators:
    the constants are read off pivot entries, not off formed products."""
    n, calls = _composes_inside_load(instance("torus2"),
                                     tmp_path / "torus2.json",
                                     monkeypatch)
    assert n == 25 and calls < 25 ** 2


def test_exact_load_forms_no_product_per_pair(tmp_path, monkeypatch):
    """The exact r11 file loads with fewer than 17^2 compositions inside
    ``algebra_from_operators``: exact constants are read off pivot entries
    too."""
    n, calls = _composes_inside_load(instance("r11"), tmp_path / "r11.json",
                                     monkeypatch)
    assert n == 17 and calls < 17 ** 2


@pytest.mark.parametrize("which", names(EXACT))
def test_exact_load_eliminates_once_per_degree(tmp_path, monkeypatch, which):
    """An exact load runs one elimination (``glinalg._echelon``) per
    algebra degree inside ``_expand_pivots``: the pivot entries and the
    inverse of their block are read off the same elimination."""
    loaded, calls = _calls_inside_load(
        fresh(which), tmp_path / "instance.json", monkeypatch,
        [(glinalg, "_echelon")], (dgcore, "_expand_pivots"))
    assert calls == len(loaded.bundle.algebra.space.dims) > 1


@pytest.mark.parametrize("which", ["torus2", "r11"])
def test_one_residual_pass_per_load(tmp_path, monkeypatch, which):
    """Loading the float torus N=2 file or the exact r11 file computes the
    action residuals once, and ``validate_bundle`` on the loaded bundle
    computes none."""
    path = tmp_path / "instance.json"
    save_instance(instance(which), str(path))
    computed, compute = [], dgcore._action_residuals

    def counted(bundle):
        computed.append(bundle)
        return compute(bundle)

    monkeypatch.setattr(dgcore, "_action_residuals", counted)
    bundle = load_instance(str(path)).bundle
    assert validate_bundle(bundle).ok
    assert computed == [bundle] and computed[0] is bundle


def test_exact_load_clears_the_structure_constants_once(tmp_path,
                                                       monkeypatch):
    """An exact m32 load (algebra dim 25) clears the denominators of its
    125 nonzero structure constants once and never scans the (25, 25, 25)
    tensor: the load lends the algebra those entries, and the action
    residuals, the axiom join and ``product_terms`` all read the algebra's
    integer view."""
    path = tmp_path / "m32.json"
    save_instance(instance("m32"), str(path))
    shapes, clear = [], dgcore.clear_denominators

    def counted(t):
        shapes.append(t.shape)
        return clear(t)

    scanned, scan = [], dgcore.coo

    def scanning(t, dtype):
        scanned.append(t.shape)
        return scan(t, dtype)

    monkeypatch.setattr(dgcore, "clear_denominators", counted)
    monkeypatch.setattr(dgcore, "coo", scanning)
    alg = load_instance(str(path)).bundle.algebra
    assert alg.n_basis == 25 and len(alg.product_terms) == 25
    nonzero = int(np.count_nonzero(alg.mul.astype(bool)))
    assert nonzero == 125 and shapes.count((nonzero,)) == 1
    assert max(math.prod(t) for t in shapes + scanned) < 25 ** 3


def test_exact_load_and_checks_never_form_the_tensor(tmp_path, monkeypatch):
    """An exact r11 load, ``validate_bundle`` and every ``verify`` check
    read the structure constants of the algebra and of End(M0) through
    their entries: none forms a dense (n, n, n) tensor ``mul``."""
    path = tmp_path / "r11.json"
    save_instance(instance("r11"), str(path))

    def refused(algebra):
        raise AssertionError("a dense structure-constant tensor was formed")

    monkeypatch.setattr(dgcore.DgAlgebra, "mul", property(refused))
    inst = load_instance(str(path))
    assert validate_bundle(inst.bundle).ok
    args = cli.build_parser().parse_args(["verify", "--instance", str(path)])
    assert all(c["passed"] for c in cli._verify_checks(inst, args))


def test_exact_load_clears_rho_and_q_once(tmp_path, monkeypatch):
    """An exact m32 load passes every stored entry of rho and of Q through
    ``clear_denominators`` in one call: the pivot expansion and the action
    residuals read one view of rho and Q.  Entries are followed by object
    identity, since they stay alive through the load."""
    path = tmp_path / "m32.json"
    save_instance(instance("m32"), str(path))
    seen, clear = [], dgcore.clear_denominators

    def counted(t):
        seen.append({id(x) for x in np.asarray(t).flat})
        return clear(t)

    monkeypatch.setattr(dgcore, "clear_denominators", counted)
    bundle = load_instance(str(path)).bundle
    stored = [x for m in (*bundle.rho, bundle.q) for _, block in m.blocks
              for x in block.flat if x]
    assert len(stored) == 25 + 1
    assert [sum(id(x) in ids for ids in seen) for x in stored] == [1] * 26


@pytest.mark.parametrize("gen_args", [
    ["--kind", "matrix", "--preset", "T1"],
    ["--kind", "random", "--seed", "7", "--dims", "2,2"],
], ids=["T1f", "r7f"])
def test_float_file_round_trip_keeps_verify_report(tmp_path, capsys, gen_args):
    """A float file saved again after loading gives the same verify report."""
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert cli.main(["gen", *gen_args, "--mode", "float",
                     "-o", str(first)]) == 0
    save_instance(load_instance(str(first)), str(second))
    reports = []
    for path in (first, second):
        capsys.readouterr()
        assert cli.main(["verify", "--instance", str(path),
                         "--output", "json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


@pytest.fixture(scope="module")
def r11f_path(tmp_path_factory):
    """The file of `gen --kind random --seed 11 --dims 2,3,2 --mode float`."""
    path = tmp_path_factory.mktemp("r11f") / "r11f.json"
    save_instance(instance("r11f"), str(path))
    return str(path)


def test_float_random_file_verifies(r11f_path, capsys):
    """The constants re-derived on load reach about 1.5e3 and their products
    2.5e4, so associativity holds only to about 2e-12 in absolute terms:
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
    a = bundle.algebra
    bad = dataclasses.replace(bundle, algebra=make_algebra(
        a.space, a.differential, mul, unit_vector(a), a.mode))
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


def _t1_dict(mode: str) -> dict:
    data = instance_to_dict(instance("T1" if mode == "exact" else "T1f"))
    data["elements"] = []
    return data


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_rejects_unclosed_algebra(tmp_path, mode):
    data = _t1_dict(mode)
    # E[e2<-e1] E[e1<-e2] = E[e2<-e2], which is not declared
    data["algebra"] = [row for row in data["algebra"]
                       if row[0] in ("E[e2<-e1]", "E[e1<-e2]")]
    path = tmp_path / "unclosed.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ClosureError,
                       match=re.escape("product E[e2<-e1]*E[e1<-e2]")):
        load_instance(str(path))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_rejects_span_without_identity(tmp_path, mode):
    data = _t1_dict(mode)
    # one idempotent on a 2-dimensional module
    data["module"], data["Q"] = [[0, 2, ["e1", "e2"]]], []
    data["algebra"] = [row for row in data["algebra"]
                       if row[0] == "E[e1<-e1]"]
    path = tmp_path / "no-identity.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ClosureError, match="^the identity operator "):
        load_instance(str(path))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_rejects_span_not_closed_under_q(tmp_path, mode):
    data = _t1_dict(mode)
    # orthogonal idempotents summing to the identity; {Q, E[e1<-e1]} =
    # E[f<-e1] has degree 1, where nothing is declared
    data["algebra"] = [row for row in data["algebra"]
                       if row[0] in ("E[e1<-e1]", "E[e2<-e2]", "E[f<-f]")]
    path = tmp_path / "not-closed-under-q.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ClosureError,
                       match=re.escape("differential of E[e1<-e1] ")):
        load_instance(str(path))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_rejects_dependent_operators(tmp_path, mode):
    data = _t1_dict(mode)
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


@pytest.mark.parametrize("which", names() + ["torus2"])
def test_writer_reads_only_stored_entries(tmp_path, monkeypatch, which):
    """The file written from the stored blocks' nonzero entries has the
    bytes of the one written from every entry of every degree's dense
    block (``oracles.dense_triplets``)."""
    inst = instance(which)
    save_instance(inst, str(tmp_path / "stored.json"))
    monkeypatch.setattr(serialize, "_triplets", dense_triplets)
    save_instance(inst, str(tmp_path / "dense.json"))
    assert ((tmp_path / "stored.json").read_bytes()
            == (tmp_path / "dense.json").read_bytes())


def test_a_load_builds_the_module_identity_once(tmp_path, t1, monkeypatch):
    """Loading T1 builds the identity of its module once: the splitting
    keeps it for pi1 = 1 - pi0 and for the check pi0 + pi1 = 1 (twice
    before), beside the identity of M0 that include-project is checked
    against."""
    save_instance(t1, str(tmp_path / "t1.json"))
    built, identity = [], glinalg.GradedMap.identity

    def count(space, mode):
        built.append(space)
        return identity(space, mode)

    monkeypatch.setattr(glinalg.GradedMap, "identity", count)
    loaded = load_instance(str(tmp_path / "t1.json"))
    assert sum(s is loaded.bundle.space for s in built) == 1
    assert sum(s is loaded.splitting.m0 for s in built) == 1
