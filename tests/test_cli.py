"""Command-line surface: generation, verification, traces, exit codes."""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import pathlib
import random
import re
import resource
import struct
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from homotrace import cli, dgcore, glinalg, hochschild, traces, transfer
from homotrace.cli import _verify_checks, build_parser, main
from homotrace.dgcore import validate_bundle
from homotrace.errors import InputError
from homotrace.glinalg import AMBIGUITY_BAND, GradedMap
from homotrace.hochschild import HochschildChain
from homotrace.instances import (MAX_ALGEBRA_DIM, MAX_ARITY, MAX_CHAIN_SLOTS,
                                 random_instance)
from homotrace.quadrature import DEFAULT_BUDGET
from homotrace.scalars import (DEFAULT_TOL, EXACT, FLOAT, MAX_EXACT_EXPONENT,
                               decode_value, times_sign)
from homotrace.serialize import (instance_from_dict, instance_to_dict,
                                 save_instance)
from homotrace.transfer import ainfinity_defect, transfer_closed
from oracles import float_cast, fresh, instance, names, t1_gaussian_dict


def run(args):
    return main(args)


def test_gen_verify_trace_t1(tmp_path, capsys):
    ipath = str(tmp_path / "t1.json")
    assert run(["gen", "--kind", "matrix", "--preset", "T1", "-o", ipath]) == 0
    capsys.readouterr()
    assert run(["verify", "--instance", ipath, "--max-arity", "3"]) == 0
    out = capsys.readouterr().out
    assert "pass  dg/Q-squared" in out
    assert "FAIL" not in out
    cpath = tmp_path / "chains.json"
    cpath.write_text(json.dumps({
        "format": "homotrace-chains/1",
        "chains": [{"name": "identity",
                    "terms": [{"coeff": "1", "slots": ["Id"]}]}],
    }))
    assert run(["trace", "--instance", ipath, "--chain", str(cpath)]) == 0
    out = capsys.readouterr().out
    assert "identity: 1" in out


def test_gen_torus_and_trace_identity(tmp_path, capsys):
    """The torus file is float already (``--mode float`` writes the same
    file, and ``--mode exact`` is refused with no file written), and its
    identity and derivative trace to zero."""
    ipath = str(tmp_path / "torus.json")
    assert run(["gen", "--kind", "torus", "--N", "1", "-o", ipath]) == 0
    fpath = tmp_path / "torus-float.json"
    assert run(["gen", "--kind", "torus", "--N", "1", "--mode", "float",
                "-o", str(fpath)]) == 0
    assert fpath.read_bytes() == (tmp_path / "torus.json").read_bytes()
    capsys.readouterr()
    epath = tmp_path / "torus-exact.json"
    assert run(["gen", "--kind", "torus", "--N", "1", "--mode", "exact",
                "-o", str(epath)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error: ")
    assert not epath.exists()
    cpath = tmp_path / "chains.json"
    cpath.write_text(json.dumps({
        "format": "homotrace-chains/1",
        "chains": [
            {"name": "identity", "terms": [{"coeff": 1.0, "slots": ["Id"]}]},
            {"name": "derivative", "terms": [{"coeff": 1.0, "slots": ["ddz"]}]},
        ],
    }))
    assert run(["trace", "--instance", ipath, "--chain", str(cpath),
                "--output", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    vals = {r["chain"]: r["value"] for r in data["results"]}
    assert abs(vals["identity"]) <= 1e-10
    assert abs(vals["derivative"]) <= 1e-10


def test_gen_random_deterministic_files(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen", "--kind", "random", "--seed", "7", "--dims", "2,2",
                "-o", str(p1)]) == 0
    assert run(["gen", "--kind", "random", "--seed", "7", "--dims", "2,2",
                "-o", str(p2)]) == 0
    assert p1.read_text() == p2.read_text()


def test_verify_reports_reproducible(tmp_path, capsys):
    ipath = str(tmp_path / "r.json")
    run(["gen", "--kind", "random", "--seed", "3", "--dims", "2,1",
         "-o", ipath])
    capsys.readouterr()
    assert run(["verify", "--instance", ipath, "--seed", "5",
                "--output", "json"]) == 0
    first = capsys.readouterr().out
    assert run(["verify", "--instance", ipath, "--seed", "5",
                "--output", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["ok"] is True


def test_missing_instance_is_input_error(capsys):
    assert run(["verify", "--instance", "/nonexistent.json"]) == 2


def test_corrupted_instance_names_q_squared(tmp_path, capsys):
    ipath = str(tmp_path / "t1.json")
    run(["gen", "--kind", "matrix", "--preset", "T1", "-o", ipath])
    data = json.loads((tmp_path / "t1.json").read_text())
    data["module"] = [[0, 1, ["a"]], [1, 1, ["b"]], [2, 1, ["c"]]]
    data["Q"] = [["a", "b", "1"], ["b", "c", "1"]]
    data["algebra"] = [["Id", 0, [["a", "a", "1"], ["b", "b", "1"],
                                  ["c", "c", "1"]]]]
    data["elements"] = []
    (tmp_path / "t1.json").write_text(json.dumps(data))
    capsys.readouterr()
    code = run(["verify", "--instance", ipath])
    err = capsys.readouterr().err
    assert code != 0
    assert "Q-squared" in err


def test_trace_quadrature_provenance(tmp_path, capsys):
    """``--method quadrature`` labels its values and gives the closed-form
    values, plain and cyclic, within the session tolerance band."""
    ipath = str(tmp_path / "torus.json")
    run(["gen", "--kind", "torus", "--N", "1", "-o", ipath])
    cpath = tmp_path / "chains.json"
    cpath.write_text(json.dumps({
        "format": "homotrace-chains/1",
        "chains": [{"name": "pair", "terms": [
            {"coeff": 1.0, "slots": ["Id", "Id"]}]},
            {"name": "triple", "terms": [
                {"coeff": 1.0, "slots": ["Id", "Id", "Id"]}]}],
    }))
    capsys.readouterr()
    results = {}
    for method in ("closed", "quadrature"):
        assert run(["trace", "--instance", ipath, "--chain", str(cpath),
                    "--method", method, "--cyclic", "1",
                    "--output", "json"]) == 0
        results[method] = json.loads(capsys.readouterr().out)["results"]
    assert results["quadrature"][0]["provenance"] == "quadrature"
    assert "error" in results["quadrature"][0]
    for quad, closed in zip(results["quadrature"], results["closed"]):
        for key in ("value", "cyclic_value"):
            diff = (decode_value(quad[key], FLOAT)
                    - decode_value(closed[key], FLOAT))
            assert abs(diff) <= AMBIGUITY_BAND * DEFAULT_TOL


def test_quadrature_error_does_not_depend_on_chain_order(tmp_path, capsys):
    """A chain's quadrature error sums the estimates of the components its
    value uses, whether an earlier chain already evaluated them or not:
    reversing the chain file gives every chain the same error, and two
    chains with the same terms carry the same error.  (r7f's heat weights
    are polynomials, so each error is 0.0 here; positive estimates are
    checked on torus N=1 in ``test_transfer``.)"""
    ipath = str(tmp_path / "r7f.json")
    assert run(["gen", "--kind", "random", "--seed", "7", "--dims", "2,2",
                "--mode", "float", "-o", ipath]) == 0
    terms = [("3", ["b0_1"]), ("2", ["b1_0", "b0_3"]),
             ("-2", ["b1_1", "b1_0", "b0_1"]),
             ("2", ["b1_0", "b0_1", "b-1_0"])]
    chains = [{"name": name, "terms": [{"coeff": c, "slots": s}
                                       for c, s in terms[:k]]}
              for name, k in (("short", 2), ("full", 4), ("again", 4))]
    errors = []
    for order in (chains, chains[::-1]):
        cpath = tmp_path / "chains.json"
        cpath.write_text(json.dumps({"format": "homotrace-chains/1",
                                     "chains": order}))
        capsys.readouterr()
        assert run(["trace", "--instance", ipath, "--chain", str(cpath),
                    "--method", "quadrature", "--output", "json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        errors.append({r["chain"]: r["error"] for r in results})
    assert errors[0] == errors[1]
    assert errors[0]["full"] == errors[0]["again"]


def test_trace_quadrature_takes_an_eight_slot_term(tmp_path, capsys):
    """Quadrature has no arity cap: an 8-slot chain term with a nonzero
    trace exits 0 under ``--method quadrature`` and gives the closed-form
    value within the session tolerance band."""
    ipath = tmp_path / "t1f.json"
    assert run(["gen", "--kind", "matrix", "--preset", "T1", "--mode", "float",
                "-o", str(ipath)]) == 0
    cpath = tmp_path / "chains.json"
    cpath.write_text(json.dumps({
        "format": "homotrace-chains/1",
        "chains": [{"name": "eight", "terms": [
            {"coeff": 1.0,
             "slots": ["E[e2<-e1]"] + ["E[f<-e1]"] * 6 + ["E[f<-e2]"]}]}],
    }))
    values = {}
    for method in ("closed", "quadrature"):
        capsys.readouterr()
        assert run(["trace", "--instance", str(ipath), "--chain", str(cpath),
                    "--method", method, "--output", "json"]) == 0
        result = json.loads(capsys.readouterr().out)["results"][0]
        values[method] = decode_value(result["value"], FLOAT)
    assert abs(values["closed"]) >= 0.5
    assert (abs(values["quadrature"] - values["closed"])
            <= AMBIGUITY_BAND * DEFAULT_TOL)


def test_trace_quadrature_budget_below_one_cell(tmp_path, capsys):
    """A 3-slot chain term integrates one heat weight, whose first cell
    takes 16 + 8 = 24 evaluations: under ``--quad-budget 10`` the trace is
    a failed check, exit 1 with one 'check failure:' line."""
    ipath = tmp_path / "t1f.json"
    assert run(["gen", "--kind", "matrix", "--preset", "T1", "--mode", "float",
                "-o", str(ipath)]) == 0
    cpath = tmp_path / "chains.json"
    cpath.write_text(json.dumps({
        "format": "homotrace-chains/1",
        "chains": [{"name": "three", "terms": [
            {"coeff": 1.0, "slots": ["E[e1<-e1]", "E[f<-e1]", "E[f<-e1]"]}]}],
    }))
    capsys.readouterr()
    assert run(["trace", "--instance", str(ipath), "--chain", str(cpath),
                "--method", "quadrature", "--quad-budget", "10"]) == 1
    err = capsys.readouterr().err
    assert err.count("check failure:") == 1 and len(err.splitlines()) == 1
    assert "24" in err


def test_verify_quadrature_budget_below_one_cell(tmp_path, capsys):
    """On torus N=1 every word has a zero factor, so the quadrature check
    integrates nothing, yet under ``--quad-budget 10`` it fails with the
    budget text that ``integrate_interval`` gives: exit 1."""
    ipath = str(tmp_path / "torus.json")
    assert run(["gen", "--kind", "torus", "--N", "1", "-o", ipath]) == 0
    capsys.readouterr()
    assert run(["verify", "--instance", ipath, "--quad-budget", "10",
                "--output", "json"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)[
        "checks"]}
    quad = checks.pop("quadrature/agrees-with-closed-form")
    assert not quad["passed"] and quad["detail"] == (
        "evaluation budget 10 is below one cell (24 evaluations)")
    assert all(c["passed"] for c in checks.values())


def test_gen_respects_dims_bound(tmp_path, capsys):
    assert run(["gen", "--kind", "torus", "--N", "4",
                "-o", str(tmp_path / "x.json")]) == 2


def test_overflowing_float_instance_fails_with_one_line(tmp_path, capsys):
    """Random seed 48 with dims 3,3,3 in float is refused at generation
    with the loader's verdict on its file: its cast operators of degree -1
    are dependent in doubles (exit 2, one line, no file).  Its exact
    structure constants cast as they are overflow doubles in the axiom
    checks, which name the five failing axioms while numpy warns about
    none of the overflows."""
    path = tmp_path / "x.json"
    assert run(["gen", "--kind", "random", "--seed", "48", "--dims", "3,3,3",
                "--mode", "float", "-o", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "input error: the declared operators of degree -1 are linearly "
        "dependent"]
    assert not path.exists()
    cast = float_cast(random_instance(48, {0: 3, 1: 3, 2: 3}).bundle)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        failed = validate_bundle(cast, DEFAULT_TOL).failures()
    assert [c.name for c in failed] == [
        "algebra-differential-squared", "leibniz", "associativity",
        "action-chain-map", "action-multiplicative"]


def test_pivot_division_overflow_is_refused_without_warning(tmp_path, capsys):
    """An r7f operator entry [1e308, 1e308] has a finite modulus, but the
    elimination of ``glinalg.pivot_rows`` overflows dividing by it: verify
    exits 2 with the loader's one line and numpy warns about nothing (a
    warning is an error under pytest)."""
    path = tmp_path / "r7f.json"
    assert run(["gen", "--kind", "random", "--seed", "7", "--dims", "2,2",
                "--mode", "float", "-o", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["algebra"][0][0] == "b-1_0"
    data["algebra"][0][2][0][2] = [1e308, 1e308]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["verify", "--instance", str(path), "--max-arity", "2"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "input error: product b-1_0*b0_0 is not in the span of the declared "
        "operators"]


@pytest.mark.parametrize("cyclic", [[], ["--cyclic", "1"]])
def test_trace_overflow_is_refused_without_warning(tmp_path, capsys, cyclic):
    """A chain coefficient 1e308 on r7f is a finite double, but its trace
    overflows: trace exits 2 with one line naming the chain instead of
    writing ``Infinity`` (not JSON) and exiting 0, and numpy warns about
    nothing (a warning is an error under pytest)."""
    path, chain = tmp_path / "r7f.json", tmp_path / "chain.json"
    assert run(["gen", "--kind", "random", "--seed", "7", "--dims", "2,2",
                "--mode", "float", "-o", str(path)]) == 0
    chain.write_text(json.dumps({"format": "homotrace-chains/1", "chains": [
        {"name": "big", "terms": [{"coeff": 1e308, "slots": ["b0_1"]}]}]}))
    capsys.readouterr()
    assert run(["trace", "--instance", str(path), "--chain", str(chain),
                "--output", "json"] + cyclic) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [
        "input error: chain 'big' has a trace that is not finite in double "
        "precision"]


def test_float_copy_outside_the_span_is_refused_at_generation(tmp_path,
                                                              capsys):
    """Random seed 3 with dims 3,3 in float writes no file that verify
    would refuse: a product of its cast operators leaves their span in
    doubles, so gen exits 2 with the loader's line."""
    path = tmp_path / "x.json"
    assert run(["gen", "--kind", "random", "--seed", "3", "--dims", "3,3",
                "--mode", "float", "-o", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "input error: product b0_7*b1_3 is not in the span of the declared "
        "operators"]
    assert not path.exists()


@pytest.mark.parametrize("argv, degree, band", [
    (["gen", "--kind", "random", "--seed", "16", "--dims", "3,3"], -1,
     "(1.0e-10, 1.0e-08]"),
    (["gen", "--kind", "random", "--seed", "18", "--dims", "1,3"], 0,
     "(1.0e-10, 1.0e-08]"),
    (["verify", "--tolerance", "0.5"], -1, "(5.0e-01, 5.0e+01]"),
], ids=["gen-seed-16", "gen-seed-18", "verify-t1f"])
def test_rank_ambiguous_operators_fail_with_one_line(tmp_path, capsys, argv,
                                                     degree, band):
    """Float operators whose rank falls in the ambiguity band (random seeds
    16 and 18 in float; T1f verified at tolerance 0.5) fail the check: exit
    1 with one line naming their degree and the singular value relative to
    its scale, and gen writes no file."""
    path = tmp_path / "x.json"
    if argv[0] == "verify":
        assert run(["gen", "--kind", "matrix", "--preset", "T1", "--mode",
                    "float", "-o", str(path)]) == 0
        capsys.readouterr()
        argv = argv + ["--instance", str(path)]
    else:
        argv = argv + ["--mode", "float", "-o", str(path)]
    assert run(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert re.fullmatch(
        f"check failure: the declared operators of degree {degree} are "
        r"neither clearly independent nor dependent: relative singular "
        r"value \S+ \(scale \S+\) sits in the ambiguity band "
        + re.escape(band), line), line
    assert path.exists() == (argv[0] == "verify")


def _renamed_second_operator(t1):
    t1["algebra"][1][0] = t1["algebra"][0][0]
    return t1


@pytest.mark.parametrize("edit, line", [
    (lambda t1: {**t1, "elements": [["Id", 1, t1["elements"][0][2]]]},
     "element 'Id' declares degree 1, but 'E[e1<-e1]' has degree 0"),
    (_renamed_second_operator,
     "operator name 'E[e1<-f]' is declared twice"),
    (lambda t1: {**t1, "elements": t1["elements"] * 2},
     "element 'Id' is declared twice"),
    (lambda t1: {**t1, "elements": [["Id", 0, t1["elements"][0][2] * 2]]},
     "element 'Id' lists operator 'E[e1<-e1]' twice"),
    (lambda t1: {**t1, "module": [[0, 2, ["e1", "e2"]], [1, 1, ["e2"]]]},
     "module label 'e2' is declared twice"),
], ids=["element-degree", "operator-name", "element-name",
        "element-coordinate", "module-label"])
def test_ambiguous_names_exit_2(tmp_path, capsys, edit, line):
    """A T1 file edited so that a name means two things, or an element's
    degree contradicts its coordinates, is bad input: verify exits 2 with
    one line naming it."""
    ipath = tmp_path / "t1.json"
    assert run(["gen", "--kind", "matrix", "--preset", "T1",
                "-o", str(ipath)]) == 0
    ipath.write_text(json.dumps(edit(json.loads(ipath.read_text()))))
    capsys.readouterr()
    assert run(["verify", "--instance", str(ipath)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"input error: {line}"]


def _t1_with(path, value):
    """An edit of the T1 file's content that puts ``value`` at ``path``."""
    def edit(t1):
        node = t1
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return t1
    return edit


@pytest.mark.parametrize("command, instance, chains", [
    ("verify", {"format": "homotrace-instance/1", "scalar": "exact"}, None),
    ("verify", {"format": "homotrace-instance/1", "scalar": "exact",
                "module": [[0, 2]], "Q": [], "algebra": []}, None),
    ("verify", [1, 2], None),
    ("verify", {"format": "homotrace-instance/1", "scalar": "exact",
                "module": [[0, 2, ["a"]]], "Q": [], "algebra": []}, None),
    ("verify", lambda t1: {**t1, "algebra": []}, None),
    ("verify", _t1_with(("algebra", 0, 0), ["x"]), None),
    ("verify", _t1_with(("elements", 0, 0), ["x"]), None),
    ("verify", _t1_with(("elements", 0, 2, 0, 0), ["x"]), None),
    ("trace", None, {"format": "homotrace-chains/1"}),
    ("trace", None, {"format": "homotrace-chains/1", "chains": [
        {"name": "c", "terms": [{"coeff": "x", "slots": ["Id"]}]}]}),
    ("gen", ["--kind", "random", "--dims", "0,0"], None),
    ("gen", ["--kind", "matrix", "--dims", "0"], None),
    ("gen", ["--kind", "matrix", "--dims", ","], None),
    ("verify", {"format": "homotrace-instance/1", "scalar": "exact",
                "module": [], "Q": [], "algebra": [],
                "elements": [["Id", 0, []]]}, None),
], ids=["no-module", "short-module-entry", "top-level-list",
        "label-count", "unclosed-algebra", "list-operator-name",
        "list-element-name", "list-coordinate-name", "no-chains",
        "bad-coefficient", "zero-dims", "matrix-zero-dims",
        "matrix-empty-dims", "empty-module"])
def test_malformed_input_exits_2(tmp_path, capsys, command, instance, chains):
    """A malformed file, an empty --dims or a zero-dimensional module is
    bad input: exit 2 with one 'input error:' line, never a traceback, and
    ``gen`` writes no file.  ``instance`` is a file's content, None for the
    T1 file, or an edit of the T1 file's content; for ``gen``, its
    arguments."""
    ipath = tmp_path / "instance.json"
    if instance is None or callable(instance):
        assert run(["gen", "--kind", "matrix", "--preset", "T1",
                    "-o", str(ipath)]) == 0
        if instance is not None:
            edited = instance(json.loads(ipath.read_text()))
            ipath.write_text(json.dumps(edited))
    elif command != "gen":
        ipath.write_text(json.dumps(instance))
    cpath = tmp_path / "chains.json"
    cpath.write_text(json.dumps(chains))
    argv = {"verify": ["verify", "--instance", str(ipath)],
            "trace": ["trace", "--instance", str(ipath), "--chain", str(cpath)],
            }.get(command) or ["gen", *instance, "-o", str(tmp_path / "x.json")]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.count("input error:") == 1 and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--max-arity", "0"],
    ["verify", "--max-arity", "-1"],
    ["verify", "--tolerance", "-1"],
    ["gen", "--kind", "random", "--dims", "2,1", "--tolerance", "-1"],
    ["gen", "--kind", "torus", "--tolerance", "0"],
    ["trace", "--chain", "c.json", "--tolerance", "nan"],
    ["verify", "--tolerance", "abc"],
    ["verify", "--quad-budget", "0"],
    ["verify", "--quad-budget", "-5"],
    ["trace", "--chain", "c.json", "--quad-budget", "0"],
    ["trace", "--chain", "c.json", "--quad-budget", "-5"],
    ["trace", "--chain", "c.json", "--cyclic", "-1"],
], ids=["max-arity-0", "max-arity-neg", "verify-tol-neg", "gen-tol-neg",
        "gen-tol-zero", "trace-tol-nan", "tol-not-a-number",
        "verify-quad-budget-0", "verify-quad-budget-neg",
        "trace-quad-budget-0", "trace-quad-budget-neg", "trace-cyclic-neg"])
def test_bad_numeric_flag_exits_2_before_work(tmp_path, capsys, argv):
    """The flag is rejected while the command line is read: no file is
    opened or written."""
    out = tmp_path / "x.json"
    extra = (["-o", str(out)] if argv[0] == "gen"
             else ["--instance", str(tmp_path / "missing.json")])
    with pytest.raises(SystemExit) as info:
        run(argv + extra)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err and "_positive" not in err
    assert not out.exists()


def test_cyclic_level_zero_is_accepted(tmp_path, capsys):
    """Level 0 (tensors of length 1) is the lowest level ``--cyclic`` takes;
    -1 is rejected while the command line is read (above)."""
    ipath, cpath = tmp_path / "t1.json", tmp_path / "c.json"
    assert run(["gen", "--kind", "matrix", "--preset", "T1",
                "-o", str(ipath)]) == 0
    cpath.write_text(json.dumps({"format": "homotrace-chains/1", "chains": [
        {"name": "c", "terms": [{"coeff": "1", "slots": ["Id"]}]}]}))
    capsys.readouterr()
    assert run(["trace", "--instance", str(ipath), "--chain", str(cpath),
                "--cyclic", "0", "--output", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["results"][0]
    assert result["cyclic_level"] == 0


def test_a_term_above_the_slot_cap_exits_2(tmp_path, capsys):
    """A chain term of more than ``MAX_CHAIN_SLOTS`` slots is bad input:
    one 'input error:' line naming its chain.  A term of 1 200 slots, of
    degree 1 199 so that the trace reads it, once overflowed the stack; a
    term at the cap traces."""
    ipath = tmp_path / "t1.json"
    assert run(["gen", "--kind", "matrix", "--preset", "T1",
                "-o", str(ipath)]) == 0
    word = ["E[e2<-e1]"] + ["E[f<-e1]"] * 1199      # degrees 0, 1, 1, ...
    for name, slots, code in [("long", 1200, 2),
                              ("above", MAX_CHAIN_SLOTS + 1, 2),
                              ("at-cap", MAX_CHAIN_SLOTS, 0)]:
        cpath = tmp_path / f"{name}.json"
        cpath.write_text(json.dumps({
            "format": "homotrace-chains/1",
            "chains": [{"name": name, "terms": [
                {"coeff": "1", "slots": word[:slots]}]}]}))
        capsys.readouterr()
        assert run(["trace", "--instance", str(ipath), "--chain",
                    str(cpath)]) == code, name
        err = capsys.readouterr().err
        if code:
            assert err.splitlines() == [
                f"input error: chain {name!r} has a term of {slots} slots, "
                f"above the cap {MAX_CHAIN_SLOTS}"]


def test_cyclic_level_2_of_a_term_at_the_slot_cap_exits_0_within_10_s(
        tmp_path, capsys):
    """``trace --cyclic 2`` on a T1 term of ``MAX_CHAIN_SLOTS`` slots, run
    in a child process, exits 0 within 10 s (0.3-0.4 s measured).  The push
    ends a partition's walk at its first zero block; walking every
    partition, C(127, 4) = 10.3 million per rotation, had not finished
    after 60 s."""
    ipath, cpath = tmp_path / "t1.json", tmp_path / "long.json"
    assert run(["gen", "--kind", "matrix", "--preset", "T1",
                "-o", str(ipath)]) == 0
    capsys.readouterr()
    word = ["E[e2<-e1]"] + ["E[f<-e1]"] * (MAX_CHAIN_SLOTS - 1)
    cpath.write_text(json.dumps({"format": "homotrace-chains/1", "chains": [
        {"name": "long", "terms": [{"coeff": "1", "slots": word}]}]}))
    root = pathlib.Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "homotrace.cli", "trace", "--instance",
         str(ipath), "--chain", str(cpath), "--cyclic", "2", "--output",
         "json"], env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 10
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)["results"][0]
    assert (result["cyclic_level"], result["cyclic_value"]) == (2, "0")


def test_max_arity_above_the_cap_exits_2(tmp_path, capsys):
    """``verify --max-arity`` above ``MAX_ARITY`` is refused while the
    command line is read, with one error line naming the cap; at the cap
    T1 verifies."""
    ipath = tmp_path / "t1.json"
    assert run(["gen", "--kind", "matrix", "--preset", "T1",
                "-o", str(ipath)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        run(["verify", "--instance", str(ipath),
             "--max-arity", str(MAX_ARITY + 1)])
    assert info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert errors == [
        "homotrace verify: error: argument --max-arity: must be an integer "
        f"<= {MAX_ARITY}, got '{MAX_ARITY + 1}'"]
    assert run(["verify", "--instance", str(ipath),
                "--max-arity", str(MAX_ARITY)]) == 0


def _matrix_units_file(path, n: int) -> None:
    """An exact instance file: an n-dimensional module in degree 0, Q = 0,
    and all n^2 matrix units as operators."""
    labels = [f"v{i}" for i in range(n)]
    path.write_text(json.dumps({
        "format": "homotrace-instance/1", "scalar": "exact",
        "module": [[0, n, labels]], "Q": [],
        "algebra": [[f"E[{a}<-{b}]", 0, [[b, a, "1"]]]
                    for a in labels for b in labels],
        "elements": [], "products": None, "splitting": None, "meta": {}}))


def test_more_operators_than_the_cap_exit_2(tmp_path, capsys):
    """A file that declares more than ``MAX_ALGEBRA_DIM`` operators is bad
    input: End of a 9-dimensional module (81 operators) gives one 'input
    error:' line."""
    path = tmp_path / "m9.json"
    _matrix_units_file(path, 9)
    capsys.readouterr()
    assert run(["verify", "--instance", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"input error: the instance declares 81 operators, above the cap "
        f"{MAX_ALGEBRA_DIM}"]


def _limit_memory():
    limit = 4 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_a_file_of_1024_operators_exits_2_within_seconds(tmp_path):
    """End of a 32-dimensional module, 1 024 operators, once asked the
    load for a dense 8 GiB array and ended in a numpy traceback (exit 1):
    it is refused by the operator cap before that, in a child process
    whose address space is capped at 4 GiB."""
    path = tmp_path / "m32.json"
    _matrix_units_file(path, 32)
    root = pathlib.Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "OPENBLAS_NUM_THREADS": "1"}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "homotrace.cli", "verify", "--instance",
         str(path)], env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_memory)
    assert time.perf_counter() - start < 30
    assert done.returncode == 2, done.stderr
    assert done.stderr.splitlines() == [
        f"input error: the instance declares 1024 operators, above the cap "
        f"{MAX_ALGEBRA_DIM}"]


@pytest.mark.parametrize("flags", [
    ["--order-cap", "1000"],
    ["--tau", "1e300,1"],
    ["--N", "2", "--order-cap", "100000"],
    ["--tau", "1e300,1", "--order-cap", "1"],
], ids=["order-cap-1000", "tau-1e300", "N2-order-cap-100000",
        "tau-1e300-order-cap-1"])
def test_torus_multipliers_beyond_double_range_exit_2(tmp_path, capsys,
                                                      flags):
    """A derivative multiplier lam^order that no double holds is bad input:
    exit 2 with one 'input error:' line, no traceback and no file.  So is
    a Laplacian of Q that overflows while every multiplier fits (order cap
    1, where the Hodge splitting squares Q)."""
    out = tmp_path / "x.json"
    assert run(["gen", "--kind", "torus", *flags, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("input error:")
    assert "double range" in err and not out.exists()


def test_torus_order_cap_zero_exits_2(tmp_path, capsys):
    assert run(["gen", "--kind", "torus", "--order-cap", "0",
                "-o", str(tmp_path / "x.json")]) == 2
    assert "order cap" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_gen_unwritable_output_exits_2(tmp_path, capsys, target):
    """An -o path in a missing directory, or a directory, is bad input:
    exit 2 with one 'cannot write instance file' line, no traceback."""
    out = tmp_path / "missing" / "a.json" if target == "missing-dir" \
        else tmp_path
    assert run(["gen", "--kind", "matrix", "--preset", "T1",
                "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("input error: cannot write instance file")


def test_gen_tau_beyond_double_range_exits_2(tmp_path, capsys):
    """A --tau part that no double holds is bad input naming --tau."""
    out = tmp_path / "x.json"
    assert run(["gen", "--kind", "torus", "--tau", "1,1e400",
                "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "--tau" in err
    assert err.startswith("input error:") and not out.exists()


@pytest.mark.parametrize("where", ["tau", "file"])
def test_a_huge_decimal_exponent_is_refused_at_once(tmp_path, capsys, where):
    """A decimal exponent far beyond the double range is refused without
    expanding 10^exp: ``--tau 1e10000000,1`` and a float file value
    "1e10000000" each exit 2 with one 'input error:' line within 1 s."""
    ipath = tmp_path / "t1f.json"
    if where == "tau":
        argv = ["gen", "--kind", "torus", "--tau", "1e10000000,1",
                "-o", str(ipath)]
    else:
        assert run(["gen", "--kind", "matrix", "--preset", "T1", "--mode",
                    "float", "-o", str(ipath)]) == 0
        data = json.loads(ipath.read_text())
        _set_operator_entry(data, "1e10000000")
        ipath.write_text(json.dumps(data))
        argv = ["verify", "--instance", str(ipath)]
    capsys.readouterr()
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("input error:")


@pytest.mark.parametrize("where", ["operator", "element", "chain"])
def test_a_huge_exact_exponent_is_refused_at_once(tmp_path, where):
    """An exact T1 file whose operator entry or element coordinate is
    "1e1000000", or a chain coefficient of that text, once made ``verify``
    run 210 s while Fraction expanded 10^exp: each exits 2 with one 'input
    error:' line within 1 s, in a child process."""
    ipath, cpath = tmp_path / "t1.json", tmp_path / "c.json"
    assert run(["gen", "--kind", "matrix", "--preset", "T1",
                "-o", str(ipath)]) == 0
    data = json.loads(ipath.read_text())
    coeff = "1"
    if where == "operator":
        _set_operator_entry(data, "1e1000000")
    elif where == "element":
        _set_element_coordinate(data, "1e1000000")
    else:
        coeff = "1e1000000"
    ipath.write_text(json.dumps(data))
    cpath.write_text(json.dumps({"format": "homotrace-chains/1", "chains": [
        {"name": "c", "terms": [{"coeff": coeff, "slots": ["Id"]}]}]}))
    argv = (["trace", "--instance", str(ipath), "--chain", str(cpath)]
            if where == "chain" else ["verify", "--instance", str(ipath)])
    root = pathlib.Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "homotrace.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=30)
    assert time.perf_counter() - start < 1.0
    assert done.returncode == 2, done.stderr
    err = done.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:")
    assert str(MAX_EXACT_EXPONENT) in err[0]


@pytest.mark.parametrize("tau", ["1/0,1", "1,1/0"])
def test_gen_tau_with_a_zero_denominator_exits_2(tmp_path, capsys, tau):
    """A --tau part with a zero denominator is bad input naming --tau, not
    a ZeroDivisionError."""
    out = tmp_path / "x.json"
    assert run(["gen", "--kind", "torus", "--tau", tau, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "--tau" in err
    assert err.startswith("input error:") and not out.exists()


def _set_q_entry(t1f, value):
    t1f["Q"][0][2] = value


def _set_operator_entry(t1f, value):
    t1f["algebra"][0][2][0][2] = value


def _set_element_coordinate(t1f, value):
    t1f["elements"][0][2][0][1] = value


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10 ** 400],
                         ids=["NaN", "Infinity", "beyond-double"])
@pytest.mark.parametrize("where", ["Q", "operator", "element", "chain"])
def test_non_finite_scalar_exits_2(tmp_path, capsys, where, value):
    """A JSON NaN, Infinity or a number beyond the double range in a float
    file is bad input: exit 2 with one 'input error:' line, never a
    traceback or a failed check."""
    ipath = tmp_path / "t1f.json"
    assert run(["gen", "--kind", "matrix", "--preset", "T1", "--mode", "float",
                "-o", str(ipath)]) == 0
    coeff = 1.0
    if where == "chain":
        coeff = value
    else:
        data = json.loads(ipath.read_text())
        {"Q": _set_q_entry, "operator": _set_operator_entry,
         "element": _set_element_coordinate}[where](data, value)
        ipath.write_text(json.dumps(data))
    cpath = tmp_path / "chains.json"
    cpath.write_text(json.dumps({
        "format": "homotrace-chains/1",
        "chains": [{"name": "c", "terms": [{"coeff": coeff, "slots": ["Id"]}]}],
    }))
    capsys.readouterr()
    assert run(["trace", "--instance", str(ipath), "--chain", str(cpath)]) == 2
    err = capsys.readouterr().err
    assert err.count("input error:") == 1 and len(err.splitlines()) == 1
    assert "Traceback" not in err
    if where != "chain":
        assert run(["verify", "--instance", str(ipath)]) == 2


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_cohomology_oracle_uses_its_own_splitting(mode):
    """An instance whose splitting projects twice as far in degree 0 fails
    the oracle: the transferred trace reads that splitting, the oracle
    another one.  Doubling the harmonic rows of R in degree 0 doubles
    ``project`` there."""
    inst = instance("T1" if mode == "exact" else "T1f")
    spectrum = dict(inst.splitting.spectrum)
    left, lam, right = spectrum[0]
    right = right.copy()
    right[lam == 0] *= 2
    spectrum[0] = (left, lam, right)
    bad = dataclasses.replace(inst, splitting=dataclasses.replace(
        inst.splitting, spectrum=spectrum))
    assert bad.splitting.project.equals(inst.splitting.project.scale(2))
    args = build_parser().parse_args(["verify", "--instance", "unused"])
    for case, passed in ((inst, True), (bad, False)):
        checks = {c["name"]: c["passed"] for c in _verify_checks(case, args)}
        assert checks["traces/cohomology-oracle"] is passed


@pytest.mark.parametrize("eps, code, err", [
    (1e-11, 1, "check failure: instance fails validation: "
               "action-multiplicative [(b0_1, b0_3)]"),
    (3e-10, 1, "check failure: instance fails validation: "
               "leibniz [(b0_1, b-1_0)], associativity [(b-1_0, b1_0, b0_3)], "
               "action-chain-map [b0_1], action-multiplicative [(b-1_0, b1_0)]"),
    (3e-9, 2, "input error: product b0_1*b0_1 is not in the span of the "
              "declared operators"),
    (1e-7, 2, "input error: product b-1_0*b1_0 is not in the span of the "
              "declared operators"),
])
def test_float_closure_thresholds(tmp_path, capsys, eps, code, err):
    """An off-pattern entry d0_0 -> d0_1 of size eps on b0_1 of the r7f
    file: while the residuals stay within AMBIGUITY_BAND * tol the file
    loads but fails validation at tol (exit 1); beyond that bound the
    operators escape their span (exit 2)."""
    data = instance_to_dict(instance("r7f"))
    b01 = next(op for op in data["algebra"] if op[0] == "b0_1")
    b01[2].append(["d0_0", "d0_1", eps])
    ipath = tmp_path / "r7f.json"
    ipath.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["verify", "--instance", str(ipath)]) == code
    assert capsys.readouterr().err.splitlines() == [err]


def _digest_chains(inst) -> dict:
    """Three chains, each with two seeded terms per length 1-3 of degree
    slots - 1 (the terms ``transferred_trace`` keeps) and two length-3
    terms of degree 0 (the level-1 cyclic trace)."""
    alg = inst.bundle.algebra
    degs = [alg.basis_degree(k) for k in range(alg.n_basis)]
    rng = random.Random(0)
    chains = []
    for c in range(3):
        terms = []
        for length, degree in ((1, 0), (2, 1), (3, 2), (3, 0)):
            pool = [t for t in itertools.product(range(alg.n_basis),
                                                 repeat=length)
                    if sum(degs[k] for k in t) == degree]
            for flats in rng.sample(pool, min(2, len(pool))):
                terms.append({"coeff": str(rng.choice((-2, -1, 1, 2, 3))),
                              "slots": [alg.basis_name(b) for b in flats]})
        chains.append({"name": f"chain{c}", "terms": terms})
    return {"format": "homotrace-chains/1", "chains": chains}


# name -> the digests of its verify --seed 0 and trace --cyclic 1 reports
EXACT_REPORTS = {
    "T1": ("6f0d8daa0590a7f425cdf72dd9a5b3940f113d24c0aeda7b2d4ac576d998b9d2",
           "269818b18d2d4e581e98e29ad741b864a6cdc04d4ddc844e8db23b5d2592f636"),
    "r11": ("1701af628bcb164318d5dcbb8320d045c5241f960fc7686155112c50717da494",
            "4150b0aba47194a6cbcfe33a9dcce90fe4b0eaaf7f4b2a991b1ba5e7e562e65f"),
    "m32": ("c7bfa9956b501e288c23a6975b7a2053b3712b65bca6d2562d0321f2da076d10",
            "b7381130cafe4d557dd4977bfd76b096aa95a4b78cd5bd0bd85d70725015f98e"),
    "T1-gaussian": (
        "6f0d8daa0590a7f425cdf72dd9a5b3940f113d24c0aeda7b2d4ac576d998b9d2",
        "0849ba8f954174e5a39adc74a9cbd290b87454792112d9842660cb4e14e20194"),
}

# name -> the digests of its verify --seed 0, trace --cyclic 1 and trace
# --method quadrature reports
FLOAT_REPORTS = {
    "T1f": ("5d3550c87ec8ba5de7df61589050802fc7a46c135425a50157b7ea23bc04a573",
            "870013712e83aebb6e6906bded146a946344028a38dda2559e36d5d63a054552",
            "1e5b453b64c80688ea7f622cdf65fae76604408845863b632a4fa35f77874464"),
    "r7f": ("5fbe349b43b54245af831b7c8a6cbf1af7a1f66780dc9d4ff6ed753d8105c188",
            "8b836f59eebcf5a4682df41f8e49d102b277436375366868fed48cb1446e1c8a",
            "6063c7cff4ceb18573010796850c4b69d9fa23ccf22ac4eddf14dbae4848a416"),
    "torus1": (
        "9c034455f9301193681a168d0a61abb8ee5482737dff3d2b80258cdfc5dc4d91",
        "e57a60bf1da80ade6b10575b21cb469c6459b10a29a0b7b17561467525b01864",
        "3312aa5b88a0115a6517391d81333e8fb0b055dd645eed0d6ffb73b4a97e16a6"),
}


@pytest.mark.parametrize("name", EXACT_REPORTS)
def test_exact_reports_are_unchanged(tmp_path, capsys, name):
    """Golden digests of the exact ``verify --seed 0`` and ``trace --cyclic
    1`` JSON reports, taken before the load and ``validate_bundle`` shared
    one residual pass (T1-gaussian, over Q(i): before the transfer kept
    per-basis steps and tails)."""
    assert _report_digests(tmp_path, capsys, instance(name), [
        ["--cyclic", "1"]]) == list(EXACT_REPORTS[name])


@pytest.mark.parametrize("name", FLOAT_REPORTS)
def test_float_reports_are_unchanged(tmp_path, capsys, name):
    """Golden digests of the float ``verify --seed 0``, ``trace --cyclic 1``
    and ``trace --method quadrature`` JSON reports, the float twin of
    ``test_exact_reports_are_unchanged``; taken while the algebra still
    stored a dense structure-constant tensor."""
    assert _report_digests(tmp_path, capsys, instance(name), [
        ["--cyclic", "1"], ["--method", "quadrature"]]) == list(
            FLOAT_REPORTS[name])


@pytest.mark.parametrize("name", names(EXACT) + names("copy"))
def test_sign_flips_equal_the_products_they_replace(tmp_path, capsys,
                                                   monkeypatch, name):
    """Every Koszul sign that ``times_sign`` applies in ``verify --seed 0``
    and ``trace --cyclic 1`` (the bar terms, the Hochschild boundary, the
    push-forward and the transferred trace) gives the product x * sign it
    replaces: the same type and value on exact scalars, and the same bits,
    the sign of a zero part included, on floats."""
    seen = []

    def recording(x, sign):
        got = times_sign(x, sign)
        seen.append((x, sign, got))
        return got

    for module in (dgcore, hochschild, traces):
        monkeypatch.setattr(module, "times_sign", recording)
    _report_digests(tmp_path, capsys, fresh(name), [["--cyclic", "1"]])
    assert {sign for _, sign, _ in seen} == {1, -1}
    for x, sign, got in seen:
        want = x * sign
        assert type(got) is type(want) and got == want, (x, sign)
        if isinstance(want, (complex, np.complexfloating)):
            assert struct.pack("<dd", got.real, got.imag) == struct.pack(
                "<dd", want.real, want.imag), (x, sign)


def test_quad_budget_defaults_to_the_library_budget():
    """``verify`` and ``trace`` take their ``--quad-budget`` default from
    ``quadrature.DEFAULT_BUDGET``, the default of the library calls."""
    for argv in (["verify", "--instance", "i.json"],
                 ["trace", "--instance", "i.json", "--chain", "c.json"]):
        assert build_parser().parse_args(argv).quad_budget == DEFAULT_BUDGET


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    """``build_parser`` runs once across several ``main`` calls, and after an
    argparse error (exit 2) the next ``gen``, ``verify`` and ``trace`` calls
    print the bytes that runs with a fresh parser print."""
    ipath, cpath = tmp_path / "t1.json", tmp_path / "c.json"
    cpath.write_text(json.dumps(_digest_chains(instance("T1"))))
    commands = [
        ["gen", "--kind", "matrix", "--preset", "T1", "-o", str(ipath)],
        ["verify", "--instance", str(ipath), "--max-arity", "3"],
        ["trace", "--instance", str(ipath), "--chain", str(cpath),
         "--cyclic", "1", "--output", "json"]]
    errors = [["verify", "--max-arity", "0", "--instance", str(ipath)],
              ["gen", "--kind", "sphere", "-o", str(ipath)],
              ["trace", "--instance", str(ipath)]]

    def printed(argv, fresh: bool) -> tuple[int, str, str]:
        if fresh:
            cli._parser.cache_clear()
        rc = main(argv)
        out = capsys.readouterr()
        return rc, out.out, out.err

    built = []

    def counting():
        built.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting)
    shared = []
    for bad, argv in zip(errors, commands):
        with pytest.raises(SystemExit) as info:
            main(bad)
        assert info.value.code == 2 and "error:" in capsys.readouterr().err
        shared.append(printed(argv, fresh=False))
    assert len(built) == 1
    assert [printed(argv, fresh=True) for argv in commands] == shared
    assert len(built) == 1 + len(commands)
    assert [rc for rc, _, _ in shared] == [0, 0, 0]
    cli._parser.cache_clear()


def _report_digests(tmp_path, capsys, inst, trace_flags) -> list[str]:
    """SHA-256 of the ``verify --seed 0`` JSON report of the instance's
    file, then of its ``trace`` JSON report on ``_digest_chains`` under
    each of the given flags."""
    ipath, cpath = tmp_path / "i.json", tmp_path / "c.json"
    save_instance(inst, str(ipath))
    cpath.write_text(json.dumps(_digest_chains(inst)))
    capsys.readouterr()
    digests = []
    for argv in (["verify", "--seed", "0"], *(
            ["trace", "--chain", str(cpath), *flags] for flags in trace_flags)):
        assert run([*argv, "--instance", str(ipath), "--output", "json"]) == 0
        digests.append(hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest())
    return digests


def test_real_gaussian_trace_prints_a_rational(tmp_path, capsys):
    """An exact trace value over Q(i) with zero imaginary part prints as a
    rational string, whatever arithmetic produced it: on T1 with
    E[e2<-e2] scaled by i, the chain coefficient -i gives str = 1."""
    data = t1_gaussian_dict()
    minus_i = {"re": "0", "im": "-1"}
    ipath, cpath = tmp_path / "i.json", tmp_path / "c.json"
    ipath.write_text(json.dumps(data))
    cpath.write_text(json.dumps({
        "format": "homotrace-chains/1",
        "chains": [{"name": "c", "terms": [{"coeff": minus_i,
                                             "slots": ["E[e2<-e2]"]}]}]}))
    capsys.readouterr()
    assert run(["trace", "--instance", str(ipath), "--chain", str(cpath),
                "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["value"] == "1"


@pytest.mark.parametrize("off, passed", [(0.5, True), (2.0, False)])
def test_verify_quadrature_check_compares_at_the_band(monkeypatch, off,
                                                      passed):
    """The quadrature check fails past AMBIGUITY_BAND * tol relative to the
    closed form, as every other float verify check does: a quadrature off
    by ``off`` times that band, relative, passes below 1 and fails above.
    Verify seed 5 draws two nonzero components of random seed 7 in float."""
    band = AMBIGUITY_BAND * DEFAULT_TOL
    nonzero = []

    def quadrature(tup, splitting, bundle, **kwargs):
        closed = transfer_closed(tup, splitting, bundle)
        m = closed.max_abs()
        nonzero.append(m > 0)
        return closed.scale(1 + off * band * (1 + m) / m if m else 1), 0.0

    monkeypatch.setattr("homotrace.cli.transfer_quadrature", quadrature)
    args = build_parser().parse_args(["verify", "--instance", "unused",
                                      "--seed", "5"])
    inst = instance("r7f")
    checks = {c["name"]: c["passed"] for c in _verify_checks(inst, args)}
    assert any(nonzero)
    assert checks["quadrature/agrees-with-closed-form"] is passed


def _r7f_failures(tmp_path, capsys) -> tuple[int, list[str]]:
    """The exit code and the FAIL lines of ``verify --max-arity 2`` on the
    float copy of random seed 7, whose checks all pass unpatched."""
    ipath = str(tmp_path / "r7f.json")
    save_instance(instance("r7f"), ipath)
    capsys.readouterr()
    rc = run(["verify", "--instance", ipath, "--max-arity", "2"])
    return rc, [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("FAIL ")]


def _nan_like(m: GradedMap) -> GradedMap:
    """A float map with the source, target and degree of ``m``, every entry
    NaN."""
    return GradedMap.build(m.source, m.target, m.degree, {
        d: np.full((m.target.dim(d + m.degree), n), np.nan, complex)
        for d, n in m.source.dims}, FLOAT)


def test_verify_fails_a_nan_ainfinity_defect(tmp_path, capsys, monkeypatch):
    """One all-NaN defect among the sampled ones fails the A-infinity check
    and is its reported maximum: NaN is within no bound."""
    calls = []

    def defect(f, word):
        calls.append(word)
        got = ainfinity_defect(f, word)
        return (GradedMap.identity(f.m0, FLOAT).scale(math.nan)
                if len(calls) == 1 else got)

    monkeypatch.setattr(cli, "ainfinity_defect", defect)
    assert _r7f_failures(tmp_path, capsys) == (
        1, ["FAIL  ainfinity/defects-k<= 2  [max nan]"])


def test_verify_fails_nan_quadrature_values(tmp_path, capsys, monkeypatch):
    """Quadrature values that are all NaN fail the comparison with the
    closed form, with a NaN relative error."""
    shaped = []

    def quadrature(tup, splitting, bundle, **kwargs):
        got = _nan_like(transfer_closed(tup, splitting, bundle))
        shaped.append(bool(got.blocks))
        return got, 0.0

    monkeypatch.setattr(cli, "transfer_quadrature", quadrature)
    assert _r7f_failures(tmp_path, capsys) == (1, [
        "FAIL  quadrature/agrees-with-closed-form  [relative error nan]"])
    assert any(shaped)


def test_verify_fails_a_nan_chain_map_defect(tmp_path, capsys, monkeypatch):
    """A push-forward that gives a tiny term and then a NaN one, on words
    whose boundary is zero in End(H), leaves the defect -1e-12 and NaN in
    that order; the chain-map check fails on the NaN that comes second."""
    def pushed(chain, f):
        return HochschildChain(f.target.algebra,
                               {(1,): 1e-12 + 0j, (2,): complex(math.nan)})

    monkeypatch.setattr(hochschild, "push_chain", pushed)
    assert _r7f_failures(tmp_path, capsys) == (
        1, ["FAIL  hochschild/chain-map"])


def test_trace_tolerance_reaches_the_quadrature(tmp_path, capsys):
    """``trace --tolerance`` sets the quadrature's relative tolerance to
    AMBIGUITY_BAND * tol, as in ``verify``: on the float copy of random
    seed 11, a tighter tolerance refines the integration, so every chain's
    error estimate falls."""
    inst = instance("r11f")
    ipath, cpath = str(tmp_path / "r11f.json"), tmp_path / "c.json"
    save_instance(inst, ipath)
    cpath.write_text(json.dumps(_digest_chains(inst)))
    errors = []
    for tol in (DEFAULT_TOL, 1e-11):
        capsys.readouterr()
        assert run(["trace", "--instance", ipath, "--chain", str(cpath),
                    "--method", "quadrature", "--tolerance", str(tol),
                    "--output", "json"]) == 0
        errors.append([r["error"] for r in json.loads(
            capsys.readouterr().out)["results"]])
    assert all(0 < tight < loose for loose, tight in zip(*errors))


@pytest.mark.parametrize("where", ["operator", "module", "element"])
@pytest.mark.parametrize("degree", [
    "1" + "0" * 300, str(2 ** 63), str(-2 ** 63 - 1), "Infinity",
    "1" + "0" * 5000,
], ids=["10^300", "2^63", "-2^63-1", "Infinity", "10^5000"])
def test_degree_beyond_int64_is_bad_input(tmp_path, capsys, where, degree):
    """A declared degree that numpy's int64 cannot hold, on an operator
    with no entries added to the T1 file, on a module degree or on an
    element, is bad input: ``instance_from_dict`` raises InputError, and
    ``verify`` and ``trace`` exit 2 with one 'input error:' line and no
    traceback.  (A JSON integer of over 4 300 digits is refused while the
    file is read.)"""
    ipath, cpath = tmp_path / "t1.json", tmp_path / "c.json"
    assert run(["gen", "--kind", "matrix", "--preset", "T1",
                "-o", str(ipath)]) == 0
    data = json.loads(ipath.read_text())
    {"operator": data["algebra"], "module": data["module"],
     "element": data["elements"]}[where].append(
        {"operator": ["big", "DEGREE", []], "module": ["DEGREE", 1, ["z"]],
         "element": ["big", "DEGREE", []]}[where])
    ipath.write_text(json.dumps(data).replace('"DEGREE"', degree))
    cpath.write_text(json.dumps({"format": "homotrace-chains/1", "chains": [
        {"name": "c", "terms": [{"coeff": "1", "slots": ["Id"]}]}]}))
    if len(degree) < 4300:
        with pytest.raises(InputError):
            instance_from_dict(json.loads(ipath.read_text()))
    for argv in (["verify", "--instance", str(ipath)],
                 ["trace", "--instance", str(ipath), "--chain", str(cpath)]):
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("name", names(EXACT))
def test_exact_kernel_results_carry_their_rows(tmp_path, capsys, monkeypatch,
                                               name):
    """Under ``verify --seed 0`` and ``trace --cyclic 1``, every exact map
    that ``compose``, ``scale``, ``+`` or ``-`` returns (other than one of
    its inputs, returned as it is) carries its ``sparse_rows``, equal to
    the rows read again from its blocks, so no kernel result is read
    twice."""
    seen = []

    def recording(fn):
        def recorded(*args):
            out = fn(*args)
            seen.append((out, args))
            return out
        return recorded

    compose = glinalg.compose
    for module in (glinalg, dgcore, hochschild, traces, transfer):
        if getattr(module, "compose", None) is compose:
            monkeypatch.setattr(module, "compose", recording(compose))
    for attr in ("scale", "__add__", "__sub__"):
        monkeypatch.setattr(GradedMap, attr,
                            recording(getattr(GradedMap, attr)))
    _report_digests(tmp_path, capsys, fresh(name), [["--cyclic", "1"]])
    formed = [out for out, args in seen if out.mode == EXACT
              and not any(out is arg for arg in args)]
    assert len(formed) > 100
    for out in formed:
        assert "sparse_rows" in vars(out)
        assert out.sparse_rows == {d: glinalg._read_rows(m)
                                   for d, m in out.blocks}
