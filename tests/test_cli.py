"""Command-line surface: generation, verification, traces, exit codes."""

import json

import pytest

from homotrace.cli import main


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
    ipath = str(tmp_path / "torus.json")
    assert run(["gen", "--kind", "torus", "--N", "1", "-o", ipath]) == 0
    capsys.readouterr()
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
    ipath = str(tmp_path / "torus.json")
    run(["gen", "--kind", "torus", "--N", "1", "-o", ipath])
    cpath = tmp_path / "chains.json"
    cpath.write_text(json.dumps({
        "format": "homotrace-chains/1",
        "chains": [{"name": "pair", "terms": [
            {"coeff": 1.0, "slots": ["Id", "Id"]}]}],
    }))
    capsys.readouterr()
    assert run(["trace", "--instance", ipath, "--chain", str(cpath),
                "--method", "quadrature", "--output", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["results"][0]["provenance"] == "quadrature"
    assert "error" in data["results"][0]


def test_gen_respects_dims_bound(tmp_path, capsys):
    assert run(["gen", "--kind", "torus", "--N", "4",
                "-o", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("command, instance, chains", [
    ("verify", {"format": "homotrace-instance/1", "scalar": "exact"}, None),
    ("verify", {"format": "homotrace-instance/1", "scalar": "exact",
                "module": [[0, 2]], "Q": [], "algebra": []}, None),
    ("verify", [1, 2], None),
    ("verify", {"format": "homotrace-instance/1", "scalar": "exact",
                "module": [[0, 2, ["a"]]], "Q": [], "algebra": []}, None),
    ("trace", None, {"format": "homotrace-chains/1"}),
    ("trace", None, {"format": "homotrace-chains/1", "chains": [
        {"name": "c", "terms": [{"coeff": "x", "slots": ["Id"]}]}]}),
    ("gen", None, None),
], ids=["no-module", "short-module-entry", "top-level-list",
        "label-count", "no-chains", "bad-coefficient", "zero-dims"])
def test_malformed_input_exits_2(tmp_path, capsys, command, instance, chains):
    """A malformed file or an empty --dims is bad input: exit 2 with one
    'input error:' line, never a traceback."""
    ipath = tmp_path / "instance.json"
    if instance is None:
        assert run(["gen", "--kind", "matrix", "--preset", "T1",
                    "-o", str(ipath)]) == 0
    else:
        ipath.write_text(json.dumps(instance))
    cpath = tmp_path / "chains.json"
    cpath.write_text(json.dumps(chains))
    argv = {"verify": ["verify", "--instance", str(ipath)],
            "trace": ["trace", "--instance", str(ipath), "--chain", str(cpath)],
            "gen": ["gen", "--kind", "random", "--dims", "0,0",
                    "-o", str(tmp_path / "x.json")]}[command]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.count("input error:") == 1 and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--max-arity", "0"],
    ["verify", "--max-arity", "-1"],
    ["verify", "--tolerance", "-1"],
    ["gen", "--kind", "random", "--dims", "2,1", "--tolerance", "-1"],
    ["gen", "--kind", "torus", "--tolerance", "0"],
    ["trace", "--chain", "c.json", "--tolerance", "nan"],
    ["verify", "--tolerance", "abc"],
], ids=["max-arity-0", "max-arity-neg", "verify-tol-neg", "gen-tol-neg",
        "gen-tol-zero", "trace-tol-nan", "tol-not-a-number"])
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


def test_torus_order_cap_zero_exits_2(tmp_path, capsys):
    assert run(["gen", "--kind", "torus", "--order-cap", "0",
                "-o", str(tmp_path / "x.json")]) == 2
    assert "order cap" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()
