"""Command-line surface: determinism, report shapes, exit codes."""

import json

import pytest

from dglevels.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_molecule_report(capsys):
    code, out = run(capsys, "molecule", "--d", "4", "--l", "3", "--m", "1", "--field", "q")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["cohomology"] == {"0": 1, "7": 1}
    assert report["result"]["level"] == 2
    assert report["result"]["realizable"]["realizable"] == "yes"
    assert report["kind"] == "molecule-catalog"


def test_byte_identical_runs(capsys):
    argv = ["decompose", "--d", "4", "--field", "f2",
            "--dims", "0:1,5:1,6:1,7:1,12:1,13:1"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second
    report = json.loads(first)
    names = [m["name"] for m in report["result"]["molecules"]]
    assert names == ["Σ^{-3}Z_1", "Σ^{-8}Z_1", "Σ^{-9}Z_1"]
    assert report["result"]["componentIndices"] == [0, 2, 0]
    assert report["result"]["level"] == {"kind": "exact", "level": 2}


def test_quiver_dot(capsys):
    code, out = run(capsys, "quiver", "--d", "4", "--component", "0",
                    "--rows", "3", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert '"Z_0" -> "Σ^{-3}Z_1";' in out
    assert "one of 3 components" in out


def test_level_command(capsys):
    code, out = run(capsys, "level", "--d", "7", "--dims", "0:1,3:1,7:1,10:1")
    assert code == 0
    assert json.loads(out)["result"]["kind"] == "exact"
    assert json.loads(out)["result"]["level"] == 1


def test_tor_and_phi(capsys):
    code, out = run(capsys, "tor", "--d", "4", "--module", "k", "--arg", "k",
                    "--strategy", "koszul", "--window", "0:12")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["tor"] == {"0": 1, "3": 1, "6": 1, "9": 1, "12": 1}
    assert report["result"]["verdict"]["kind"] == "infinite"

    code, out = run(capsys, "phi", "--d", "4", "--module", "s7", "--window", "0:40")
    assert code == 0
    assert json.loads(out)["result"]["compact"] is False


def test_emss_json(capsys):
    code, out = run(capsys, "emss", "--d", "4", "--top", "s7", "--hopf", "1",
                    "--field", "q")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["totalDims"] == {"0": 1, "3": 1}
    assert report["result"]["verdict"]["kind"] == "finite"


def test_emss_table(capsys):
    code, out = run(capsys, "emss", "--d", "4", "--top", "s7", "--hopf", "1",
                    "--format", "table")
    assert code == 0
    assert "E∞" in out and "verdict: finite" in out


def test_p_tower_and_pile(capsys):
    code, out = run(capsys, "p-tower", "--l", "2", "--d", "3", "--m", "7")
    assert code == 0
    assert json.loads(out)["result"]["level"] == {"kind": "exact", "level": 2}

    code, out = run(capsys, "pile", "--stages", "2", "--odd-spheres", "1")
    assert code == 0
    assert json.loads(out)["result"]["levelUpperBound"] == 3


def test_bundle_level_command(capsys):
    code, out = run(capsys, "bundle-level", "--gens", "4,6,8", "--field", "f2",
                    "--f4", "nonzero")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["level"] == 2


def test_hopf_command(tmp_path, capsys):
    model = {
        "d": 4,
        "target": {
            "field": "q",
            "generators": [["x", 4, "polynomial"], ["ξ", 7, "exterior"],
                           ["ρ", 3, "exterior"]],
            "differential": {
                "ξ": [["1/1", {"x": 2}]],
                "ρ": [["1/1", {"x": 1}]],
            },
        },
        "gx": [["1/1", {"x": 1}]],
        "gxi": [["1/1", {"ξ": 1}]],
        "generator": [["1/1", {"ρ": 1, "x": 1}], ["-1/1", {"ξ": 1}]],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    code, out = run(capsys, "hopf", "--model", str(path))
    assert code == 0
    assert json.loads(out)["result"]["hopf"] == "1/1"


def test_domain_error_exit_code(capsys):
    code, out = run(capsys, "decompose", "--d", "4", "--dims", "0:1,1:1")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "no-valid-matching"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as e:
        main(["nonsense-command"])
    assert e.value.code == 2


def test_window_env_override(capsys, monkeypatch):
    monkeypatch.setenv("DG_LEVEL_WINDOW", "0:12")
    code, out = run(capsys, "tor", "--d", "4", "--module", "k", "--arg", "k")
    assert code == 0
    assert json.loads(out)["result"]["certifiedThrough"] == 12


@pytest.mark.parametrize("argv", [
    ["tor", "--d", "4", "--window", "abc"],
    ["phi", "--d", "4", "--module", "s7", "--window", "0:4:8"],
])
def test_malformed_window_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "is not of the form lo:hi" in capsys.readouterr().err


@pytest.mark.parametrize("dims", ["0:x", "0:1,4"])
def test_malformed_dims_is_usage_error(dims, capsys):
    for command in ("decompose", "level"):
        with pytest.raises(SystemExit) as e:
            main([command, "--d", "4", "--dims", dims])
        assert e.value.code == 2
        assert "is not of the form degree:multiplicity" in capsys.readouterr().err


def test_malformed_window_env_is_domain_error(capsys, monkeypatch):
    monkeypatch.setenv("DG_LEVEL_WINDOW", "abc")
    code, out = run(capsys, "tor", "--d", "4", "--module", "k", "--arg", "k")
    assert code == 1
    error = json.loads(out)["error"]
    assert error["code"] == "invalid-presentation"
    assert error["message"] == "window 'abc' is not of the form lo:hi"


@pytest.mark.parametrize("command", ["decompose", "level"])
def test_sphere_dimension_one_is_domain_error(command, capsys):
    code, out = run(capsys, command, "--d", "1", "--dims", "0:1,1:1")
    assert code == 1
    assert json.loads(out)["error"] == {"code": "invalid-presentation",
                                        "message": "sphere dimension must exceed 1"}
