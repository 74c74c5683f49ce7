"""Command-line surface: determinism, report shapes, exit codes."""

import hashlib
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dglevels import cli, spheres
from dglevels.cli import main
from dglevels.errors import BudgetExceeded
from dglevels.rational import PILE_LABEL_BUDGET
from dglevels.resolve import (
    BAR_WORD_BUDGET,
    EXTERIOR_BASIS_BUDGET,
    KOSZUL_GENERATOR_BUDGET,
    check_exterior_basis,
)


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


@pytest.mark.parametrize("l, m, cohomology, level, component, reason", [
    (2, 1, {"-1": 1, "6": 1}, 2, 2, "NegativeDegreeObstruction"),
    (6, 2, {"0": 1, "10": 1}, 3, 0, "FibreCohomologyInfinite"),
])
def test_molecule_payload_names_the_realizability_obstruction(capsys, l, m, cohomology,
                                                               level, component, reason):
    code, out = run(capsys, "molecule", "--d", "4", "--l", str(l), "--m", str(m))
    assert code == 0
    assert json.loads(out) == {
        "command": "molecule",
        "inputs": {"d": 4, "field": "Q", "l": l, "m": m},
        "kind": "molecule-catalog",
        "result": {
            "cohomology": cohomology,
            "componentIndex": component,
            "level": level,
            "molecule": {"d": 4, "l": l, "m": m, "name": f"Σ^{{-{l}}}Z_{m}"},
            "realizable": {"realizable": "no", "reason": reason},
        },
        "timing_ms": None,
    }


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


def test_quiver_past_its_vertex_budget_is_refused_before_it_is_built(capsys, monkeypatch):
    monkeypatch.setattr(spheres, "MoleculeId", None)    # nothing may be built
    for rows, cols in (("101", "100"), ("1000", "1000"), ("3000", "3000")):
        code, out = run(capsys, "quiver", "--d", "4", "--rows", rows, "--cols", cols,
                        "--format", "dot")
        assert code == 1
        n = int(rows) * int(cols)
        assert json.loads(out) == {"error": {
            "code": "budget-exceeded",
            "message": f"a {rows} × {cols} quiver grid has {n} vertices, more than 10000"}}


def test_quiver_json(capsys):
    code, out = run(capsys, "quiver", "--d", "4", "--rows", "2", "--cols", "2")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["componentCount"] == 3
    assert [[v["name"] for v in row] for row in result["vertices"]] == \
        [["Z_0", "Σ^{-3}Z_0"], ["Z_1", "Σ^{-3}Z_1"]]
    # up-right into the next column, down within the column
    assert result["arrows"] == [["Z_0", "Σ^{-3}Z_1"], ["Z_1", "Z_0"],
                                ["Σ^{-3}Z_1", "Σ^{-3}Z_0"]]


def test_timing_reports_milliseconds(capsys):
    code, out = run(capsys, "--timing", "molecule", "--d", "4", "--l", "3", "--m", "1")
    assert code == 0
    timing = json.loads(out)["timing_ms"]
    assert isinstance(timing, float) and timing >= 0


def test_level_interval_on_an_ambiguous_table(capsys):
    code, out = run(capsys, "level", "--d", "4", "--dims", "0:1,3:1,7:1,10:1")
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["kind"], result["lo"], result["hi"]) == ("interval", 2, 3)
    assert result["decomposition"]["ambiguous"] is True


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


def test_emss_extra_factor(capsys):
    code, out = run(capsys, "emss", "--d", "4", "--top", "s7", "--hopf", "1",
                    "--extra", "s7")
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["extra"] == "s7"
    assert report["result"]["totalDims"] == {"0": 1, "3": 1, "7": 1, "10": 1}
    assert report["result"]["verdict"]["kind"] == "finite"


def test_emss_is_finite_only_when_the_window_holds_every_survivor(capsys):
    # the survivors 1, s⁻¹x4 times 1, e30 reach degree 33, past the default 0:32
    argv = ["emss", "--d", "4", "--top", "s7", "--hopf", "1", "--extra", "s30"]
    code, out = run(capsys, *argv)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["totalDims"] == {"0": 1, "3": 1, "30": 1}
    assert result["verdict"] == {"kind": "unknown"}
    code, out = run(capsys, *argv, "--window", "0:60")
    assert json.loads(out)["result"]["verdict"] == {
        "kind": "finite", "total": 4, "dims": {"0": 1, "3": 1, "30": 1, "33": 1}}


def test_emss_refuses_a_window_that_starts_above_degree_0(capsys):
    # every class the command can name lies in degree >= 0 and the sequence
    # is read from degree 0, so a window from 50 would still report 0 … 49
    argv = ["emss", "--d", "4", "--top", "s7", "--hopf", "0"]
    error = {"error": {"code": "invalid-presentation", "message":
                       "the spectral sequence is read from degree 0; "
                       "window 50:70 starts above it"}}
    code, out = run(capsys, *argv, "--window", "50:70")
    assert (code, json.loads(out)) == (1, error)
    code, out = run(capsys, *argv, "--window=-4:70")
    assert code == 0 and json.loads(out)["result"]["verdict"]["kind"] == "infinite"


@pytest.mark.parametrize("d", [3, 4, 6])
@pytest.mark.parametrize("field", ["q", "f2"])
def test_emss_counts_both_classes_of_s0(capsys, d, field):
    # S^0 is two points: K ⊕ K in degree 0, as `tor --module s0` reads it
    window = ["--window", "0:30", "--field", field]
    code, out = run(capsys, "tor", "--d", str(d), "--module", "s0", *window)
    assert code == 0
    tor = json.loads(out)["result"]
    horizon = min(tor["certifiedThrough"], 29)     # the EMSS certifies through hi - 1
    certified = {n: v for n, v in tor["tor"].items() if int(n) <= horizon}
    assert set(certified.values()) == {2}
    for flag in ("--top", "--extra"):
        code, out = run(capsys, "emss", "--d", str(d), flag, "s0", *window)
        assert code == 0
        totals = json.loads(out)["result"]["totalDims"]
        assert {n: v for n, v in totals.items() if int(n) <= horizon} == certified, flag
    code, out = run(capsys, "emss", "--d", "4", "--top", "s7", "--hopf", "1", "--extra", "s0")
    assert json.loads(out)["result"]["totalDims"] == {"0": 2, "3": 2}


@pytest.mark.parametrize("argv, message", [
    (["emss", "--d", "4", "--top", "foo"], "unknown top space 'foo'"),
    (["emss", "--d", "4", "--extra", "foo"], "unknown extra factor 'foo'"),
    (["tor", "--d", "4", "--module", "foo"], "unknown module spec 'foo' (expected k or s<n>)"),
])
def test_unknown_space_names_are_domain_errors(argv, message, capsys):
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {"error": {"code": "domain-error", "message": message}}


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


def test_pile_label_budget(capsys):
    # 2 stages over 12 odd spheres list (1 + 2 + 3)·2^12 labels, within the budget
    code, out = run(capsys, "pile", "--stages", "2", "--odd-spheres", "12")
    assert code == 0
    assert sum(map(len, json.loads(out)["result"]["stages"])) == 24_576 <= PILE_LABEL_BUDGET
    # 20,000 stages would list about 2·10^8; refused before anything is built
    start = time.perf_counter()
    code, out = run(capsys, "pile", "--stages", "20000")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    error = json.loads(out)["error"]
    assert error["code"] == "budget-exceeded"
    assert f"more than {PILE_LABEL_BUDGET}" in error["message"]


# sha256 of `p-tower --l l --report all` stdout for d = 3…6, recorded before
# TowerSpec took its generators as (label, degree, D) triples
P_TOWER_DIGESTS = {
    1: ("6ddb2a5ebdb07fb41d65abc258fe6af73cf0d4fea8bb2746390c4f8feb427b41",
         "a741992290ce51388973cd15516dfc4f36671433fbfa9d6e8976bbe81b54bfd7",
         "eee4e7be4662a1f5871fa8fbe50d8975bed192583998bc9aeb4bab14674fa79a",
         "400de128e86d6106a4d5e906d052995406b16bcae876a5fde88cd9dd2b03ffeb"),
    2: ("73249a4575a08f6389f1970b7564e300681028b531fb4459c6d4d84187a04bae",
         "3953a1d85fa6fcc564da0b9a17b4fbc262a9d87cfc61ab3c957629aefcf83dff",
         "434e031f405667ae9b879618a8c320f1d33159db68cf0e50f4558655418e5f6b",
         "51e0279ec121da28b6d2172cf818f01a79af4ad8747c5a86540ed2180147e2dc"),
    3: ("67762a82e85661f0935434d8b4e30a93f844f6a584a194f3bb7b124c99cead8b",
         "9f46ceddb894efad6e09add6ab8c55b3cc6d059500e14d59ab3d13a4b239f15e",
         "e9b464d3355c8f9eab7ce5774be4d33b1789bde57977115fe7da8466cd9c7401",
         "09d73cbcd5b3b59af282da3835946c7989cb257fc056296bf6dd21ace9739d06"),
    4: ("b14c4faa82a908c05c179643265148777a55c199606e2a60da9ae1878dac41a5",
         "bb79984c2529a318523ff9853b1001fd3df27af7e25e4dfe0c3e926968ed1554",
         "9b0e83cd4cc04c2bb5ed84b854ab0e050a11e87d5b4e61e397eb5084fded8c61",
         "061560f124fb22c57f4efd5aa31c0a86d7b86d9ace34a5a9bab9fb9d900302c7"),
    5: ("5b04211c12eccf99a20c9f0cf7fa49155c019b67cfa9e47ce73d86b3e75fa52b",
         "7d650abce64cf7b4f0424925ec2df66be2ec8d654e09973e9d84c967739aa031",
         "ebd31543d0c991e3eda552381d25eac308ae50c04d66f8ea556e6434fe877bf3",
         "5b26aa1b89a160a2dcd45541f65f4b545f3863f84af18474846c67dc992724fd"),
}


@pytest.mark.parametrize("l", sorted(P_TOWER_DIGESTS))
def test_p_tower_stdout_is_pinned(capsys, l):
    for d, digest in zip(range(3, 7), P_TOWER_DIGESTS[l]):
        code, out = run(capsys, "p-tower", "--l", str(l), "--d", str(d), "--report", "level")
        assert code == 0 and json.loads(out)["result"]["fibreFinite"] is True
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (l, d)


def test_bundle_level_command(capsys):
    code, out = run(capsys, "bundle-level", "--gens", "4,6,8", "--field", "f2",
                    "--f4", "nonzero")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["level"] == 2


HOPF_MODEL = {
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


def test_hopf_command(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(HOPF_MODEL), encoding="utf-8")
    code, out = run(capsys, "hopf", "--model", str(path))
    assert code == 0
    assert json.loads(out)["result"]["hopf"] == "1/1"


def test_hopf_generator_auto_ignores_the_file_generator(tmp_path, capsys):
    # the file's generator is the negative of the class auto picks
    path = tmp_path / "model.json"
    negated = [["-1/1", {"ρ": 1, "x": 1}], ["1/1", {"ξ": 1}]]
    path.write_text(json.dumps(dict(HOPF_MODEL, generator=negated)), encoding="utf-8")
    code, out = run(capsys, "hopf", "--model", str(path), "--generator", "auto")
    assert code == 0 and json.loads(out)["result"]["hopf"] == "1/1"
    code, out = run(capsys, "hopf", "--model", str(path), "--generator", "file")
    assert code == 0 and json.loads(out)["result"]["hopf"] == "-1/1"


def test_hopf_d_flag_is_a_usage_error(tmp_path, capsys):
    # the sphere dimension comes from the model file alone, even when equal
    path = tmp_path / "model.json"
    path.write_text(json.dumps(HOPF_MODEL), encoding="utf-8")
    with pytest.raises(SystemExit) as e:
        main(["hopf", "--model", str(path), "--d", "4"])
    assert e.value.code == 2
    assert "unrecognized arguments: --d 4" in capsys.readouterr().err


def test_level_reads_a_module_over_odd_polynomial_generators_in_char_2(tmp_path, capsys):
    from dglevels.algebra import DGAlgebraPresentation
    from dglevels.field import GF2
    from dglevels.module import DGModulePresentation

    A = DGAlgebraPresentation.polynomial(GF2, [("y4", 4), ("y7", 7)],
                                         char2_polynomial_odd=True)
    path = tmp_path / "k.json"
    path.write_text(json.dumps(DGModulePresentation.trivial(A).to_json()), encoding="utf-8")
    # the file is read back; the module is then refused as not over H*(S^4)
    code, out = run(capsys, "level", "--d", "4", "--module", str(path))
    assert code == 1
    assert json.loads(out)["error"] == {"code": "invalid-presentation",
                                        "message": "the module does not live over H*(S^4)"}


@pytest.mark.parametrize("l, m, index, degree",
                         [(0, 1, 1, 0.5), (3, 1, 1, "3"), (1, 0, 0, True)],
                         ids=["float", "string", "bool"])
def test_level_refuses_a_module_degree_that_is_no_integer(tmp_path, capsys, l, m, index, degree):
    # each degree reads as the model's own under int(), so none may be read that way
    payload = spheres.molecule_model(spheres.MoleculeId(4, l, m)).to_json()
    label, old = payload["generators"][index]
    assert int(degree) == old
    payload["generators"][index][1] = degree
    path = tmp_path / "module.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out = run(capsys, "level", "--d", "4", "--module", str(path))
    assert code == 1
    assert json.loads(out)["error"] == {
        "code": "invalid-presentation",
        "message": f"degree {degree!r} of module generator {label!r} is no integer"}


def test_hopf_refuses_a_model_degree_that_is_no_integer(tmp_path):
    target = dict(HOPF_MODEL["target"], generators=[["x", 4.0, "polynomial"],
                                                    *HOPF_MODEL["target"]["generators"][1:]])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dict(HOPF_MODEL, target=target)), encoding="utf-8")
    code, out = run_captured(["hopf", "--model", str(path)])
    assert code == 1
    assert json.loads(out)["error"] == {"code": "invalid-presentation",
                                        "message": "degree 4.0 of 'x' is no integer"}


@pytest.mark.parametrize("case", ["missing file", "invalid json", "no target",
                                  "no generator"])
def test_unreadable_hopf_models_are_domain_errors(tmp_path, case):
    path = tmp_path / "model.json"
    model = dict(HOPF_MODEL)
    argv = ["hopf", "--model", str(path)]
    if case == "invalid json":
        path.write_text("{", encoding="utf-8")
    elif case != "missing file":
        del model["target" if case == "no target" else "generator"]
        path.write_text(json.dumps(model), encoding="utf-8")
        argv += ["--generator", "file"]
    code, out = run_captured(argv)
    error = json.loads(out)["error"]
    assert code == 1 and error["code"] == "invalid-presentation"
    assert error["message"].startswith(f"cannot read a Hopf model from {str(path)!r}")


def test_hopf_of_sphere_dimension_one_is_domain_error(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dict(HOPF_MODEL, d=1)), encoding="utf-8")
    code, out = run_captured(["hopf", "--model", str(path)])
    assert code == 1
    assert json.loads(out)["error"] == {"code": "invalid-presentation",
                                        "message": "sphere dimension must exceed 1"}


def test_decompose_runs_the_matching_search_once(capsys, monkeypatch):
    calls = []
    search = spheres.all_matchings
    monkeypatch.setattr(spheres, "all_matchings", lambda *a: calls.append(a) or search(*a))
    code, out = run(capsys, "decompose", "--d", "4", "--dims", "0:1,3:1,7:1,10:1")
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["result"]["level"] == {"kind": "interval", "lo": 2, "hi": 3}


def test_a_table_with_no_matching_answers_within_a_second(capsys):
    start = time.perf_counter()
    code, out = run(capsys, "decompose", "--d", "4", "--dims", "0:32,4:15,7:15")
    assert time.perf_counter() - start < 1
    assert code == 1 and json.loads(out)["error"]["code"] == "no-valid-matching"


def test_domain_error_exit_code(capsys):
    code, out = run(capsys, "decompose", "--d", "4", "--dims", "0:1,1:1")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "no-valid-matching"


def test_matching_budget_is_domain_error(capsys):
    # sixteen distinct even degrees over S^2 have 2,027,025 matchings
    dims = ",".join(f"{n}:1" for n in range(0, 32, 2))
    code, out = run(capsys, "decompose", "--d", "2", "--dims", dims)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["code"] == "budget-exceeded"
    assert "matchings" in error["message"]


def test_bar_word_budget_is_domain_error(capsys):
    # over H*(S^2) window 0:n needs n + 3 bar words
    start = time.perf_counter()
    code, out = run(capsys, "tor", "--d", "2", "--strategy", "bar",
                    "--window", f"0:{BAR_WORD_BUDGET + 200}")
    assert time.perf_counter() - start < 5.0
    assert code == 1
    error = json.loads(out)["error"]
    assert error["code"] == "budget-exceeded"
    assert f"more than {BAR_WORD_BUDGET} bar words" in error["message"]


def test_koszul_generator_budget_is_domain_error(capsys):
    # window 0:hi over H*(S^4) needs one generator per 3 degrees through hi + 1
    start = time.perf_counter()
    code, out = run(capsys, "tor", "--d", "4", "--module", "k", "--arg", "k", "--strategy",
                    "koszul", "--window", "0:1000000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    error = json.loads(out)["error"]
    assert error["code"] == "budget-exceeded"
    assert error["message"] == ("the Koszul resolution over H*(S^4) through degree "
                                f"1000000000001 needs more than {KOSZUL_GENERATOR_BUDGET} "
                                "generators")


EXTERIOR_LISTINGS = {
    "p-tower": "a tower with 30 extension generators would list 2^30",
    "bundle-level": "the Koszul complex over 14 polynomial generators would list 2^14",
    "pile": "a pile over 13 extra odd spheres would list 2^13",
}


@pytest.mark.parametrize("argv", [
    ["p-tower", "--l", "30", "--d", "3"],
    ["bundle-level", "--gens", ",".join(map(str, range(4, 31, 2)))],   # 14 generators
    ["pile", "--stages", "2", "--odd-spheres", "13"],
])
def test_exterior_basis_budget_is_domain_error(capsys, argv):
    # each lists 2^n products of n exterior generators; past the budget it
    # stops before listing any
    start = time.perf_counter()
    code, out = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    error = json.loads(out)["error"]
    assert error["code"] == "budget-exceeded"
    assert error["message"] == (f"{EXTERIOR_LISTINGS[argv[0]]} exterior products, "
                                f"more than {EXTERIOR_BASIS_BUDGET}")


def test_exterior_basis_budget_boundary():
    check_exterior_basis(EXTERIOR_BASIS_BUDGET.bit_length() - 1, "the largest basis")
    with pytest.raises(BudgetExceeded, match="2\\^13 exterior products"):
        check_exterior_basis(EXTERIOR_BASIS_BUDGET.bit_length(), "one more generator")


def test_a_negative_odd_sphere_count_is_domain_error(capsys):
    code, out = run(capsys, "pile", "--stages", "2", "--odd-spheres", "-3")
    assert code == 1
    assert json.loads(out)["error"] == {
        "code": "invalid-presentation",
        "message": "the count of extra odd spheres must be nonnegative"}


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as e:
        main(["nonsense-command"])
    assert e.value.code == 2


def test_the_window_env_variable_is_ignored(capsys, monkeypatch):
    # a window comes from --window alone, so one argv prints one output
    argv = ["tor", "--d", "4", "--module", "k", "--arg", "k"]
    code, plain = run(capsys, *argv)
    assert code == 0 and json.loads(plain)["result"]["certifiedThrough"] == 64
    for value in ("0:12", "abc"):
        monkeypatch.setenv("DG_LEVEL_WINDOW", value)
        assert run(capsys, *argv) == (0, plain), value


@pytest.mark.parametrize("argv", [
    ["tor", "--d", "4", "--window", "abc"],
    ["phi", "--d", "4", "--module", "s7", "--window", "0:4:8"],
])
def test_malformed_window_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "is not of the form lo:hi" in capsys.readouterr().err


def test_a_negative_window_is_written_with_an_equals_sign(capsys):
    # `--window -3:3` reads -3:3 as an option, as the README says
    argv = ["tor", "--d", "4", "--module", "k", "--arg", "k"]
    code, out = run(capsys, *argv, "--window=-3:3")
    assert code == 0
    assert json.loads(out)["result"]["tor"] == {"0": 1, "3": 1}
    with pytest.raises(SystemExit) as e:
        main([*argv, "--window", "-3:3"])
    assert e.value.code == 2


@pytest.mark.parametrize("dims", ["0:x", "0:1,4"])
def test_malformed_dims_is_usage_error(dims, capsys):
    for command in ("decompose", "level"):
        with pytest.raises(SystemExit) as e:
            main([command, "--d", "4", "--dims", dims])
        assert e.value.code == 2
        assert "is not of the form degree:multiplicity" in capsys.readouterr().err


@pytest.mark.parametrize("command, dims", [("decompose", "0:1200,7:1200"),
                                           ("level", "0:5000,7:5000")])
def test_tables_of_thousands_of_pairs_answer(command, dims, capsys):
    code, out = run(capsys, command, "--d", "4", "--dims", dims)
    assert code == 0
    result = json.loads(out)["result"]
    if command == "level":
        result = result["decomposition"] | {"level": result}
    pairs = int(dims.split(":")[-1])
    assert result["molecules"] == [{"d": 4, "l": 3, "m": 1, "name": "Σ^{-3}Z_1"}] * pairs
    assert result["alternatives"] == [] and result["level"]["level"] == 2


@pytest.mark.parametrize("command", ["decompose", "level"])
def test_sphere_dimension_one_is_domain_error(command, capsys):
    code, out = run(capsys, command, "--d", "1", "--dims", "0:1,1:1")
    assert code == 1
    assert json.loads(out)["error"] == {"code": "invalid-presentation",
                                        "message": "sphere dimension must exceed 1"}


# -- fuzzing: malformed arguments never crash -------------------------------------

def fuzz(valid):
    """Mostly well-formed small values, sometimes junk text."""
    junk = st.text(alphabet="0123456789:,-+qfx. ", max_size=6)
    return st.one_of(valid, valid, valid, junk)


SMALL = fuzz(st.integers(-3, 9).map(str))
WINDOW = fuzz(st.tuples(st.integers(-4, 12), st.integers(-4, 12)).map(
    lambda t: f"{t[0]}:{t[1]}"))
# sometimes two degrees of thousands of classes each: more pairs than Python
# allows recursive frames, yet at most one path through the matching search
DIMS = fuzz(st.one_of(
    st.tuples(st.integers(-3, 12), st.integers(0, 15), st.integers(1000, 5000)).map(
        lambda t: [(t[0], t[2]), (t[0] + t[1], t[2])]),
    *[st.lists(st.tuples(st.integers(-3, 12), st.integers(-1, 2)), max_size=4)] * 2,
).map(lambda ps: ",".join(f"{n}:{m}" for n, m in ps)))
FIELD = fuzz(st.sampled_from(["q", "f2", "f3", "f5", "F7", "f0", "f1", "f4", "f-3", "f", "x"]))
SPACE = fuzz(st.sampled_from(["point", "s3", "s7", "S5", "s30", "s1", "s0", "s", "k"]))
GENS = fuzz(st.lists(st.integers(-2, 9), max_size=3).map(lambda gs: ",".join(map(str, gs))))

FUZZ_COMMANDS = {
    "decompose": {"--d": SMALL, "--dims": DIMS, "--field": FIELD},
    "level": {"--d": SMALL, "--dims": DIMS},
    "tor": {"--d": SMALL, "--window": WINDOW, "--field": FIELD},
    "phi": {"--d": SMALL, "--window": WINDOW, "--field": FIELD},
    "emss": {"--d": SMALL, "--window": WINDOW, "--field": FIELD, "--top": SPACE,
             "--hopf": SMALL, "--extra": SPACE},
    "molecule": {"--d": SMALL, "--l": SMALL, "--m": SMALL, "--field": FIELD},
    "bundle-level": {"--gens": GENS, "--field": FIELD},
    "pile": {"--stages": SMALL, "--odd-spheres": SMALL},
    "quiver": {"--d": SMALL, "--component": SMALL, "--rows": SMALL, "--cols": SMALL,
               "--field": FIELD, "--format": fuzz(st.sampled_from(["json", "dot"]))},
    "p-tower": {"--l": SMALL, "--d": SMALL, "--m": SMALL,
                "--report": fuzz(st.sampled_from(["level", "shape", "all"]))},
}


@st.composite
def fuzzed_argv(draw):
    """A command with each flag given a value, given without one, or left out,
    and sometimes an unknown flag somewhere."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    argv = [command]
    for flag, values in FUZZ_COMMANDS[command].items():
        shape = draw(st.sampled_from(["value"] * 8 + ["missing", "absent"]))
        if shape == "value":
            argv += [flag, draw(values)]
        elif shape == "missing":
            argv.append(flag)
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-z", "--d="])))
    return argv


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


def check_exits_cleanly(argv):
    code, out = run_captured(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert set(json.loads(out)["error"]) == {"code", "message"}, argv


@settings(deadline=None, max_examples=300)
@given(fuzzed_argv())
def test_fuzzed_arguments_exit_cleanly(argv):
    check_exits_cleanly(argv)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(["decompose", "level"]), fuzz(st.integers(2, 6).map(str)), DIMS)
def test_fuzzed_dimension_tables_exit_cleanly(command, d, dims):
    check_exits_cleanly([command, "--d", d, "--dims", dims])


# -- one parser per process ------------------------------------------------------

REFERENCE_COMMANDS = [
    ["tor", "--d", "4", "--module", "s7", "--strategy", "bar", "--window", "0:10"],
    ["emss", "--d", "4", "--top", "s7", "--hopf", "1", "--format", "table"],
    ["bundle-level", "--gens", "4,6,7", "--field", "f2", "--declare-formalizable"],
    ["decompose", "--d", "4", "--dims", "0:1,1:1"],
]


def test_parser_is_built_once_and_reused(monkeypatch):
    monkeypatch.setattr(cli, "_PARSER", None)
    first = [run_captured(argv) for argv in REFERENCE_COMMANDS]   # builds the parser
    parser = cli._PARSER
    assert parser is not None
    for bad in (["tor", "--d"], ["bundle-level", "--gens", "4,x"], ["--bogus"]):
        assert run_captured(bad)[0] == 2
        assert [run_captured(argv) for argv in REFERENCE_COMMANDS] == first
    assert [code for code, _ in first] == [0, 0, 0, 1]
    assert cli._PARSER is parser


@settings(deadline=None, max_examples=100)
@given(fuzzed_argv())
def test_fuzzing_leaves_the_cached_parser_unchanged(argv):
    before = run_captured(REFERENCE_COMMANDS[2])      # bundle-level --gens
    check_exits_cleanly(argv)
    assert run_captured(REFERENCE_COMMANDS[2]) == before


# -- modules read from JSON files -------------------------------------------------


def write_module(path, module):
    path.write_text(json.dumps(module.to_json(), ensure_ascii=False), encoding="utf-8")
    return str(path)


def test_level_of_a_module_file(tmp_path):
    from dglevels.module import direct_sum, shift
    from dglevels.spheres import MoleculeId, molecule_model

    M = direct_sum([molecule_model(MoleculeId(4, 3, 1)),
                    shift(molecule_model(MoleculeId(4, 6, 2)), 2)])
    argv = ["level", "--d", "4", "--module", write_module(tmp_path / "m.json", M)]
    code, out = run_captured(argv)
    assert code == 0 and run_captured(argv) == (code, out)
    result = json.loads(out)["result"]
    assert result["kind"] == "exact" and result["level"] == 3
    assert [(m["l"], m["m"]) for m in result["decomposition"]["molecules"]] == [(3, 1), (4, 2)]
    assert run_captured(["level", "--d", "4", "--dims", "0:1", "--module", argv[-1]])[0] == 2


def test_level_of_a_module_file_with_a_positive_shift(tmp_path):
    from dglevels.module import direct_sum
    from dglevels.spheres import MoleculeId, molecule_model

    # Σ^{-3}Z_1 ⊕ ΣZ_2: the second molecule has l = -1
    M = direct_sum([molecule_model(MoleculeId(4, 3, 1)), molecule_model(MoleculeId(4, -1, 2))])
    code, out = run_captured(["level", "--d", "4", "--module",
                              write_module(tmp_path / "m.json", M)])
    result = json.loads(out)["result"]
    assert code == 0 and result["kind"] == "exact" and result["level"] == 3
    assert [m["name"] for m in result["decomposition"]["molecules"]] == ["Σ^{-3}Z_1", "Σ^{1}Z_2"]


def test_level_of_a_raw_module_file_with_a_koszul_tower(tmp_path):
    from dglevels.algebra import DGAlgebraPresentation
    from dglevels.field import QQ
    from dglevels.module import DGModulePresentation

    # H*(S^4) with zero x-action matches Z_0, but each shift of K is a tower
    # of its Koszul resolution, which certifies an infinite level
    A = DGAlgebraPresentation.sphere_cohomology(4, QQ)
    path = write_module(tmp_path / "k.json", DGModulePresentation.trivial(A, shifts=(0, 4)))
    code, out = run_captured(["level", "--d", "4", "--module", path])
    result = json.loads(out)["result"]
    assert code == 0 and result["kind"] == "infinite"
    assert result["certificate"]["kind"] == "infinite" and result["certificate"]["period"] == 6
    assert "decomposition" not in result


def test_level_of_a_raw_module_file_is_exact(tmp_path):
    from helpers import raw_expansion, with_k

    from dglevels.field import GF3
    from dglevels.module import direct_sum
    from dglevels.spheres import MoleculeId, molecule_model

    # its cohomology matches Σ^{-3}Z_1 ⊕ Σ^{-6}Z_1 and Σ^{-6}Z_2 ⊕ Σ^{-3}Z_0 alike, but
    # its Koszul resolution names the molecules
    raw = raw_expansion(direct_sum([molecule_model(MoleculeId(4, 3, 1), GF3),
                                    molecule_model(MoleculeId(4, 6, 1), GF3)]))
    argv = ["level", "--d", "4", "--module", write_module(tmp_path / "raw.json", raw)]
    code, out = run_captured(argv)
    assert code == 0 and run_captured(argv) == (code, out)
    result = json.loads(out)["result"]
    assert (result["kind"], result["level"]) == ("exact", 2)
    assert result["decomposition"]["ambiguous"] is False
    assert [m["name"] for m in result["decomposition"]["molecules"]] == ["Σ^{-3}Z_1",
                                                                         "Σ^{-6}Z_1"]
    # a summand K in degree 5 is a tower of the resolution: level ∞
    path = write_module(tmp_path / "raw-k.json", with_k(raw, [5]))
    code, out = run_captured(["level", "--d", "4", "--module", path])
    result = json.loads(out)["result"]
    assert code == 0 and result["kind"] == "infinite"
    assert result["certificate"]["period"] == 6 and result["certificate"]["witnesses"][0] == 5


def test_level_of_a_module_file_over_another_algebra(tmp_path):
    from dglevels.algebra import DGAlgebraPresentation
    from dglevels.field import QQ
    from dglevels.module import DGModulePresentation
    from dglevels.spheres import MoleculeId, molecule_model

    # each has cohomology that a matching over S^4 would accept
    S7 = DGAlgebraPresentation.sphere_cohomology(7, QQ)
    Ky = DGAlgebraPresentation.polynomial(QQ, [("y", 4)])
    modules = {"raw-s7": DGModulePresentation.trivial(S7, shifts=(0, 4)),
               "raw-ky": DGModulePresentation.trivial(Ky, shifts=(0, 4)),
               "free-s7": molecule_model(MoleculeId(7, 4, 0))}
    for name, module in modules.items():
        code, out = run_captured(["level", "--d", "4", "--module",
                                  write_module(tmp_path / f"{name}.json", module)])
        error = json.loads(out)["error"]
        assert code == 1 and error["code"] == "invalid-presentation", name
        assert error["message"] == "the module does not live over H*(S^4)"


def test_level_of_a_truncated_module_file(tmp_path):
    from dglevels.field import QQ
    from dglevels.resolve import koszul_resolution_sphere

    # the Koszul resolution of K over S^4 for Tor window 0:12 is cut at 19;
    # its partial cohomology once read as exact level 7
    path = write_module(tmp_path / "k.json", koszul_resolution_sphere(4, QQ, cap=18).module)
    assert json.loads(Path(path).read_text(encoding="utf-8"))["truncationDegree"] == 19
    code, out = run_captured(["level", "--d", "4", "--module", path])
    error = json.loads(out)["error"]
    assert code == 1 and error["code"] == "not-compactly-decomposable"
    assert "truncated at degree 19" in error["message"]


def test_split_of_a_module_file(tmp_path):
    from dglevels.module import direct_sum
    from dglevels.spheres import MoleculeId, molecule_model

    one = write_module(tmp_path / "one.json", molecule_model(MoleculeId(3, 2, 1)))
    code, out = run_captured(["split", "--module", one])
    assert code == 0 and json.loads(out)["result"] == {"indecomposable": True, "idempotents": []}
    two = write_module(tmp_path / "two.json", direct_sum(
        [molecule_model(MoleculeId(3, 2, 1)), molecule_model(MoleculeId(3, 9, 0))]))
    code, out = run_captured(["split", "--module", two])
    assert code == 0 and len(json.loads(out)["result"]["idempotents"]) == 2


def test_split_of_a_truncated_module_file_is_undecided(tmp_path):
    from dglevels.algebra import DGAlgebraPresentation
    from dglevels.field import QQ
    from dglevels.module import DGModulePresentation

    A = DGAlgebraPresentation.sphere_cohomology(4, QQ)
    path = write_module(tmp_path / "ab.json", DGModulePresentation.free(
        A, [("a", 0), ("b", 0)], truncation_degree=10))
    assert json.loads(Path(path).read_text(encoding="utf-8"))["truncationDegree"] == 10
    code, out = run_captured(["split", "--module", path])
    error = json.loads(out)["error"]
    assert code == 1 and error["code"] == "undecided"
    assert "truncated at degree 10" in error["message"]


ZERO_DENOMINATOR = json.dumps({
    "algebra": {"field": "q", "generators": [["x4", 4, "exterior"]], "differential": {}},
    "generators": [["u", 0], ["v", 3]], "differential": {"v": {"u": [["1/0", {"x4": 1}]]}}})


@pytest.mark.parametrize("text", ["", "[1, 2", "[1, 2]", '{"algebra": {}}', ZERO_DENOMINATOR])
def test_unreadable_module_files_are_domain_errors(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    for argv in (["level", "--d", "4", "--module", str(path)], ["split", "--module", str(path)]):
        code, out = run_captured(argv)
        assert code == 1 and json.loads(out)["error"]["code"] == "invalid-presentation"
    code, out = run_captured(["split", "--module", str(tmp_path / "missing.json")])
    assert code == 1 and json.loads(out)["error"]["code"] == "invalid-presentation"


TRUE_COEFFICIENT = {
    "free": {"algebra": {"field": "f3", "generators": [["x4", 4, "exterior"]],
                         "differential": {}},
             "generators": [["u", 0], ["v", 3]],
             "differential": {"v": {"u": [[True, {"x4": 1}]]}}},
    "raw": {"algebra": {"field": "q", "generators": [["x4", 4, "exterior"]],
                        "differential": {}},
            "complex": {"field": "q", "basis": {"0": ["u"], "4": ["v"]}, "d": {}},
            "actions": {"x4": {"0": [[True]]}}},
}


@pytest.mark.parametrize("flavor", sorted(TRUE_COEFFICIENT))
def test_a_json_boolean_coefficient_is_refused(tmp_path, flavor):
    # JSON true once loaded as the scalar 1
    path = tmp_path / "m.json"
    path.write_text(json.dumps(TRUE_COEFFICIENT[flavor]), encoding="utf-8")
    code, out = run_captured(["level", "--d", "4", "--module", str(path)])
    error = json.loads(out)["error"]
    assert code == 1 and error["code"] == "field-mismatch"
    assert error["message"].startswith("cannot read") and "True" in error["message"]


def test_a_raw_complex_over_another_field_is_checked_against_the_algebra(tmp_path):
    # the complex reads its entries over its own field, Q; over the algebra's
    # F_3 the entry 1/2 is no residue
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "algebra": {"field": "f3", "generators": [["x4", 4, "exterior"]], "differential": {}},
        "complex": {"field": "q", "basis": {"0": ["u"], "1": ["w"]}, "d": {"0": [["1/2"]]}},
    }), encoding="utf-8")
    code, out = run_captured(["level", "--d", "4", "--module", str(path)])
    error = json.loads(out)["error"]
    assert code == 1 and error["code"] == "field-mismatch"
    assert error["message"] == "the complex is over Q, the algebra over F3"


def test_a_raw_complex_with_integral_entries_over_another_field_is_refused(tmp_path):
    # d⁰ = [[3]] is an isomorphism over Q and zero over F_3: read over two
    # fields at once it was once given exact level 0
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "algebra": {"field": "f3", "generators": [["x4", 4, "exterior"]], "differential": {}},
        "complex": {"field": "q", "basis": {"0": ["u"], "1": ["w"]}, "d": {"0": [[3]]}},
    }), encoding="utf-8")
    code, out = run_captured(["level", "--d", "4", "--module", str(path)])
    assert code == 1 and json.loads(out)["error"] == {
        "code": "field-mismatch", "message": "the complex is over Q, the algebra over F3"}


EXPONENT_ERRORS = [
    (1.5, 3, "exponent 1.5 of 'x4' is no integer ≥ 0"),
    ("1", 3, "exponent '1' of 'x4' is no integer ≥ 0"),
    (True, 3, "exponent True of 'x4' is no integer ≥ 0"),
    (-1, 3, "exponent -1 of 'x4' is no integer ≥ 0"),
    (2, 7, "exponent 2 of exterior 'x4' exceeds 1"),
]


@pytest.mark.parametrize("exponent, degree, message", EXPONENT_ERRORS,
                         ids=["float", "string", "bool", "negative", "exterior-square"])
def test_module_files_refuse_an_exponent_outside_the_algebra(tmp_path, exponent, degree,
                                                             message):
    # D(b) = a·x4^e with b in the degree x4^e asks for: the first four once
    # read as e = 1 or as a term of degree -4, and x4² (zero in H*(S^4)) once
    # acted as zero for split and failed level on a degree count
    payload = {"algebra": {"field": "q", "generators": [["x4", 4, "exterior"]],
                           "differential": {}},
               "generators": [["a", 0], ["b", degree]],
               "differential": {"b": {"a": [["1/1", {"x4": exponent}]]}}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    for argv in (["level", "--d", "4", "--module", str(path)], ["split", "--module", str(path)]):
        code, out = run_captured(argv)
        assert code == 1 and json.loads(out)["error"] == {"code": "invalid-presentation",
                                                          "message": message}, argv[0]


@pytest.mark.parametrize("key, exponent, message", [
    ("gx", 1.5, "exponent 1.5 of 'x' is no integer ≥ 0"),
    ("gxi", 2, "exponent 2 of exterior 'ξ' exceeds 1"),
], ids=["float", "exterior-square"])
def test_hopf_refuses_an_exponent_outside_the_algebra(tmp_path, key, exponent, message):
    path = tmp_path / "model.json"
    (label, _), = HOPF_MODEL[key][0][1].items()
    path.write_text(json.dumps(dict(HOPF_MODEL, **{key: [["1/1", {label: exponent}]]})),
                    encoding="utf-8")
    code, out = run_captured(["hopf", "--model", str(path)])
    assert code == 1
    assert json.loads(out)["error"] == {"code": "invalid-presentation", "message": message}


@pytest.mark.parametrize("d", [4.5, "4", True], ids=["float", "string", "bool"])
def test_hopf_refuses_a_sphere_dimension_that_is_no_integer(tmp_path, d):
    # 4.5 and "4" once read as d = 4, and true as d = 1
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dict(HOPF_MODEL, d=d)), encoding="utf-8")
    code, out = run_captured(["hopf", "--model", str(path)])
    assert code == 1
    assert json.loads(out)["error"] == {"code": "invalid-presentation",
                                        "message": f"sphere dimension {d!r} is no integer"}


@pytest.mark.parametrize("field", ["zz", "f4"])
def test_decompose_refuses_an_unknown_field(field):
    code, out = run_captured(["decompose", "--d", "4", "--field", field, "--dims", "0:1,4:1"])
    assert code == 1 and json.loads(out)["error"]["code"] == "field-mismatch"


def test_level_declares_no_field_option():
    # the level of a dimension table or a module file is read without a field
    assert run_captured(["level", "--d", "4", "--dims", "0:1,4:1", "--field", "q"])[0] == 2


def test_hom_basis_budget_on_the_command_line(tmp_path):
    from dglevels.algebra import DGAlgebraPresentation
    from dglevels.field import QQ
    from dglevels.module import HOM_BASIS_BUDGET, DGModulePresentation

    # split reads H^0(End) from hom degrees -1..1, where 71 generators in
    # degree 0 give 71² = 5,041 basis maps
    A = DGAlgebraPresentation.sphere_cohomology(2, QQ)
    big = write_module(tmp_path / "big.json",
                       DGModulePresentation.free(A, [(f"g{i}", 0) for i in range(71)]))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["split", "--module", big])
    assert code == 1 and err.getvalue() == ""
    payload = json.loads(out.getvalue())
    assert payload["error"]["code"] == "budget-exceeded"
    assert str(HOM_BASIS_BUDGET) in payload["error"]["message"]
