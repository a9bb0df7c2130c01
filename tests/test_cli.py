import json
import os
import subprocess
import sys

import pytest

from hlx import modrep
from hlx.cli import main, module_report, run_steinberg, run_tpd_grid
from hlx.exactnum import PrimeField


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_identities_small(capsys):
    code, out = _run(capsys, ["verify-identities", "--kmax", "1", "--smax", "1", "--rmax", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    assert all(r["pass"] for r in rep["results"])


def test_verify_identities_mutant_fails(capsys):
    code, out = _run(
        capsys, ["verify-identities", "--kmax", "1", "--smax", "0", "--rmax", "1", "--inject-mutant"]
    )
    assert code == 1
    rep = json.loads(out.split("\n{")[0] if out.startswith("{") else out)
    bad = [r for r in rep["results"] if not r["pass"]]
    assert bad and bad[0]["identity"] == "basicrel-mutant"
    assert bad[0]["residual"] != "0"


def test_reports_deterministic(tmp_path, capsys):
    f1, f2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["verify-identities", "--kmax", "1", "--smax", "0", "--rmax", "1", "--out", f1]) == 0
    assert main(["verify-identities", "--kmax", "1", "--smax", "0", "--rmax", "1", "--out", f2]) == 0
    capsys.readouterr()
    assert open(f1, "rb").read() == open(f2, "rb").read()


def test_module_build_and_chop(tmp_path, capsys):
    recipe = {
        "ring": {"kind": "Fp", "p": 3},
        "build": {
            "tensor": [
                {"eval_weyl": {"lambda": 1, "a": "1"}},
                {"eval_weyl": {"lambda": 1, "a": "2"}},
            ]
        },
    }
    rpath = str(tmp_path / "recipe.json")
    with open(rpath, "w") as fh:
        json.dump(recipe, fh)
    code, out = _run(capsys, ["module", "build", "--recipe", rpath])
    assert code == 0
    rep = json.loads(out)
    assert rep["dim"] == 4
    assert rep["drinfeld"] == [["1", "0", "2"]]  # (1-u)(1-2u) = 1 - 3u + 2u^2 = 1 + 2u^2 mod 3

    code, out = _run(capsys, ["module", "chop", "--recipe", rpath])
    assert code == 0
    rep = json.loads(out)
    assert [f["dim"] for f in rep["factors"]] == [4]

    code, out = _run(capsys, ["module", "dual", "--recipe", rpath])
    assert code == 0
    rep = json.loads(out)
    assert rep["drinfeld"] == [["1", "0", "2"]]


def test_module_chop_undecided_factor(tmp_path, capsys):
    # 9-dimensional over F_9: no Norton path over extensions and 9^9 is past
    # the brute-force bound, so the factor stays undecided
    w = {"eval_weyl": {"lambda": 2, "a": "[0,1]"}}
    recipe = {"ring": {"kind": "Fq", "p": 3, "d": 2}, "build": {"tensor": [w, w]}}
    rpath = str(tmp_path / "recipe.json")
    with open(rpath, "w") as fh:
        json.dump(recipe, fh)
    code, out = _run(capsys, ["module", "chop", "--recipe", rpath])
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False and "factors" not in rep
    assert rep["undecided_factor"] == {
        "dim": 9,
        "weights": [4, 2, 2, 0, 0, 0, -2, -2, -4],
        "reason": "brute force infeasible over extension field",
    }


def test_module_bad_recipe(tmp_path, capsys):
    rpath = str(tmp_path / "bad.json")
    with open(rpath, "w") as fh:
        json.dump({"ring": {"kind": "Fp", "p": 3}, "build": {"nonsense": {}}}, fh)
    code, _ = _run(capsys, ["module", "build", "--recipe", rpath])
    assert code == 2


def test_steinberg_report():
    rep = run_steinberg(2, 8)
    assert rep["pass"]
    assert [r["dim"] for r in rep["rows"]] == [1, 2, 2, 4, 2, 4, 4, 8, 2]
    rep3 = run_steinberg(3, 5)
    assert rep3["pass"]
    assert rep3["rows"][5]["dim"] == 6


def test_tpd_grid_small():
    rep = run_tpd_grid(2)
    assert rep["pass"] and rep["cases"] == 6
    rep3 = run_tpd_grid(3, max_pairs=20)
    assert rep3["pass"]


def test_paper_example_cli(capsys):
    code, out = _run(capsys, ["paper-example", "--p", "3", "--a", "1", "--b", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["symbolic"]["matrix1"] == [["1", "0", "-a**2"], ["0", "1", "2*a"], ["1", "b", "b**2"]]
    assert rep["symbolic"]["matrix2"] == [["1", "2*a", "a**2"], ["1", "b", "0"], ["0", "1", "b"]]
    assert rep["numeric"]["lattices_equal"] is True


def test_lattice_cli(tmp_path, capsys):
    recipe = {
        "build": {
            "tensor": [
                {"eval_weyl": {"lambda": 1, "a": "1"}},
                {"eval_weyl": {"lambda": 1, "a": "4"}},
            ]
        }
    }
    rpath = str(tmp_path / "ambient.json")
    with open(rpath, "w") as fh:
        json.dump(recipe, fh)
    code, out = _run(capsys, ["lattice", "--recipe", rpath, "--p", "3", "--reduce"])
    assert code == 0
    rep = json.loads(out)
    assert rep["rank"] == 4
    assert rep["reduction"]["dim"] == 4
    assert rep["reduction"]["drinfeld"] == [["1", "1", "1"]]  # (1-u)^2 = 1+u+u^2 mod 3


@pytest.mark.parametrize("p", ["1", "4"])
@pytest.mark.parametrize(
    "argv",
    [
        ["lattice", "--recipe", os.path.join(os.path.dirname(__file__), "golden", "lattice_recipe.json")],
        ["paper-example"],
        ["conjecture-cp0", "--degmax", "1"],
        ["steinberg"],
        ["tpd-grid"],
    ],
)
def test_commands_reject_a_non_prime_p(capsys, argv, p):
    # in the lattice commands p = 1 used to hang in val_p, p = 4 to end in a
    # traceback or exit 1; steinberg and tpd-grid exited 2 without a message
    code = main(argv + ["--p", p])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "--p must be a prime, got %s\n" % p


@pytest.mark.parametrize(
    "argv, message",
    [
        (["conjecture-cp0", "--p", "2", "--degmax", "0"], "--degmax must be at least 1, got 0"),
        (["conjecture-cp0", "--p", "2", "--degmax", "-1"], "--degmax must be at least 1, got -1"),
        (["steinberg", "--p", "3", "--lmax", "-1"], "--lmax must be at least 0, got -1"),
        (["tpd-grid", "--p", "3", "--max-pairs", "0"], "--max-pairs must be at least 1, got 0"),
        (["tpd-grid", "--p", "3", "--max-pairs", "-1"], "--max-pairs must be at least 1, got -1"),
        (["verify-identities", "--kmax", "0"], "--kmax must be at least 1, got 0"),
        (["verify-identities", "--kmax", "-1", "--smax", "0", "--rmax", "-1"], "--kmax must be at least 1, got -1"),
        (["verify-identities", "--smax", "-1"], "--smax must be at least 0, got -1"),
        (["verify-identities", "--rmax", "-1"], "--rmax must be at least 0, got -1"),
    ],
)
def test_empty_suites_are_rejected(capsys, argv, message):
    # these printed an empty report list with "pass": true and exited 0;
    # --max-pairs -1 ran every case but the last, --smax -1 dropped every
    # Garland case
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == message + "\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["steinberg", "--p", "3", "--ext-degree", "5"], "--ext-degree must be in [1, 4], got 5"),
        (["steinberg", "--p", "3", "--ext-degree", "0"], "--ext-degree must be in [1, 4], got 0"),
        (["tpd-grid", "--p", "3", "--ext-degree", "5"], "--ext-degree must be in [1, 4], got 5"),
        (["paper-example", "--a", "0"], "--a must be a unit of Z_(3), got 0"),
        (["paper-example", "--a", "x"], "--a must be a unit of Z_(3), got x"),
        (["paper-example", "--p", "3", "--a", "3"], "--a must be a unit of Z_(3), got 3"),
        (["paper-example", "--p", "5", "--b", "1/0"], "--b must be a unit of Z_(5), got 1/0"),
    ],
)
def test_suite_usage_errors(capsys, argv, message):
    # each of these ended in a traceback with exit 1
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == message + "\n"


@pytest.mark.parametrize(
    "ring, argv, message",
    [
        ({"kind": "Fp", "p": 3}, ["twist", "--frobenius", "-1"], "bad twist: twist exponent must be nonnegative"),
        ({"kind": "Fp", "p": 3}, ["twist", "--twist-a", "0"], "bad twist: twist parameter must be a unit"),
        ({"kind": "Q"}, ["twist", "--frobenius", "1"], "bad twist: Frobenius twist needs positive characteristic"),
        ({"kind": "Q"}, ["chop"], "chop needs a finite field"),
    ],
)
def test_module_usage_errors(tmp_path, capsys, ring, argv, message):
    # each of these ended in a traceback with exit 1
    rpath = _write_recipe(tmp_path, {"ring": ring, "build": {"eval_weyl": {"lambda": 1, "a": "1"}}})
    code = main(["module"] + argv + ["--recipe", rpath, "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == message + "\n"


BLOCK_RECIPES = [
    {"ring": {"kind": "Fp", "p": 3}, "build": {"irreducible": {"lambda": 2, "a": "1"}}},
    {"ring": {"kind": "Fp", "p": 3}, "build": {"eval_weyl": {"lambda": 0, "a": "1"}}},
    {"ring": {"kind": "Fp", "p": 3}, "build": {"irreducible": {"lambda": 1, "a": "1"}}},
    {"ring": {"kind": "Fp", "p": 3}, "build": {"irreducible": {"lambda": 1, "a": "2"}}},
]


def _write_block_reports(tmp_path, capsys):
    """`hlx module build` reports module0.json..module3.json of
    BLOCK_RECIPES in tmp_path; returns their paths."""
    paths = []
    for i, rec in enumerate(BLOCK_RECIPES):
        rpath = str(tmp_path / ("recipe%d.json" % i))
        with open(rpath, "w") as fh:
            json.dump(rec, fh)
        opath = str(tmp_path / ("module%d.json" % i))
        assert main(["module", "build", "--recipe", rpath, "--out", opath]) == 0
        paths.append(opath)
    capsys.readouterr()
    return paths


def test_blocks_cli(tmp_path, capsys):
    paths = _write_block_reports(tmp_path, capsys)
    code, out = _run(capsys, ["blocks"] + paths)
    assert code == 0
    rep = json.loads(out)
    # V(2,1) and V(0) share the zero character; V(1,1) and V(1,2) are apart
    assert len(rep["groups"]) == 3
    sizes = sorted(len(g["members"]) for g in rep["groups"])
    assert sizes == [1, 1, 2]
    assert rep["pass"] is True


@pytest.mark.parametrize(
    "text, reason",
    [
        (None, "FileNotFoundError"),
        ("not json", "JSONDecodeError"),
        ("[1, 2]", "ValueError: not a JSON object"),
        ('{"ring": {"kind": "Fp", "p": 3}, "spectral_character": {"x": [1]}}', "ValueError"),
        ('{"ring": {"kind": "Fp", "p": 3}, "spectral_character": {"3": [1]}}', "ValueError: parameter 3"),
        ('{"ring": {"kind": "Fp", "p": 3}, "spectral_character": {"1": [1], "4": [1]}}', "ValueError: parameter 4"),
        ('{"ring": {"kind": "Fp", "p": 3}, "spectral_character": {"1": [1, 0]}}', "ValueError: residue [1, 0]"),
        ('{"ring": {"kind": "Fp", "p": 3}, "spectral_character": {"1": [2]}}', "ValueError: residue [2]"),
        ('{"ring": {"kind": "Fp", "p": 3}, "spectral_character": {"1": [true]}}', "ValueError: residue [True]"),
        ('{"ring": {"kind": "Fp", "p": 4}, "spectral_character": {"1": [1]}}', "ValueError"),
        ('{"ring": {"p": 3}, "spectral_character": {"1": [1]}}', "KeyError"),
        (
            '{"ring": {"kind": "Fp", "p": 3}, "spectral_character": {"1": [1]}, "recipe": {"nonsense": {}}}',
            "bad recipe: ValueError: unknown recipe node",
        ),
    ],
)
def test_blocks_rejects_a_report_it_cannot_read(tmp_path, capsys, text, reason):
    # one good report besides the bad one: the bad one alone decides the exit
    good = _write_block_reports(tmp_path, capsys)[2]
    bad = str(tmp_path / "bad.json")
    if text is not None:
        with open(bad, "w") as fh:
            fh.write(text)
    code = main(["blocks", good, bad])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("bad report %s: %s" % (bad, reason))
    assert captured.err.count("\n") == 1


def test_blocks_builds_every_recipe(tmp_path, capsys):
    # the pair checks use the first three reports, but every recipe must build
    paths = _write_block_reports(tmp_path, capsys)[:3]
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write('{"ring": {"kind": "Fp", "p": 3}, "spectral_character": {"1": [1]}, "recipe": {"nonsense": {}}}')
    code = main(["blocks"] + paths + [bad])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("bad report %s: bad recipe: ValueError: unknown recipe node" % bad)
    assert captured.err.count("\n") == 1


def test_conjecture_cli(capsys):
    code, out = _run(capsys, ["conjecture-cp0", "--p", "3", "--degmax", "1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["reports"][0]["status"] == "VERIFIED"


def test_ext_degree_grids():
    from hlx.cli import run_steinberg, run_tpd_grid

    rep = run_steinberg(2, 3, ext_degree=2)
    assert rep["pass"]
    rep2 = run_tpd_grid(2, ext_degree=2, max_pairs=10)
    assert rep2["pass"]


def test_steinberg_reports_undecided_same_level_tensors():
    # over F_9 the same-level tensors are reducible, but no test may decide
    # them: an undecided verdict is null with the certificate's reason,
    # never false, and so is an undecided row
    from hlx.exactnum import FiniteField
    from hlx.meataxe import is_irreducible
    from hlx.modrep import eval_weyl_module, tensor

    rep = run_steinberg(3, 4, ext_degree=2)
    F = FiniteField(3, 2)
    for entry in rep["same_level_reducible"]:
        m = tensor(eval_weyl_module(F, entry["lambda"], F.one), eval_weyl_module(F, entry["mu"], F.one))
        res = is_irreducible(m)
        if res.verdict is None:
            assert entry["reducible"] is None and entry["reason"] == res.certificate["reason"]
            assert not rep["pass"]
        else:
            assert entry["reducible"] is (not res.verdict) and "reason" not in entry
    for row in rep["rows"]:
        assert (row["irreducible"] is None) == ("reason" in row)


def test_json_and_out_flag_interaction(tmp_path, capsys):
    out = str(tmp_path / "r.json")
    code = main(["verify-identities", "--kmax", "1", "--smax", "0", "--rmax", "1", "--out", out])
    text = capsys.readouterr().out
    assert code == 0
    assert text.startswith("wrote ")
    code = main(
        ["verify-identities", "--kmax", "1", "--smax", "0", "--rmax", "1", "--out", out, "--json"]
    )
    text = capsys.readouterr().out
    assert code == 0
    assert json.loads(text)["pass"] is True


def _write_recipe(tmp_path, recipe):
    rpath = str(tmp_path / "recipe.json")
    with open(rpath, "w") as fh:
        json.dump(recipe, fh)
    return rpath


def test_module_build_has_no_rwindow(tmp_path, capsys):
    # W(2,1) ⊗ W(1,2) over F_5 has Lambda precision 8, and the series to u^7
    # fix every ell-weight, so there is no r-window to choose
    w = [{"eval_weyl": {"lambda": 2, "a": "1"}}, {"eval_weyl": {"lambda": 1, "a": "2"}}]
    rpath = _write_recipe(tmp_path, {"ring": {"kind": "Fp", "p": 5}, "build": {"tensor": w}})
    assert main(["module", "build", "--recipe", rpath, "--rwindow", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --rwindow 7" in captured.err and "Traceback" not in captured.err
    code, out = _run(capsys, ["module", "build", "--recipe", rpath])
    assert code == 0
    assert [b["dim"] for b in json.loads(out)["ell_weights"]] == [1, 1, 1, 1, 1, 1]


@pytest.mark.parametrize(
    "recipe, err",
    [
        # the dual of W0(1 + u + 2u^2) ⊗ W(2, 1/2): its highest vector is not
        # designated, which ended in a traceback
        (
            {"dual": {"tensor": [{"weyl0": {"omega": ["1", "1", "2"]}}, {"eval_weyl": {"lambda": 2, "a": "1/2"}}]}},
            "module has no designated highest vector",
        ),
        ({"eval_weyl": {"lambda": 2, "a": "3"}}, "parameter 3 is not a unit in Z_(3)"),
    ],
)
def test_lattice_errors_are_reported(tmp_path, capsys, recipe, err):
    code = main(["lattice", "--recipe", _write_recipe(tmp_path, recipe), "--p", "3", "--reduce", "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "lattice error: %s\n" % err


def test_module_report_records_failures(tmp_path, capsys):
    # W(1,1) ⊗ W(1,1)* has a two-dimensional ell-highest-weight space
    w = {"eval_weyl": {"lambda": 1, "a": "1"}}
    rpath = _write_recipe(tmp_path, {"ring": {"kind": "Fp", "p": 5}, "build": {"tensor": [w, {"dual": w}]}})
    code, out = _run(capsys, ["module", "build", "--recipe", rpath])
    assert code == 0
    rep = json.loads(out)
    assert "drinfeld" not in rep
    assert rep["drinfeld_error"] == "ValueError: ell-highest-weight space has dimension 2"
    assert "ell_weights" in rep and "ell_weights_error" not in rep
    _, again = _run(capsys, ["module", "build", "--recipe", rpath])
    assert again == out
    rpath = _write_recipe(tmp_path, {"ring": {"kind": "Q"}, "build": w})
    rep = json.loads(_run(capsys, ["module", "build", "--recipe", rpath])[1])
    assert rep["drinfeld"] == [["1", "-1"]]
    assert rep["ell_weights_error"] == "not computed: the ring is not a finite field"


def test_module_drinfeld_reports_a_plane_ell_highest_weight_space(tmp_path, capsys):
    # W(1, g) ⊗ W(1, g)* over F_9: the ell-highest-weight space is a plane,
    # so the Drinfeld polynomial is undefined; the report says why, exit 1
    w = {"eval_weyl": {"lambda": 1, "a": "[0,1]"}}
    recipe = {"ring": {"kind": "Fq", "p": 3, "d": 2}, "build": {"tensor": [w, {"dual": w}]}}
    rpath = _write_recipe(tmp_path, recipe)
    code, out = _run(capsys, ["module", "drinfeld", "--recipe", rpath])
    assert code == 1
    rep = json.loads(out)
    assert rep == {"recipe": recipe, "drinfeld_error": "ValueError: ell-highest-weight space has dimension 2"}


W0_SQUARE = {"weyl0": {"roots": ["1", "1"]}}  # W0((1-u)^2)


@pytest.mark.parametrize(
    "p, dims, drinfeld",
    [(3, [1, 3], [[["1"]], [["1", "1", "1"]]]), (2, [1, 1, 2], [[["1"]], [["1"]], [["1", "0", "1"]]])],
)
def test_module_chop_of_a_weyl0_reduction(tmp_path, capsys, p, dims, drinfeld):
    # the reduction's windows r in [0, n_k), n_k = 2, 3 for k = 1, 2, ask
    # weyl0 for tables past 0 <= r < 2, which come from its recurrence
    recipe = {"ring": {"kind": "Fp", "p": p}, "build": {"from_lattice": {"p": p, "ambient": W0_SQUARE}}}
    code, out = _run(capsys, ["module", "chop", "--recipe", _write_recipe(tmp_path, recipe)])
    assert code == 0
    factors = json.loads(out)["factors"]
    assert [f["dim"] for f in factors] == dims
    assert [f["drinfeld"] for f in factors] == drinfeld


def test_module_dual_of_weyl0(tmp_path, capsys):
    # the recipe's "margin" field is ignored like any other unknown key
    reports = []
    for node in (W0_SQUARE, {"weyl0": {"roots": ["1", "1"], "margin": 14}}):
        rpath = _write_recipe(tmp_path, {"ring": {"kind": "Q"}, "build": node})
        code, out = _run(capsys, ["module", "dual", "--recipe", rpath])
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0] == reports[1]
    assert reports[0]["drinfeld"] == [["1", "-2", "1"]]
    assert reports[0]["drinfeld_checks"] == {"degree": 2, "minus_matches": True, "plus_polynomial": True}
    assert reports[0]["weights"] == [-2, 0, 0, 2]


@pytest.mark.parametrize("roots", [["1", "1", "1"], ["1", "1", "4"]])
def test_lattice_of_a_cubic_weyl0(tmp_path, capsys, roots):
    code, out = _run(capsys, ["lattice", "--recipe", _write_recipe(tmp_path, {"weyl0": {"roots": roots}}), "--p", "3"])
    assert code == 0
    assert json.loads(out)["rank"] == 8


@pytest.mark.parametrize("argv", [["module", "build"], ["lattice", "--p", "3", "--reduce"]])
def test_weyl0_of_degree_0(tmp_path, capsys, argv):
    # W0(1) is the trivial module; its Lambda tables ended in a TypeError
    node = {"weyl0": {"omega": ["1"]}}
    recipe = node if argv[0] == "lattice" else {"ring": {"kind": "Q"}, "build": node}
    code, out = _run(capsys, argv + ["--recipe", _write_recipe(tmp_path, recipe)])
    assert code == 0
    rep = json.loads(out)
    if argv[0] == "lattice":
        assert rep["rank"] == 1
        rep = rep["reduction"]
    assert rep["weights"] == [0]
    assert rep["drinfeld"] == [["1"]]


@pytest.mark.parametrize("omega", [["1", "-3", "2"], ["1", "-2", "1"]])
def test_weyl0_over_zp_is_a_bad_recipe(tmp_path, capsys, omega):
    # Newton's recursion divides by n and the omega~ recurrence by
    # omega_lambda: weyl0 takes Q or Sym, and a finite field is refused up
    # front.  Z_(p) is no ring kind at all: its lattices live in `hlx lattice`
    for ring, err in [
        ({"kind": "Fp", "p": 3}, "straightened Weyl modules are built over Q or Sym, not Fp"),
        ({"kind": "Zp", "p": 3}, "unknown ring kind 'Zp'"),
    ]:
        recipe = {"ring": ring, "build": {"weyl0": {"omega": omega}}}
        code = main(["module", "build", "--recipe", _write_recipe(tmp_path, recipe)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "bad recipe: %s\n" % err


def test_a_literal_of_another_field_is_a_bad_recipe(tmp_path, capsys):
    # [0,0,1] has a third coordinate, which F_9 = F_3[x]/(x^2 + 1) has not:
    # cut to two it would read the unit x^2 = -1 as 0
    recipe = {"ring": {"kind": "Fq", "p": 3, "d": 2}, "build": {"eval_weyl": {"lambda": 1, "a": "[0,0,1]"}}}
    code = main(["module", "build", "--recipe", _write_recipe(tmp_path, recipe)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "bad recipe: [0,0,1] has more than 2 coordinates over F_9\n"


@pytest.mark.parametrize("literal", ["[1,2] junk", "[1,2] mod (2,0,1, 5)"])
def test_a_literal_with_trailing_text_is_a_bad_recipe(tmp_path, capsys, literal):
    # the second is the printed form of an element of F_25, not of F_9
    recipe = {"ring": {"kind": "Fq", "p": 3, "d": 2}, "build": {"eval_weyl": {"lambda": 1, "a": literal}}}
    code = main(["module", "build", "--recipe", _write_recipe(tmp_path, recipe)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "bad recipe: %s is not an element of F_9 mod (1,0,1, 3)\n" % literal


def test_a_large_module_reports_its_ell_weights():
    # W(5,1) ⊗ W(5,2) ⊗ W(1,3) over F_7 has dimension 72: every basis
    # vector is a labelled joint eigenvector, and the blocks share one
    # spectral character
    F = PrimeField(7)
    m = modrep.tensor(*[modrep.eval_weyl_module(F, lam, F(a)) for lam, a in ((5, 1), (5, 2), (1, 3))])
    report = module_report(m)
    assert report["dim"] == 72 and "ell_weights_error" not in report
    assert sum(b["dim"] for b in report["ell_weights"]) == 72
    assert report["ell_weights"][0] == {"weight": 11, "dim": 1, "ell_weight": [["1", [5]], ["2", [5]], ["3", [1]]]}
    assert report["spectral_character"] == {"1": [1], "2": [1], "3": [1]}


def test_a_closed_stdout_is_no_error(tmp_path):
    # `hlx steinberg ... | head -c 10`: the reader is gone before the report
    # is written, and the command still exits quietly with its own code
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    child = (
        "import sys; sys.stdin.read(); from hlx.cli import main; "
        "sys.exit(main(['steinberg', '--p', '5', '--lmax', '12']))"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", child],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=str(tmp_path),
    )
    proc.stdout.close()
    # the child writes only once stdin is closed, after its stdout reader
    proc.stdin.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


def test_fq_of_degree_one_is_a_bad_recipe(tmp_path, capsys):
    # F_{5^1} is F_5, spelt {"kind": "Fp", "p": 5}: as an Fq it would take the
    # extension-field path, where W(3,1)W(3,2)W(3,3) is left undecided
    factors = [{"eval_weyl": {"lambda": 3, "a": a}} for a in ("1", "2", "3")]
    recipe = {"ring": {"kind": "Fq", "p": 5, "d": 1}, "build": {"tensor": factors}}
    code = main(["module", "chop", "--recipe", _write_recipe(tmp_path, recipe)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "bad recipe: extension degree must be in [2, 4]\n"


def _weyl0_failure(tmp_path, capsys, argv):
    """Exit code and stderr of argv on W0((1-u)^2), or on its F_3
    reduction for chop."""
    if argv[0] == "lattice":
        recipe = W0_SQUARE
    elif argv[1] == "chop":
        recipe = {"ring": {"kind": "Fp", "p": 3}, "build": {"from_lattice": {"p": 3, "ambient": W0_SQUARE}}}
    else:
        recipe = {"ring": {"kind": "Q"}, "build": W0_SQUARE}
    code = main(argv + ["--recipe", _write_recipe(tmp_path, recipe)])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["lattice", "--p", "3"], 1, "lattice error: a table leaves the margin-0 straightening window\n"),
        # the reduction's recipe closes the lattice as it is built
        (["module", "chop"], 2, "bad recipe: a table leaves the margin-0 straightening window\n"),
    ],
)
def test_weyl0_window_that_cannot_rewrite_is_reported(tmp_path, monkeypatch, capsys, argv, code, err):
    # a monomial that the certified margin-0 window cannot rewrite is an
    # error, never a wider window
    monkeypatch.setattr(modrep.looppbw.SaturationResult, "reduce", lambda self, vec: None)
    assert _weyl0_failure(tmp_path, capsys, argv) == (code, err)


@pytest.mark.parametrize("argv", [["module", "build"], ["lattice", "--p", "3"]])
def test_weyl0_bound_off_2_to_the_lambda_is_reported(tmp_path, monkeypatch, capsys, argv):
    saturate = modrep.looppbw.weyl_upper_bound

    def inflated(*args, **kwargs):
        sat = saturate(*args, **kwargs)
        sat.dimension_bound += 1
        return sat

    monkeypatch.setattr(modrep.looppbw, "weyl_upper_bound", inflated)
    assert _weyl0_failure(tmp_path, capsys, argv) == (2, "bad recipe: the straightening bound is 5, not 2^2\n")


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["module", "build", "--recipe", os.path.join(GOLDEN, "recipe_f5.json")], "module_build_f5.json"),
        (["module", "chop", "--recipe", os.path.join(GOLDEN, "recipe_f5.json")], "module_chop_f5.json"),
        (["tpd-grid", "--p", "3"], "tpd_grid_p3.json"),
        (["paper-example", "--json"], "paper_example.json"),
        (["conjecture-cp0", "--p", "3", "--degmax", "3", "--json"], "conjecture_cp0_p3_d3.json"),
        (["verify-identities", "--json"], "verify_identities.json"),
        (
            ["lattice", "--recipe", os.path.join(GOLDEN, "lattice_recipe.json"), "--p", "3", "--reduce", "--json"],
            "lattice_reduce_p3.json",
        ),
        (["paper-example", "--a", "1", "--b", "4", "--json"], "paper_example_a1_b4.json"),
        (
            ["lattice", "--recipe", os.path.join(GOLDEN, "lattice_weyl0_recipe.json")]
            + ["--p", "3", "--reduce", "--json"],
            "lattice_weyl0_p3.json",
        ),
        (["conjecture-cp0", "--p", "5", "--degmax", "2", "--json"], "conjecture_cp0_p5_d2.json"),
        (["conjecture-cp0", "--p", "2", "--degmax", "4", "--json"], "conjecture_cp0_p2_d4.json"),
        (["blocks"] + ["module%d.json" % i for i in range(len(BLOCK_RECIPES))], "blocks_f3.json"),
        (["verify-identities", "--kmax", "5", "--smax", "2", "--rmax", "6", "--json"], "verify_identities_k5.json"),
        (
            ["module", "build", "--recipe", os.path.join(GOLDEN, "weyl0_sym_recipe.json"), "--json"],
            "module_build_weyl0_sym.json",
        ),
        (
            ["module", "dual", "--recipe", os.path.join(GOLDEN, "weyl0_sym_recipe.json"), "--json"],
            "module_dual_weyl0_sym.json",
        ),
        (["steinberg", "--p", "5", "--lmax", "12", "--json"], "steinberg_p5.json"),
        (
            ["module", "chop", "--recipe", os.path.join(GOLDEN, "reduction_f2_recipe.json")],
            "module_chop_reduction_f2.json",
        ),
    ],
)
def test_golden_outputs(tmp_path, monkeypatch, capsys, argv, golden):
    # the recipe has a tensor, a dual and a Frobenius twist over F_5; the
    # stored outputs come from the eigenspace search, which the ell-weight
    # labels must reproduce byte for byte.  The worked example, the
    # conjecture desk test and the identity suite pin the characteristic-zero
    # layer: the straightening echelon and the integer word rewriting.  The
    # lattice case reduces W(2,1)⊗W(1,4)⊗W(1,2) mod 3, where the roots 1 and
    # 4 meet: its unlabelled ell-weights come from the matrix path.  The
    # colength-4 worked example (a, b) = (1, 4) has non-unit Hermite pivots
    # and a nontrivial Smith form; the desk test at p = 5 checks part (b).
    # At p = 2 every root is 1 mod p, so the saturation over F_2 meets the
    # most equal relation instances.
    # The weyl0 lattice case reduces W0((1-u)^2) mod 3, the repeated-root
    # ambient whose closure runs on the omega~ recurrence windows.
    # The blocks case parses the spectral characters of four F_3 module
    # reports, named by relative paths so that the member labels are stable.
    # The identity suite at kmax 5 is the benchmark's; the Q(a, b) weyl0
    # reports pin values whose printed form follows the order in which the
    # normal-ordered products were summed.
    # The Steinberg suite over F_5 and the chop of the F_2 reduction of
    # W(1,1)⊗W(1,3)⊗W(1,5)⊗W(1,7), a module without labels, pin the
    # verdicts and witnesses of the highest-weight irreducibility test.
    monkeypatch.chdir(tmp_path)
    if argv[0] == "blocks":
        _write_block_reports(tmp_path, capsys)
    code, out = _run(capsys, argv)
    assert code == 0
    with open(os.path.join(GOLDEN, golden), "rb") as fh:
        assert out.encode() == fh.read()
