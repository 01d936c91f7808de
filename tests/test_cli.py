"""Catalog loading and command-line reports."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest
from _oracles import front_alexander, laurent_at_sign

from concordance.catalog import (
    ParseError,
    UnknownKnot,
    ValidationError,
    load_catalog,
)
from concordance import cli, surgery
from concordance.cli import MAX_DEGREE, main, render
from concordance.intfactor import MAX_MODULAR_FACTORS
from concordance.laurent import LaurentPoly
from concordance.legendrian import FrontDiagram


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, "--output", "json", *argv)
    assert code == 0, err
    return json.loads(out)


def user_catalog(tmp_path, *entries):
    """The path of a catalog of `entries` and paper-pattern-P, beside the
    bundled pattern and max-tb trefoil fronts and `two.front`, the annular
    front S 2 / O E / X 0 (tb 1, rot 0)."""
    data = os.path.join(os.path.dirname(cli.__file__), "_data")
    for name in ("paper-pattern-P.front", "legendrian-RH-trefoil-maxtb.front"):
        shutil.copy(os.path.join(data, name), tmp_path)
    (tmp_path / "two.front").write_text("S 2\nO E\nX 0\n")
    pattern = {"front": "paper-pattern-P.front", "tilde_class": "unknot", "citation": "c"}
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([*entries, {"name": "paper-pattern-P", "pattern": pattern}]))
    return str(path)


class TestLoadCatalog:
    def test_bundled_entries(self):
        catalog = load_catalog()
        assert [e.name for e in catalog] == [
            "unknot",
            "RH-trefoil",
            "figure-eight",
            "3-twist-negative-clasp",
            "whitehead-double-RH-trefoil",
            "paper-pattern-P",
            "satellite-P-of-trefoil",
        ]
        assert len(catalog.entries) == 7

    def test_bundled_profiles_are_cited(self):
        catalog = load_catalog()
        trefoil = catalog.profile("RH-trefoil")
        assert trefoil.declared_tau.value == 1
        assert "Ozsvath and Szabo" in trefoil.declared_tau.citation
        assert trefoil.declared_s.value == 2
        assert "Rasmussen" in trefoil.declared_s.citation
        double = catalog.profile("whitehead-double-RH-trefoil")
        assert "Hedden" in double.declared_tau.citation
        assert double.topologically_slice.value is True
        assert "Freedman" in double.topologically_slice.citation

    def test_bundled_pattern(self):
        catalog = load_catalog()
        pattern = catalog.pattern("paper-pattern-P")
        assert (pattern.winding, pattern.tb, pattern.rot) == (1, 2, 0)
        assert pattern.tilde_class == "unknot"

    def test_empty_catalog(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text("[]")
        assert load_catalog(path).entries == []
        path.write_text("  \n")
        assert load_catalog(path).entries == []

    def test_env_var_override(self, tmp_path, monkeypatch):
        path = tmp_path / "catalog.json"
        path.write_text('[{"name": "k", "seifert_matrix": [[-1, 1], [0, -1]]}]')
        monkeypatch.setenv("CONCORDANCE_CATALOG", str(path))
        catalog = load_catalog()
        assert [e.name for e in catalog] == ["k"]
        assert str(catalog.profile("k").alexander) == "1*t^1 - 1 + 1*t^-1"

    def test_a_matrix_above_the_genus_cap_fails_every_command_at_once(self, capsys, tmp_path):
        # the catalog builds every entry's matrix at load, so one large
        # entry would stall commands about other entries and their fronts
        rows = [[0] * 66 for _ in range(66)]
        for i in range(0, 66, 2):
            rows[i][i], rows[i][i + 1], rows[i + 1][i + 1] = -1, 1, -1
        path = user_catalog(tmp_path, {"name": "big", "seifert_matrix": rows}, {"name": "two", "fronts": ["two.front"]})
        message = "error: entry 'big': Seifert matrix of size 66 is above 2 * MAX_GENUS = 64\n"
        for argv in (("alexander", "big"), ("legendrian", "invariants", "two")):
            start = time.perf_counter()
            assert run_cli(capsys, "--catalog", path, *argv) == (2, "", message)
            assert time.perf_counter() - start < 0.1

    def test_relative_file_references(self, tmp_path):
        (tmp_path / "k.front").write_text("O E\nL 0\nR 0\n")
        path = tmp_path / "catalog.json"
        path.write_text('[{"name": "k", "fronts": ["k.front"]}]')
        catalog = load_catalog(path)
        assert catalog.front("k").invariants().tb == -1

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("{", ParseError, "line 1"),
            ('{"name": "k"}', ParseError, "top level"),
            ("[[]]", ParseError, "expected an object"),
            ('[{"seifert_matrix": []}]', ParseError, "missing name"),
            ('[{"name": "k", "bogus": 1}]', ParseError, "unknown field 'bogus'"),
            (
                '[{"name": "k", "seifert_matrix": [[0]]}]',
                ValidationError,
                r"det\(V - V\^T\)",
            ),
            (
                '[{"name": "k", "tau": {"value": 1}}]',
                ValidationError,
                "citation",
            ),
            (
                '[{"name": "k", "tau": {"value": "x", "citation": "c"}}]',
                ParseError,
                "must be an integer",
            ),
            (
                '[{"name": "k", "alexander": "t^"}]',
                ParseError,
                "alexander",
            ),
            (
                '[{"name": "k", "seifert_matrix": [[-1, 1], [0, -1]],'
                ' "alexander": "1*t^1 - 3 + 1*t^-1"}]',
                ValidationError,
                "does not match the Seifert matrix",
            ),
            (
                '[{"name": "k", "alexander": "t^3 - t^2 + 1"}]',
                ValidationError,
                "of 'k' is not an Alexander polynomial: its span 3 is odd",
            ),
            (
                '[{"name": "k", "alexander": "t^2 + t - 1"}]',
                ValidationError,
                "not an Alexander polynomial: it is not symmetric",
            ),
            (
                '[{"name": "k", "seifert_matrix": []},'
                ' {"name": "k", "seifert_matrix": []}]',
                ValidationError,
                "duplicate entry name",
            ),
            ('[{"name": "k"}]', ValidationError, "declares nothing"),
            (
                '[{"name": "k", "fronts": ["missing.front"]}]',
                ParseError,
                "cannot read",
            ),
            (
                '[{"name": "k", "pattern": {"tilde_class": "unknot"}}]',
                ParseError,
                "missing front",
            ),
        ],
    )
    def test_rejects_bad_catalogs(self, tmp_path, text, error, message):
        # a front file is read at its entry's first read: reading every
        # entry runs every check
        path = tmp_path / "catalog.json"
        path.write_text(text)
        with pytest.raises(error, match=message):
            load_catalog(path).entries

    @pytest.mark.parametrize(
        "catalog, argv, message",
        [
            ("missing.json", ("alexander", "unknot"),
             "cannot read catalog 'missing.json': [Errno 2] No such file or directory: 'missing.json'"),
            ("./missing.json", ("alexander", "unknot"),
             "cannot read catalog './missing.json': [Errno 2] No such file or directory: './missing.json'"),
            ("sub//missing.json", ("alexander", "unknot"),
             "cannot read catalog 'sub//missing.json': [Errno 2] No such file or directory: 'sub//missing.json'"),
            ("", ("alexander", "unknot"), "cannot read catalog '': [Errno 2] No such file or directory: ''"),
            ("sub/catalog.json", ("legendrian", "invariants", "./missing"),
             "entry 'k': cannot read './missing.front': [Errno 2] No such file or directory: 'sub/./missing.front'"),
        ],
        ids=["missing", "dot-slash", "double-slash", "empty", "front-dot-slash"],
    )
    def test_read_errors_name_each_path_as_spelled(self, capsys, tmp_path, monkeypatch, catalog, argv, message):
        # the catalog and its fronts are opened as spelled, with no
        # normalization: folding a/../b to b could open another file
        # when a is a symbolic link
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "catalog.json").write_text('[{"name": "k", "fronts": ["./missing.front"]}]')
        assert run_cli(capsys, "--catalog", catalog, *argv) == (2, "", f"error: {message}\n")

    def test_front_files_are_read_at_the_first_read_of_their_entry(self, tmp_path):
        # load checks the names of an entry's front files, not the files;
        # each read of the entry, by entry, front or pattern, reads them
        (tmp_path / "ok.front").write_text("O E\nL 0\nR 0\n")
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([
            {"name": "k", "seifert_matrix": [[-1, 1], [0, -1]], "fronts": ["missing.front"]},
            {"name": "j", "fronts": ["ok.front"]},
        ]))
        catalog = load_catalog(path)
        assert str(catalog.profile("k").alexander) == "1*t^1 - 1 + 1*t^-1"
        assert catalog.front("ok") is catalog.entry("j").fronts["ok"]
        for read in (
            lambda: catalog.entry("k"), lambda: catalog.front("missing"), lambda: catalog.pattern("k"),
        ):
            with pytest.raises(ParseError, match="entry 'k': cannot read 'missing.front'"):
                read()

    def test_every_bundled_front_and_pattern_is_read_and_checked(self):
        # load reads no front file, so this is the test that a broken
        # bundled front or pattern fails
        catalog = load_catalog()
        data = os.path.join(os.path.dirname(cli.__file__), "_data")
        files = {name[: -len(".front")] for name in os.listdir(data) if name.endswith(".front")}
        fronts = {name: front for entry in catalog.entries for name, front in entry.fronts.items()}
        assert fronts.keys() == files
        for name, front in fronts.items():
            assert isinstance(front, FrontDiagram) and catalog.front(name) is front
            front.invariants()
        assert [e.name for e in catalog if e.pattern is not None] == ["paper-pattern-P"]

    def test_pattern_front_needs_a_seam(self, tmp_path):
        (tmp_path / "k.front").write_text("O E\nL 0\nR 0\n")
        path = tmp_path / "catalog.json"
        path.write_text(
            '[{"name": "k", "pattern": {"front": "k.front",'
            ' "tilde_class": "unknot", "citation": "c"}}]'
        )
        with pytest.raises(ValidationError, match="seam"):
            load_catalog(path).pattern("k")

    def test_lookup_errors(self):
        catalog = load_catalog()
        with pytest.raises(UnknownKnot, match="available"):
            catalog.profile("no-such-knot")
        with pytest.raises(UnknownKnot, match="not a knot entry"):
            catalog.profile("satellite-P-of-trefoil")
        with pytest.raises(UnknownKnot, match="no front named"):
            catalog.front("no-such-front")
        with pytest.raises(UnknownKnot, match="declares no satellite pattern"):
            catalog.pattern("RH-trefoil")

    def test_unknown_names_list_what_is_available(self):
        catalog = load_catalog()
        cases = [
            (
                catalog.entry,
                "no catalog entry named 'nope' (available: unknot, RH-trefoil, "
                "figure-eight, 3-twist-negative-clasp, whitehead-double-RH-trefoil, "
                "paper-pattern-P, satellite-P-of-trefoil)",
            ),
            (
                catalog.front,
                "no front named 'nope' (available: legendrian-RH-trefoil, "
                "legendrian-RH-trefoil-maxtb, paper-pattern-P, satellite-P-of-trefoil, "
                "whitehead-double-RH-trefoil)",
            ),
        ]
        for lookup, message in cases:
            with pytest.raises(UnknownKnot) as info:
                lookup("nope")
            assert str(info.value) == message

    def test_entries_list_in_catalog_order_and_files_sorted(self, tmp_path):
        for name in ("z.front", "a.front"):
            (tmp_path / name).write_text("O E\nL 0\nR 0\n")
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([
            {"name": "zeta", "fronts": ["z.front"]},
            {"name": "alpha", "fronts": ["a.front"]},
        ]))
        catalog = load_catalog(path)
        for lookup, message in [
            (catalog.entry, "no catalog entry named 'x' (available: zeta, alpha)"),
            (catalog.front, "no front named 'x' (available: a, z)"),
        ]:
            with pytest.raises(UnknownKnot) as info:
                lookup("x")
            assert str(info.value) == message

    @pytest.mark.parametrize("second", [
        {"fronts": ["k.front"]},
        {"pattern": {"front": "k.front", "tilde_class": "unknot", "citation": "c"}},
    ], ids=["front", "pattern"])
    def test_file_names_are_unique_across_entries(self, tmp_path, second):
        # a pattern's front joins its entry's fronts, so it may not repeat
        # another entry's front either
        (tmp_path / "k.front").write_text("S 2\nO E\nX 0\n")
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([
            {"name": "first", "fronts": ["k.front"]},
            {"name": "second", **second},
        ]))
        with pytest.raises(ValidationError) as info:
            load_catalog(path)
        assert str(info.value) == "duplicate front name 'k'"


class TestReports:
    def test_signature(self, capsys):
        data = run_json(capsys, "signature", "RH-trefoil", "--omega", "1/3")
        assert data["signature"] == -2
        assert data["omega"] == "e^(2*pi*i*1/3)"
        data = run_json(capsys, "signature", "RH-trefoil", "--omega", "1/2")
        assert data["signature"] == -2

    def test_alexander(self, capsys):
        data = run_json(capsys, "alexander", "3-twist-negative-clasp")
        assert data["alexander"] == "3*t^1 - 7 + 3*t^-1"

    def test_sigfn_trefoil(self, capsys):
        data = run_json(capsys, "sigfn", "RH-trefoil")
        assert data["identically_zero"] is False
        assert len(data["jumps"]) == 1
        assert data["jumps"][0]["height"] == -2
        assert data["jumps"][0]["angle"] == pytest.approx(1 / 6)
        assert [arc["signature"] for arc in data["arcs"]] == [0, -2, 0]

    def test_sigfn_figure_eight_is_zero(self, capsys):
        data = run_json(capsys, "sigfn", "figure-eight")
        assert data["identically_zero"] is True
        assert data["jumps"] == []

    @pytest.mark.parametrize(
        "front, expected",
        [
            ("paper-pattern-P", (3, 2, 0, 0, 2, 0)),
            ("legendrian-RH-trefoil", (3, 6, 2, 1, 0, 1)),
            ("legendrian-RH-trefoil-maxtb", (3, 4, 1, 1, 1, 0)),
            ("satellite-P-of-trefoil", (12, 20, 5, 4, 2, 1)),
        ],
    )
    def test_legendrian_invariants(self, capsys, front, expected):
        data = run_json(capsys, "legendrian", "invariants", front)
        got = (
            data["writhe"],
            data["cusps"],
            data["down_left_cusps"],
            data["up_right_cusps"],
            data["tb"],
            data["rot"],
        )
        assert got == expected

    def test_legendrian_satellite(self, capsys):
        data = run_json(
            capsys, "legendrian", "satellite", "paper-pattern-P",
            "legendrian-RH-trefoil",
        )
        assert (data["satellite"]["tb"], data["satellite"]["rot"]) == (2, 1)
        assert data["winding"] == 1
        assert "Ng" in data["citation"]

    def test_theorem31(self, capsys):
        data = run_json(capsys, "theorem31", "RH-trefoil")
        assert data["realization"]["front"] == "legendrian-RH-trefoil-maxtb"
        assert data["stabilized"] == {"tb": 0, "rot": 1}
        assert data["satellite"] == {"tb": 2, "rot": 1}
        assert data["bounds"] == {"g4_lower": 2, "tau_lower": "2", "s_lower": 4}
        assert any("g4 strictly increases: 2 > 1" in c for c in data["conclusions"])
        assert any("Z-homology cobordant" in c for c in data["conclusions"])

    def test_theorem31_whitehead_double(self, capsys):
        # the paper's smooth example: the stored front draws a knot with the
        # double's Delta = 1 (by Fox calculus, not the Seifert matrix), and
        # tau rises while both knots stay topologically slice
        catalog = load_catalog()
        name = "whitehead-double-RH-trefoil"
        delta = front_alexander(catalog.front(name))
        assert delta == catalog.profile(name).alexander == LaurentPoly.one()
        code, out, err = run_cli(capsys, "theorem31", name)
        assert (code, err) == (0, "")
        data = run_json(capsys, "theorem31", name)
        assert data["realization"]["front"] == name
        assert (data["realization"]["tb"], data["realization"]["rot"]) == (1, 0)
        conclusions = data["conclusions"]
        assert any(
            c.startswith("tau strictly increases: tau(satellite) >= 2 > 1 ")
            for c in conclusions
        )
        assert any("Z-homology cobordant rel meridians" in c for c in conclusions)
        assert any(c.startswith("both knots are topologically slice") for c in conclusions)

    def test_theorem31_has_no_front_flag(self, capsys):
        # the realization is chosen from the knot's own fronts; a front of
        # another knot cannot be passed in
        for knot in ("RH-trefoil", "whitehead-double-RH-trefoil"):
            with pytest.raises(SystemExit) as exc:
                main(["theorem31", knot, "--front", "legendrian-RH-trefoil-maxtb"])
            out, err = capsys.readouterr()
            assert (exc.value.code, out) == (2, "")
            assert "unrecognized arguments: --front" in err

    def test_theorem31_skips_the_entrys_pattern_front(self, capsys, tmp_path):
        # an entry with a profile and a pattern holds the pattern's front,
        # here listed before a closed front with tb 1 and rot 0
        path = user_catalog(tmp_path, {
            "name": "k",
            "seifert_matrix": [[-1, 1], [0, -1]],
            "genus": {"value": 1, "citation": "c"},
            "fronts": ["two.front", "legendrian-RH-trefoil-maxtb.front"],
            "pattern": {"front": "two.front", "tilde_class": "other", "citation": "c"},
        })
        assert list(load_catalog(path).entry("k").fronts) == [
            "two", "legendrian-RH-trefoil-maxtb",
        ]
        data = run_json(capsys, "--catalog", path, "theorem31", "k")
        assert data["realization"] == {
            "front": "legendrian-RH-trefoil-maxtb", "tb": 1, "rot": 0, "writhe": 3,
            "cusps": 4, "down_left_cusps": 1, "up_right_cusps": 1,
        }

    def test_homology_check(self, capsys):
        data = run_json(capsys, "homology-check", "--p", "5")
        assert data["presentation"] == "satellite-cobordism-p5"
        assert data["homology"]["group"] == "Z"
        assert data["homology"]["images"] == {"mu_K": [5], "mu_Ptilde": [1]}

    def test_homology_check_p2_prints_the_stored_presentations_bytes(self, capsys):
        # the catalog once stored the p = 2 presentation and homology-check
        # took its name; the recorded reports of that route are the
        # generator's at --p 2, byte for byte, and the name is now refused
        with open(os.path.join(os.path.dirname(__file__), "data", "stored_presentation_p2.json")) as f:
            recorded = json.load(f)
        for form in recorded:
            output = form["argv"][:-2]  # [] or ["--output", "json"]
            assert run_cli(capsys, *output, "homology-check", "--p", "2") == (
                form["code"], form["stdout"], form["stderr"],
            )
            with pytest.raises(SystemExit) as info:
                main(form["argv"])
            out, err = capsys.readouterr()
            assert (info.value.code, out) == (2, "")
            assert "unrecognized arguments: satellite-cobordism-p2" in err

    def test_cable_obstruction(self, capsys):
        data = run_json(capsys, "cable-obstruction", "RH-trefoil", "--p", "2")
        assert data["verdict"] == "obstructed"
        assert data["category"] == "topological"
        witness = data["witnesses"][0]["data"]
        assert witness["omega"] == "e^(2*pi*i*1/7)"
        assert witness["sigma_at_omega"] == 0
        assert witness["sigma_at_omega_power"] == -2

    def test_fox_milnor_consistent(self, capsys):
        data = run_json(capsys, "fox-milnor", "figure-eight", "--k-max", "2")
        assert data["verdict"] == "consistent-up-to-bounds"

    def test_fox_milnor_cable(self, capsys):
        data = run_json(
            capsys, "fox-milnor", "3-twist-negative-clasp",
            "--cable", "2", "--k-max", "4",
        )
        assert data["verdict"] == "obstructed-up-to-complexity-4"
        assert len(data["witnesses"]) == 4
        assert all(
            w["data"]["reason"] == "self-reciprocal factor with odd multiplicity"
            for w in data["witnesses"]
        )

    def test_verdict_smooth(self, capsys):
        data = run_json(
            capsys, "verdict", "whitehead-double-RH-trefoil", "--cable", "2"
        )
        assert data["verdict"] == "obstructed"
        assert data["category"] == "smooth"
        assert any("topologically slice" in note for note in data["notes"])

    def test_verdict_topological(self, capsys):
        data = run_json(capsys, "verdict", "RH-trefoil", "--cable", "2")
        assert data["category"] == "topological"
        kinds = [w["kind"] for w in data["witnesses"]]
        assert "signature-mismatch" in kinds

    def test_verdict_two_knots(self, capsys):
        data = run_json(capsys, "verdict", "unknot", "figure-eight")
        assert data["verdict"] == "no-obstruction-found"

    def test_verdict_cable_without_tau_rule(self, capsys):
        # tau = 0 differs from the genus 1, so the cable declares no tau
        data = run_json(capsys, "verdict", "figure-eight", "--cable", "2")
        assert data["verdict"] == "no-obstruction-found"
        assert data["notes"][0] == "tau comparison unavailable: not declared for both knots"

    def test_verdict_left_handed_trefoil_cable(self, capsys, tmp_path):
        # Hom: epsilon = -1 gives tau(K(2,1)) = -1, not -2, so tau is not compared
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([{
            "name": "LH-trefoil",
            "seifert_matrix": [[1, 0], [-1, 1]],
            "genus": {"value": 1, "citation": "mirror of the RH trefoil"},
            "tau": {"value": -1, "citation": "tau negates under mirroring"},
        }]))
        data = run_json(
            capsys, "--catalog", str(path), "verdict", "LH-trefoil", "--cable", "2"
        )
        assert data["category"] == "topological"
        assert [w["kind"] for w in data["witnesses"]] == ["signature-mismatch"]

    def test_verdict_knot_against_itself(self, capsys, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([{"name": "K", "seifert_matrix": [[-1, 1], [0, -1]]}]))
        data = run_json(capsys, "--catalog", str(path), "verdict", "K", "K")
        assert (data["verdict"], data["category"], data["witnesses"]) == (
            "no-obstruction-found", None, [],
        )

    def test_huge_angle_bound_is_fast(self, capsys):
        # the bound only caps the witness denominator: with no bad arc the
        # answer comes at once, and a witness stops the prime walk
        catalog = load_catalog()
        knots = [e.name for e in catalog if e.profile]
        assert len(knots) == 5
        for name in knots:
            for argv in (
                ["cable-obstruction", name, "--p", "2"],
                ["verdict", name, "--cable", "2"],
            ):
                default = run_json(capsys, *argv)
                start = time.perf_counter()
                huge = run_json(capsys, *argv, "--angle-denominator-bound", "1000000000")
                assert time.perf_counter() - start < 2.0, argv
                assert huge["verdict"] == default["verdict"]
                assert huge["witnesses"] == default["witnesses"]


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, err = run_cli(capsys, "alexander", "unknot")
        assert code == 0
        assert "alexander" in out
        assert err == ""

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (("alexander", "no-such-knot"), "no catalog entry"),
            (("signature", "RH-trefoil", "--omega", "bogus"), "fraction"),
            (("signature", "RH-trefoil", "--omega", "0/1"), "omega = 1"),
            (("cable-obstruction", "RH-trefoil", "--p", "1"), ">= 2"),
            (("fox-milnor", "RH-trefoil", "--k-max", "0"), ">= 1"),
            (("fox-milnor", "RH-trefoil", "unknot", "--cable", "2"), "not both"),
            (("legendrian", "invariants", "nope"), "no front named"),
            (("signature", "RH-trefoil", "--omega", "1/0"), "denominator must be positive"),
            # an annular pattern front cannot carry a satellite
            (("legendrian", "satellite", "paper-pattern-P", "paper-pattern-P"),
             "companion must be a closed front"),
        ],
    )
    def test_input_errors_are_two(self, capsys, argv, fragment):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert fragment in err
        assert out == ""

    def test_size_flags_fail_fast(self, capsys):
        # each of these ran for more than 10 s without the degree bound
        start = time.perf_counter()
        for argv in (
            ("cable-obstruction", "RH-trefoil", "--p", "100000"),
            ("fox-milnor", "RH-trefoil", "--k-max", "100000"),
            ("verdict", "RH-trefoil", "--cable", "100000"),
            ("fox-milnor", "RH-trefoil", "--cable", "2", "--k-max", "30"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert out == "" and f"above {MAX_DEGREE}" in err
        assert time.perf_counter() - start < 2.0

    def test_degree_bound_is_sharp(self, capsys):
        # the trefoil's delta(t^p) has degree 2p
        p = MAX_DEGREE // 2
        code, _, _ = run_cli(capsys, "cable-obstruction", "RH-trefoil", "--p", str(p))
        assert code == 0
        code, _, err = run_cli(
            capsys, "cable-obstruction", "RH-trefoil", "--p", str(p + 1)
        )
        assert code == 2 and f"degree {2 * p + 2}" in err

    def test_fox_milnor_at_the_degree_bound_is_fast(self, capsys):
        # 3*t^72 - 7*t^36 + 3 at the last k: the slowest catalog form the
        # bound admits, 10 s when whole products were factored
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "fox-milnor", "3-twist-negative-clasp", "--k-max", "36"
        )
        assert time.perf_counter() - start < 2.0
        assert code == 0, err
        assert "obstructed-up-to-complexity-36" in out
        code, _, err = run_cli(
            capsys, "fox-milnor", "3-twist-negative-clasp", "--k-max", "37"
        )
        assert code == 2 and f"above {MAX_DEGREE}" in err

    def test_recombination_cap_is_an_input_error(self, capsys, tmp_path):
        # t^36 * prod Q_a(t + 1/t) with Q_a(x) = (x - 2)^4 - 2(2a + 1)(x - 2)^2 + 1:
        # an Alexander polynomial (symmetric, Q_a(2) = 1 so delta(1) = 1) of
        # span 72, within MAX_DEGREE, whose trace polynomial has at least 18
        # modular factors at every prime and no factor of degree < 4, so
        # recombination would pass MAX_MODULAR_FACTORS
        # with y = (t - 1)^2 / t, Q_a(y) = ((t - 1)^8 - c t^2 (t - 1)^4 + t^4) / t^4
        # for c = 2(2a + 1)
        delta = LaurentPoly.one()
        for a in (2, 5, 6, 7, 10, 11, 12, 13, 14):
            c = 2 * (2 * a + 1)
            delta = delta * LaurentPoly.from_coeffs(
                [1, -8, 28 - c, 4 * c - 56, 71 - 6 * c, 4 * c - 56, 28 - c, -8, 1], low=-4
            )
        assert (delta.span(), laurent_at_sign(delta, 1)) == (72, 1)
        path = tmp_path / "catalog.json"
        entries = [{"name": "unknot", "seifert_matrix": []}, {"name": "sd", "alexander": str(delta)}]
        path.write_text(json.dumps(entries))
        code, out, err = run_cli(
            capsys, "--catalog", str(path), "fox-milnor", "sd", "--k-max", "1"
        )
        assert code == 2 and out == ""
        assert err == (
            "error: factoring a polynomial of degree 36 needs recombination "
            f"of 18 modular factors, above {MAX_MODULAR_FACTORS}\n"
        )

    def test_internal_error_names_command_and_inputs(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "fox_milnor_obstruction", broken)
        code, out, err = run_cli(capsys, "fox-milnor", "RH-trefoil", "--cable", "2")
        assert code == 4
        assert out == ""
        assert err == (
            "internal error in fox-milnor knot0=RH-trefoil cable=2 k_max=6: "
            "RuntimeError: boom\n"
        )

    def test_huge_cable_of_trivial_alexander_is_fast(self, capsys):
        # degree 0 at every p; the pullback of a zero signature function
        # is zero, without the O(p^2) polynomial v_p
        start = time.perf_counter()
        for argv in (
            ("verdict", "whitehead-double-RH-trefoil", "--cable", "100000"),
            ("verdict", "unknot", "--cable", "100000", "--k-max", "100000"),
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, err
        assert time.perf_counter() - start < 2.0

    def test_huge_omega_is_fast(self, capsys):
        # phi(b) >= sqrt(b/2) rules out every b above 2 * deg(delta)^2 as a
        # jump denominator without factoring b; m/b and (m + 1)/b lie
        # within 1/b on either side of the trefoil's jump at 1/6
        b = 10**18 + 3
        m = b // 6
        start = time.perf_counter()
        for a, expected in ((1, 0), (m, 0), (m + 1, -2), (b // 2, -2)):
            data = run_json(capsys, "signature", "RH-trefoil", "--omega", f"{a}/{b}")
            assert data["signature"] == expected, a
        assert time.perf_counter() - start < 2.0

    def test_a_catalog_polynomial_of_huge_span_is_two(self, tmp_path):
        # in a child whose memory is capped, timed there: the span bound
        # refuses the polynomial before its coefficients are allocated
        from _oracles import run_capped

        path = user_catalog(tmp_path, {"name": "wide", "alexander": "t^2000000000 - t^1000000000 + 1"})
        timed = (
            "import sys, time\nfrom concordance.cli import main\nstart = time.perf_counter()\n"
            "code = main(sys.argv[1:])\nprint(time.perf_counter() - start)\nsys.exit(code)"
        )
        done = run_capped(timed, "--catalog", path, "alexander", "wide")
        assert done.returncode == 2, done.stderr
        assert done.stderr == "error: entry 'wide': alexander: span 2000000000 is above MAX_SPAN = 65536\n"
        assert float(done.stdout) < 1.0

    def test_hypothesis_not_met_is_three(self, capsys):
        code, out, err = run_cli(capsys, "theorem31", "figure-eight")
        assert code == 3
        assert "tb = 2g - 1" in err

    @pytest.mark.parametrize(
        "fields, argv, code, message",
        [
            ({"alexander": "t - 1 + t^-1"}, ("signature", "k", "--omega", "1/3"),
             2, "'k' has no Seifert matrix in the catalog"),
            ({"genus": {"value": 1, "citation": "c"}}, ("alexander", "k"),
             2, "'k' has no Alexander polynomial"),
            ({"seifert_matrix": [[-1, 1], [0, -1]]}, ("theorem31", "k"),
             3, "k: no declared genus"),
            # an annular front (tb 1, rot 0) realizes no knot
            ({"genus": {"value": 1, "citation": "c"}, "fronts": ["two.front"]},
             ("theorem31", "k"), 3,
             "k: no stored front realizes tb = 2g - 1 = 1 with rot = 0"),
        ],
        ids=["signature-without-seifert", "alexander-without-polynomial",
             "theorem31-without-genus", "theorem31-annular-front-only"],
    )
    def test_missing_entry_data(self, capsys, tmp_path, fields, argv, code, message):
        path = user_catalog(tmp_path, {"name": "k", **fields})
        assert run_cli(capsys, "--catalog", path, *argv) == (
            code, "", f"error: {message}\n",
        )

    def test_class_mismatch_is_three(self, capsys, monkeypatch):
        # the built presentation always passes: check the p = 2 one at p = 3
        built = surgery.satellite_cobordism_presentation
        monkeypatch.setattr(surgery, "satellite_cobordism_presentation", lambda p: built(2))
        code, out, err = run_cli(capsys, "homology-check", "--p", "3")
        assert code == 3
        assert "residual" in err

    def test_bad_catalog_is_two(self, capsys, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text("{")
        code, out, err = run_cli(
            capsys, "--catalog", str(path), "alexander", "unknot"
        )
        assert code == 2
        assert "line 1" in err

    def test_non_alexander_polynomial_is_two(self, capsys, tmp_path):
        # delta(1) = 0 is no knot's: the catalog fails at load, before any
        # command could report Fox-Milnor witnesses for it
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([
            {"name": "unknot", "seifert_matrix": []},
            {"name": "k", "alexander": "2*t^1 - 4 + 2*t^-1"},
        ]))
        for argv in (("alexander", "k"), ("fox-milnor", "k", "--k-max", "2")):
            assert run_cli(capsys, "--catalog", str(path), *argv) == (
                2, "", "error: entry 'k': declared polynomial 2*t^1 - 4 + 2*t^-1 "
                "of 'k' is not an Alexander polynomial: |delta(1)| = 0, not 1\n",
            )

    def test_contradictory_declared_values_are_two(self, capsys, tmp_path):
        # the trefoil's matrix with genus 1, tau 3 and s 9: |tau| <= g and
        # |s| <= 2g rule the entry out at load
        cited = [{"value": v, "citation": "c"} for v in (1, 3, 9)]
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([{
            "name": "k", "seifert_matrix": [[-1, 1], [0, -1]],
            **dict(zip(("genus", "tau", "s"), cited)),
        }]))
        assert run_cli(capsys, "--catalog", str(path), "verdict", "k", "--cable", "2") == (
            2, "", "error: entry 'k': 'k': |tau| = 3 exceeds genus 1\n",
        )

    def test_slice_genus_lower_bound_above_the_genus_is_two(self, capsys, tmp_path):
        # g4 <= g: a declared lower bound 3 on the trefoil's matrix with
        # genus 1 rules the entry out at load, with no upper bound declared
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([{
            "name": "k", "seifert_matrix": [[-1, 1], [0, -1]],
            "genus": {"value": 1, "citation": "c"},
            "slice_genus": {"lower": 3, "citation": "c"},
        }]))
        assert run_cli(capsys, "--catalog", str(path), "alexander", "k") == (
            2, "", "error: entry 'k': 'k': slice genus lower bound 3 exceeds genus 1\n",
        )

    def test_declared_alexander_is_stored_balanced(self, capsys, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([{"name": "k", "alexander": "t^2 - t + 1"}]))
        data = run_json(capsys, "--catalog", str(path), "alexander", "k")
        assert data["alexander"] == "1*t^1 - 1 + 1*t^-1"
        assert data["normalization"].startswith("balanced")

    def test_zero_denominator_in_catalog_is_two(self, capsys, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text('[{"name": "k", "alexander": "1/0*t - 1 + 1/0*t^-1"}]')
        code, out, err = run_cli(capsys, "--catalog", str(path), "alexander", "k")
        assert code == 2
        assert out == ""
        # coefficients are integers: any a/b is a parse error at load
        assert err == "error: entry 'k': alexander: cannot parse term '1/0*t'\n"

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"fronts": ["k.front"]}, "k.front: line 2: second S record"),
            ({"pattern": {"front": "k.front", "tilde_class": "unknot", "citation": "c"}},
             "pattern: k.front: line 2: second S record"),
        ],
        ids=["front", "pattern"],
    )
    def test_duplicate_records_in_catalog_files_are_two(self, capsys, tmp_path, fields, message):
        (tmp_path / "k.front").write_text("S 2\nS 3\n")
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([{"name": "k", **fields}]))
        code, out, err = run_cli(capsys, "--catalog", str(path), "legendrian", "invariants", "k")
        assert (code, out) == (2, "")
        assert err == f"error: entry 'k': {message}\n"

    @pytest.mark.parametrize(
        "fields, front, message",
        [
            ({"fronts": ["missing.front"]}, "missing", "entry 'k': cannot read 'missing.front'"),
            ({"fronts": ["twice.front"]}, "twice", "entry 'k': twice.front: line 2: second S record"),
            ({"pattern": {"front": "closed.front", "tilde_class": "unknot", "citation": "c"}},
             "closed", "entry 'k': pattern: pattern fronts need seam_strands >= 1"),
        ],
        ids=["missing-front", "bad-front", "pattern-without-seam"],
    )
    def test_a_bad_front_or_pattern_is_two_for_every_command_that_reads_its_entry(
        self, capsys, tmp_path, fields, front, message
    ):
        # the entry's front files are read at its first read: a command
        # that reads another entry, or only k's profile, never sees them
        (tmp_path / "twice.front").write_text("S 2\nS 3\n")
        (tmp_path / "closed.front").write_text("O E\nL 0\nR 0\n")
        trefoil = {"seifert_matrix": [[-1, 1], [0, -1]], "genus": {"value": 1, "citation": "c"}}
        path = user_catalog(tmp_path, {"name": "k", **trefoil, **fields})
        for argv in (
            ("legendrian", "invariants", front),
            ("legendrian", "satellite", "paper-pattern-P", front),
            ("theorem31", "k"),
            ("theorem31", "k", "--pattern", "k"),
        ):
            code, out, err = run_cli(capsys, "--catalog", path, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"error: {message}"), argv
        for argv in (
            ("alexander", "k"),
            ("signature", "k", "--omega", "1/3"),
            ("sigfn", "k"),
            ("cable-obstruction", "k", "--p", "2"),
            ("fox-milnor", "k", "--cable", "2"),
            ("verdict", "k", "--cable", "2"),
            ("homology-check",),
            ("legendrian", "invariants", "paper-pattern-P"),
        ):
            assert run_cli(capsys, "--catalog", path, *argv)[0] == 0, argv

    @pytest.mark.parametrize(
        "fields, message",
        [
            (
                {"seifert_matrix": [[True, 1], [0, -1]]},
                "seifert_matrix must be a list of integer rows",
            ),
            (
                {"pattern": {"front": "paper-pattern-P.front",
                             "tilde_class": "unknot", "citation": 5}},
                "pattern: citation must be a string",
            ),
            ({"fronts": 5}, "fronts must be a list"),
            # stored presentations are no catalog data
            ({"presentations": ["k.pres"]}, "unknown field 'presentations'"),
        ],
    )
    def test_malformed_catalog_entry_is_two(self, capsys, tmp_path, fields, message):
        data = os.path.join(os.path.dirname(cli.__file__), "_data")
        shutil.copy(os.path.join(data, "paper-pattern-P.front"), tmp_path)
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([{"name": "k", **fields}]))
        code, out, err = run_cli(capsys, "--catalog", str(path), "alexander", "k")
        assert code == 2
        assert out == ""
        assert err == f"error: entry 'k': {message}\n"

    def test_omega_next_to_an_irrational_jump(self, capsys, tmp_path):
        # T(2,5) jumps at angle 1/10; omega lies 10^-13 above and below it
        path = tmp_path / "catalog.json"
        v = [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]]
        path.write_text(json.dumps([{"name": "T(2,5)", "seifert_matrix": v}]))
        for a, expected in ((10**12 + 1, -2), (10**12 - 1, 0)):
            code, out, err = run_cli(
                capsys, "--catalog", str(path), "--output", "json",
                "signature", "T(2,5)", "--omega", f"{a}/{10**13}",
            )
            assert code == 0, err
            assert json.loads(out)["signature"] == expected

    def test_usage_errors_exit_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 2
        capsys.readouterr()


def test_cli_starts_without_sympy():
    # nothing in the library imports sympy or mpmath: signatures, factoring
    # and the Fox-Milnor and verdict commands run on the stdlib alone; the
    # factorizer is loaded by the first command that factors, not before
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = (
        "import sys\n"
        "import concordance, concordance.cli\n"
        "concordance.load_catalog()\n"
        "from concordance.seifert import RootOfUnity, SeifertMatrix, levine_tristram, signature_function\n"
        "v = SeifertMatrix([[-1, 1], [0, -1]])\n"
        "print(levine_tristram(v, RootOfUnity(1, 7)), signature_function(v)._values)\n"
        "codes = [concordance.cli.main(['alexander', 'RH-trefoil'])]\n"
        "loaded = ['concordance.intfactor' in sys.modules]\n"
        "codes += [concordance.cli.main(argv) for argv in (\n"
        "    ['fox-milnor', '3-twist-negative-clasp', '--cable', '2', '--k-max', '4'],\n"
        "    ['verdict', 'RH-trefoil', '--cable', '3'],\n"
        ")]\n"
        "loaded.append('concordance.intfactor' in sys.modules)\n"
        "print(codes, loaded, sorted({'sympy', 'mpmath'} & set(sys.modules)), file=sys.stderr)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout.startswith("0 (0, -2)\n")
    assert "obstructed-up-to-complexity-4" in done.stdout
    assert done.stderr == "[0, 0, 0] [False, True] []\n"


class TestDeterminism:
    @pytest.mark.parametrize("output", ["table", "json"])
    def test_reruns_are_byte_identical(self, capsys, output):
        runs = []
        for _ in range(2):
            code, out, err = run_cli(
                capsys, "--output", output, "verdict", "RH-trefoil", "--cable", "3"
            )
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]

    def test_json_is_sorted(self, capsys):
        code, out, _ = run_cli(
            capsys, "--output", "json", "alexander", "unknot"
        )
        data = json.loads(out)
        assert out == json.dumps(data, indent=2, sort_keys=True) + "\n"

    def test_table_renderer_handles_nesting(self):
        text = render({"a": {"b": [1, 2]}, "c": [{"d": None}], "e": True}, "table")
        assert text == "a.b     1, 2\nc[0].d  -\ne       true\n"
