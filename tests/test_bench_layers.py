"""Smoke test of the layer timing script, bench/layers.py, at one small size."""

import json
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_layers_script_writes_its_keys(tmp_path):
    out = tmp_path / "BENCH.json"
    subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(out), "--sizes", "6"],
        check=True, capture_output=True, timeout=120,
    )
    report = json.loads(out.read_text())
    assert set(report) == {
        "machine", "python", "git_sha", "src_differs_from_commit", "inputs", "unit", "layers",
        "layers_scaled", "reference_ms", "reference_nominal_ms", "src_lines",
    }
    assert set(report["layers"]) == {
        "surgery.smith_normal_form", "surgery.first_homology", "legendrian.front_sweep",
        "legendrian.cable_front", "seifert.alexander", "seifert.levine_tristram",
        "seifert.signature_function", "laurent.factor", "cyclotomic.cyclotomic_coeffs",
        "cabling.fox_milnor_obstruction", "cabling.fox_milnor_obstruction.cold", "realroots.isolate_roots",
        "cold_start",
    }
    assert set(report["layers_scaled"]) == set(report["layers"])
    cold = report["layers"].pop("cold_start")
    # import concordance, then the eleven README forms with text output
    assert len(cold) == 12 and list(cold)[:2] == ["import concordance", "signature RH-trefoil --omega 1/3"]
    assert list(report["layers_scaled"]["cold_start"]) == list(cold)
    assert all(ms > 0 for ms in [*cold.values(), *report["layers_scaled"]["cold_start"].values()])
    assert report["inputs"]["layers"]["cold_start"]["runs"] == 9
    for name, medians in report["layers"].items():
        assert list(medians) == ["6"]
        assert medians["6"] > 0
        # the same figure brought to the nominal pace by the run's own references
        assert list(report["layers_scaled"][name]) == ["6"]
        assert report["layers_scaled"][name]["6"] > 0
    assert report["reference_ms"] > 0
    assert report["reference_nominal_ms"] > 0
    assert report["src_lines"] > 0
