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
    assert set(report) >= {"machine", "python", "git_sha", "layers", "src_lines", "unit"}
    assert set(report["layers"]) == {
        "surgery.smith_normal_form", "surgery.first_homology", "legendrian.front_sweep",
        "legendrian.cable_front", "seifert.alexander", "seifert.levine_tristram",
        "seifert.signature_function",
    }
    for medians in report["layers"].values():
        assert list(medians) == ["6"]
        assert medians["6"] > 0
    assert report["src_lines"] > 0
