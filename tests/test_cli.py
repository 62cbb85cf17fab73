"""Tests for the experiment config, runner, emitters, and CLI."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import xml.dom.minidom
from dataclasses import fields
from pathlib import Path

import pytest

from qhlab.cli import build_parser, main
from qhlab.decomposition import CoreTentacleDecomposition
from qhlab.report import ExperimentConfig, UsageError, run
from qhlab.svg import SvgLayer, emit_svg


def _hashes(root: Path, suffixes=(".json", ".csv")) -> dict:
    out = {}
    for f in sorted(root.iterdir()):
        if f.suffix in suffixes and f.name != "manifest.json":
            out[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out


def test_config_round_trips():
    cfg = ExperimentConfig(fixture="dumbbell", h=1 / 256, m_list=(5, 7, 9),
                           k=2, p=1.5, seed=11, outdir="somewhere")
    again = ExperimentConfig.from_text(cfg.to_text())
    assert again == cfg


def test_config_validation_names_the_field():
    with pytest.raises(UsageError, match="fixture"):
        ExperimentConfig(fixture="banana").validate()
    with pytest.raises(UsageError, match="epsilon"):
        ExperimentConfig(epsilon=2.0).validate()
    with pytest.raises(UsageError, match="m_list"):
        ExperimentConfig(m_list=()).validate()


def test_unknown_fixture_is_usage_error(tmp_path, capsys):
    code = main(["gallery", "--fixture", "banana",
                 "--outdir", str(tmp_path)])
    assert code == 2
    assert "fixture" in capsys.readouterr().err


def test_gallery_smoke_and_manifest(tmp_path):
    out = tmp_path / "g"
    code = main(["gallery", "--fixture", "disk", "--h", str(1 / 64),
                 "--outdir", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"] == []
    for name, digest in manifest["files"].items():
        body = (out / name).read_bytes()
        assert hashlib.sha256(body).hexdigest() == digest


def test_decompose_run_deterministic(tmp_path):
    args = ["--fixture", "disk", "--h", str(1 / 64), "--m-list", "6",
            "--seed", "3"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["decompose", *args, "--outdir", str(out1)]) == 0
    assert main(["decompose", *args, "--outdir", str(out2)]) == 0
    assert _hashes(out1) == _hashes(out2)


def test_metrics_emits_geodesics_and_triangle(tmp_path):
    out = tmp_path / "m"
    code = main(["metrics", "--fixture", "disk", "--h", str(1 / 64),
                 "--n-pairs", "5", "--n-triangles", "4",
                 "--outdir", str(out)])
    assert code == 0
    geos = json.loads((out / "geodesics.json").read_text())
    assert geos and all("k_length" in g for g in geos)
    doc = xml.dom.minidom.parse(str(out / "geodesics.svg"))
    ids = {g.getAttribute("id") for g in doc.getElementsByTagName("g")}
    assert "geodesics" in ids and "delta_triangle" in ids


def test_decomposition_svg_layer_groups(tmp_path):
    out = tmp_path / "d"
    assert main(["decompose", "--fixture", "dumbbell", "--h", str(1 / 128),
                 "--m-list", "7", "--outdir", str(out)]) == 0
    doc = xml.dom.minidom.parse(str(out / "decomposition_m7.svg"))
    ids = {g.getAttribute("id") for g in doc.getElementsByTagName("g")}
    assert {"core", "band", "haloes", "tentacles"} <= ids


def test_empty_layer_set_is_valid_svg(tmp_path):
    path = tmp_path / "empty.svg"
    emit_svg([], path, (1.0, 1.0), {"note": "empty"})
    doc = xml.dom.minidom.parse(str(path))
    assert doc.documentElement.tagName == "svg"
    layer = SvgLayer("only")
    layer.rect(0, 0, 1, 1, fill="#000000")
    emit_svg([layer], path, (1.0, 1.0))
    doc = xml.dom.minidom.parse(str(path))
    assert len(doc.getElementsByTagName("rect")) == 1


def test_config_file_plus_flag_override(tmp_path):
    cfg = ExperimentConfig(fixture="square", h=1 / 64, outdir=str(tmp_path))
    path = tmp_path / "exp.cfg"
    path.write_text(cfg.to_text())
    out = tmp_path / "o"
    code = main(["gallery", "--config", str(path), "--outdir", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["fixture"] == "square"


@pytest.mark.parametrize("body, name", [
    ("[sampling]\nn_pairs = ten\n", "n_pairs"),
    ("n_pairs = 3\n", "section"),
    ("[sampling]\nn_pair = 3\n", "n_pair"),
    ("[approximation]\nm_lst = 9\n", "m_lst"),
    ("[domain]\nfixture = disk\n[tuning]\nsteps = 2\n", "tuning"),
    ("[constants]\nc = 1.0\n", "c"),
])
def test_config_file_errors_are_usage_errors(tmp_path, capsys, body, name):
    path = tmp_path / "exp.cfg"
    path.write_text(body)
    code = main(["gallery", "--config", str(path),
                 "--outdir", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err and name in err
    assert "Traceback" not in err


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "absent.cfg"
    code = main(["gallery", "--config", str(path),
                 "--outdir", str(tmp_path / "o")])
    assert code == 2
    assert str(path) in capsys.readouterr().err


def test_flag_of_the_wrong_type_is_usage_error(tmp_path, capsys):
    code = main(["gallery", "--n-pairs", "ten", "--outdir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "n_pairs" in err and "Traceback" not in err


def test_removed_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["properties", "--R", "3", "--outdir", str(tmp_path)])
    assert exc.value.code == 2


def test_each_subcommand_has_one_flag_per_config_field():
    want = {"--config"} | {f"--{f.name.replace('_', '-')}"
                           for f in fields(ExperimentConfig)}
    assert want == {"--config", "--fixture", "--h", "--c0", "--epsilon",
                    "--m-list", "--k", "--p", "--n-pairs", "--n-triangles",
                    "--seed", "--outdir"}
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"gallery", "metrics", "properties",
                                "decompose", "approx", "report"}
    for name, cmd in sub.choices.items():
        flags = {s for a in cmd._actions for s in a.option_strings}
        assert flags - {"-h", "--help"} == want, name


def test_run_rejects_unknown_stage():
    with pytest.raises(UsageError, match="stage"):
        run(ExperimentConfig(h=1 / 64), stages="everything")


def test_approx_stage_builds_with_configured_c0(tmp_path):
    # on the disk at h=1/64, c0=20 swallows the base point at m=6 but not at
    # m=7, while the default c0=10 builds both levels
    for command in ("approx", "report"):
        out = tmp_path / command
        code = main([command, "--fixture", "disk", "--h", str(1 / 64),
                     "--m-list", "6,7", "--c0", "20", "--outdir", str(out)])
        assert code == 0
        rows = json.loads((out / "error_decay.json").read_text())["samples"]
        assert [r["m"] for r in rows] == [6, 7]
        assert "swallowed" in rows[0]["skipped"]
        assert "error" in rows[1]
    rows = (out / "decomposition.csv").read_text().splitlines()
    assert rows[1].startswith("6,skipped,") and "swallowed" in rows[1]
    assert rows[2].startswith("7,ok,")


def test_report_builds_each_level_once(tmp_path, monkeypatch):
    built = []
    init = CoreTentacleDecomposition.__init__

    def counting_init(self, dec, qh, m, *args, **kwargs):
        built.append(m)
        init(self, dec, qh, m, *args, **kwargs)

    monkeypatch.setattr(CoreTentacleDecomposition, "__init__", counting_init)
    assert main(["report", "--fixture", "dumbbell", "--h", str(1 / 64),
                 "--m-list", "7,8", "--outdir", str(tmp_path / "r")]) == 0
    assert built == [7, 8]


def test_runs_without_fields_never_load_sympy(tmp_path):
    """sympy is imported when the first analytic field is built, not with
    the package, so gallery and metrics runs never load it."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = f"""
import sys
from qhlab import (approx, cli, decomposition, fixtures, properties, qh,
                   report, uniformize)
out = {str(tmp_path)!r}
assert cli.main(["gallery", "--fixture", "spiral", "--outdir", out + "/g"]) == 0
assert cli.main(["metrics", "--h", "0.015625", "--n-pairs", "4",
                 "--n-triangles", "3", "--outdir", out + "/m"]) == 0
assert "sympy" not in sys.modules
fixtures.radial_power((0.5, 0.0), 1.5, order=1)
assert "sympy" in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "g" / "domain.json").is_file()
    assert (tmp_path / "m" / "geodesics.json").is_file()
