"""Command-line surface: payloads, formats, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

from beltbound.cli import JobSpec, SpecError, build_spec, run
from beltbound.estimator import SweepConfig, corollary_bound
from beltbound.reduction import BeltramiPair

FAST = ["--nodes", "512", "--weight-pieces", "8"]


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_estimate_radial_payload(capsys):
    code, doc = run_json(capsys, ["--command", "estimate", "--alpha", "0.5"] + FAST)
    assert code == 0
    assert doc["source"] == "radial"
    for key in ("beta", "corollary", "classical", "nu_zero"):
        assert abs(doc["bounds"][key] - 0.5) < 1e-9, key
    assert doc["ordering"]["beta_ge_corollary"]
    assert doc["report"]["certified_value"] >= doc["report"]["sup_value"] - 1e-12
    for rec in doc["report"]["per_circle"]:
        assert rec["solver_status"] == 0
        assert 0.0 <= rec["optimality_residual"] < 1e-8


def test_sharp_payload(capsys):
    code, doc = run_json(capsys, ["--command", "sharp", "--M", "3", "--tau", "1"] + FAST)
    assert code == 0
    assert abs(doc["alpha"] - 2.0 / 3.0) < 1e-12
    assert doc["mu0_pieces"][1] == pytest.approx(0.5, abs=1e-12)
    assert doc["checks"]["residual_ok"]
    assert doc["checks"]["nu0_vanishes"] and not doc["checks"]["mu0_vanishes"]
    assert doc["checks"]["beta_vs_alpha_rel"] < 0.02


def test_verify_radial_passes(capsys):
    code, doc = run_json(capsys, ["--command", "verify", "--alpha", "0.5", "--nodes", "256"])
    assert code == 0
    assert doc["passed"]
    assert doc["checks"]["equation_residual"]["ok"]
    assert doc["checks"]["weak_form"]["slope"] >= 1.0
    assert abs(doc["checks"]["empirical_exponent"]["value"] - 0.5) < 0.01


def test_verify_corrupted_fails(capsys):
    code, doc = run_json(
        capsys,
        ["--command", "verify", "--alpha", "0.5", "--nodes", "256", "--corrupt-mu"],
    )
    assert code == 4
    assert not doc["passed"]
    assert not doc["checks"]["equation_residual"]["ok"]


def test_verify_sharp_family(capsys):
    code, doc = run_json(
        capsys, ["--command", "verify", "--M", "2", "--tau", "0", "--nodes", "256"]
    )
    assert code == 0
    assert doc["passed"]


def test_sweep_csv_rows(capsys):
    code = run(
        ["--command", "sweep", "--M", "2,4", "--tau", "0", "--format", "csv"] + FAST
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [float(r["M"]) for r in rows] == [2.0, 4.0]
    for row in rows:
        assert row["status"] == "ok"
        d = float(row["d"])
        assert abs(float(row["beta"]) - d) / d < 0.02
        assert float(row["corollary_slack"]) >= -1e-12


def test_sweep_survives_bad_row(capsys):
    code, doc = run_json(
        capsys, ["--command", "sweep", "--M", "0.5,2", "--tau", "0"] + FAST
    )
    assert code == 0  # one good row is enough
    statuses = [row["status"] for row in doc]
    assert any(s.startswith("error") for s in statuses)
    assert any(s == "ok" for s in statuses)


def test_determinism(capsys):
    argv = ["--command", "estimate", "--M", "1.5", "--tau", "0.5"] + FAST
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    assert capsys.readouterr().out == first


def test_coeff_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text(
        json.dumps(
            {
                "breakpoints": [0.0, 1.5, 3.141592653589793, 4.64159265358979],
                "mu0": [0.0, 0.3, 0.0, 0.3],
                "nu0": [0.1, 0.0, 0.1, 0.0],
            }
        )
    )
    code, doc = run_json(
        capsys, ["--command", "estimate", "--coeff-file", str(path)] + FAST
    )
    assert code == 0
    assert doc["source"] == "coeff-file"
    assert doc["bounds"]["beta"] >= doc["bounds"]["classical"] - 1e-12


def test_corollary_taken_from_beta_sweep(tmp_path, capsys):
    pieces = {
        "breakpoints": [0.0, 1.2, 2.9, 4.4],
        "mu0": [0.2, -0.35, 0.1, 0.3],
        "nu0": [0.3, 0.1, -0.4, 0.05],
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pieces))
    code, doc = run_json(
        capsys,
        ["--command", "estimate", "--coeff-file", str(path), "--circles", "1",
         "--nodes", "256", "--weight-pieces", "4"],
    )
    assert code == 0
    pair = BeltramiPair.from_profiles(
        pieces["breakpoints"], pieces["mu0"], pieces["nu0"], node_count=256
    )
    cfg = SweepConfig.disk_lattice(radius_count=1, resolution=256, weight_pieces=4)
    assert doc["report"]["circle_count"] == len(cfg.circles) == 9
    assert doc["bounds"]["corollary"] == corollary_bound(pair, cfg)


def test_coeff_file_ellipticity_exit(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"breakpoints": [0.0], "mu0": [0.8], "nu0": [0.3]}))
    assert run(["--command", "estimate", "--coeff-file", str(path)] + FAST) == 3


def test_spec_errors_exit_two(capsys):
    cases = [
        ["--command", "estimate", "--alpha", "1.5"],  # alpha out of range
        ["--command", "estimate", "--alpha", "0.5", "--M", "2", "--tau", "0"],
        ["--command", "estimate"],  # no source
        ["--command", "sweep", "--tau", "0"],  # no M grid
        ["--command", "estimate", "--alpha", "0.5", "--format", "xml"],
        ["--command", "sharp", "--M", "0.9", "--tau", "0"],
        ["--command", "verify", "--alpha", "0.5", "--nodes", "-4"],
    ]
    for argv in cases:
        assert run(argv) == 2, argv
        capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["--command", "estimate", "--alpha", "0.5", "--nodes", "8"],
        ["--command", "estimate", "--alpha", "0.5", "--radii", "inf"],
        ["--command", "estimate", "--alpha", "0.5", "--nodes", "1024",
         "--weight-pieces", "600"],
        ["--command", "sharp", "--M", "1e300", "--tau", "0"],
        ["--command", "verify", "--alpha", "0.5", "--tolerance", "nan"],
    ],
)
def test_library_limits_exit_two(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_module_entry_point():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "beltbound.cli", "--command", "estimate",
         "--alpha", "0.5"] + FAST,
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert abs(json.loads(proc.stdout)["bounds"]["beta"] - 0.5) < 1e-9


def test_verify_rejects_coeff_file_source(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"breakpoints": [0.0], "mu0": [0.2], "nu0": [0.0]}))
    assert run(["--command", "verify", "--coeff-file", str(path)]) == 2


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"command": "estimate", "alpha": 0.25, "nodes": 512}))
    code, doc = run_json(capsys, ["--config", str(cfg), "--weight-pieces", "8"])
    assert code == 0 and abs(doc["bounds"]["beta"] - 0.25) < 1e-9
    code, doc = run_json(
        capsys, ["--config", str(cfg), "--alpha", "0.75", "--weight-pieces", "8"]
    )
    assert code == 0 and abs(doc["bounds"]["beta"] - 0.75) < 1e-9


def test_config_rejects_unknown_field(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"command": "estimate", "alhpa": 0.25}))
    assert run(["--config", str(cfg)]) == 2


def test_csv_key_value_for_scalar_command(capsys):
    code = run(["--command", "estimate", "--alpha", "0.5", "--format", "csv"] + FAST)
    assert code == 0
    rows = {r[0]: r[1] for r in csv.reader(io.StringIO(capsys.readouterr().out)) if r}
    assert rows["key"] == "value"
    assert abs(float(rows["bounds.beta"]) - 0.5) < 1e-9


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = run(
        ["--command", "estimate", "--alpha", "0.5", "--out", str(target)] + FAST
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert abs(doc["bounds"]["beta"] - 0.5) < 1e-9


def test_build_spec_parses_lists_and_validates():
    spec = build_spec(["--command", "sweep", "--M", "2, 4", "--tau", "0,0.5,1"])
    assert spec.M == (2.0, 4.0) and spec.tau == (0.0, 0.5, 1.0)
    with pytest.raises(SpecError):
        JobSpec(command="estimate", alpha=0.5, format="yaml")
    with pytest.raises(SpecError):
        JobSpec(command="estimate", M=(2.0,), tau=(0.0,), circles=0)
    with pytest.raises(SpecError):
        JobSpec(command="sharp", M=(2.0,), tau=(0.0, 1.0)).single_M_tau()
