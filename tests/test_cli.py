"""Command-line surface: payloads, formats, exit codes."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import non_json_types
from hypothesis import given, settings
from hypothesis import strategies as st

from beltbound import cli, estimator, reduction
from beltbound.cli import JobSpec, SpecError, _emit, _json_text, build_spec, run
from beltbound.estimator import SweepConfig, corollary_bound
from beltbound.reduction import BeltramiPair

COMMANDS = {"estimate": cli.cmd_estimate, "sharp": cli.cmd_sharp, "verify": cli.cmd_verify,
            "sweep": cli.cmd_sweep}

# quick grids, per command: only estimate reads --weight-pieces
FAST = {"estimate": ["--nodes", "512", "--weight-pieces", "8"], "sharp": ["--nodes", "512"],
        "verify": ["--nodes", "512"], "sweep": ["--nodes", "512"]}


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_estimate_radial_payload(capsys):
    code, doc = run_json(capsys, ["--command", "estimate", "--alpha", "0.5"] + FAST["estimate"])
    assert code == 0
    assert doc["source"] == "radial"
    for key in ("beta", "corollary", "classical", "nu_zero"):
        assert abs(doc["bounds"][key] - 0.5) < 1e-9, key
    assert doc["ordering"]["beta_ge_corollary"]
    assert doc["report"]["certified_value"] >= doc["report"]["sup_value"] - 1e-12
    for rec in doc["report"]["per_circle"]:
        # D is constant for the radial stretch, so no clip window beats the unit pair
        assert rec["solver_status"] == "constant"
        assert 0.0 <= rec["optimality_residual"] < 1e-12


def test_sharp_payload(capsys):
    code, doc = run_json(capsys, ["--command", "sharp", "--M", "3", "--tau", "1"] + FAST["sharp"])
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


@pytest.mark.parametrize("argv, value, slope", [
    (["--M", "2", "--tau", "0.5"], "0x1.188e0ae4590fap-14", "0x1.fe7420b4ea44cp+0"),
    (["--M", "3", "--tau", "1"], "0x1.00ecbc539fe80p-13", "0x1.008163332eb1fp+1"),
    (["--alpha", "0.5"], "0x1.7c831ea8228a3p-18", "0x1.7ffb9e44a67fdp+1"),
], ids=["M2-tau0.5", "M3-tau1", "alpha0.5"])
def test_verify_weak_form_is_pinned(capsys, argv, value, slope):
    # the refined meshes' maxima come from their outer rows when u is
    # homogeneous; the report must stay that of the whole-mesh walk, bitwise
    code, doc = run_json(capsys, ["--command", "verify"] + argv)
    assert code == 0
    weak = doc["checks"]["weak_form"]
    assert (weak["value"].hex(), weak["slope"].hex()) == (value, slope)


def test_sweep_csv_rows(capsys):
    code = run(
        ["--command", "sweep", "--M", "2,4", "--tau", "0", "--format", "csv"] + FAST["sweep"]
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
        capsys, ["--command", "sweep", "--M", "0.5,2", "--tau", "0"] + FAST["sweep"]
    )
    assert code == 0  # one good row is enough
    statuses = [row["status"] for row in doc]
    assert any(s.startswith("error") for s in statuses)
    assert any(s == "ok" for s in statuses)


def test_sweep_csv_columns_do_not_depend_on_failed_points(capsys):
    # M = 0.5 fails; whichever point comes first, the header holds every
    # column of a good row, and the failed row leaves its numbers empty
    code, doc = run_json(capsys, ["--command", "sweep", "--M", "2", "--tau", "0"] + FAST["sweep"])
    assert code == 0
    columns = list(doc[0])
    for ms in ("0.5,2", "2,0.5"):
        argv = ["--command", "sweep", "--M", ms, "--tau", "0", "--format", "csv"] + FAST["sweep"]
        assert run(argv) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0].split(",") == columns, ms
        rows = {float(r["M"]): r for r in csv.DictReader(io.StringIO(text))}
        assert rows[2.0]["status"] == "ok"
        assert float(rows[2.0]["beta"]) == doc[0]["beta"]
        assert rows[0.5]["status"].startswith("error")
        assert all(rows[0.5][k] == "" for k in columns if k not in ("M", "tau", "status"))


def test_determinism(capsys):
    argv = ["--command", "estimate", "--M", "1.5", "--tau", "0.5"] + FAST["estimate"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("extra", [[], ["--circles", "1"]], ids=["origin", "lattice"])
def test_every_center_is_a_complex_pair(capsys, extra):
    # origin rows printed "center": 0.0, off-centre rows and the attaining
    # circle [re, im]
    code, doc = run_json(capsys, ["--command", "estimate", "--M", "2", "--tau", "0.5", *extra]
                         + FAST["estimate"])
    report = doc["report"]
    centers = [row["center"] for row in report["per_circle"]]
    centers.append(report["attaining_circle"]["center"])
    assert code == 0
    assert all(isinstance(c, list) and len(c) == 2 for c in centers), centers


def test_optimality_residual_is_finite_where_no_window_is_feasible(capsys):
    # on the off-centre circles of this lattice, the arc of max dmax also
    # holds min dmin, and rounding puts the first staircase piece's start
    # past w0, so no piece was feasible: the residual was inf, and the JSON
    # held Infinity
    code, doc = run_json(capsys, ["--command", "estimate", "--M", "2", "--tau", "0.5",
                                  "--circles", "1"] + FAST["estimate"])
    residuals = [row["optimality_residual"] for row in doc["report"]["per_circle"]]
    assert code == 0 and max(residuals) < 1e-12, residuals


def test_large_lattice_sweep_memory(capsys):
    # 1,601 circles in two grids: the sweep restricts a bounded number of
    # circles at a time and keeps one pass alive, so its peak does not grow
    # with the circle count; the geometry cache keeps one batch
    tracemalloc.start()
    try:
        code = run(["--command", "estimate", "--M", "2", "--tau", "0.5", "--circles", "200"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and len(doc["report"]["per_circle"]) == 1601
    assert peak < 20e6
    assert reduction._circle_geometry.cache_info().currsize <= 1


def test_sweep_output_byte_identical(tmp_path):
    argv = (["--command", "sweep", "--M", "0.5,2,4", "--tau", "0,1", "--format", "csv"]
            + FAST["sweep"])
    outputs = []
    for name in ("first.csv", "second.csv"):
        assert run(argv + ["--out", str(tmp_path / name)]) == 0
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]


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
        capsys, ["--command", "estimate", "--coeff-file", str(path)] + FAST["estimate"]
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


def test_remark_family_sets_the_lattice_bound(tmp_path, capsys):
    # a seven-arc pair (input 33 of the benchmark's lattice-cli workload at
    # seed 7) at the benchmark's flags: on circle 7 the remark pair scores
    # 3.3312, below the unit pair (3.9748) and the best window (3.9448), and
    # that circle attains the bound; without the remark family beta would
    # drop to about 1/3.97
    pieces = {
        "breakpoints": [0.0, 1.0369631348645723, 1.1198165755668807, 2.7039529790399586,
                        3.130904180248707, 3.7047883062245313, 3.956568746098594],
        "mu0": [0.0006282693814656515, -0.29093485439909267, 0.3265974801829211,
                -0.2178452495662685, 0.13088189925411964, -0.3221508863502507,
                0.4116411073976818],
        "nu0": [0.5278626293424747, 0.20268622784405393, 0.013608320375719463,
                0.2943374276477924, 0.11176552980185495, -0.29472751794837954,
                0.2945119526770542],
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pieces))
    code, doc = run_json(
        capsys,
        ["--command", "estimate", "--coeff-file", str(path), "--circles", "1",
         "--nodes", "256", "--weight-pieces", "2"],
    )
    assert code == 0
    row = doc["report"]["per_circle"][7]
    assert row["family"] == "remark"
    assert doc["report"]["sup_value"] == row["value"]
    pair = BeltramiPair.from_profiles(
        pieces["breakpoints"], pieces["mu0"], pieces["nu0"], node_count=256
    )
    cfg = SweepConfig.disk_lattice(radius_count=1, resolution=256, weight_pieces=2)
    idx, data = next((idx, data) for idx, data in estimator._reduced(pair, cfg) if 7 in idx)
    window, *_, unit = estimator._solve_weights(data)
    r = idx.index(7)
    assert row["value"] < min(unit[r], window[r]) * (1.0 - 1e-3)


def test_coeff_file_ellipticity_exit(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"breakpoints": [0.0], "mu0": [0.8], "nu0": [0.3]}))
    assert run(["--command", "estimate", "--coeff-file", str(path)] + FAST["estimate"]) == 3


@pytest.mark.parametrize("name, entry", [
    ("decreasing", "entry 2 is 1.0"), ("past_two_pi", "entry 2 is 9.283185307179586"),
    ("boolean", "breakpoints[1] is true"), ("infinite_breakpoint", "entry 1 is inf"),
    ("string_number", 'breakpoints[1] is "1"'), ("tiny", "entry 1 is 1e-300"),
    ("near_two_pi", "entry 2 is 6.28318530717"), ("near_duplicate", "entry 2 is 1.00000000001")])
def test_coeff_file_breakpoints_are_checked(tmp_path, capsys, name, entry):
    # each used to be read as another pair ([0, 1, 3] for the first two,
    # [0, 1] for the boolean and the string), warned from numpy's
    # remainder, or, for breakpoints within 1e-10 of the one before or of
    # 2 pi, refused for its piece count; now one error line names the entry
    path = tmp_path / f"{name}.json"
    path.write_text(FUZZ_COEFF[name])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["--command", "estimate", "--coeff-file", str(path)] + FAST["estimate"])
    out, err = capsys.readouterr()
    assert (code, out, caught) == (2, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1 and entry in err


# float.hex of the bounds of the mu = 0, nu = 0 and constant files at FAST
# flags, at the origin and on the 9-circle lattice (classical is closed form)
_PINNED_BOUNDS = {
    ("mu_zero", "origin"): {"beta": "0x1.d388bf4333f4ep-2", "corollary": "0x1.6e699c7c8e435p-2",
                            "mu_zero": "0x1.6e699c7c8e435p-2"},
    ("mu_zero", "lattice"): {"beta": "0x1.6e699c7c8e435p-2", "corollary": "0x1.6e699c7c8e435p-2",
                             "mu_zero": "0x1.6e699c7c8e435p-2"},
    ("nu_zero", "origin"): {"beta": "0x1.0000000000000p+0", "corollary": "0x1.0000000000000p+0",
                            "nu_zero": "0x1.0000000000000p+0"},
    ("nu_zero", "lattice"): {"beta": "0x1.0000000000000p+0", "corollary": "0x1.0000000000000p+0",
                             "nu_zero": "0x1.0000000000000p+0"},
    ("constant", "origin"): {"beta": "0x1.ffffffffffffep-1", "corollary": "0x1.ffffffffffffep-1",
                             "mu_zero": "0x1.ffffffffffffep-1", "nu_zero": "0x1.ffffffffffffep-1"},
    ("constant", "lattice"): {"beta": "0x1.ffffffffffffep-1", "corollary": "0x1.ffffffffffffep-1",
                              "mu_zero": "0x1.ffffffffffffep-1", "nu_zero": "0x1.ffffffffffffep-1"},
}


@pytest.mark.parametrize("name, sweep", list(_PINNED_BOUNDS))
def test_unit_weight_bounds_are_pinned(tmp_path, capsys, name, sweep):
    path = tmp_path / f"{name}.json"
    path.write_text(FUZZ_COEFF[name])
    extra = ["--circles", "1"] if sweep == "lattice" else []
    code, doc = run_json(capsys, ["--command", "estimate", "--coeff-file", str(path)]
                         + FAST["estimate"] + extra)
    assert code == 0
    got = {key: v.hex() for key, v in doc["bounds"].items() if key != "classical"}
    assert got == _PINNED_BOUNDS[name, sweep]


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
        ["--command", "estimate", "--alpha", "0.5", "--circles", "0"],
        ["--command", "estimate", "--alpha", "0.5", "--nodes", "1024",
         "--weight-pieces", "600", "--circles", "1"],
        ["--command", "sharp", "--M", "1e300", "--tau", "0"],
        ["--command", "verify", "--alpha", "0.5", "--tolerance", "nan"],
        # past the family's usable M range: merged arcs, |mu|+|nu| rounding to 1
        ["--command", "sharp", "--M", "1e12", "--tau", "1", "--nodes", "256"],
        ["--command", "sharp", "--M", "1e20", "--tau", "0"],
    ],
)
def test_library_limits_exit_two(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--command", "estimate", "--M", "2", "--tau", "0.5"],
    ["--command", "sharp", "--M", "3", "--tau", "1"],
    ["--command", "sweep", "--M", "1.5,2", "--tau", "0,1", "--format", "csv"],
], ids=["estimate", "sharp", "sweep"])
def test_weight_pieces_past_the_node_limit_where_no_circle_takes_them(argv, capsys):
    # every CLI source is piecewise, so weight arcs reach only the off-centre
    # circles of estimate --circles: without them, a spec of 32 pieces on 64
    # nodes prints the bytes of 2.  sharp and sweep sweep no such circle, so
    # their flag is refused; their specs are built past it here
    outputs = []
    for pieces in (2, 32):
        spec = dataclasses.replace(build_spec(argv + ["--nodes", "64"]), weight_pieces=pieces)
        assert COMMANDS[spec.command](spec) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != ""
    code = run(argv + ["--nodes", "64", "--weight-pieces", "2"])
    assert code == (0 if argv[1] == "estimate" else 2)
    assert (capsys.readouterr().out == "") == (code == 2)


@pytest.mark.parametrize("by", ["flag", "config"])
@pytest.mark.parametrize("key, flag_value, config_value",
                         [("circles", "3", 3), ("radii", "0.1,0.2", [0.1, 0.2])])
@pytest.mark.parametrize("argv", [
    ["--command", "sharp", "--M", "3", "--tau", "1"],
    ["--command", "sweep", "--M", "2", "--tau", "0"],
    ["--command", "verify", "--alpha", "0.5"],
], ids=["sharp", "sweep", "verify"])
def test_circle_fields_are_refused_where_no_sweep_reads_them(argv, key, flag_value,
                                                             config_value, by, tmp_path, capsys):
    # only estimate reads circles; the other commands would print the bytes
    # of a run without them.  radii, which set only the radius label of
    # origin circles, no command reads: an unknown flag or config field
    if by == "flag":
        extra = ["--" + key, flag_value]
    else:
        path = tmp_path / "job.json"
        path.write_text(json.dumps({key: config_value}))
        extra = ["--config", str(path)]
    assert run(argv + ["--nodes", "64"] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = f"{key} applies to estimate only, not to {argv[1]}"
    if key == "radii":
        message = (f"unrecognized arguments: {' '.join(extra)}" if by == "flag"
                   else f"unknown config fields: {[key]}")
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("by", ["flag", "config"])
def test_estimate_keeps_its_circle_fields(by, tmp_path, capsys):
    if by == "flag":
        extra = ["--circles", "1"]
    else:
        path = tmp_path / "circles.json"
        path.write_text(json.dumps({"circles": 1}))
        extra = ["--config", str(path)]
    code, doc = run_json(capsys, ["--command", "estimate", "--alpha", "0.5"]
                         + FAST["estimate"] + extra)
    assert code == 0
    assert doc["report"]["circle_count"] == len(SweepConfig.disk_lattice(radius_count=1).circles)


# the fields each command reads besides command, nodes, out and format
READS = {
    "estimate": ("M", "tau", "alpha", "coeff_file", "circles", "weight_pieces"),
    "sharp": ("M", "tau", "tolerance"),
    "verify": ("M", "tau", "alpha", "tolerance", "corrupt_mu"),
    "sweep": ("M", "tau"),
}
FIELDS = ("M", "tau", "alpha", "coeff_file", "circles", "weight_pieces", "tolerance", "corrupt_mu")
# a run of each command that its fields are added to
BASE = {"estimate": ["--alpha", "0.5"], "sharp": ["--M", "3", "--tau", "1"],
        "verify": ["--alpha", "0.5"], "sweep": ["--M", "2", "--tau", "0"]}
# (flag value, config value) of each field that some command does not read;
# radii, which set only the radius label of origin circles, no command reads
OUTSIDE_VALUES = {"alpha": ("0.5", 0.5), "coeff_file": ("pair.json", "pair.json"),
                  "circles": ("3", 3), "weight_pieces": ("4", 4),
                  "tolerance": ("1e-6", 1e-6), "corrupt_mu": (None, True),
                  "radii": ("0.5", [0.5])}


@pytest.mark.parametrize("by", ["flag", "config"])
@pytest.mark.parametrize("command, field", [(c, f) for c in READS for f in (*FIELDS, "radii")
                                            if f not in READS[c]])
def test_fields_outside_a_command_row_are_refused(command, field, by, tmp_path, capsys):
    # each of these was accepted and changed nothing, or was refused for
    # another reason; now one line names the commands that read it, or, for
    # a field no command reads, the unknown flag or config field
    flag_value, config_value = OUTSIDE_VALUES[field]
    if by == "flag":
        extra = ["--" + field.replace("_", "-")] + ([flag_value] if flag_value else [])
    else:
        path = tmp_path / "job.json"
        path.write_text(json.dumps({field: config_value}))
        extra = ["--config", str(path)]
    assert run(["--command", command] + BASE[command] + ["--nodes", "64"] + extra) == 2
    readers = ", ".join(c for c in READS if field in READS[c])
    message = f"{field} applies to {readers} only, not to {command}"
    if not readers:
        message = (f"unrecognized arguments: {' '.join(extra)}" if by == "flag"
                   else f"unknown config fields: {[field]}")
    assert capsys.readouterr() == ("", f"error: {message}\n")


# per (command, field): a base run and two values of the field (None:
# absent) whose outputs differ
INSIDE_CASES = {
    ("estimate", "M"): (["--tau", "0.5"], "2", "3"),
    ("estimate", "tau"): (["--M", "2"], "0", "1"),
    ("estimate", "alpha"): ([], "0.5", "0.6"),
    ("estimate", "coeff_file"): ([], "good", "mu_zero"),
    ("estimate", "circles"): (["--alpha", "0.5"], None, "1"),
    ("estimate", "weight_pieces"): (["--M", "2", "--tau", "0.5", "--circles", "1"], "2", "4"),
    ("sharp", "M"): (["--tau", "1"], "2", "3"),
    ("sharp", "tau"): (["--M", "2"], "0", "1"),
    ("sharp", "tolerance"): (["--M", "3", "--tau", "1"], "1e-8", "1e-20"),
    ("verify", "M"): (["--tau", "0.5"], "2", "3"),
    ("verify", "tau"): (["--M", "2"], "0", "1"),
    ("verify", "alpha"): ([], "0.5", "0.6"),
    ("verify", "tolerance"): (["--alpha", "0.5"], "1e-8", "1e-6"),
    ("verify", "corrupt_mu"): (["--alpha", "0.5"], None, True),
    ("sweep", "M"): (["--tau", "0"], "2", "3"),
    ("sweep", "tau"): (["--M", "2"], "0", "1"),
}


def test_inside_cases_cover_every_row():
    assert set(INSIDE_CASES) == {(c, f) for c in READS for f in READS[c]}


@pytest.mark.parametrize("command, field", list(INSIDE_CASES))
def test_fields_inside_a_command_row_change_the_output(command, field, tmp_path, capsys):
    base, *values = INSIDE_CASES[command, field]
    outputs = []
    for value in values:
        if field == "coeff_file":
            (tmp_path / value).write_text(FUZZ_COEFF[value])
            value = str(tmp_path / value)
        extra = [] if value is None else ["--" + field.replace("_", "-")]
        extra += [value] if type(value) is str else []
        code = run(["--command", command] + base + ["--nodes", "64"] + extra)
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] != outputs[1]
    assert outputs[0][0] == 0 and outputs[0][1]


@pytest.mark.parametrize("alpha, expected", [("1e-7", 0), ("1e-8", 3), ("1e-9", 3), ("1e-12", 3)])
def test_verify_tiny_alpha_keeps_exit_contract(alpha, expected, capsys):
    # the spec accepts these alphas; from 1e-8 on, the radial stretch's matrix
    # loses positivity in floating point on the mesh (at 1e-12 kappa rounds
    # to 1 first): an ellipticity failure, exit 3, not a spec error
    assert run(["--command", "verify", "--alpha", alpha]) == expected
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if expected:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""


def test_module_entry_point():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "beltbound.cli", "--command", "estimate",
         "--alpha", "0.5"] + FAST["estimate"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert abs(json.loads(proc.stdout)["bounds"]["beta"] - 0.5) < 1e-9


NO_SCIPY_SCRIPT = """
import contextlib, io, sys
import numpy as np
import beltbound, beltbound.cli
from beltbound.periodic_fields import SMOOTH, AngularGrid, PeriodicField
from beltbound.sharp_family import build_family
from beltbound.stretching import KProfile, find_periodic_alpha

fam = build_family(2.0, 0.5, node_count=1024)
assert abs(find_periodic_alpha(fam.k) - fam.alpha) < 1e-9
g = AngularGrid.uniform(16)
k = KProfile(PeriodicField(g, np.exp(0.3 * np.cos(g.nodes)), SMOOTH),
             PeriodicField(g, np.exp(0.2 * np.sin(2.0 * g.nodes)), SMOOTH))
assert 0.0 < find_periodic_alpha(k) < 2.0
with contextlib.redirect_stdout(io.StringIO()):
    assert beltbound.cli.run(["--command", "verify", "--M", "2", "--tau", "0.5"]) == 0
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""


def test_runtime_needs_no_scipy():
    # scipy is a test-only dependency: the exponent search and verify run on numpy
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
    code = run(["--command", "estimate", "--alpha", "0.5", "--format", "csv"] + FAST["estimate"])
    assert code == 0
    rows = {r[0]: r[1] for r in csv.reader(io.StringIO(capsys.readouterr().out)) if r}
    assert rows["key"] == "value"
    assert abs(float(rows["bounds.beta"]) - 0.5) < 1e-9


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = run(
        ["--command", "estimate", "--alpha", "0.5", "--out", str(target)] + FAST["estimate"]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert abs(doc["bounds"]["beta"] - 0.5) < 1e-9


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_out_that_cannot_be_written_exits_two(tmp_path, capsys, fmt, target):
    # open() raised FileNotFoundError or IsADirectoryError past run(): a
    # traceback instead of exit 2
    path = tmp_path / "missing" / "report.out" if target == "missing-dir" else tmp_path
    code = run(["--command", "estimate", "--alpha", "0.5", "--format", fmt, "--out", str(path)]
               + FAST["estimate"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1, err


# the leaves a payload can hold, with the floats json writes specially
FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2e-308, 1e300, -1e-300])
LEAVES = (FLOATS | st.integers() | st.integers(-2**200, 2**200) | st.booleans() | st.none()
          | st.text())
PAYLOADS = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children,
                                                                      max_size=4),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(payload=PAYLOADS)
def test_json_writer_matches_json_dumps(payload):
    assert _json_text(payload) == json.dumps(payload, indent=2)


class _Real(float):
    pass


@pytest.mark.parametrize("value", [1.5 - 2j, np.float64(0.5), np.int64(7), np.bool_(True),
                                   np.array([1.0, 2.0]), (1.0, 2.0), _Real(0.5), {1, 2}],
                         ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("nest", [lambda v: v, lambda v: {"a": [1.0, {"b": v}]}],
                         ids=["top", "nested"])
def test_json_writer_refuses_values_outside_json(value, nest):
    # payloads hold plain JSON values: a numpy, complex, tuple or subclass
    # value is a payload bug, named, not a number written some other way
    with pytest.raises(TypeError, match=f"^Object of type {type(value).__name__} is not JSON "
                                        "serializable$"):
        _json_text(nest(value))


def test_json_writer_matches_json_dumps_on_reports(monkeypatch, tmp_path):
    # the payloads the commands build, as they reach _emit: exact JSON types
    # throughout, written as the stdlib writes them
    payloads = []
    monkeypatch.setattr("beltbound.cli._emit", lambda payload, spec: payloads.append(payload))
    coeff = tmp_path / "good.json"
    coeff.write_text(FUZZ_COEFF["good"])
    for argv in (["--command", "estimate", "--M", "2", "--tau", "0.5", "--circles", "1"],
                 ["--command", "sharp", "--M", "3", "--tau", "1"],
                 ["--command", "verify", "--alpha", "0.5"],
                 ["--command", "sweep", "--M", "0.5,2", "--tau", "0,1"],
                 ["--command", "estimate", "--coeff-file", str(coeff), "--circles", "1"]):
        run(argv + FAST[argv[1]])
    assert len(payloads) == 5
    for payload in payloads:
        assert non_json_types(payload) == set()
        assert _json_text(payload) == json.dumps(payload, indent=2)


def test_csv_reads_complex_values_and_arrays(capsys):
    # complex values and arrays reach a payload as the commands put them
    # there, [re, im] and tolist(), and flatten to one row per number
    z, w = 1.5 - 2j, np.complex128(1j)
    payload = {"z": [z.real, z.imag], "a": np.array([[1.0, 2.0], [3.0, np.inf]]).tolist(),
               "n": np.int64(7).item(), "f": np.float32(0.1).item(), "b": np.bool_(True).item(),
               "e": [], "w": [w.real.item(), w.imag.item()], "s": "ok", "none": None}
    assert non_json_types(payload) == set()
    _emit(payload, JobSpec(command="estimate", format="csv"))
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows == [["key", "value"], ["z.0", "1.50000000000000000e+00"],
                    ["z.1", "-2.00000000000000000e+00"], ["a.0.0", "1.00000000000000000e+00"],
                    ["a.0.1", "2.00000000000000000e+00"], ["a.1.0", "3.00000000000000000e+00"],
                    ["a.1.1", "inf"], ["n", "7"], ["f", format(float(np.float32(0.1)), ".17e")],
                    ["b", "True"], ["w.0", "0.00000000000000000e+00"],
                    ["w.1", "1.00000000000000000e+00"], ["s", "ok"], ["none", "None"]]


def test_build_spec_parses_lists_and_validates():
    spec = build_spec(["--command", "sweep", "--M", "2, 4", "--tau", "0,0.5,1"])
    assert spec.M == (2.0, 4.0) and spec.tau == (0.0, 0.5, 1.0)
    with pytest.raises(SpecError):
        JobSpec(command="estimate", alpha=0.5, format="yaml")
    with pytest.raises(SpecError):
        JobSpec(command="estimate", M=(2.0,), tau=(0.0,), circles=0)
    with pytest.raises(SpecError):
        JobSpec(command="sharp", M=(2.0,), tau=(0.0, 1.0)).single_M_tau()
    # one table names every job field, and the parser takes its flags from it
    assert set(cli._FIELDS) == {f.name for f in dataclasses.fields(JobSpec)}


@pytest.mark.parametrize("extra", [["--nodes", "x"], ["--nodes"], ["--bogus", "1"], ["--c", "1"],
                                   ["--command", "bogus"], ["--format", "xml"]],
                         ids=["bad-value", "no-value", "unknown", "abbreviation",
                              "bad-command", "bad-format"])
def test_flag_refusals_print_one_line(extra, capsys):
    # each printed argparse's usage block and a "beltbound: error:" line
    assert run(["--command", "estimate", "--alpha", "0.5"] + extra) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


def test_help_exits_zero(capsys):
    assert run(["-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: beltbound")


# ---------------------------------------------------------------------------
# fuzz: random commands, sources, extreme flag values, malformed files

FUZZ_COEFF = {
    "good": '{"breakpoints": [0, 1.5, 3, 4.5], "mu0": [0, 0.3, 0, 0.3], "nu0": [0.1, 0, 0.1, 0]}',
    "mu_zero": '{"breakpoints": [0, 1, 2.5, 4], "mu0": [0, 0, 0, 0], "nu0": [0.5, -0.3, 0.1, -0.6]}',
    "nu_zero": '{"breakpoints": [0, 2], "mu0": [0.2, -0.4], "nu0": [0, 0]}',
    "constant": '{"breakpoints": [0], "mu0": [0], "nu0": [0]}',
    "near_one": '{"breakpoints": [0, 3], "mu0": [0, 0], "nu0": [0.999999999999, -0.999999999999]}',
    "unsorted": '{"breakpoints": [3, -1, 7, 100], "mu0": [0.1, 0.2, 0.3, 0], "nu0": [0, 0.1, 0.2, 0]}',
    "duplicate": '{"breakpoints": [1, 1, 1.0000000000001], "mu0": [0.1, 0.2, 0.3], "nu0": [0, 0.1, 0.2]}',
    "tiny": '{"breakpoints": [0, 1e-300], "mu0": [1e-300, 0], "nu0": [0, -1e-300]}',
    "many": json.dumps({"breakpoints": list(np.linspace(0, 6.2, 40)), "mu0": [0.1] * 40,
                        "nu0": [0.2] * 40}),
    "not_elliptic": '{"breakpoints": [0], "mu0": [0.8], "nu0": [0.3]}',
    "huge": '{"breakpoints": [0, 1e308], "mu0": [1e308, 0], "nu0": [0, 0]}',
    "nan": '{"breakpoints": [0, NaN], "mu0": [0.1, NaN], "nu0": [0, 0]}',
    "infinity": '{"breakpoints": [0, 1], "mu0": [Infinity, 0], "nu0": [0, 0]}',
    "mismatch": '{"breakpoints": [0, 1], "mu0": [0.1], "nu0": [0, 0.1]}',
    "empty_lists": '{"breakpoints": [], "mu0": [], "nu0": []}',
    "missing_key": '{"breakpoints": [0], "mu0": [0.1]}',
    "wrong_types": '{"breakpoints": ["a"], "mu0": null, "nu0": [[0]]}',
    "top_list": "[1, 2, 3]",
    "not_json": "breakpoints: 0",
    "empty_file": "",
    # breakpoints that are not finite, strictly increasing from 0 and below
    # 2 pi, or entries that are not JSON numbers, once read as another
    # pair, and breakpoints within 1e-10 of the one before or of 2 pi, once
    # refused for their piece count: refused by name
    "decreasing": '{"breakpoints": [0, 3, 1], "mu0": [0.1, 0.5, 0], "nu0": [0, 0, 0]}',
    "past_two_pi": '{"breakpoints": [0, 1, 9.283185307179586], "mu0": [0.1, 0.5, 0], '
                   '"nu0": [0, 0, 0]}',
    "boolean": '{"breakpoints": [0, true], "mu0": [0.1, 0.5], "nu0": [0, 0]}',
    "infinite_breakpoint": '{"breakpoints": [0, Infinity], "mu0": [0.1, 0.5], "nu0": [0, 0]}',
    "string_number": '{"breakpoints": [0, "1"], "mu0": [0.1, 0.5], "nu0": [0, 0]}',
    "near_two_pi": '{"breakpoints": [0, 1, 6.28318530717], "mu0": [0.1, 0.5, 0], '
                   '"nu0": [0, 0, 0]}',
    "near_duplicate": '{"breakpoints": [0, 1, 1.00000000001], "mu0": [0.1, 0.5, 0], '
                      '"nu0": [0, 0, 0]}',
}
FUZZ_CONFIG = {
    "good": '{"command": "estimate", "alpha": 0.5, "nodes": 32, "weight_pieces": 2}',
    "unknown": '{"command": "estimate", "alhpa": 0.5}',
    "top_list": "[1]",
    "bad_list": '{"command": "sweep", "M": [2, "a"]}',
    "dict_M": '{"command": "sweep", "M": {"a": 1}}',
    "string_numbers": '{"command": "estimate", "alpha": "0.5", "nodes": "64"}',
    "float_nodes": '{"command": "estimate", "alpha": 0.5, "nodes": 64.5}',
    "fd_paths": '{"command": "estimate", "coeff_file": 0, "out": 1}',
    "nulls": '{"command": "estimate", "alpha": 0.5, "nodes": null, "tolerance": null}',
}
# (values that parse, values that should be refused) per flag
FUZZ_FLAGS = {
    "--alpha": (["0.5", "1", "0.25", "1e-300"], ["0", "-1", "nan", "inf", "1.5", "x"]),
    "--M": (["1.5", "3", "1.000000000001", "1e10", "2,4"], ["1e300", "0.5", "nan", "-inf", "", "1,x"]),
    "--tau": (["0", "1", "0.5", "0,1"], ["-0.1", "1.1", "nan"]),
    # well-formed files (one of them not elliptic), then malformed ones
    "--coeff-file": (list(FUZZ_COEFF)[:10], list(FUZZ_COEFF)[10:] + ["no_such_file"]),
    "--config": (["good", "nulls"], list(FUZZ_CONFIG)[1:-1]),
    "--nodes": (["16", "17", "32", "64"], ["8", "-4", "x", "1e3"]),
    "--weight-pieces": (["1", "2", "4"], ["0", "1000000", "x"]),
    "--circles": (["1", "2"], ["0", "x"]),
    # no command reads radii: an unknown flag, whatever its value
    "--radii": (["0.5", "0.1,0.9", "1e-300", "1e300"], ["0", "-1", "nan", "inf", "0.5,,x"]),
    "--tolerance": (["1e-8", "1e300", "1e-300"], ["0", "nan", "inf"]),
    "--format": (["json", "csv"], ["xml"]),
}
# the sources each command takes; a draw mostly keeps to them
FUZZ_SOURCES = {"estimate": ("--alpha", "--M", "--coeff-file"), "sharp": ("--M",),
                "verify": ("--alpha", "--M"), "sweep": ("--M",), "bogus": ("--alpha",)}


def _fuzz_argv(rng, files):
    def pick(flag):
        good, bad = FUZZ_FLAGS[flag]
        values = bad if rng.random() < 0.15 else good
        v = values[rng.integers(len(values))]
        return files.get((flag, v), v)

    command = list(FUZZ_SOURCES)[rng.choice(5, p=[0.35, 0.15, 0.15, 0.3, 0.05])]
    sources = FUZZ_SOURCES[command] if rng.random() < 0.85 else FUZZ_SOURCES["estimate"]
    argv = ["--command", command]
    for source in rng.permutation(sources)[:rng.choice([0, 1, 1, 1, 1, 1, 2])]:
        argv += [str(source), pick(str(source))]
        if source == "--M" and rng.random() < 0.8:
            argv += ["--tau", pick("--tau")]
    # a field is drawn mostly for the commands that read it, so that most
    # draws get past the field table
    reads = READS.get(command, ())
    for flag in ("--nodes", "--weight-pieces", "--circles", "--radii", "--tolerance",
                 "--format", "--config"):
        field = flag[2:].replace("-", "_")
        if rng.random() < (0.2 if field in reads or field in ("nodes", "format", "config")
                           else 0.03):
            argv += [flag, pick(flag)]
    if "--nodes" not in argv:
        argv += ["--nodes", "64"]
    if "weight_pieces" in reads and "--weight-pieces" not in argv:
        argv += ["--weight-pieces", "4"]
    if rng.random() < (0.3 if "corrupt_mu" in reads else 0.03):
        argv.append("--corrupt-mu")
    return argv


def _refuse_constant(name):
    raise ValueError(f"non-finite number {name} in the output")


def test_cli_fuzz_keeps_exit_contract(tmp_path, capsys):
    files = {}
    for flag, table in (("--coeff-file", FUZZ_COEFF), ("--config", FUZZ_CONFIG)):
        for name, text in table.items():
            path = tmp_path / f"{flag[2:]}-{name}.json"
            path.write_text(text)
            files[(flag, name)] = str(path)
    files[("--coeff-file", "no_such_file")] = str(tmp_path / "missing" / "pair.json")
    rng = np.random.default_rng(20061)
    codes = []
    for _ in range(200):
        argv = _fuzz_argv(rng, files)
        try:
            code = run(argv)
        except Exception as exc:  # the exit-code contract forbids any escape
            pytest.fail(f"{argv} raised {exc!r}")
        out, err = capsys.readouterr()
        assert code in (0, 2, 3, 4), argv
        if "--radii" in argv:
            assert (code, out) == (2, ""), argv
        assert "Traceback" not in err, argv
        if code == 0 and "csv" not in argv:
            json.loads(out, parse_constant=_refuse_constant)
        codes.append(code)
    # the draw reaches every outcome, not only the refusals
    assert set(codes) == {0, 2, 3, 4}


_BREAKPOINT_RULE = ("error: breakpoints must be finite, strictly increasing by more than 1e-10, "
                    "start at 0 and lie more than 1e-10 below 2*pi: ")
_FILE_KEYS = "error: coefficient file needs numeric lists breakpoints/mu0/nu0: "
# exit code and stderr of estimate --coeff-file on each FUZZ_COEFF entry at
# FAST flags, the file's path written as <path>: which check refuses a file
# first is part of the contract (the infinite mu0 piece is named as a
# non-finite sample, exit 2, before any ellipticity check could call it
# non-finite coefficients, exit 3)
_COEFF_EXITS = {
    "good": (0, ""), "mu_zero": (0, ""), "nu_zero": (0, ""), "constant": (0, ""),
    "near_one": (3, "error: ellipticity violation: sup(|mu|+|nu|) = 0.999999999999 >= 1"),
    "unsorted": (2, _BREAKPOINT_RULE + "entry 0 is 3.0"),
    "duplicate": (2, _BREAKPOINT_RULE + "entry 0 is 1.0"),
    "tiny": (2, _BREAKPOINT_RULE + "entry 1 is 1e-300"),
    "many": (0, ""),
    "not_elliptic": (3, "error: ellipticity violation: sup(|mu|+|nu|) = 1.1 >= 1"),
    "huge": (2, _BREAKPOINT_RULE + "entry 1 is 1e+308"),
    "nan": (2, _BREAKPOINT_RULE + "entry 1 is nan"),
    "infinity": (2, "error: non-finite sample at node 0 (theta=0.000000)"),
    "mismatch": (2, "error: breakpoints, mu0, nu0 must have equal lengths"),
    "empty_lists": (2, _BREAKPOINT_RULE + "entry 0 is None"),
    "missing_key": (2, _FILE_KEYS + "'nu0'"),
    "wrong_types": (2, _FILE_KEYS + 'breakpoints[0] is "a", not a number'),
    "top_list": (2, _FILE_KEYS + "list indices must be integers or slices, not str"),
    "not_json": (2, "error: cannot read coefficient file <path>: "
                    "Expecting value: line 1 column 1 (char 0)"),
    "empty_file": (2, "error: cannot read coefficient file <path>: "
                      "Expecting value: line 1 column 1 (char 0)"),
    "decreasing": (2, _BREAKPOINT_RULE + "entry 2 is 1.0"),
    "past_two_pi": (2, _BREAKPOINT_RULE + "entry 2 is 9.283185307179586"),
    "boolean": (2, _FILE_KEYS + "breakpoints[1] is true, not a number"),
    "infinite_breakpoint": (2, _BREAKPOINT_RULE + "entry 1 is inf"),
    "string_number": (2, _FILE_KEYS + 'breakpoints[1] is "1", not a number'),
    "near_two_pi": (2, _BREAKPOINT_RULE + "entry 2 is 6.28318530717"),
    "near_duplicate": (2, _BREAKPOINT_RULE + "entry 2 is 1.00000000001"),
}


@pytest.mark.parametrize("name", list(FUZZ_COEFF))
def test_coeff_file_exit_contract_is_pinned(name, tmp_path, capsys):
    # the fuzz test checks only that exits stay in {0, 2, 3, 4}; this pins
    # each file's code and message
    path = tmp_path / f"{name}.json"
    path.write_text(FUZZ_COEFF[name])
    code = run(["--command", "estimate", "--coeff-file", str(path)] + FAST["estimate"])
    err = capsys.readouterr().err.replace(str(path), "<path>")
    expected_code, expected_err = _COEFF_EXITS[name]
    assert (code, err) == (expected_code, expected_err + "\n" if expected_err else "")
