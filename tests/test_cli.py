"""Command line surface: artifacts, formats, exit codes."""

import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import donorgate
from donorgate import integrals
from donorgate.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exchange_curve_csv_columns(capsys):
    code, out, _ = _run(capsys, "exchange", "curve",
                        "--binding-ev", "0.6", "--epsilon", "5.7",
                        "--qubit-scale", "1.0",
                        "--r-min", "4", "--r-max", "6", "--r-step", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["R_angstrom", "J_ground_meV", "J_excited_meV"]
    assert len(rows) == 4
    for row in rows[1:]:
        r, jg, je = map(float, row)
        assert jg > 0 and je > 0


def test_splitting_curve_from_preset(capsys):
    code, out, _ = _run(capsys, "splitting", "curve", "--preset", "fig3",
                        "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:3] == ["R_angstrom", "t_meV", "splitting_meV"]
    first = dict(zip(rows[0], map(float, rows[1])))
    assert first["splitting_mev" if "splitting_mev" in first else "splitting_meV"] \
        == pytest.approx(2 * first["t_meV"], rel=1e-9)


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("argv, pinned", [
    (("exchange", "curve", "--preset", "fig2a"), "exchange_curve_fig2a.csv"),
    (("exchange", "curve", "--preset", "fig2b"), "exchange_curve_fig2b.csv"),
    (("splitting", "curve", "--preset", "fig3"), "splitting_curve_fig3.csv"),
])
def test_figure_curves_equal_their_pinned_csv(capsys, argv, pinned):
    # a change to the integral kernel or the Boys function that moves a
    # printed digit of these curves must regenerate the file and state why
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert out.encode() == (DATA / pinned).read_bytes()


def test_table1_report_equals_its_pinned_json():
    # a fresh interpreter, so the report cannot depend on what this process
    # priced before it; a change that moves a byte of it must regenerate the
    # file and state why
    src = str(Path(donorgate.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "donorgate.cli", "feasibility", "run", "--preset",
         "table1"],
        capture_output=True, timeout=300, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DATA / "table1_report.json").read_bytes()


def test_table1_report_does_not_depend_on_what_the_process_priced_before(
        capsys, monkeypatch):
    # the figure commands price their grids first, from an empty pair cache,
    # and table1 then reads some of its points from their batches; the
    # report must still equal the pinned file, which a fresh interpreter
    # gives (the test above)
    monkeypatch.setattr(integrals, "_reduced_pair",
                        integrals._PairCache(integrals._CACHE_POINTS))
    for argv in (("splitting", "curve", "--preset", "fig3"),
                 ("exchange", "curve", "--preset", "fig2a"),
                 ("exchange", "curve", "--preset", "fig2b")):
        assert _run(capsys, *argv)[0] == 0
    code, out, _ = _run(capsys, "feasibility", "run", "--preset", "table1")
    assert code == 0
    assert out.encode() == (DATA / "table1_report.json").read_bytes()


def test_lattice_count_json(capsys):
    code, out, _ = _run(capsys, "lattice", "count", "--radius", "7.5",
                        "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["enumerated_count"] == 293
    assert report["continuum_estimate"] == pytest.approx(311.5, abs=0.1)


def test_seed_only_where_a_seed_is_used(capsys):
    # lattice enumeration draws no random numbers, so --seed is not an option
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "count", "--radius", "5", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_lattice_shells_csv(capsys):
    code, out, _ = _run(capsys, "lattice", "shells", "--shells", "4")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["shell", "distance_angstrom", "sites"]
    assert len(rows) == 5
    assert int(rows[1][2]) == 4
    assert float(rows[1][1]) == pytest.approx(3.567 * 3 ** 0.5 / 4, rel=1e-6)


def test_emt_json(capsys):
    code, out, _ = _run(capsys, "emt", "--binding-ev", "0.6",
                        "--epsilon", "5.7", "--format", "json")
    assert code == 0
    model = json.loads(out)
    assert model["effective_bohr_radius_a"] == pytest.approx(2.1036, abs=1e-4)
    assert model["species"] == "P"


@pytest.mark.parametrize("argv, message", [
    (("dope", "stats", "--concentration", "0.01", "--radius", "20", "--seed", "1",
      "--shells", "0"), "n_shells must be >= 1"),
    (("lattice", "shells", "--shells", "0"), "n_shells must be >= 1"),
    (("emt", "--binding-ev", "0.6", "--field-t", "nan"), "field_t must be a finite number"),
    (("splitting", "curve", "--base-mev", "nan", "--r-min", "10", "--r-max", "11"),
     "base_transition_mev must be a finite number"),
])
def test_bad_values_exit_2_naming_them(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"donorgate: error: {message}")


def test_dope_stats_seed_override(capsys):
    args = ("dope", "stats", "--radius", "20", "--concentration", "0.02",
            "--format", "json")
    _, out_a, _ = _run(capsys, *args, "--seed", "4")
    _, out_b, _ = _run(capsys, *args, "--seed", "4")
    _, out_c, _ = _run(capsys, *args, "--seed", "5")
    assert out_a == out_b
    a, c = json.loads(out_a), json.loads(out_c)
    assert a["analytic"] == c["analytic"]
    assert a["empirical"] != c["empirical"]


def test_gate_run_json(capsys):
    code, out, _ = _run(capsys, "gate", "run", "--j1", "20", "--j2", "20",
                        "--format", "json")
    assert code == 0
    gate = json.loads(out)
    assert gate["clean"] is True
    assert gate["entangling_power"] == pytest.approx(0.125, abs=1e-5)
    assert len(gate["qubit_unitary"]) == 4


def test_configure_scan_artifact(capsys):
    code, out, _ = _run(capsys, "configure", "scan", "--preset", "table1",
                        "--format", "csv")
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header[0] == "optical_mev"
    assert all(col.startswith("epr_") for col in header[1:])
    assert len(out.splitlines()) > 10


def test_configure_infer_round_trip(capsys):
    code, out, _ = _run(capsys, "configure", "infer", "--preset", "table1",
                        "--format", "json")
    assert code == 0
    inferred = json.loads(out)
    joined = {}
    for entry in inferred["entries"]:
        assert not entry["ambiguous"]
        joined.update(entry["couplings"])
    assert joined["Q1"] == pytest.approx(116.44, rel=1e-3)
    assert joined["Q3"] == pytest.approx(147.52, rel=1e-3)


def test_feasibility_run_report(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = _run(capsys, "feasibility", "run", "--preset", "table1",
                        "--out", str(out_file))
    assert code == 0
    assert out == ""
    report = json.loads(out_file.read_text())
    assert report["configuration"]["recovered"] is True
    assert report["targets"]["gates_met"] is True


def test_scenario_file_input(capsys, tmp_path):
    from donorgate import get_preset, save_scenario
    _, sc = get_preset("table1")
    path = tmp_path / "cluster.json"
    save_scenario(sc, path)
    code, out, _ = _run(capsys, "configure", "infer",
                        "--scenario", str(path), "--format", "json")
    assert code == 0
    assert len(json.loads(out)["entries"]) == 2


def test_saved_preset_reproduces_the_preset_report(capsys, tmp_path):
    from donorgate import get_preset, save_scenario
    path = tmp_path / "saved_table1.json"
    save_scenario(get_preset("table1")[1], path)
    code_file, from_file, _ = _run(capsys, "feasibility", "run", "--scenario", str(path))
    code_preset, from_preset, _ = _run(capsys, "feasibility", "run", "--preset", "table1")
    assert code_file == code_preset == 0
    assert from_file == from_preset


def test_feasibility_patches_from_a_saved_random_scenario(capsys, tmp_path):
    import dataclasses
    from donorgate import (LatticeSpec, RandomPlacementSpec, get_preset,
                           patch_statistics, save_scenario)
    _, sc = get_preset("table1")
    sc = dataclasses.replace(
        sc, placements=None, lattice=LatticeSpec(15.0),
        random_placement=RandomPlacementSpec(2e-3, {"P": 0.4, "N": 0.6}, seed=0))
    path = tmp_path / "random.json"
    save_scenario(sc, path)
    code, out, _ = _run(capsys, "feasibility", "patches", "--scenario", str(path),
                        "--patches", "3", "--seed", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == patch_statistics(sc, 3, seed=1).to_dict()


# one edit each to a saved table1: (key path, new value, the JSON path the
# error names after the file name, a word the message must contain)
@pytest.mark.parametrize("keys, value, where, said", [
    (("lattice",), 5, ".lattice", "object"),
    (("species",), 3, ".species", "list"),
    (("thresholds", "detection_mev"), "abc", "", "detection"),
    (("epr", "zeeman_spread_fwhm_mev"), "x", ".epr", "zeeman_spread_fwhm_mev"),
    (("spectral", "homogeneous_fwhm_mev"), float("nan"), ".spectral", "homogeneous"),
    (("thresholds", "pair_cutoff_a"), float("nan"), "", "pair_cutoff_a"),
    (("targets", "n_gates"), -1, "", "n_gate_target"),
    (("lattice", "bounding_radius_a"), float("nan"), ".lattice", "bounding_radius"),
    (("species", 1, "t1_s"), -1.0, ".species[1]", "t1_s"),
    (("spectral", "base_transition_mev"), -600.0, ".spectral", "base_transition_mev"),
    (("name",), 5, "", "name"),
], ids=["lattice-not-object", "species-not-list", "detection-string",
        "zeeman-spread-string", "homogeneous-nan", "pair-cutoff-nan",
        "negative-gate-target", "bounding-radius-nan", "qubit-t1-negative",
        "base-transition-negative", "name-not-text"])
def test_malformed_scenario_file_exits_2_naming_its_path(capsys, tmp_path, keys,
                                                         value, where, said):
    from donorgate import get_preset
    data = json.loads(get_preset("table1")[1].to_json())
    *parents, leaf = keys
    section = data
    for key in parents:
        section = section[key]
    section[leaf] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    code, out, err = _run(capsys, "feasibility", "run", "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"donorgate: error: {path}{where}: ")
    assert said in err


def test_presets_list(capsys):
    code, out, _ = _run(capsys, "presets", "list", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "kind", "summary"]
    assert {r[0] for r in rows[1:]} == {"table1", "fig2a", "fig2b", "fig3",
                                        "shen-nv"}


@pytest.mark.parametrize("tau_max", ["0", "nan", "1e12"])
def test_gate_run_rejects_bad_tau_max(capsys, tau_max):
    code, out, err = _run(capsys, "gate", "run", "--j1", "20", "--j2", "20",
                          "--tau-max", tau_max)
    assert code == 2
    assert out == ""
    assert err.startswith("donorgate: error: tau range")


@pytest.mark.parametrize("threshold", ["nan", "-1"])
def test_gate_run_rejects_bad_threshold(capsys, threshold):
    code, out, err = _run(capsys, "gate", "run", "--j1", "20", "--j2", "20",
                          "--threshold", threshold)
    assert code == 2
    assert out == ""
    assert err.startswith("donorgate: error: residual_threshold")


@pytest.mark.parametrize("option, value", [
    ("--r-min", "nan"), ("--r-max", "inf"), ("--r-step", "nan")])
def test_exchange_curve_rejects_non_finite_grid(capsys, option, value):
    code, out, err = _run(capsys, "exchange", "curve", "--binding-ev", "0.6",
                          "--epsilon", "5.7", option, value)
    assert code == 2
    assert out == ""
    assert err.startswith("donorgate: error: r-min, r-max and r-step must be finite")


def test_errors_exit_nonzero_with_message(capsys):
    code, out, err = _run(capsys, "exchange", "curve",
                          "--binding-ev", "-3", "--epsilon", "5.7")
    assert code == 2
    assert err.startswith("donorgate: error:")

    code, _, err = _run(capsys, "configure", "infer", "--preset", "nosuch")
    assert code == 2
    assert "unknown preset" in err


def test_stage_failures_surface_the_stage(capsys, tmp_path):
    import dataclasses
    from donorgate import get_preset, save_scenario
    _, sc = get_preset("table1")
    clash = dataclasses.replace(sc.placements[1],
                                position_a=sc.placements[0].position_a)
    bad = dataclasses.replace(sc, placements=(sc.placements[0], clash)
                              + sc.placements[2:])
    path = tmp_path / "clash.json"
    save_scenario(bad, path)
    code, _, err = _run(capsys, "feasibility", "run", "--scenario", str(path))
    assert code == 2
    assert "stage 'integrals' failed" in err


# the README quick start, the README exchange curve, scan inference and a gate
_RUN_TIME_COMMANDS = [
    ["feasibility", "run", "--preset", "table1"],
    ["exchange", "curve", "--binding-ev", "0.6", "--epsilon", "5.7",
     "--qubit-scale", "1.0", "--r-min", "4", "--r-max", "16", "--r-step", "0.5"],
    ["configure", "infer", "--preset", "table1"],
    ["gate", "run", "--j1", "20", "--j2", "20", "--format", "json"],
]

# a fresh interpreter in which scipy.optimize and scipy.signal cannot be
# imported, as if they were not installed; it runs the commands and prints
# their exit codes and outputs
_WITHOUT_OPTIMIZE_AND_SIGNAL = """
import contextlib, io, json, sys

BLOCKED = ("scipy.optimize", "scipy.signal")


class Refuse:
    def find_spec(self, name, path=None, target=None):
        if any(name == b or name.startswith(b + ".") for b in BLOCKED):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, Refuse())
from donorgate.cli import main

outputs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    outputs.append([code, out.getvalue()])
print(json.dumps(outputs))
"""


def test_commands_need_neither_scipy_optimize_nor_scipy_signal(capsys):
    src = str(Path(donorgate.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_OPTIMIZE_AND_SIGNAL,
         json.dumps(_RUN_TIME_COMMANDS)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    for argv, (code, out) in zip(_RUN_TIME_COMMANDS, json.loads(proc.stdout)):
        assert code == 0 and out, argv
        assert [code, out] == list(_run(capsys, *argv)[:2]), argv


def test_console_script_runs():
    script = shutil.which("donorgate")
    if script is None:
        pytest.skip("console script not installed")
    proc = subprocess.run([script, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().count(".") == 2
