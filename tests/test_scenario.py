"""Scenario schema, validation paths, and the bundled presets."""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from donorgate import (
    EprModel,
    InvalidModelError,
    InvalidSpecError,
    LatticeSpec,
    Placement,
    RandomPlacementSpec,
    Scenario,
    ScenarioValidationError,
    SpectralModel,
    get_preset,
    list_presets,
    load_scenario,
    model_from_ionization,
    save_scenario,
    scenario_from_dict,
)

CONTROL = model_from_ionization("P", 0.6, 5.7, role="control")
QUBIT = model_from_ionization("N", 0.6, 5.7, role="qubit", radius_scale_factor=0.5)


def _minimal(**overrides):
    kwargs = dict(
        name="unit",
        lattice=LatticeSpec(30.0),
        species=(CONTROL, QUBIT),
        spectral=SpectralModel(600.0, 1.1, (), 1.5),
        epr=EprModel(0.05, zeeman_spread_fwhm_mev=4.0),
        placements=(Placement("C1", "P", (0.0, 0.0, 0.0)),
                    Placement("Q1", "N", (10.0, 0.0, 0.0))),
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


def test_exactly_one_placement_source():
    with pytest.raises(InvalidSpecError):
        _minimal(placements=None)
    with pytest.raises(InvalidSpecError):
        _minimal(random_placement=RandomPlacementSpec(0.01, {"P": 1.0}, seed=1))


def test_placements_validated():
    with pytest.raises(InvalidSpecError):
        _minimal(placements=(Placement("C1", "P", (0, 0, 0)),
                             Placement("C1", "P", (5, 0, 0))))
    with pytest.raises(InvalidSpecError):
        _minimal(placements=(Placement("C1", "As", (0, 0, 0)),))
    with pytest.raises(InvalidSpecError):
        _minimal(detection_threshold_mev=-1.0)


def test_two_dimensional_positions_are_padded():
    sc = _minimal(placements=(Placement("C1", "P", (1.0, 2.0)),
                              Placement("Q1", "N", (0.0, 8.0, 0.0))))
    (label, pos), = sc.controls()
    assert label == "C1"
    assert pos.tolist() == [1.0, 2.0, 0.0]


def test_roles_split_by_species_role():
    sc = _minimal()
    assert [l for l, _ in sc.controls()] == ["C1"]
    assert [l for l, _ in sc.qubits()] == ["Q1"]


def test_model_for_follows_the_placements():
    sc = _minimal()
    assert sc.model_for("C1") is CONTROL and sc.model_for("Q1") is QUBIT
    with pytest.raises(InvalidSpecError, match="Q2"):
        sc.model_for("Q2")
    # a replaced scenario maps its labels afresh
    moved = dataclasses.replace(sc, placements=(Placement("Q2", "N", (0, 0, 0)),))
    assert moved.model_for("Q2") is QUBIT
    with pytest.raises(InvalidSpecError):
        moved.model_for("C1")
    unrealized = dataclasses.replace(
        sc, placements=None,
        random_placement=RandomPlacementSpec(0.01, {"P": 1.0}, seed=1))
    with pytest.raises(InvalidSpecError, match="realize"):
        unrealized.model_for("C1")


def test_epr_offsets_explicit_must_cover_all_qubits():
    sc = _minimal(epr=EprModel(0.05, zeeman_offsets_mev=(("Q1", -4.0),)))
    assert dict(sc.qubit_epr_offsets()) == {"Q1": -4.0}
    incomplete = _minimal(
        placements=(Placement("C1", "P", (0, 0, 0)),
                    Placement("Q1", "N", (10, 0, 0)),
                    Placement("Q2", "N", (14, 0, 0))),
        epr=EprModel(0.05, zeeman_offsets_mev=(("Q1", -4.0),)))
    with pytest.raises(InvalidSpecError):
        incomplete.qubit_epr_offsets()


def test_epr_offsets_sampled_deterministically_from_seed():
    sc1 = _minimal(seed=5)
    sc2 = _minimal(seed=5)
    sc3 = _minimal(seed=6)
    assert sc1.qubit_epr_offsets() == sc2.qubit_epr_offsets()
    assert sc1.qubit_epr_offsets() != sc3.qubit_epr_offsets()


def _random_patch():
    """table1's species placed at random: R = 40 A, c = 0.3 %, P:N = 0.4:0.6."""
    _, table1 = get_preset("table1")
    return dataclasses.replace(
        table1, name="patch", placements=None, lattice=LatticeSpec(40.0),
        random_placement=RandomPlacementSpec(0.003, {"P": 0.4, "N": 0.6}, seed=0))


@pytest.mark.parametrize("build", [
    _minimal,
    lambda: get_preset("table1")[1],
    _random_patch,
    lambda: _minimal(epr=EprModel(0.05, zeeman_offsets_mev=(("Q1", 1.0), ("Q0", -2.0)))),
    lambda: _minimal(metadata=(("note", "round trip"), ("author", "unit"))),
    lambda: _minimal(spectral=SpectralModel(
        600.0, 1.1, (("strain", 3.0), ("charge", 2.0)), 1.5)),
], ids=["minimal", "table1", "random-patch", "unsorted-zeeman-offsets",
        "unsorted-metadata", "disorder-order"])
def test_json_round_trip_is_lossless(build):
    sc = build()
    back = scenario_from_dict(json.loads(sc.to_json()))
    assert back == sc
    assert back.to_json() == sc.to_json()


def test_disorder_components_keep_their_order():
    # the order fixes the order of the random draws, so it is not sorted
    sc = _minimal(spectral=SpectralModel(600.0, 1.1, (("strain", 3.0), ("charge", 2.0)), 1.5))
    back = scenario_from_dict(json.loads(sc.to_json()))
    assert [n for n, _ in back.spectral.disorder_components] == ["strain", "charge"]


def test_integer_values_load_as_floats():
    sc = _minimal(lattice=LatticeSpec(40.0))
    data = json.loads(sc.to_json())
    data["lattice"]["bounding_radius_a"] = 40
    back = scenario_from_dict(data)
    assert back == sc
    assert '"bounding_radius_a": 40.0,' in back.to_json()


def test_file_round_trip(tmp_path):
    sc = _minimal()
    path = tmp_path / "unit.json"
    save_scenario(sc, path)
    assert load_scenario(path) == sc


def test_duplicate_labels_rejected():
    # a JSON object cannot hold them, so they could not be saved
    with pytest.raises(InvalidSpecError, match="duplicate"):
        EprModel(0.05, zeeman_offsets_mev=(("Q1", 1.0), ("Q1", 2.0)))
    with pytest.raises(InvalidSpecError, match="duplicate"):
        RandomPlacementSpec(0.01, (("P", 0.5), ("P", 0.5)), seed=1)
    with pytest.raises(InvalidSpecError, match="duplicate"):
        _minimal(metadata=(("note", "a"), ("note", "b")))


def test_text_fields_must_be_strings():
    # a number would load, run and re-save as its str(), so it is refused
    with pytest.raises(InvalidSpecError, match="name"):
        _minimal(name=5)
    with pytest.raises(InvalidSpecError, match="placement label"):
        Placement(1, "P", (0.0, 0.0, 0.0))
    with pytest.raises(InvalidSpecError, match="species"):
        Placement("C1", 15, (0.0, 0.0, 0.0))
    with pytest.raises(InvalidModelError, match="species_name"):
        dataclasses.replace(CONTROL, species_name=15)
    with pytest.raises(InvalidSpecError, match="metadata value"):
        _minimal(metadata={"note": 3})
    with pytest.raises(InvalidSpecError, match="disorder component name"):
        SpectralModel(600.0, 1.1, ((7, 3.0),), 1.5)
    with pytest.raises(InvalidSpecError, match="key"):
        EprModel(0.05, zeeman_offsets_mev={1: 0.0})
    with pytest.raises(InvalidSpecError, match="key"):
        RandomPlacementSpec(0.01, {15: 1.0}, seed=1)


def test_schema_version_checked():
    data = json.loads(_minimal().to_json())
    assert data["schema_version"] == 1
    data["schema_version"] = 99
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(data)
    assert "schema_version" in str(err.value)


def test_unknown_keys_rejected_with_path():
    sc = _minimal()
    data = json.loads(sc.to_json())
    data["spectral"]["typo_key"] = 1.0
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(data)
    assert "spectral" in str(err.value)
    assert "typo_key" in str(err.value)


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",')
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(path)
    assert "line" in str(err.value)


def test_random_placement_spec_validation():
    with pytest.raises(InvalidSpecError):
        RandomPlacementSpec(1.5, {"P": 1.0}, seed=1)
    with pytest.raises(InvalidSpecError):
        RandomPlacementSpec(0.01, {"P": 0.4, "N": 0.4}, seed=1)


def test_require_placements_guards_random_scenarios():
    sc = _minimal(placements=None,
                  random_placement=RandomPlacementSpec(0.01, {"P": 1.0}, seed=1),
                  species=(CONTROL, QUBIT))
    with pytest.raises(InvalidSpecError):
        sc.require_placements()


# --- presets ---------------------------------------------------------------

def test_preset_listing_complete():
    names = {name for name, _, _ in list_presets()}
    assert names == {"table1", "fig2a", "fig2b", "fig3", "shen-nv"}


def test_unknown_preset_rejected():
    with pytest.raises(InvalidSpecError):
        get_preset("fig9")


def test_cluster_preset_geometry():
    # frozen pair separations of the five-dopant layout (angstrom)
    _, sc = get_preset("table1")
    want = {
        ("C1", "C2"): 24.0,
        ("C1", "Q1"): 10.0623,
        ("C1", "Q2"): 14.0584,
        ("C1", "Q3"): 25.6320,
        ("C2", "Q1"): 33.3054,
        ("C2", "Q2"): 15.9762,
        ("C2", "Q3"): 9.0,
    }
    pos = {p.label: np.asarray(p.position_a) for p in sc.placements}
    for (a, b), d in want.items():
        assert np.linalg.norm(pos[a] - pos[b]) == pytest.approx(d, abs=1e-3)
    assert sc.n_qubit_target == 3 and sc.n_gate_target == 2


def test_cluster_preset_is_self_consistent():
    _, sc = get_preset("table1")
    assert {l for l, _ in sc.controls()} == {"C1", "C2"}
    assert {l for l, _ in sc.qubits()} == {"Q1", "Q2", "Q3"}
    offsets = dict(sc.qubit_epr_offsets())
    assert set(offsets) == {"Q1", "Q2", "Q3"}


def test_curve_presets_have_expected_ranges():
    _, fig2a = get_preset("fig2a")
    assert fig2a.kind == "exchange_curve"
    assert fig2a.r_grid[0] == pytest.approx(4.0)
    assert fig2a.r_grid[-1] == pytest.approx(16.0)
    _, fig2b = get_preset("fig2b")
    assert fig2b.r_grid[-1] == pytest.approx(24.0)
    # the 0.4 eV model is the 0.6 eV one dilated by 1.5
    assert (fig2b.control.effective_bohr_radius_a
            / fig2a.control.effective_bohr_radius_a) == pytest.approx(1.5, rel=1e-12)
    _, fig3 = get_preset("fig3")
    assert fig3.kind == "splitting_curve"
    assert fig3.r_grid[0] == pytest.approx(10.0)
    assert fig3.r_grid[-1] == pytest.approx(25.0)


def test_spectral_preset_linewidths():
    _, spectral = get_preset("shen-nv")
    # 0.36 nm at 637 nm is 1.10 meV homogeneous; 5 nm is 15.28 meV spread
    assert spectral.homogeneous_fwhm_mev == pytest.approx(1.100, abs=0.001)
    (name, fwhm), = spectral.disorder_components
    assert fwhm == pytest.approx(15.278, abs=0.01)
    assert fwhm / spectral.homogeneous_fwhm_mev == pytest.approx(13.9, abs=0.1)
