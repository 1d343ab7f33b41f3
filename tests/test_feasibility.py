"""End-to-end pipeline: the five-dopant cluster and random patches."""

import dataclasses

import numpy as np
import pytest

from donorgate import (
    DopedRegion,
    EprModel,
    IllConditionedGeometryError,
    InvalidSpecError,
    LatticeSpec,
    Placement,
    RandomPlacementSpec,
    StageError,
    exchange_curve,
    get_preset,
    model_from_ionization,
    patch_statistics,
    place_dopants,
    realize_placements,
    run_feasibility,
    transfer_splitting_curve,
)
from donorgate import feasibility, integrals, lattice, spins
from donorgate.feasibility import _patch_tally, resolve_cluster

import pins

# excited-state couplings of the bundled cluster, frozen from a direct run
EXCITED_J = {
    ("C1", "Q1"): 116.437,
    ("C1", "Q2"): 38.613,
    ("C1", "Q3"): 0.61881,
    ("C2", "Q1"): 0.028492,
    ("C2", "Q2"): 20.917,
    ("C2", "Q3"): 147.517,
}

# gate searches of the bundled cluster, frozen from a run of the per-interval
# scan: (duration_ps, residual_bits, entangling_power) per control
TABLE1_GATES = {
    "C1": (0.16050319005268462, 0.007479520899628051, 0.0010224266330343124),
    "C2": (0.2695902179956986, 0.011122190557227008, 0.0008960831991231544),
}
# calibrations from inferred couplings: (duration_ps, fidelity_to_target)
TABLE1_CALIBRATIONS = {
    "C1": (0.16050288910268865, 0.9999999998033604),
    "C2": (0.26958983018652277, 0.999999999518181),
}


@pytest.fixture(scope="module")
def table1_report():
    _, sc = get_preset("table1")
    return run_feasibility(sc)


def test_cluster_meets_its_targets(table1_report):
    rep = table1_report
    assert rep.n_controls == 2 and rep.n_qubits == 3
    assert rep.resolvable_gates == 2
    assert rep.targets["qubits_met"] and rep.targets["gates_met"]


def test_cluster_exchange_couplings(table1_report):
    got = {(row["control"], row["qubit"]): row["j_excited_mev"]
           for row in table1_report.exchange}
    assert set(got) == set(EXCITED_J)
    for pair, j in EXCITED_J.items():
        assert got[pair] == pytest.approx(j, rel=1e-3)
    # ground-state couplings are orders of magnitude weaker throughout
    for row in table1_report.exchange:
        assert row["j_ground_mev"] < 0.1 * row["j_excited_mev"]


def test_cluster_optical_lines(table1_report):
    (l1, l2) = table1_report.lines
    assert l1["energy_mev"] == pytest.approx(574.264, abs=1e-3)
    assert l2["energy_mev"] == pytest.approx(625.736, abs=1e-3)
    (t,) = table1_report.transfer
    assert t["pair"] == ["C1", "C2"]
    assert t["transfer_mev"] == pytest.approx(25.7356, rel=1e-4)
    assert l2["energy_mev"] - l1["energy_mev"] == pytest.approx(
        t["splitting_mev"], rel=1e-12)


def test_cluster_gate_records(table1_report):
    gates = {g["control"]: g for g in table1_report.gates}
    assert set(gates) == {"C1", "C2"}
    assert sorted(gates["C1"]["qubits"]) == ["Q1", "Q2"]
    assert sorted(gates["C2"]["qubits"]) == ["Q2", "Q3"]
    for g in gates.values():
        # generic coupling ratios: best dip, not an exactly clean gate
        assert not g["clean"]
        assert 0 < g["duration_ps"] < 1.0
        assert g["entangling_power"] > 0
        assert all(m > 1e6 for m in g["t1_margin"].values())


def test_cluster_gates_match_frozen_search(table1_report):
    d = table1_report.to_dict()
    got = {g["control"]: (g["duration_ps"], g["residual_bits"],
                          g["entangling_power"]) for g in d["gates"]}
    assert set(got) == set(TABLE1_GATES)
    for control, want in TABLE1_GATES.items():
        assert got[control] == pytest.approx(want, rel=1e-9)
    cals = {c["control"]: (c["duration_ps"], c["fidelity_to_target"])
            for c in d["configuration"]["calibrations"]}
    assert set(cals) == set(TABLE1_CALIBRATIONS)
    for control, want in TABLE1_CALIBRATIONS.items():
        assert cals[control] == pytest.approx(want, rel=1e-9)


def test_cluster_configuration_round_trip(table1_report):
    conf = table1_report.configuration
    assert conf["attempted"] and conf["recovered"]
    assert conf["missed_controls"] == []
    for entry in conf["entries"]:
        assert entry["match"] and not entry["ambiguous"]
        for qubit, j in entry["inferred"].items():
            assert j == pytest.approx(EXCITED_J[(entry["control"], qubit)],
                                      rel=5e-3)
    for cal in conf["calibrations"]:
        assert cal["fidelity_to_target"] > 1 - 1e-6


def test_each_control_is_calibrated_from_a_resonance_attributed_to_it(monkeypatch):
    # the lines sit at 574.264 (C1) and 625.736 meV (C2). The 601 meV entry
    # is the one nearest C1's line, but it lies nearer C2's, so it is C2's;
    # C1 must be timed from its own 540 meV entry
    real = feasibility.infer_adjacency

    def shifted(scan, threshold):
        hyp = real(scan, threshold)
        c1, c2 = sorted(hyp.entries, key=lambda e: e.optical_energy_mev)
        entries = (dataclasses.replace(c1, optical_energy_mev=540.0),
                   dataclasses.replace(c2, optical_energy_mev=601.0),
                   dataclasses.replace(c2, optical_energy_mev=626.0))
        return dataclasses.replace(hyp, entries=entries)

    monkeypatch.setattr(feasibility, "infer_adjacency", shifted)
    _, sc = get_preset("table1")
    conf = run_feasibility(sc).configuration
    assert [e["control"] for e in conf["entries"]] == ["C1", "C2", "C2"]
    cals = {c["control"]: c for c in conf["calibrations"]}
    assert sorted(cals["C1"]["qubits"]) == ["Q1", "Q2"]
    assert sorted(cals["C2"]["qubits"]) == ["Q2", "Q3"]
    for control, want in TABLE1_CALIBRATIONS.items():
        got = (cals[control]["duration_ps"], cals[control]["fidelity_to_target"])
        assert got == pytest.approx(want, rel=1e-9), control


def test_a_control_attributed_an_uncoupled_qubit_is_not_calibrated(monkeypatch):
    # at a 30 A pair cutoff C2 (12, 0, 0) has no coupling to Q1 (-21, 4.5, 0),
    # 33.3 A away. An inference that gives C2's resonance Q1 as its strongest
    # coupling cannot be scored against the truth: that control goes
    # uncalibrated, as one with fewer than two inferred qubits does, and the
    # report is still made
    real = feasibility.infer_adjacency

    def misattributed(scan, threshold):
        hyp = real(scan, threshold)
        c1, c2 = sorted(hyp.entries, key=lambda e: e.optical_energy_mev)
        c2 = dataclasses.replace(c2, couplings=(("Q1", 500.0),) + c2.couplings)
        return dataclasses.replace(hyp, entries=(c1, c2))

    monkeypatch.setattr(feasibility, "infer_adjacency", misattributed)
    _, sc = get_preset("table1")
    sc = dataclasses.replace(sc, pair_cutoff_a=30.0)
    report = run_feasibility(sc)
    assert ("C2", "Q1") not in {(r["control"], r["qubit"]) for r in report.exchange}
    conf = report.configuration
    assert [e["control"] for e in conf["entries"]] == ["C1", "C2"]
    assert not conf["entries"][1]["match"] and not conf["recovered"]
    (cal,) = conf["calibrations"]
    assert cal["control"] == "C1" and sorted(cal["qubits"]) == ["Q1", "Q2"]
    got = (cal["duration_ps"], cal["fidelity_to_target"])
    assert got == pytest.approx(TABLE1_CALIBRATIONS["C1"], rel=1e-9)


def test_report_is_deterministic(table1_report):
    _, sc = get_preset("table1")
    again = run_feasibility(sc)
    assert again.to_json() == table1_report.to_json()


def test_seed_overrides_scenario_seed():
    _, sc = get_preset("table1")
    rep = run_feasibility(sc, seed=77)
    assert rep.seed == 77
    assert run_feasibility(sc, seed=77).to_json() == rep.to_json()


def test_stage_failures_name_the_stage():
    _, sc = get_preset("table1")
    first = sc.placements[0]
    clash = dataclasses.replace(sc.placements[1], position_a=first.position_a)
    bad = dataclasses.replace(sc, placements=(first, clash) + sc.placements[2:])
    with pytest.raises(StageError) as err:
        run_feasibility(bad)
    assert err.value.stage == "integrals"
    assert "stage 'integrals' failed" in str(err.value)


def test_stage_functions_keep_their_name_and_docstring():
    assert _patch_tally.__name__ == "_patch_tally"
    assert _patch_tally.__doc__.startswith("Counts of qubits, controls and")
    assert feasibility._integrals_stage.__name__ == "_integrals_stage"
    assert feasibility._integrals_stage.__doc__.startswith("Exchange for every")


def test_qubit_on_a_control_site_is_rejected_on_both_paths(monkeypatch):
    _, sc = get_preset("table1")
    on_c2 = dataclasses.replace(sc.placements[4], position_a=sc.placements[1].position_a)
    bad = dataclasses.replace(sc, placements=sc.placements[:4] + (on_c2,))
    with pytest.raises(StageError, match="C2 and Q3 share a site"):
        run_feasibility(bad)
    # the patch tally fails in the same stage as the full pipeline, naming
    # the labels that realize_placements gives the same region
    random_sc = _random_scenario()
    region = DopedRegion(random_sc.lattice, np.array(
        [[0, 0, 0], [1, 1, 1], [4, 4, 0], [8, 0, 0], [0, 4, 4], [1, 1, 1]]),
        ("N", "P", "N", "P", "N", "N"), 0.5, 0, 100)
    monkeypatch.setattr(feasibility, "place_dopants", lambda *args: region)
    placed = {p.label: p.position_a for p in realize_placements(random_sc).placements}
    assert placed["C1"] == placed["Q4"]
    for run in (lambda: _patch_tally(random_sc, region), lambda: run_feasibility(random_sc),
                lambda: patch_statistics(random_sc, n_patches=1, seed=0)):
        with pytest.raises(StageError, match="C1 and Q4 share a site") as err:
            run()
        assert err.value.stage == "integrals"
        assert isinstance(err.value.cause, InvalidSpecError)


def test_two_qubits_on_one_site_are_rejected():
    # a qubit-qubit share is refused in the integrals stage, as the
    # control-qubit and control-control ones are
    _, sc = get_preset("table1")
    on_q1 = dataclasses.replace(sc.placements[3], position_a=sc.placements[2].position_a)
    bad = dataclasses.replace(sc, placements=sc.placements[:3] + (on_q1,) + sc.placements[4:])
    with pytest.raises(StageError, match="Q1 and Q2 share a site") as err:
        run_feasibility(bad)
    assert err.value.stage == "integrals"
    assert isinstance(err.value.cause, InvalidSpecError)


def test_line_energies_use_each_pairs_own_transfer():
    # C1-C2 and C2-C3 are both 12 A apart but are priced with different
    # control models, so their transfer amplitudes differ; each must enter
    # the hopping matrix under its own labels
    _, sc = get_preset("table1")
    hard = model_from_ionization("P", 0.6, 5.7, role="control")
    soft = model_from_ionization("Ps", 0.6, 5.7, central_cell_split_ev=0.2,
                                 role="control")
    in_line = dataclasses.replace(sc, species=(hard, soft), placements=(
        Placement("C1", "P", (-12.0, 0.0)),
        Placement("C2", "Ps", (0.0, 0.0)),
        Placement("C3", "P", (12.0, 0.0)),
    ))
    rep = run_feasibility(in_line)
    transfer = {tuple(r["pair"]): r for r in rep.transfer}
    near = transfer[("C1", "C2")], transfer[("C2", "C3")]
    assert near[0]["separation_a"] == near[1]["separation_a"] == 12.0
    assert abs(near[0]["transfer_mev"] - near[1]["transfer_mev"]) > 0.05

    labels = ["C1", "C2", "C3"]
    hop = np.zeros((3, 3))
    for (a, b), r in transfer.items():
        i, j = labels.index(a), labels.index(b)
        hop[i, j] = hop[j, i] = r["transfer_mev"]
    want = 600.0 + np.linalg.eigvalsh(hop)
    assert [line["control"] for line in rep.lines] == labels
    assert [line["energy_mev"] for line in rep.lines] == pytest.approx(
        want, rel=1e-12)


def test_a_transfer_takes_the_species_of_the_smaller_label():
    # labels compare as strings, so C10, listed second, is the smaller of
    # C2 and C10, and its species prices their transfer
    _, sc = get_preset("table1")
    hard = model_from_ionization("P", 0.6, 5.7, role="control")
    soft = model_from_ionization("Ps", 0.6, 5.7, central_cell_split_ev=0.2,
                                 role="control")
    pair = dataclasses.replace(sc, species=(hard, soft), placements=(
        Placement("C2", "P", (0.0, 0.0)), Placement("C10", "Ps", (12.0, 0.0))))
    (row,) = run_feasibility(pair).transfer
    want = transfer_splitting_curve(soft, [12.0],
                                    base_transition_mev=sc.spectral.base_transition_mev)
    assert row["pair"] == ["C2", "C10"]
    assert row["transfer_mev"] == want.transfer_mev[0]


# --- random patches ----------------------------------------------------------

def _random_scenario(seed=3):
    _, sc = get_preset("table1")
    return dataclasses.replace(
        sc, placements=None,
        random_placement=RandomPlacementSpec(2e-4, {"P": 0.4, "N": 0.6},
                                             seed=seed))


def test_realized_placements_are_labelled_by_role():
    real = realize_placements(_random_scenario())
    controls = [p for p in real.placements if p.species == "P"]
    qubits = [p for p in real.placements if p.species == "N"]
    assert {p.label for p in controls} == {f"C{i+1}" for i in range(len(controls))}
    assert {p.label for p in qubits} == {f"Q{i+1}" for i in range(len(qubits))}
    assert realize_placements(_random_scenario()) == real


def test_realized_positions_are_the_region_sites():
    # the realized patch is the doped region's integer sites times a0/4,
    # in site order, and every site is a diamond site
    sc = dataclasses.replace(_random_scenario(), lattice=LatticeSpec(30.0),
                             random_placement=RandomPlacementSpec(
                                 0.01, {"P": 0.4, "N": 0.6}, seed=3))
    rp = sc.random_placement
    region = place_dopants(sc.lattice, rp.concentration, dict(rp.mix), rp.seed)
    sites = region.sites
    assert len(sites) == len(region.species) > 10
    realized = realize_placements(sc).placements
    positions = np.array([p.position_a for p in realized])
    assert np.array_equal(positions, sites * (sc.lattice.lattice_constant / 4))
    assert tuple(p.species for p in realized) == region.species
    odd = sites % 2 == 1
    total = sites.sum(axis=1) % 4
    even_site = ~odd.any(axis=1) & (total == 0)
    odd_site = odd.all(axis=1) & (total == 3)
    assert (even_site | odd_site).all()


def test_random_patch_beyond_the_offset_table_skips_configure():
    # table1's explicit EPR offsets name Q1-Q3 only; this patch realizes
    # Q1-Q7, so the scan cannot place four of the lines and configure is
    # skipped with the reason instead of failing the run
    _, sc = get_preset("table1")
    sc = dataclasses.replace(
        sc, placements=None, lattice=LatticeSpec(15.0),
        random_placement=RandomPlacementSpec(2e-3, {"P": 0.4, "N": 0.6}, seed=3))
    report = run_feasibility(sc)
    assert report.n_qubits == 7
    assert report.configuration == {
        "attempted": False,
        "reason": "no EPR offset for qubits ['Q4', 'Q5', 'Q6', 'Q7']"}
    assert len(report.gates) == 1  # the stages before configure still ran


def test_patch_statistics_deterministic():
    sc = _random_scenario()
    ps = patch_statistics(sc, n_patches=6, seed=9)
    assert ps == patch_statistics(sc, n_patches=6, seed=9)
    assert ps.n_patches == 6
    assert sum(ps.qubit_counts.values()) == 6
    assert sum(ps.gate_counts.values()) == 6
    assert 0.0 <= ps.fraction_meeting_gate_target <= 1.0
    assert ps.fraction_meeting_gate_target == pytest.approx(
        sum(n for k, n in ps.gate_counts.items() if k >= ps.n_gate_target) / 6)


def test_patch_statistics_require_random_spec():
    _, sc = get_preset("table1")
    with pytest.raises(InvalidSpecError):
        patch_statistics(sc, n_patches=2, seed=1)
    # n_patches and every seed override must be counts: no bool, fraction or negative
    for n_patches, seed in ((0, 1), (True, 1), (2.5, 1), (2, 2.7), (2, -1), (2, True)):
        with pytest.raises(InvalidSpecError):
            patch_statistics(_random_scenario(), n_patches=n_patches, seed=seed)
    for run in (run_feasibility, resolve_cluster):
        for seed in (2.7, -1, True):
            with pytest.raises(InvalidSpecError, match="seed"):
                run(sc, seed=seed)


def _tally_and_report(sc, seed):
    """patch_statistics' gate tally of one patch, and the full report of
    the same patch."""
    (tallied,) = patch_statistics(sc, n_patches=1, seed=seed).gate_counts
    child = np.random.SeedSequence(seed).spawn(1)[0]
    patch = dataclasses.replace(sc, random_placement=dataclasses.replace(
        sc.random_placement, seed=int(child.generate_state(1)[0])))
    return tallied, run_feasibility(patch)


def test_patch_tally_matches_the_full_pipeline():
    # patch_statistics counts gate-capable controls without running the
    # spins stage; on the same patch that count must equal the number of
    # gate records the full pipeline produces
    _, sc = get_preset("table1")
    sc = dataclasses.replace(
        sc, placements=None, lattice=LatticeSpec(20.0),
        epr=EprModel(0.05, zeeman_spread_fwhm_mev=4.0),
        random_placement=RandomPlacementSpec(1e-3, {"P": 0.4, "N": 0.6}, seed=0))
    counts = []
    for seed in range(6):
        tallied, report = _tally_and_report(sc, seed)
        assert tallied == len(report.gates), seed
        counts.append(tallied)
    assert min(counts) == 0 and max(counts) >= 2


def _two_control_species_scenario():
    _, sc = get_preset("table1")
    soft = model_from_ionization("Ps", 0.6, 5.7, central_cell_split_ev=0.2,
                                 role="control")
    return dataclasses.replace(
        sc, placements=None, species=sc.species + (soft,),
        lattice=LatticeSpec(25.0), epr=EprModel(0.05, zeeman_spread_fwhm_mev=4.0),
        min_gate_coupling_mev=100.0,
        random_placement=RandomPlacementSpec(
            3e-3, {"P": 0.2, "Ps": 0.2, "N": 0.6}, seed=0))


def test_patch_tally_groups_pairs_by_species():
    # two control species price their pairs in separate exchange curves;
    # the tally must still equal the full pipeline's gate records. At this
    # concentration nearly every control has two couplings above 1 meV, so
    # the floor is raised to where the species' couplings differ in outcome:
    # both species hold gates, and some controls of each miss the floor
    sc = _two_control_species_scenario()
    with_gate, without_gate = set(), set()
    for seed in range(6):
        tallied, report = _tally_and_report(sc, seed)
        assert tallied == len(report.gates), seed
        species = {label: s for label, s, _ in report.placements
                   if label.startswith("C")}
        gated = {g["control"] for g in report.gates}
        with_gate.update(species[c] for c in gated)
        without_gate.update(s for c, s in species.items() if c not in gated)
    assert with_gate == without_gate == {"P", "Ps"}


def test_patch_tally_without_a_qubit_in_reach_counts_no_gate(monkeypatch):
    # controls with every qubit beyond pair_cutoff_a, or with no qubit at
    # all, price an empty pair list and tally 0 gates
    _, sc = get_preset("table1")
    controls = [(0, 0, 0), (4, 4, 0)]  # sites in units of a0/4
    far = [(64, 64, 0), (64, 68, 4)]
    gap = np.linalg.norm(np.array(far)[:, None] - np.array(controls)[None], axis=-1)
    assert gap.min() * sc.lattice.lattice_constant / 4 > sc.pair_cutoff_a
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(kwargs["r_grid"]))
        return exchange_curve(*args, **kwargs)

    monkeypatch.setattr(feasibility, "exchange_curve", counted)
    for sites, species, qubits in ((controls + far, ("P", "P", "N", "N"), 2),
                                   (controls, ("P", "P"), 0)):
        region = DopedRegion(sc.lattice, np.array(sites), species, 1e-3, 0)
        assert _patch_tally(sc, region) == (qubits, 2, 0)
    assert calls == []


def test_integrals_stage_prices_each_species_group_once(monkeypatch, fresh_cache):
    # the stage prices its pairs by species group: one exchange curve per
    # (control species, qubit species, branch) and one transfer curve per
    # species, and every row equals that pair priced alone, bit for bit
    sc = _two_control_species_scenario()
    realized = realize_placements(sc)
    species = {p.label: p.species for p in realized.placements}
    calls = []

    def counted(curve, key):
        def run(*args, **kwargs):
            calls.append(key(*args, **kwargs))
            return curve(*args, **kwargs)
        return run

    monkeypatch.setattr(feasibility, "exchange_curve", counted(
        exchange_curve, lambda control, qubit, excited, r_grid:
        (control.species_name, qubit.species_name, excited)))
    monkeypatch.setattr(feasibility, "transfer_splitting_curve", counted(
        transfer_splitting_curve,
        lambda control, r_grid, base_transition_mev: control.species_name))
    # an empty pair cache, so that no row is read from another test's batch
    fresh_cache()
    report = run_feasibility(realized)
    exchange, transfer = report.exchange, report.transfer

    groups = {(species[r["control"]], species[r["qubit"]]) for r in exchange}
    transfer_species = {species[min(r["pair"])] for r in transfer}
    assert groups == {("P", "N"), ("Ps", "N")}
    assert transfer_species == {"P", "Ps"}
    assert sorted(calls, key=str) == sorted(
        [g + (excited,) for g in groups for excited in (True, False)]
        + list(transfer_species), key=str)

    # each pair alone, from another empty cache: a batch of one per point
    fresh_cache()
    model = realized.model_for
    for row in exchange:
        c, q, r = row["control"], row["qubit"], row["separation_a"]
        (excited,) = exchange_curve(model(c), model(q), True, (r,))
        (ground,) = exchange_curve(model(c), model(q), False, (r,))
        assert (row["j_excited_mev"], row["j_ground_mev"]) == (
            excited.exchange_splitting_mev, ground.exchange_splitting_mev)
    for row in transfer:
        (alone,) = transfer_splitting_curve(
            model(min(row["pair"])), (row["separation_a"],),
            realized.spectral.base_transition_mev)
        assert (row["transfer_mev"], row["splitting_mev"]) == (
            alone.transfer_mev, alone.splitting_mev)


def _bench_patch_scenario():
    """The benchmark's patch: table1's species, R = 40 A, c = 0.3 %."""
    return pins.random_scenario(40.0, 3e-3)


def _on_shell_scenario():
    """The benchmark's patch with its cutoff exactly on the lattice shell
    n = 536, about 20.6 A, where 261 control-qubit pairs of seeds 0-19 sit."""
    sc = _bench_patch_scenario()
    return dataclasses.replace(
        sc, pair_cutoff_a=float(np.sqrt(536) * (sc.lattice.lattice_constant / 4.0)))


def _tallied_pairs(sc, region):
    """Each control-qubit pair within the cutoff, one pair at a time:
    (control, qubit, control model, qubit model, n, separation), with the
    separation sqrt(n) * (a/4) as the patch tally has always computed it."""
    quarter = sc.lattice.lattice_constant / 4.0
    placed = [(tuple(int(x) for x in site), sc.species_by_name(name))
              for site, name in zip(region.sites, region.species)]
    controls = [p for p in placed if p[1].role == "control"]
    qubits = [p for p in placed if p[1].role == "qubit"]
    pairs = []
    for c, (c_site, c_model) in enumerate(controls):
        for q, (q_site, q_model) in enumerate(qubits):
            n = sum((u - v) ** 2 for u, v in zip(c_site, q_site))
            sep = float(np.sqrt(np.int64(n)) * quarter)
            if sep <= sc.pair_cutoff_a:
                pairs.append((c, q, c_model, q_model, n, sep))
    return pairs, len(controls), len(qubits)


@pytest.mark.parametrize("scenario, seeds", [
    (_bench_patch_scenario, range(20)), (_two_control_species_scenario, range(6)),
    (_on_shell_scenario, range(20)),
])
def test_lattice_table_equals_the_curve_at_each_pairs_separation(fresh_cache, scenario,
                                                                 seeds):
    # each tallied pair's J in its model pair's table equals exchange_curve
    # at the pair's float separation bit for bit (one curve per model pair
    # over its distinct separations, as the tally priced before the table),
    # and the gate count follows from those J
    sc = scenario()
    fresh_cache()
    a, cutoff = sc.lattice.lattice_constant, sc.pair_cutoff_a
    quarter = a / 4.0
    for seed in seeds:
        region = feasibility._dope_patch(sc, seed)
        n_qubits, n_controls, gates = _patch_tally(sc, region)
        pairs, want_controls, want_qubits = _tallied_pairs(sc, region)
        assert (n_qubits, n_controls) == (want_qubits, want_controls)
        curve_j = {}
        for models in {(c_model, q_model) for _, _, c_model, q_model, _, _ in pairs}:
            grid = sorted({sep for *_, c_model, q_model, _, sep in pairs
                           if (c_model, q_model) == models})
            curve = exchange_curve(*models, True, grid)
            curve_j.update({models + (r,): j for r, j in
                            zip(grid, curve.exchange_splitting_mev.tolist())})
        strong = {}
        for c, q, c_model, q_model, n, sep in pairs:
            table = feasibility._coupling_table(c_model, q_model, a, cutoff)
            assert table[n] == curve_j[(c_model, q_model, sep)], (seed, c, q)
            if abs(curve_j[(c_model, q_model, sep)]) >= sc.min_gate_coupling_mev:
                strong[c] = strong.get(c, 0) + 1
        assert gates == sum(k >= 2 for k in strong.values()), seed
        for c_model, q_model in {p[2:4] for p in pairs}:
            table = feasibility._coupling_table(c_model, q_model, a, cutoff)
            assert len(table) <= int((sc.pair_cutoff_a / quarter) ** 2) + 1


def test_a_cutoff_past_the_patch_prices_only_its_diameter(monkeypatch, fresh_cache):
    # a cutoff far past the patch, the usual way to ask for none, tallies
    # each pair as the curve at its separation does, and its table prices
    # no separation past the patch's diameter and a quarter cell, not the
    # 7e8 sites of the 1000 A sphere
    sc = dataclasses.replace(_bench_patch_scenario(), pair_cutoff_a=1000.0)
    fresh_cache()
    priced = []

    def counted(*args, **kwargs):
        priced.append(float(np.max(args[3])))
        return exchange_curve(*args, **kwargs)

    monkeypatch.setattr(feasibility, "exchange_curve", counted)
    for seed in range(3):
        region = feasibility._dope_patch(sc, seed)
        pairs, n_controls, n_qubits = _tallied_pairs(sc, region)
        strong = {}
        for models in {(c_model, q_model) for _, _, c_model, q_model, _, _ in pairs}:
            seps = [(c, sep) for c, _, c_model, q_model, _, sep in pairs
                    if (c_model, q_model) == models]
            grid, where = np.unique([sep for _, sep in seps], return_inverse=True)
            j = exchange_curve(*models, True, grid).exchange_splitting_mev[where]
            for (c, _), jc in zip(seps, j.tolist()):
                if abs(jc) >= sc.min_gate_coupling_mev:
                    strong[c] = strong.get(c, 0) + 1
        gates = sum(k >= 2 for k in strong.values())
        assert _patch_tally(sc, region) == (n_qubits, n_controls, gates), seed
    quarter = sc.lattice.lattice_constant / 4.0
    assert len(priced) == 1
    assert priced[0] <= 2.0 * sc.lattice.bounding_radius + quarter


def test_a_repeat_tally_prices_nothing(monkeypatch, fresh_cache):
    # a warm patch reads every J from its table: no curve call, no call
    # read from or priced into the pair cache
    sc = _bench_patch_scenario()
    fresh_cache()
    region = feasibility._dope_patch(sc, 0)
    first = _patch_tally(sc, region)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return exchange_curve(*args, **kwargs)

    monkeypatch.setattr(feasibility, "exchange_curve", counted)
    info = integrals._reduced_pair.cache_info()
    assert _patch_tally(sc, region) == first
    assert calls == []
    assert integrals._reduced_pair.cache_info() == info


def _role_positions(case):
    """(control, qubit) positions: table1's, or a seed-0 c = 0.3 % patch's
    at R = 40 or 60 A, or 100 random non-lattice points each."""
    if case == "random":
        return np.random.default_rng(2009).uniform(-60.0, 60.0, (2, 100, 3))
    sc = get_preset("table1")[1] if case == "table1" else pins.random_scenario(case, 3e-3)
    _, controls, qubits = feasibility._placement_stage(sc)
    return controls[2], qubits[2]


@pytest.mark.parametrize("case", ["table1", 40.0, 60.0, "random"])
def test_distances_equal_per_pair_norms_bit_for_bit(case):
    # the integrals stage takes every separation from `_distances`, whose
    # stacked matmul must stay the dot that np.linalg.norm takes on every
    # numpy and BLAS the package allows: the control-qubit and
    # control-control pairs, or 10 000 random pairs
    controls, qubits = _role_positions(case)
    pairs = [(controls, controls), (controls, qubits)] if case != "random" else [(controls, qubits)]
    for a, b in pairs:
        fast = feasibility._distances(a, b)
        slow = np.array([[np.linalg.norm(q - p) for q in b] for p in a])
        assert fast.shape == slow.shape == (len(a), len(b))
        assert np.array_equal(fast.view(np.int64), slow.view(np.int64))


def test_a_repeat_r60_integrals_stage_calls_no_kernel(monkeypatch, fresh_cache):
    # the seed-0 R = 60 A, c = 0.3 % patch's integrals stage, run a second
    # time, reads each of its curves' blocks back from the pair cache: no
    # kernel call, and the same rows
    sc = pins.random_scenario(60.0, 3e-3)
    realized, controls, qubits = feasibility._placement_stage(sc)
    calls = []
    kernel = integrals._pair_blocks

    def counted(*args):
        calls.append(len(args[3]))
        return kernel(*args)

    monkeypatch.setattr(integrals, "_pair_blocks", counted)
    fresh_cache()
    first = feasibility._integrals_stage(realized, controls, qubits)
    assert len(calls) == 3 and sum(calls) > 4000  # P-N excited and ground, P-P transfer
    calls.clear()
    again = feasibility._integrals_stage(realized, controls, qubits)
    assert all(np.array_equal(a, b) for a, b in zip(again, first))
    assert calls == []


def test_a_repeat_r60_report_runs_no_gate_search(monkeypatch, fresh_gate_cache):
    # the seed-0 R = 60 A, c = 0.3 % patch's gate searches run once per
    # distinct coupling pair (lattice pairs repeat separations: its 189
    # gates have 182 pairs), and a second run reads every one back from the
    # gate cache: no residual scan is built, and the report is the same
    sc = pins.random_scenario(60.0, 3e-3)
    scans = []
    scan = spins._residual_scan

    def counted(levels, projectors):
        scans.append(levels)
        return scan(levels, projectors)

    monkeypatch.setattr(spins, "_residual_scan", counted)
    fresh_gate_cache()
    first = run_feasibility(sc)
    pairs = {(g["j1_mev"], g["j2_mev"]) for g in first.gates}
    assert len(scans) == len(pairs) > 100
    scans.clear()
    assert run_feasibility(sc).to_json() == first.to_json()
    assert scans == []


def test_a_fill_that_raises_stores_nothing(monkeypatch, fresh_cache):
    # no lattice pair of these models nearly coincides, so the overlap
    # limit is lowered until the nearest ones do: the tally's error names
    # the first close separation of the table's own grid, as one curve over
    # that grid does, even for a patch whose own pairs are far apart, and no
    # table is kept, so a tally under the real limit prices one afresh
    _, sc = get_preset("table1")
    control, qubit = sc.species
    a = sc.lattice.lattice_constant
    quarter = a / 4.0
    fresh_cache()
    sites = lattice._integer_sites(a, sc.pair_cutoff_a).astype(np.int64)
    grid = np.sqrt(np.unique((sites * sites).sum(1))[1:]) * quarter
    far = DopedRegion(sc.lattice, np.array([[0, 0, 0], [8, 8, 0], [12, 0, 4]]),
                      ("P", "N", "N"), 1e-3, 0)

    # a 2p-1s overlap grows with separation here: n = 3 and 8 stay below
    # the limit, and n = 11 passes it
    limit = integrals._OVERLAP_LIMIT
    monkeypatch.setattr(integrals, "_OVERLAP_LIMIT", 0.22)
    with pytest.raises(IllConditionedGeometryError) as direct:
        exchange_curve(control, qubit, True, grid)
    assert f"at separation {np.sqrt(11) * quarter:g} A" in str(direct.value)
    with pytest.raises(StageError) as err:
        _patch_tally(sc, far)
    assert isinstance(err.value.cause, IllConditionedGeometryError)
    assert str(err.value.cause) == str(direct.value)
    assert feasibility._coupling_table.cache_info().currsize == 0

    monkeypatch.setattr(integrals, "_OVERLAP_LIMIT", limit)
    assert _patch_tally(sc, far)[:2] == (2, 1)
    assert feasibility._coupling_table.cache_info().currsize == 1


def test_lattice_tables_keep_at_most_their_bound(fresh_cache):
    # a sweep over more qubit models than the bound keeps no more tables
    # than the bound, the most recent ones
    _, sc = get_preset("table1")
    fresh_cache()
    bound = feasibility._coupling_table.cache_parameters()["maxsize"]
    region = DopedRegion(sc.lattice, np.array([[0, 0, 0], [8, 8, 0], [12, 0, 4]]),
                         ("P", "N", "N"), 1e-3, 0)
    models = [model_from_ionization("N", 0.6, 5.7, role="qubit",
                                    radius_scale_factor=1.0 - 0.05 * k)
              for k in range(bound + 3)]
    for model in models:
        swept = dataclasses.replace(sc, species=(sc.species[0], model))
        assert _patch_tally(swept, region)[:2] == (2, 1)
        assert feasibility._coupling_table.cache_info().currsize <= bound
    info = feasibility._coupling_table.cache_info()
    assert info.currsize == bound and info.misses == len(models)


def test_spins_stage_ranks_equal_couplings_as_before():
    # ranking a control's row of J keeps its qubits' placement order, so a
    # tie in |J| picks the pair today's rule, a scan of the control's
    # couplings in qubit placement order and a stable sort by |J|, picks;
    # the qubits are placed Q3, Q2, Q1, Q4, so that placement order, not
    # label order, breaks the ties
    _, sc = get_preset("table1")
    c1, c2, q1, q2, q3 = sc.placements
    sc = dataclasses.replace(sc, placements=(c1, c2, q3, q2, q1,
                                             Placement("Q4", "N", (30.0, 30.0))))
    _, controls, qubits = feasibility._placement_stage(sc)
    c_at = {c: i for i, c in enumerate(controls[0])}
    q_at = {q: k for k, q in enumerate(qubits[0])}
    given = {("C2", "Q3"): 20.0, ("C1", "Q2"): -20.5, ("C2", "Q1"): 0.5,
             ("C1", "Q3"): 20.0, ("C2", "Q2"): -20.0, ("C1", "Q1"): 20.0,
             ("C2", "Q4"): 20.0}
    excited = np.zeros((len(controls[0]), len(qubits[0])))
    for (c, q), j in given.items():
        excited[c_at[c], q_at[q]] = j
    reach = excited != 0.0

    def todays_rule(c_label):
        ranked = sorted(((q, given[c_label, q]) for q in qubits[0]
                         if abs(given.get((c_label, q), 0.0)) >= sc.min_gate_coupling_mev),
                        key=lambda item: abs(item[1]), reverse=True)
        return [q for q, _ in ranked[:2]], tuple(j for _, j in ranked[:2])

    records = feasibility._spins_stage(sc, controls, qubits, excited, reach)
    assert [r["control"] for r in records] == ["C1", "C2"]
    for r in records:
        assert (r["qubits"], (r["j1_mev"], r["j2_mev"])) == todays_rule(r["control"])
    assert [r["qubits"] for r in records] == [["Q2", "Q3"], ["Q3", "Q2"]]


def test_empty_region_reports_zero_everything():
    _, sc = get_preset("table1")
    empty = dataclasses.replace(sc, placements=(),
                                n_qubit_target=0, n_gate_target=0)
    rep = run_feasibility(empty)
    assert rep.n_controls == 0 and rep.n_qubits == 0
    assert rep.resolvable_gates == 0 and rep.gates == ()
    assert rep.targets["gates_met"]


def test_vanishing_concentration_meets_no_target():
    sc = _random_scenario()
    tiny = dataclasses.replace(
        sc, random_placement=dataclasses.replace(sc.random_placement,
                                                 concentration=1e-9))
    ps = patch_statistics(tiny, n_patches=3, seed=5)
    assert ps.gate_counts == {0: 3}
    assert ps.fraction_meeting_gate_target == 0.0
