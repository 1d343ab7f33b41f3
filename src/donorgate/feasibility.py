"""End-to-end feasibility run: realize a patch, work out every pair
interaction, render the spectra, search the gate intervals, and try to
configure the cluster blind.

Stages run in a fixed order (placement, integrals, spectra, spins,
configure); a failure inside one is re-raised as a StageError naming it, so
a batch caller can attribute losses. Every quantity in the report is a
plain float/int/str so the JSON dump is stable and diffable.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .configure import calibrate_gate_time, infer_adjacency, simulate_scan
from .constants import HBAR_MEV_PS
from .errors import (DependencyError, DonorgateError, InvalidSpecError,
                     NoCleanGateError, PreconditionError, StageError, count)
from .integrals import _splitting, exchange_curve, transfer_splitting_curve
from .lattice import DopedRegion, _integer_sites, place_dopants
from .scenario import Placement, Scenario
from .spectra import gate_transitions, resolvable_gate_count
from .spins import effective_coupling, sfg_gate

# blind configuration is only attempted on clusters small enough that the
# scan stays readable; larger patches report adjacency from thresholding
_CONFIGURE_MAX_CONTROLS = 4


def realize_placements(scenario: Scenario) -> Scenario:
    """Explicit-placement version of a scenario.

    Random specs are realized by Bernoulli occupation of the enumerated
    lattice sites; labels are assigned per role (C1.., Q1..) in site order,
    so a fixed placement seed gives a fixed labelled patch.
    """
    if scenario.placements is not None:
        return scenario
    rp = scenario.random_placement
    region = place_dopants(scenario.lattice, rp.concentration, dict(rp.mix),
                           rp.seed)
    positions = region.sites.astype(float) * (scenario.lattice.lattice_constant / 4.0)
    counters = {"control": 0, "qubit": 0}
    prefix = {"control": "C", "qubit": "Q"}
    placements = []
    for position, species_name in zip(positions, region.species):
        role = scenario.species_by_name(species_name).role
        counters[role] += 1
        placements.append(Placement(f"{prefix[role]}{counters[role]}",
                                    species_name, tuple(position)))
    return scenario.with_placements(placements)


def _stage(name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except StageError:
                raise
            except DonorgateError as err:
                raise StageError(name, err) from err
        return run
    return wrap


@_stage("placement")
def _placement_stage(scenario):
    """The realized scenario, then its controls' and its qubits' records:
    each the labels, the species (indices into `scenario.species`) and an
    (n, 3) array of positions of that role's dopants, in placement order."""
    realized = realize_placements(scenario)
    placed = realized.placements
    kind, is_control = _species_kinds(realized, [p.species for p in placed])
    positions = np.array([p.position_a for p in placed], dtype=float).reshape(-1, 3)

    def record(role):
        return [p.label for p, keep in zip(placed, role) if keep], kind[role], positions[role]
    return realized, record(is_control), record(~is_control)


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every separation |b[j] - a[i]| of the rows of `a` and `b`, (n, 3)
    arrays, as a (len(a), len(b)) array. Each entry is one stacked
    (1x3)@(3x1) product, which numpy prices with the dot that
    `np.linalg.norm(b[j] - a[i])` takes, so the two agree bit for bit."""
    d = b[None] - a[:, None]
    return np.sqrt(np.matmul(d[..., None, :], d[..., :, None]))[..., 0, 0]


def _refuse_shared(shared: np.ndarray, a_labels, b_labels) -> None:
    """Raise for the first (i, j), in row order, that `shared` marks."""
    if shared.any():
        i, j = np.argwhere(shared)[0]
        raise InvalidSpecError(f"{a_labels[i]} and {b_labels[j]} share a site")


def _species_kinds(scenario, species_names) -> tuple:
    """Each dopant's species, as an index into `scenario.species`, and
    whether that species is a control."""
    index = {s.species_name: i for i, s in enumerate(scenario.species)}
    kind = np.array([index[name] for name in species_names], dtype=np.int64)
    return kind, np.array([s.role == "control" for s in scenario.species])[kind]


def _species_groups(scenario, *kinds):
    """Yield the models (one per pair member) and the member mask of each
    species group of a set of pairs, in increasing order of species index,
    the first member's most significant. `kinds` give each pair's species,
    one array per pair member, as indices into `scenario.species`."""
    n_species = len(scenario.species)
    code = np.zeros(len(kinds[0]), dtype=np.int64)
    for kind in kinds:
        code = code * n_species + kind
    for group in np.flatnonzero(np.bincount(code, minlength=n_species ** len(kinds))).tolist():
        member = code == group
        first = np.argmax(member)
        yield tuple(scenario.species[kind[first]] for kind in kinds), member


def _price_pairs(scenario, curve, name, separation, *kinds):
    """The `name` column of the priced curves, one entry per pair. Each
    species group of pairs (see `_species_groups`) is priced by one
    `curve(*models, r_grid=grid)` call over its distinct separations in
    increasing order, one row per point."""
    column = np.empty(len(separation))
    for models, member in _species_groups(scenario, *kinds):
        grid, where = np.unique(separation[member], return_inverse=True)
        column[member] = getattr(curve(*models, r_grid=grid), name)[where]
    return column


@_stage("integrals")
def _integrals_stage(scenario, controls, qubits):
    """Exchange for every control-qubit pair inside the cutoff and transfer
    for every control-control pair, priced by species group as the patch
    tally prices them; a transfer takes the species of the smaller label.
    Every separation comes from one `_distances` matrix per role pair of the
    placement stage's records. A shared site raises, checked control-qubit,
    then control-control, then qubit-qubit. Returns, in placement order, the
    control-qubit separations, their reach mask, the excited- and ground-state
    J (controls x qubits, 0 out of reach), the control-control separations
    and the symmetric transfer matrix."""
    (c_labels, c_kind, c_pos), (q_labels, q_kind, q_pos) = controls, qubits
    to_qubit = _distances(c_pos, q_pos)
    _refuse_shared(to_qubit <= 0.0, c_labels, q_labels)
    upper = np.triu(np.ones((len(c_labels),) * 2, dtype=bool), 1)
    to_control = _distances(c_pos, c_pos)
    _refuse_shared(upper & (to_control <= 0.0), c_labels, c_labels)
    # an exact screen; only a share builds the q x q match that names it
    if len(np.unique(q_pos, axis=0)) < len(q_pos):
        _refuse_shared(np.triu((q_pos[:, None] == q_pos[None]).all(-1), 1), q_labels, q_labels)

    reach = to_qubit <= scenario.pair_cutoff_a
    ci, qi = np.nonzero(reach)
    excited, ground = np.zeros(reach.shape), np.zeros(reach.shape)
    for j, branch in ((excited, True), (ground, False)):
        j[ci, qi] = _price_pairs(scenario, functools.partial(exchange_curve, excited=branch),
                                 "exchange_splitting_mev", to_qubit[ci, qi], c_kind[ci], q_kind[qi])

    ia, ib = np.nonzero(upper)
    rank = np.argsort(np.argsort(c_labels))  # labels compare as strings
    smaller = np.where(rank[ia] < rank[ib], ia, ib)
    hop = np.zeros(upper.shape)
    hop[ia, ib] = hop[ib, ia] = _price_pairs(
        scenario, functools.partial(transfer_splitting_curve,
                                    base_transition_mev=scenario.spectral.base_transition_mev),
        "transfer_mev", to_control[ia, ib], c_kind[smaller])
    return to_qubit, reach, excited, ground, to_control, hop


@_stage("spectra")
def _spectra_stage(scenario, transfer, seed):
    lines = gate_transitions(scenario, transfer, seed=[seed, 0x53])
    resolvable = (resolvable_gate_count(lines,
                                        scenario.spectral.homogeneous_fwhm_mev,
                                        scenario.spectral.resolution_factor)
                  if lines else 0)
    rows = [{"control": l.gate_id, "energy_mev": float(l.energy_mev),
             "width_mev": float(l.width_mev),
             "shifts": {n: float(v) for n, v in l.shift_breakdown}}
            for l in lines]
    return lines, rows, resolvable


@_stage("spins")
def _spins_stage(scenario, controls, qubits, excited, reach):
    """A gate record per control with two or more qubits in reach at or above
    the gate floor, in label order: the two largest |J| of its row of
    `excited`, by a stable sort that keeps the first of equal |J|. A qubit's
    T1 is its species'."""
    (c_labels, _, _), (q_labels, q_kind, _) = controls, qubits
    strong = reach & (np.abs(excited) >= scenario.min_gate_coupling_mev)
    records = []
    for c_label, i in sorted((c_labels[i], i) for i in np.flatnonzero(strong.sum(1) >= 2)):
        row = np.flatnonzero(strong[i])
        ranked = sorted(zip(row.tolist(), excited[i, row].tolist()),
                        key=lambda item: abs(item[1]), reverse=True)
        (ka, ja), (kb, jb) = ranked[:2]
        j_eff = effective_coupling(ja, jb, scenario.excitation_energy_mev)
        try:
            report = sfg_gate(ja, jb)
            clean = True
        except NoCleanGateError as err:
            report = err.best_candidate
            clean = False
        t1_s = {q_labels[k]: scenario.species[q_kind[k]].t1_s for k in (ka, kb)}
        margins = {q: float(t1 * 1e12 / report.duration_ps)
                   for q, t1 in t1_s.items() if t1 is not None}
        records.append({
            "control": c_label, "qubits": [q_labels[ka], q_labels[kb]],
            "j1_mev": float(ja), "j2_mev": float(jb),
            "j_eff_mev": float(j_eff),
            "tau_scale_ps": float(np.pi * HBAR_MEV_PS / abs(j_eff)),
            "duration_ps": float(report.duration_ps),
            "residual_bits": float(report.control_residual_entanglement),
            "entangling_power": float(report.entangling_power),
            "clean": clean,
            "t1_margin": margins or None,
        })
    return records


@_stage("configure")
def _configure_stage(scenario, lines, controls, qubits, excited, reach, gate_records):
    n_controls = np.count_nonzero(reach.any(1))
    if not lines or not n_controls:
        return {"attempted": False, "reason": "nothing to configure"}
    if n_controls > _CONFIGURE_MAX_CONTROLS:
        return {"attempted": False,
                "reason": f"{n_controls} controls exceed the scan budget"}
    # an explicit offset table names fixed qubits; a random patch may
    # realize others, whose EPR lines the scan could not place
    missing = scenario.qubits_without_epr_offset()
    if missing:
        return {"attempted": False,
                "reason": f"no EPR offset for qubits {missing}"}

    scan = simulate_scan(scenario, lines, excited)
    hypothesis = infer_adjacency(scan, scenario.detection_threshold_mev)

    (c_labels, _, _), (q_labels, _, _) = controls, qubits
    detected = reach & (np.abs(excited) >= scenario.detection_threshold_mev)
    truth = {c_labels[i]: {q_labels[k] for k in np.flatnonzero(detected[i])}
             for i in np.flatnonzero(detected.any(1))}
    line_of = {l.gate_id: l.energy_mev for l in lines}

    # each resonance belongs to the control with the nearest line
    matches = []
    attributed = {}
    for entry in hypothesis.entries:
        control = min(line_of, key=lambda c: abs(line_of[c] - entry.optical_energy_mev))
        inferred = {q: j for q, j in entry.couplings}
        expected = truth.get(control, set())
        matches.append({
            "control": control,
            "optical_energy_mev": float(entry.optical_energy_mev),
            "ambiguous": entry.ambiguous,
            "inferred": {q: float(j) for q, j in sorted(inferred.items())},
            "true_qubits": sorted(expected),
            "match": set(inferred) == expected,
        })
        attributed.setdefault(control, []).append(entry)
    missed = sorted(c for c in truth if c not in attributed)
    recovered = (not missed) and all(m["match"] for m in matches)

    calibrations = []
    for record in gate_records:
        control = record["control"]
        if control not in attributed:
            continue
        # a control with several resonances is timed from its nearest one
        entry = min(attributed[control],
                    key=lambda e: abs(e.optical_energy_mev - line_of[control]))
        # a control with fewer than two inferred qubits, or attributed one it
        # has no coupling to, cannot be timed and scored: it goes uncalibrated
        try:
            cal = calibrate_gate_time(entry, excited[c_labels.index(control)], q_labels)
        except (PreconditionError, DependencyError):
            continue
        calibrations.append({
            "control": control, "qubits": tuple(cal.qubit_labels),
            "duration_ps": float(cal.duration_ps),
            "fidelity_to_target": float(cal.fidelity_to_target),
        })
    return {"attempted": True, "recovered": recovered, "entries": matches,
            "missed_controls": missed, "calibrations": calibrations}


@dataclass(frozen=True)
class FeasibilityReport:
    """Everything one patch produced, stage by stage."""

    scenario_name: str
    seed: int
    placements: tuple
    n_controls: int
    n_qubits: int
    exchange: tuple
    transfer: tuple
    lines: tuple
    resolvable_gates: int
    gates: tuple
    configuration: dict
    targets: dict

    def to_dict(self) -> dict:
        """JSON-ready data. Its rows and configuration are the report's own,
        not copies: read them, do not edit them."""
        return {
            "scenario": self.scenario_name,
            "seed": self.seed,
            "placements": [{"label": l, "species": s, "position_a": list(p)}
                           for l, s, p in self.placements],
            "counts": {"controls": self.n_controls, "qubits": self.n_qubits},
            "exchange": list(self.exchange),
            "transfer": list(self.transfer),
            "lines": list(self.lines),
            "resolvable_gates": self.resolvable_gates,
            "gates": list(self.gates),
            "configuration": self.configuration,
            "targets": self.targets,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary_rows(self):
        """(key, value) pairs for the flat CSV export."""
        t = self.targets
        rows = [
            ("scenario", self.scenario_name),
            ("seed", self.seed),
            ("n_controls", self.n_controls),
            ("n_qubits", self.n_qubits),
            ("n_pairs_in_reach", len(self.exchange)),
            ("resolvable_gates", self.resolvable_gates),
            ("n_gates", len(self.gates)),
            ("qubit_target_met", t["qubits_met"]),
            ("gate_target_met", t["gates_met"]),
            ("configure_attempted", self.configuration.get("attempted", False)),
            ("configure_recovered", self.configuration.get("recovered", "")),
        ]
        for g in self.gates:
            rows.append((f"gate_{g['control']}_tau_ps", g["duration_ps"]))
            rows.append((f"gate_{g['control']}_residual_bits", g["residual_bits"]))
        return rows


def resolve_cluster(scenario: Scenario, seed: int = None):
    """(realized scenario, optical lines, excited-state J) for scan and
    inference work: the controls' `TransitionLine`s and the integrals
    stage's (controls x qubits) J, 0 out of reach, in the realized
    scenario's `controls()` x `qubits()` order, as `simulate_scan` takes
    them.

    Runs the placement, integrals and spectra stages only.
    """
    seed = scenario.seed if seed is None else count(seed, "seed")
    realized, controls, qubits = _placement_stage(scenario)
    _, _, excited, _, _, transfer = _integrals_stage(realized, controls, qubits)
    lines, _, _ = _spectra_stage(realized, transfer, seed)
    return realized, lines, excited


def run_feasibility(scenario: Scenario, seed: int = None) -> FeasibilityReport:
    """Run the full pipeline on one scenario and collect the report."""
    seed = scenario.seed if seed is None else count(seed, "seed")
    realized, controls, qubits = _placement_stage(scenario)
    to_qubit, reach, excited, ground, to_control, transfer = \
        _integrals_stage(realized, controls, qubits)
    lines, line_rows, resolvable = _spectra_stage(realized, transfer, seed)
    gate_records = _spins_stage(realized, controls, qubits, excited, reach)
    configuration = _configure_stage(realized, lines, controls, qubits, excited, reach,
                                     gate_records)

    c_labels, q_labels = controls[0], qubits[0]
    ci, qi = np.nonzero(reach)
    exchange = tuple(
        {"control": c_labels[i], "qubit": q_labels[k], "separation_a": s,
         "j_excited_mev": je, "j_ground_mev": jg}
        for i, k, s, je, jg in zip(ci.tolist(), qi.tolist(), to_qubit[ci, qi].tolist(),
                                   excited[ci, qi].tolist(), ground[ci, qi].tolist()))
    ia, ib = np.triu_indices(len(c_labels), 1)
    t = transfer[ia, ib]
    transfer_rows = tuple(
        {"pair": [c_labels[i], c_labels[j]], "separation_a": s, "transfer_mev": tm,
         "splitting_mev": split}
        for i, j, s, tm, split in zip(ia.tolist(), ib.tolist(), to_control[ia, ib].tolist(),
                                      t.tolist(), _splitting(t).tolist()))

    targets = {
        "qubits_met": len(q_labels) >= scenario.n_qubit_target,
        "gates_met": len(gate_records) >= scenario.n_gate_target,
        "n_qubit_target": scenario.n_qubit_target,
        "n_gate_target": scenario.n_gate_target,
    }
    return FeasibilityReport(
        scenario_name=scenario.name,
        seed=seed,
        placements=tuple((p.label, p.species, p.position_a)
                         for p in realized.placements),
        n_controls=len(c_labels),
        n_qubits=len(q_labels),
        exchange=exchange,
        transfer=transfer_rows,
        lines=tuple(line_rows),
        resolvable_gates=resolvable,
        gates=tuple(gate_records),
        configuration=configuration,
        targets=targets,
    )


@dataclass(frozen=True)
class PatchStatistics:
    """Distribution of patch outcomes over independent doping realizations."""

    n_patches: int
    seed: int
    qubit_counts: dict
    control_counts: dict
    gate_counts: dict
    fraction_meeting_gate_target: float
    n_gate_target: int

    def to_dict(self) -> dict:
        return {
            "n_patches": self.n_patches,
            "seed": self.seed,
            "qubit_counts": {str(k): v for k, v in sorted(self.qubit_counts.items())},
            "control_counts": {str(k): v for k, v in sorted(self.control_counts.items())},
            "gate_counts": {str(k): v for k, v in sorted(self.gate_counts.items())},
            "fraction_meeting_gate_target": self.fraction_meeting_gate_target,
            "n_gate_target": self.n_gate_target,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary_rows(self):
        rows = [("n_patches", self.n_patches), ("seed", self.seed),
                ("n_gate_target", self.n_gate_target),
                ("fraction_meeting_gate_target", self.fraction_meeting_gate_target)]
        rows += [(f"patches_with_{k}_gates", v)
                 for k, v in sorted(self.gate_counts.items())]
        return rows


@_stage("placement")
def _dope_patch(scenario, seed) -> DopedRegion:
    """The doped region of a random-placement scenario at one placement seed."""
    rp = scenario.random_placement
    return place_dopants(scenario.lattice, rp.concentration, dict(rp.mix), seed)


@functools.lru_cache(maxsize=8)
def _coupling_table(control, qubit, lattice_constant: float, cutoff: float) -> np.ndarray:
    """Excited-state J of one (control model, qubit model) pair, indexed by
    the squared separation n in units of a/4: read-only, priced by one
    `exchange_curve` over sqrt(n) * a/4 for every n = |s|^2 of a site s
    within `cutoff` (a pair's separation is plus or minus a site), 0
    elsewhere. A curve row does not depend on its grid, so an entry equals
    the curve at that separation bit for bit. A pricing that raises is not
    kept."""
    sites = _integer_sites(lattice_constant, cutoff).astype(np.int64)
    n = np.unique((sites * sites).sum(1))[1:]  # n = 0 is the origin
    table = np.zeros(n[-1] + 1)
    table[n] = exchange_curve(control, qubit, True,
                              np.sqrt(n) * (lattice_constant / 4.0)).exchange_splitting_mev
    table.flags.writeable = False
    return table


@_stage("integrals")
def _patch_tally(scenario, region) -> tuple:
    """Counts of qubits, controls and gate-capable controls in one doped region.

    A control is gate-capable with two or more excited-state qubit couplings
    at or above the gate floor, as the spins stage needs for a gate record;
    no spectra, spins or scan work, so patch sweeps stay cheap. Each pair's
    integer squared separation n comes from the integer sites, and its J is
    read at n from the `_coupling_table` of its (control species, qubit
    species) group, over the cutoff or the patch's diameter if that is
    shorter; a warm table prices nothing and calls no curve.
    """
    kind, is_control = _species_kinds(scenario, region.species)
    c_kind, q_kind = kind[is_control], kind[~is_control]
    controls = region.sites[is_control].astype(np.int64)
    qubits = region.sites[~is_control].astype(np.int64)

    n2 = np.zeros((len(controls), len(qubits)), dtype=np.int64)
    for axis in range(3):
        d = controls[:, axis, None] - qubits[None, :, axis]
        n2 += d * d
    if not n2.all():
        # the labels realize_placements gives: per role, in site order
        i, j = np.argwhere(n2 == 0)[0]
        raise InvalidSpecError(f"C{i + 1} and Q{j + 1} share a site")
    a, cutoff = scenario.lattice.lattice_constant, scenario.pair_cutoff_a
    ci, qi = np.nonzero(np.sqrt(n2) * (a / 4.0) <= cutoff)
    n = n2[ci, qi]

    # no pair spans more than the diameter; a/4 of slack keeps its own n
    # where rounding puts the radius a hair short of its shell
    reach = min(cutoff, 2.0 * scenario.lattice.bounding_radius + a / 4.0)
    j = np.empty(len(n))
    for models, member in _species_groups(scenario, c_kind[ci], q_kind[qi]):
        j[member] = _coupling_table(*models, a, reach)[n[member]]
    strong = np.abs(j) >= scenario.min_gate_coupling_mev
    gates = np.count_nonzero(np.bincount(ci[strong], minlength=len(controls)) >= 2)
    return len(qubits), len(controls), int(gates)


def patch_statistics(scenario: Scenario, n_patches: int,
                     seed: int = None) -> PatchStatistics:
    """Dope `n_patches` independent patches and tally what each could host."""
    if scenario.random_placement is None:
        raise InvalidSpecError("patch statistics need a random placement spec")
    n_patches = count(n_patches, "n_patches")
    if n_patches < 1:
        raise InvalidSpecError("n_patches must be >= 1")
    seed = scenario.seed if seed is None else count(seed, "seed")

    children = np.random.SeedSequence(seed).spawn(n_patches)
    qubit_counts, control_counts, gate_counts = {}, {}, {}
    met = 0
    for child in children:
        region = _dope_patch(scenario, int(child.generate_state(1)[0]))
        n_qubits, n_controls, gates = _patch_tally(scenario, region)
        qubit_counts[n_qubits] = qubit_counts.get(n_qubits, 0) + 1
        control_counts[n_controls] = control_counts.get(n_controls, 0) + 1
        gate_counts[gates] = gate_counts.get(gates, 0) + 1
        if gates >= scenario.n_gate_target:
            met += 1
    return PatchStatistics(
        n_patches=n_patches,
        seed=seed,
        qubit_counts=qubit_counts,
        control_counts=control_counts,
        gate_counts=gate_counts,
        fraction_meeting_gate_target=met / n_patches,
        n_gate_target=scenario.n_gate_target,
    )
