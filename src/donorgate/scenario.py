"""Scenario definition: the full input record for one feasibility study.

A scenario bundles the region, the donor species, where they sit (explicit
coordinates or a random doping spec), the optical and EPR measurement
models, and the thresholds and targets the report is judged against. It
serializes to a versioned JSON schema with unknown keys rejected, so a saved
file regenerates its outputs exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .configure import EprModel
from .constants import DIAMOND_LATTICE_CONSTANT
from .donor import DonorModel, model_from_ionization
from .errors import InvalidSpecError, ScenarioValidationError
from .lattice import LatticeSpec
from .spectra import (GAUSSIAN_FWHM, SpectralModel, wavelength_to_mev,
                      wavelength_width_to_mev)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Placement:
    label: str
    species: str
    position_a: tuple

    def __post_init__(self):
        pos = tuple(float(x) for x in self.position_a)
        if len(pos) == 2:
            pos = pos + (0.0,)
        if len(pos) != 3:
            raise InvalidSpecError(f"placement {self.label!r}: position must be 2D or 3D")
        object.__setattr__(self, "position_a", pos)
        object.__setattr__(self, "label", str(self.label))
        object.__setattr__(self, "species", str(self.species))


@dataclass(frozen=True)
class RandomPlacementSpec:
    concentration: float
    mix: tuple  # ((species_name, fraction), ...)
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.concentration < 1.0:
            raise InvalidSpecError("concentration must be in [0, 1)")
        mix = tuple(sorted((str(n), float(f)) for n, f in (
            self.mix.items() if hasattr(self.mix, "items") else self.mix)))
        if not mix or abs(sum(f for _, f in mix) - 1.0) > 1e-9:
            raise InvalidSpecError("species mix fractions must sum to 1")
        if any(f < 0 for _, f in mix):
            raise InvalidSpecError("mix fractions must be non-negative")
        object.__setattr__(self, "mix", mix)
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class Scenario:
    name: str
    lattice: LatticeSpec
    species: tuple
    spectral: SpectralModel
    epr: EprModel
    placements: tuple = None
    random_placement: RandomPlacementSpec = None
    detection_threshold_mev: float = 1.0
    min_gate_coupling_mev: float = 1.0
    pair_cutoff_a: float = 40.0
    excitation_energy_mev: float = 600.0
    n_qubit_target: int = 0
    n_gate_target: int = 0
    seed: int = 0
    metadata: tuple = ()

    def __post_init__(self):
        if (self.placements is None) == (self.random_placement is None):
            raise InvalidSpecError(
                "exactly one of explicit placements or a random spec is required")
        species = tuple(self.species)
        names = [s.species_name for s in species]
        if len(set(names)) != len(names):
            raise InvalidSpecError("species names must be unique")
        if self.placements is not None:
            placements = tuple(self.placements)
            labels = [p.label for p in placements]
            if len(set(labels)) != len(labels):
                raise InvalidSpecError("placement labels must be unique")
            missing = {p.species for p in placements} - set(names)
            if missing:
                raise InvalidSpecError(f"placements reference unknown species {sorted(missing)}")
            object.__setattr__(self, "placements", placements)
            by_name = dict(zip(names, species))
            # label -> species model, built once; not a dataclass field, so
            # it stays out of equality, repr and serialization
            object.__setattr__(self, "_model_of",
                               {p.label: by_name[p.species] for p in placements})
        else:
            missing = {n for n, _ in self.random_placement.mix} - set(names)
            if missing:
                raise InvalidSpecError(f"random mix references unknown species {sorted(missing)}")
        for value, what in ((self.detection_threshold_mev, "detection threshold"),
                            (self.min_gate_coupling_mev, "gate coupling floor"),
                            (self.pair_cutoff_a, "pair cutoff"),
                            (self.excitation_energy_mev, "excitation energy")):
            if value <= 0:
                raise InvalidSpecError(f"{what} must be positive")
        object.__setattr__(self, "species", species)
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "metadata",
                           tuple((str(k), str(v)) for k, v in self.metadata))

    # -- accessors ---------------------------------------------------------

    def species_by_name(self, name: str) -> DonorModel:
        for s in self.species:
            if s.species_name == name:
                return s
        raise InvalidSpecError(f"unknown species {name!r}")

    def model_for(self, label: str) -> DonorModel:
        self.require_placements()
        try:
            return self._model_of[label]
        except KeyError:
            raise InvalidSpecError(f"unknown placement label {label!r}") from None

    def require_placements(self) -> tuple:
        if self.placements is None:
            raise InvalidSpecError(
                "placements are random; realize them (feasibility pipeline) first")
        return self.placements

    def _of_role(self, role: str):
        return [(p.label, np.asarray(p.position_a))
                for p in self.require_placements()
                if self._model_of[p.label].role == role]

    def controls(self):
        return self._of_role("control")

    def qubits(self):
        return self._of_role("qubit")

    def qubits_without_epr_offset(self) -> list:
        """Labels of placed qubits that an explicit offset table misses; a
        sampled spread covers every qubit."""
        if self.epr.zeeman_offsets_mev is None:
            return []
        table = dict(self.epr.zeeman_offsets_mev)
        return [l for l, _ in self.qubits() if l not in table]

    def qubit_epr_offsets(self) -> tuple:
        """(label, meV) EPR line positions for every placed qubit: explicit
        offsets when the EPR model has them, otherwise sampled from the
        configured spread with the scenario seed."""
        labels = [l for l, _ in self.qubits()]
        if self.epr.zeeman_offsets_mev is not None:
            missing = self.qubits_without_epr_offset()
            if missing:
                raise InvalidSpecError(f"no EPR offset for qubits {missing}")
            table = dict(self.epr.zeeman_offsets_mev)
            return tuple((l, table[l]) for l in labels)
        rng = np.random.default_rng([self.seed, 0xE9])
        sigma = self.epr.zeeman_spread_fwhm_mev / GAUSSIAN_FWHM
        return tuple((l, float(rng.normal(0.0, sigma))) for l in sorted(labels))

    def with_placements(self, placements) -> "Scenario":
        """Same scenario with realized explicit placements."""
        return replace(self, placements=tuple(placements), random_placement=None)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "seed": self.seed,
            "lattice": {
                "bounding_radius_a": self.lattice.bounding_radius,
                "lattice_constant_a": self.lattice.lattice_constant,
            },
            "species": [_species_to_dict(s) for s in self.species],
            "spectral": {
                "base_transition_mev": self.spectral.base_transition_mev,
                "homogeneous_fwhm_mev": self.spectral.homogeneous_fwhm_mev,
                "disorder_components": [list(c) for c in self.spectral.disorder_components],
                "resolution_factor": self.spectral.resolution_factor,
            },
            "epr": {
                "linewidth_mev": self.epr.linewidth_mev,
                "zeeman_offsets_mev": (None if self.epr.zeeman_offsets_mev is None
                                       else {l: v for l, v in self.epr.zeeman_offsets_mev}),
                "zeeman_spread_fwhm_mev": self.epr.zeeman_spread_fwhm_mev,
            },
            "thresholds": {
                "detection_mev": self.detection_threshold_mev,
                "min_gate_coupling_mev": self.min_gate_coupling_mev,
                "pair_cutoff_a": self.pair_cutoff_a,
            },
            "targets": {"n_qubits": self.n_qubit_target, "n_gates": self.n_gate_target},
            "excitation_energy_mev": self.excitation_energy_mev,
            "metadata": {k: v for k, v in self.metadata},
        }
        if self.placements is not None:
            out["placements"] = [
                {"label": p.label, "species": p.species, "position_a": list(p.position_a)}
                for p in self.placements
            ]
        else:
            out["random_placement"] = {
                "concentration": self.random_placement.concentration,
                "mix": {n: f for n, f in self.random_placement.mix},
                "seed": self.random_placement.seed,
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


_SPECIES_KEYS = frozenset({
    "species_name", "role", "binding_energy_ev", "central_cell_split_ev",
    "dielectric_constant", "effective_bohr_radius_a", "radius_scale_factor",
    "spin", "t1_s", "t2_s"})


def _species_to_dict(s: DonorModel) -> dict:
    return {
        "species_name": s.species_name,
        "role": s.role,
        "binding_energy_ev": s.binding_energy_ev,
        "central_cell_split_ev": s.central_cell_split_ev,
        "dielectric_constant": s.dielectric_constant,
        "effective_bohr_radius_a": s.effective_bohr_radius_a,
        "radius_scale_factor": s.radius_scale_factor,
        "spin": s.spin,
        "t1_s": s.t1_s,
        "t2_s": s.t2_s,
    }


def _check_keys(mapping: dict, allowed: set, required: set, path: str):
    unknown = set(mapping) - allowed
    if unknown:
        raise ScenarioValidationError(
            f"unknown key(s) {sorted(unknown)}", path=path)
    missing = required - set(mapping)
    if missing:
        raise ScenarioValidationError(
            f"missing required key(s) {sorted(missing)}", path=path)


def scenario_from_dict(data: dict, path: str = "scenario") -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioValidationError("scenario must be a JSON object", path=path)
    _check_keys(
        data,
        allowed={"schema_version", "name", "seed", "lattice", "species",
                 "placements", "random_placement", "spectral", "epr",
                 "thresholds", "targets", "excitation_energy_mev", "metadata"},
        required={"schema_version", "name", "lattice", "species", "spectral", "epr"},
        path=path,
    )
    if data["schema_version"] != SCHEMA_VERSION:
        raise ScenarioValidationError(
            f"unsupported schema_version {data['schema_version']!r} "
            f"(this build reads {SCHEMA_VERSION})", path=f"{path}.schema_version")

    lat = data["lattice"]
    _check_keys(lat, {"bounding_radius_a", "lattice_constant_a"},
                {"bounding_radius_a"}, f"{path}.lattice")
    lattice = LatticeSpec(
        bounding_radius=float(lat["bounding_radius_a"]),
        lattice_constant=float(lat.get("lattice_constant_a", DIAMOND_LATTICE_CONSTANT)),
    )

    species = []
    for k, sd in enumerate(data["species"]):
        spath = f"{path}.species[{k}]"
        _check_keys(sd, _SPECIES_KEYS,
                    {"species_name", "role", "binding_energy_ev",
                     "dielectric_constant", "effective_bohr_radius_a"}, spath)
        try:
            species.append(DonorModel(**{"central_cell_split_ev": 0.0, **sd}))
        except Exception as err:
            raise ScenarioValidationError(str(err), path=spath) from err

    spec = data["spectral"]
    _check_keys(spec, {"base_transition_mev", "homogeneous_fwhm_mev",
                       "disorder_components", "resolution_factor"},
                {"base_transition_mev", "homogeneous_fwhm_mev"}, f"{path}.spectral")
    spectral = SpectralModel(
        base_transition_mev=float(spec["base_transition_mev"]),
        homogeneous_fwhm_mev=float(spec["homogeneous_fwhm_mev"]),
        disorder_components=tuple((n, w) for n, w in spec.get("disorder_components", [])),
        resolution_factor=float(spec.get("resolution_factor", 1.5)),
    )

    epr_d = data["epr"]
    _check_keys(epr_d, {"linewidth_mev", "zeeman_offsets_mev", "zeeman_spread_fwhm_mev"},
                {"linewidth_mev"}, f"{path}.epr")
    offsets = epr_d.get("zeeman_offsets_mev")
    epr = EprModel(
        linewidth_mev=float(epr_d["linewidth_mev"]),
        zeeman_offsets_mev=(None if offsets is None else tuple(sorted(offsets.items()))),
        zeeman_spread_fwhm_mev=epr_d.get("zeeman_spread_fwhm_mev"),
    )

    placements = None
    random_placement = None
    if "placements" in data and "random_placement" in data:
        raise ScenarioValidationError(
            "placements and random_placement are mutually exclusive", path=path)
    if "placements" in data:
        placements = []
        for k, pd in enumerate(data["placements"]):
            ppath = f"{path}.placements[{k}]"
            _check_keys(pd, {"label", "species", "position_a"},
                        {"label", "species", "position_a"}, ppath)
            try:
                placements.append(Placement(pd["label"], pd["species"],
                                            tuple(pd["position_a"])))
            except Exception as err:
                raise ScenarioValidationError(str(err), path=ppath) from err
    elif "random_placement" in data:
        rd = data["random_placement"]
        _check_keys(rd, {"concentration", "mix", "seed"},
                    {"concentration", "mix", "seed"}, f"{path}.random_placement")
        random_placement = RandomPlacementSpec(
            concentration=float(rd["concentration"]),
            mix=tuple(sorted(rd["mix"].items())),
            seed=int(rd["seed"]),
        )
    else:
        raise ScenarioValidationError(
            "one of placements or random_placement is required", path=path)

    thr = data.get("thresholds", {})
    _check_keys(thr, {"detection_mev", "min_gate_coupling_mev", "pair_cutoff_a"},
                set(), f"{path}.thresholds")
    targets = data.get("targets", {})
    _check_keys(targets, {"n_qubits", "n_gates"}, set(), f"{path}.targets")

    try:
        return Scenario(
            name=str(data["name"]),
            lattice=lattice,
            species=tuple(species),
            spectral=spectral,
            epr=epr,
            placements=None if placements is None else tuple(placements),
            random_placement=random_placement,
            detection_threshold_mev=float(thr.get("detection_mev", 1.0)),
            min_gate_coupling_mev=float(thr.get("min_gate_coupling_mev", 1.0)),
            pair_cutoff_a=float(thr.get("pair_cutoff_a", 40.0)),
            excitation_energy_mev=float(data.get("excitation_energy_mev", 600.0)),
            n_qubit_target=int(targets.get("n_qubits", 0)),
            n_gate_target=int(targets.get("n_gates", 0)),
            seed=int(data.get("seed", 0)),
            metadata=tuple(sorted(data.get("metadata", {}).items())),
        )
    except InvalidSpecError as err:
        raise ScenarioValidationError(str(err), path=path) from err


def load_scenario(file) -> Scenario:
    """Read and validate a scenario JSON file (path or open handle)."""
    if hasattr(file, "read"):
        text, where = file.read(), getattr(file, "name", "<stream>")
    else:
        where = str(file)
        with open(file, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioValidationError(
            f"invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}",
            path=where) from err
    return scenario_from_dict(data, path=where)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario.to_json())
        fh.write("\n")


# ---------------------------------------------------------------------------
# built-in presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvePreset:
    """Inputs for one of the canonical curve artifacts."""

    kind: str  # "exchange_curve" | "splitting_curve"
    control: DonorModel
    qubit: DonorModel
    r_grid: tuple
    base_transition_mev: float = 600.0


def _control_06() -> DonorModel:
    return model_from_ionization("P", 0.6, 5.7, role="control")


def _control_04() -> DonorModel:
    return model_from_ionization("P", 0.4, 5.7, role="control")


def _qubit_for(control: DonorModel) -> DonorModel:
    """Compact qubit paired with `control`: same binding and dielectric
    constant, radius_scale_factor 0.5 on its ground orbital.

    The qubit radius is tied to the control's energy scale (the half-radius
    scoping convention), not to the qubit species' own deep level, which
    lies outside effective-mass validity.
    """
    return model_from_ionization(
        "N", control.binding_energy_ev, control.dielectric_constant,
        role="qubit", radius_scale_factor=0.5, t1_s=1e-3)


def _grid(lo: float, hi: float, step: float) -> tuple:
    return tuple(np.round(np.arange(lo, hi + step / 2, step), 9))


def _table1_scenario() -> Scenario:
    a, d = 12.0, 9.0
    control = _control_06()
    qubit = _qubit_for(control)
    placements = (
        Placement("C1", "P", (-a, 0.0)),
        Placement("C2", "P", (a, 0.0)),
        Placement("Q1", "N", (-a - d, d / 2)),
        Placement("Q2", "N", (-0.1 * a, d)),
        Placement("Q3", "N", (a, -d)),
    )
    return Scenario(
        name="table1",
        lattice=LatticeSpec(bounding_radius=40.0),
        species=(control, qubit),
        spectral=SpectralModel(base_transition_mev=600.0,
                               homogeneous_fwhm_mev=1.1,
                               disorder_components=(),
                               resolution_factor=1.5),
        epr=EprModel(linewidth_mev=0.05,
                     zeeman_offsets_mev=(("Q1", 0.0), ("Q2", 1.0), ("Q3", 2.0))),
        placements=placements,
        detection_threshold_mev=1.0,
        min_gate_coupling_mev=1.0,
        excitation_energy_mev=600.0,
        n_qubit_target=3,
        n_gate_target=2,
        seed=11,
        metadata=(
            ("geometry", f"two controls at x = +/-{a} A, qubits from the "
                         f"published five-dopant layout with d = {d} A"),
            ("geometry_note", "the layout is quoted with both a = 10 A and "
                              "a = 12 A; only 12 reproduces the pair "
                              "separation column, so 12 is used here"),
        ),
    )


def _shen_nv_spectral() -> SpectralModel:
    wavelength = 637.0  # nm, NV- zero-phonon line
    return SpectralModel(
        base_transition_mev=wavelength_to_mev(wavelength),
        homogeneous_fwhm_mev=wavelength_width_to_mev(0.36, wavelength),
        disorder_components=(
            ("inhomogeneous", wavelength_width_to_mev(5.0, wavelength)),),
        resolution_factor=1.5,
    )


_PRESETS = {
    "table1": ("scenario", _table1_scenario,
               "five-dopant gate cluster, explicit coordinates"),
    "fig2a": ("curve", lambda: CurvePreset(
        "exchange_curve", _control_06(), _qubit_for(_control_06()),
        _grid(4.0, 16.0, 0.5)),
        "exchange vs separation, 0.6 eV model, half-radius qubit"),
    "fig2b": ("curve", lambda: CurvePreset(
        "exchange_curve", _control_04(), _qubit_for(_control_04()),
        _grid(4.0, 24.0, 0.5)),
        "exchange vs separation, 0.4 eV model, half-radius qubit"),
    "fig3": ("curve", lambda: CurvePreset(
        "splitting_curve", _control_06(), _qubit_for(_control_06()),
        _grid(10.0, 25.0, 0.5)),
        "excitation-sharing splitting of two controls vs separation"),
    "shen-nv": ("spectral", _shen_nv_spectral,
                "linewidths from NV- ensemble spectroscopy, 0.36 nm / 5 nm at 637 nm"),
}


def get_preset(name: str):
    """(kind, object) for a built-in preset; kinds: scenario, curve, spectral."""
    try:
        kind, build, _ = _PRESETS[name]
    except KeyError:
        raise InvalidSpecError(
            f"unknown preset {name!r}; available: {', '.join(sorted(_PRESETS))}")
    return kind, build()


def list_presets() -> list:
    """(name, kind, summary) rows for every built-in preset."""
    return [(name, kind, summary)
            for name, (kind, _, summary) in sorted(_PRESETS.items())]
