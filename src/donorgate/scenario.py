"""Scenario definition: the full input record for one feasibility study.

A scenario bundles the region, the donor species, where they sit (explicit
coordinates or a random doping spec), the optical and EPR measurement
models, and the thresholds and targets the report is judged against. It
serializes to a versioned JSON schema with unknown keys rejected, so a saved
file regenerates its outputs exactly.

The schema lives in the records themselves: each JSON section holds one
record's dataclass fields, a field without a default is a required key, and
the record's `__post_init__` checks and normalises every value. The one key
table `_KEYS` names the few keys that differ from their field names; the
writer (`Scenario.to_dict`) and the reader (`scenario_from_dict`) both walk
it.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace

import numpy as np

from .configure import EprModel
from .donor import DonorModel, model_from_ionization
from .errors import (DonorgateError, InvalidSpecError, ScenarioValidationError,
                     count, finite, sorted_pairs, store_finite, text)
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
        text(self.label, "placement label")
        text(self.species, f"placement {self.label!r} species")
        pos = tuple(finite(x, f"placement {self.label!r} coordinate")
                    for x in self.position_a)
        if len(pos) == 2:
            pos = pos + (0.0,)
        if len(pos) != 3:
            raise InvalidSpecError(f"placement {self.label!r}: position must be 2D or 3D")
        object.__setattr__(self, "position_a", pos)


@dataclass(frozen=True)
class RandomPlacementSpec:
    concentration: float
    mix: tuple  # ((species_name, fraction), ...)
    seed: int

    def __post_init__(self):
        store_finite(self, "concentration")
        if not 0.0 <= self.concentration < 1.0:
            raise InvalidSpecError("concentration must be in [0, 1)")
        mix = sorted_pairs(self.mix, lambda f: finite(f, "mix fraction"))
        if not mix or abs(sum(f for _, f in mix) - 1.0) > 1e-9:
            raise InvalidSpecError("species mix fractions must sum to 1")
        if any(f < 0 for _, f in mix):
            raise InvalidSpecError("mix fractions must be non-negative")
        object.__setattr__(self, "mix", mix)
        object.__setattr__(self, "seed", count(self.seed, "seed"))


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
    metadata: tuple = ()  # ((key, text), ...) by key

    def __post_init__(self):
        positive = ("detection_threshold_mev", "min_gate_coupling_mev",
                    "pair_cutoff_a", "excitation_energy_mev")
        store_finite(self, *positive)
        for name in positive:
            if getattr(self, name) <= 0:
                raise InvalidSpecError(f"{name} must be positive")
        for name in ("n_qubit_target", "n_gate_target", "seed"):
            object.__setattr__(self, name, count(getattr(self, name), name))
        text(self.name, "name")
        object.__setattr__(self, "metadata", sorted_pairs(
            self.metadata, lambda v: text(v, "metadata value")))
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
        object.__setattr__(self, "species", species)

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
        """(label, meV) EPR line positions of the placed qubits in label
        order: explicit offsets when the EPR model has them, otherwise
        sampled from the configured spread with the scenario seed."""
        labels = sorted(l for l, _ in self.qubits())
        if self.epr.zeeman_offsets_mev is not None:
            missing = self.qubits_without_epr_offset()
            if missing:
                raise InvalidSpecError(f"no EPR offset for qubits {missing}")
            table = dict(self.epr.zeeman_offsets_mev)
            return tuple((l, table[l]) for l in labels)
        rng = np.random.default_rng([self.seed, 0xE9])
        sigma = self.epr.zeeman_spread_fwhm_mev / GAUSSIAN_FWHM
        return tuple((l, float(rng.normal(0.0, sigma))) for l in labels)

    def with_placements(self, placements) -> "Scenario":
        """Same scenario with realized explicit placements."""
        return replace(self, placements=tuple(placements), random_placement=None)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        out = {"schema_version": SCHEMA_VERSION, **_write(self)}
        # only the placement source in use is written
        for key in ("placements", "random_placement"):
            if out[key] is None:
                del out[key]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


# The JSON key of every record field is its name, except these: a new name,
# or a "group.key" path that nests the field in a sub-object of its section.
_KEYS = {
    (LatticeSpec, "bounding_radius"): "bounding_radius_a",
    (LatticeSpec, "lattice_constant"): "lattice_constant_a",
    (Scenario, "detection_threshold_mev"): "thresholds.detection_mev",
    (Scenario, "min_gate_coupling_mev"): "thresholds.min_gate_coupling_mev",
    (Scenario, "pair_cutoff_a"): "thresholds.pair_cutoff_a",
    (Scenario, "n_qubit_target"): "targets.n_qubits",
    (Scenario, "n_gate_target"): "targets.n_gates",
}
# fields held as sorted (key, value) pairs, written as JSON objects
_OBJECTS = {(EprModel, "zeeman_offsets_mev"), (RandomPlacementSpec, "mix"),
            (Scenario, "metadata")}
# the scenario's sections that hold records, and those that hold lists of them
_RECORDS = {"lattice": LatticeSpec, "spectral": SpectralModel, "epr": EprModel,
            "random_placement": RandomPlacementSpec}
_RECORD_LISTS = {"species": DonorModel, "placements": Placement}


def _json_keys(cls) -> dict:
    return {f.name: _KEYS.get((cls, f.name), f.name) for f in fields(cls)}


def _plain(value):
    if is_dataclass(value):
        return _write(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _write(record) -> dict:
    out = {}
    for name, key in _json_keys(type(record)).items():
        value = getattr(record, name)
        if (type(record), name) in _OBJECTS and value is not None:
            value = dict(value)
        *group, key = key.split(".")
        section = out.setdefault(group[0], {}) if group else out
        section[key] = _plain(value)
    return out


def _expect(value, kind, path: str):
    if not isinstance(value, kind):
        raise ScenarioValidationError(
            f"must be a JSON {'object' if kind is dict else 'list'}, "
            f"got {type(value).__name__}", path=path)


def _read(cls, data, path: str):
    """`cls` built from its JSON section `data`, whose keys are the fields
    of `cls` under their `_KEYS` names; a field without a default is
    required. Any failure, the record's own checks included, is reported at
    `path`."""
    _expect(data, dict, path)
    keys = _json_keys(cls)
    groups = {key.split(".")[0] for key in keys.values() if "." in key}
    flat = {}
    for key, value in data.items():
        if key in groups:
            _expect(value, dict, f"{path}.{key}")
            flat.update({f"{key}.{k}": v for k, v in value.items()})
        else:
            flat[key] = value
    unknown = set(flat) - set(keys.values())
    if unknown:
        raise ScenarioValidationError(f"unknown key(s) {sorted(unknown)}", path=path)
    missing = {keys[f.name] for f in fields(cls) if f.default is MISSING} - set(flat)
    if missing:
        raise ScenarioValidationError(
            f"missing required key(s) {sorted(missing)}", path=path)
    kwargs = {name: flat[key] for name, key in keys.items() if key in flat}
    try:
        return cls(**kwargs)
    except (DonorgateError, TypeError, ValueError) as err:
        raise ScenarioValidationError(str(err), path=path) from err


def scenario_from_dict(data: dict, path: str = "scenario") -> Scenario:
    _expect(data, dict, path)
    data = dict(data)
    version = data.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise ScenarioValidationError(
            f"missing or unsupported schema_version {version!r} "
            f"(this build reads {SCHEMA_VERSION})", path=f"{path}.schema_version")
    for key, value in data.items():
        where = f"{path}.{key}"
        if key in _RECORDS:
            data[key] = _read(_RECORDS[key], value, where)
        elif key in _RECORD_LISTS:
            _expect(value, list, where)
            data[key] = tuple(_read(_RECORD_LISTS[key], item, f"{where}[{k}]")
                              for k, item in enumerate(value))
    return _read(Scenario, data, path)


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
