"""Effective-mass donor models and the thermal-initialization check.

A model is estimated from an ionization energy by the scaling relations

    m*/m0 = eps^2 * R_c / 13.6 eV
    a*    = 0.529 A * eps / (m*/m0) = 0.529 A * (13.6 eV / eps) / R_c

with R_c the Coulombic part of the binding (total binding minus any central
cell split). A central cell term deepens the level without shrinking the
hydrogenic envelope, so a* always follows the Coulombic part alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .constants import BOHR_ANGSTROM, K_B_MEV_PER_K, MU_B_MEV_PER_T, RYDBERG_EV
from .errors import InvalidModelError, finite, store_finite, text

_ROLES = ("qubit", "control")


@dataclass(frozen=True)
class DonorModel:
    """Effective-mass parameters of one dopant species."""

    species_name: str
    role: str
    binding_energy_ev: float
    dielectric_constant: float
    effective_bohr_radius_a: float
    central_cell_split_ev: float = 0.0
    radius_scale_factor: float = 1.0
    spin: float = 0.5
    t1_s: float | None = None
    t2_s: float | None = None

    def __post_init__(self):
        store_finite(self, "binding_energy_ev", "dielectric_constant",
                     "effective_bohr_radius_a", "central_cell_split_ev",
                     "radius_scale_factor", "spin", "t1_s", "t2_s",
                     error=InvalidModelError)
        text(self.species_name, "species_name", InvalidModelError)
        if self.role not in _ROLES:
            raise InvalidModelError(f"role must be one of {_ROLES}")
        if self.binding_energy_ev <= 0:
            raise InvalidModelError("binding energy must be positive")
        if not (0.0 <= self.central_cell_split_ev < self.binding_energy_ev):
            raise InvalidModelError("central cell split must lie in [0, binding)")
        if self.dielectric_constant <= 1.0:
            raise InvalidModelError("dielectric constant must exceed 1")
        if self.effective_bohr_radius_a <= 0:
            raise InvalidModelError("effective Bohr radius must be positive")
        if not (0.0 < self.radius_scale_factor <= 1.0):
            raise InvalidModelError("radius_scale_factor must lie in (0, 1]")
        for name in ("t1_s", "t2_s"):
            if getattr(self, name) is not None and getattr(self, name) <= 0:
                raise InvalidModelError(f"{name} must be positive when given")

    @property
    def coulombic_binding_ev(self) -> float:
        return self.binding_energy_ev - self.central_cell_split_ev

    def ground_orbital_radius_a(self) -> float:
        """1s envelope radius used in pair integrals (compactness applied)."""
        return self.effective_bohr_radius_a * self.radius_scale_factor

    def excited_orbital_radius_a(self) -> float:
        """Bohr-radius parameter of the 2p envelope (decay length is twice this)."""
        return self.effective_bohr_radius_a


def model_from_ionization(
    species_name: str,
    binding_energy_ev: float,
    dielectric_constant: float,
    central_cell_split_ev: float = 0.0,
    role: str = "control",
    radius_scale_factor: float = 1.0,
    spin: float = 0.5,
    t1_s: float | None = None,
    t2_s: float | None = None,
) -> DonorModel:
    """Donor model from a measured or assumed ionization energy."""
    r_c = binding_energy_ev - central_cell_split_ev
    if r_c <= 0:
        raise InvalidModelError("Coulombic part of the binding must be positive")
    a_star = BOHR_ANGSTROM * (RYDBERG_EV / dielectric_constant) / r_c
    return DonorModel(
        species_name=species_name,
        role=role,
        binding_energy_ev=binding_energy_ev,
        central_cell_split_ev=central_cell_split_ev,
        dielectric_constant=dielectric_constant,
        effective_bohr_radius_a=a_star,
        radius_scale_factor=radius_scale_factor,
        spin=spin,
        t1_s=t1_s,
        t2_s=t2_s,
    )


@dataclass(frozen=True)
class ZeemanCheck:
    """Zeeman-versus-thermal energy comparison for spin initialization."""

    g_factor: float
    field_t: float
    temperature_k: float
    ratio: float
    polarization: float


def zeeman_check(g_factor: float, field_t: float, temperature_k: float) -> ZeemanCheck:
    """Equilibrium spin polarization tanh(g mu_B B / 2 k T); inputs finite."""
    g_factor, field_t, temperature_k = (finite(v, name, InvalidModelError) for v, name in (
        (g_factor, "g_factor"), (field_t, "field_t"), (temperature_k, "temperature_k")))
    if temperature_k <= 0:
        raise InvalidModelError("temperature must be positive")
    ratio = g_factor * MU_B_MEV_PER_T * field_t / (K_B_MEV_PER_K * temperature_k)
    return ZeemanCheck(
        g_factor=g_factor,
        field_t=field_t,
        temperature_k=temperature_k,
        ratio=ratio,
        polarization=math.tanh(ratio / 2.0),
    )


def with_radius_scale(model: DonorModel, scale: float) -> DonorModel:
    """Copy of `model` with a different compactness factor."""
    return replace(model, radius_scale_factor=scale)
