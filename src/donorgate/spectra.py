"""Optical transition lines of the controls, and how many gates they resolve.

Each control donor carries one optical transition. Overlap with other excited
controls shifts it deterministically: the shared excitation delocalizes, so
the branch energies are the eigenvalues of the one-excitation hopping
matrix, whose off-diagonals are the transfer amplitudes of the control pairs.
Strain and charged-defect fields shift it randomly. The spread of these
shifts across a patch is the inhomogeneous width, and it is a resource:
lines far enough apart can be addressed one at a time, so the number of
usable gates is the number of lines that remain pairwise separated on the
scale of the homogeneous width.

All width parameters are full widths at half maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HC_MEV_NM
from .errors import (InvalidSpecError, PreconditionError, finite, finite_matrix,
                     store_finite, text)

# FWHM of a unit-sigma Gaussian
GAUSSIAN_FWHM = 2.0 * math.sqrt(2.0 * math.log(2.0))

_RESERVED_COMPONENT = "overlap"


def wavelength_to_mev(wavelength_nm: float) -> float:
    return HC_MEV_NM / wavelength_nm


def wavelength_width_to_mev(width_nm: float, wavelength_nm: float) -> float:
    """Linewidth quoted in nm converted to meV at the given wavelength."""
    return HC_MEV_NM * width_nm / wavelength_nm**2


def _check_resolution(fwhm_mev: float, factor: float, error) -> None:
    """Lines are resolved on a finite, positive homogeneous width, scaled by
    a finite resolution factor of at least 1."""
    if finite(fwhm_mev, "homogeneous width", error) <= 0:
        raise error("homogeneous width must be positive")
    if finite(factor, "resolution factor", error) < 1.0:
        raise error("resolution factor below 1 merges adjacent lines")


@dataclass(frozen=True)
class SpectralModel:
    """Transition energy scale and linewidth budget for the control species.

    `disorder_components` are independent zero-mean Gaussian shift sources,
    (name, FWHM in meV) pairs; their quadrature sum is the inhomogeneous
    width. `resolution_factor` is the separation demanded between lines, in
    units of the homogeneous width.
    """

    base_transition_mev: float
    homogeneous_fwhm_mev: float
    disorder_components: tuple = ()
    resolution_factor: float = 1.5

    def __post_init__(self):
        store_finite(self, "base_transition_mev", "homogeneous_fwhm_mev",
                     "resolution_factor")
        # kept in the given order: it fixes the order of the random draws
        components = tuple((text(n, "disorder component name"),
                            finite(w, f"disorder width {n!r}"))
                           for n, w in self.disorder_components)
        object.__setattr__(self, "disorder_components", components)
        if self.base_transition_mev <= 0:
            raise InvalidSpecError("base_transition_mev must be positive")
        _check_resolution(self.homogeneous_fwhm_mev, self.resolution_factor,
                          InvalidSpecError)
        names = [name for name, _ in components]
        if len(set(names)) != len(names):
            raise InvalidSpecError("disorder component names must be unique")
        if _RESERVED_COMPONENT in names:
            raise InvalidSpecError(f"component name '{_RESERVED_COMPONENT}' is reserved")
        if any(width < 0 for _, width in components):
            raise InvalidSpecError("disorder widths must be non-negative")


@dataclass(frozen=True)
class TransitionLine:
    """One control's optical line: energy, homogeneous width, and the
    per-source breakdown of its displacement from the bare transition."""

    gate_id: str
    energy_mev: float
    width_mev: float
    shift_breakdown: tuple

    def shift_mev(self) -> float:
        return sum(value for _, value in self.shift_breakdown)


def gate_transitions(scenario, transfer, seed=None) -> list:
    """Optical lines for every control in the scenario, from its spectral
    model (`scenario.spectral`).

    `transfer` is the controls' hopping matrix in meV, in
    `scenario.controls()` order: entry (i, j) is the `transfer_mev` of
    `integrals.transfer_splitting_curve` at the separation of controls i and
    j, and the diagonal is zero; any other matrix (see also
    `errors.finite_matrix`) raises PreconditionError. The transition energies are base + its eigenvalues, assigned to the
    controls in label order, ascending in energy; an isolated control's
    shift is exactly zero. Random shift components are drawn one control at
    a time in label order, so a fixed seed fixes the lines.
    """
    controls = [label for label, _ in scenario.controls()]
    m = len(controls)
    transfer = finite_matrix(transfer, (m, m), "transfer matrix")
    if not np.array_equal(transfer, transfer.T) or transfer.diagonal().any():
        raise PreconditionError("transfer matrix must be symmetric, with a zero diagonal")
    if not m:
        return []
    order = sorted(range(m), key=controls.__getitem__)
    shifts = np.linalg.eigvalsh(transfer[np.ix_(order, order)])
    spectral = scenario.spectral

    rng = np.random.default_rng(seed)
    lines = []
    for i, overlap in zip(order, shifts):
        breakdown = [(_RESERVED_COMPONENT, float(overlap))]
        for name, width in spectral.disorder_components:
            breakdown.append((name, float(rng.normal(0.0, width / GAUSSIAN_FWHM))))
        energy = spectral.base_transition_mev + sum(v for _, v in breakdown)
        lines.append(TransitionLine(
            gate_id=controls[i],
            energy_mev=energy,
            width_mev=spectral.homogeneous_fwhm_mev,
            shift_breakdown=tuple(breakdown),
        ))
    return lines


def resolvable_gate_count(lines, homogeneous_fwhm_mev: float,
                          resolution_factor: float = 1.5) -> int:
    """Size of the largest subset of lines pairwise separated by at least
    resolution_factor * homogeneous width.

    Counted greedily left to right after sorting; on sorted energies that
    rule is exact, not a heuristic. Accepts TransitionLine objects or bare
    energies in meV.
    """
    energies = sorted(
        line.energy_mev if isinstance(line, TransitionLine) else float(line)
        for line in lines
    )
    if not energies:
        raise PreconditionError("need at least one line")
    _check_resolution(homogeneous_fwhm_mev, resolution_factor, PreconditionError)
    gap = resolution_factor * homogeneous_fwhm_mev
    count = 1
    last = energies[0]
    for energy in energies[1:]:
        if energy - last >= gap * (1.0 - 1e-12):
            count += 1
            last = energy
    return count
