"""Optical transition bookkeeping: line placement, widths, resolvability."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from donorgate import (
    EprModel,
    InvalidSpecError,
    LatticeSpec,
    Placement,
    PreconditionError,
    Scenario,
    SpectralModel,
    TransitionLine,
    gate_transitions,
    model_from_ionization,
    resolvable_gate_count,
    transfer_splitting_curve,
    wavelength_to_mev,
    wavelength_width_to_mev,
)

CONTROL = model_from_ionization("P", 0.6, 5.7, role="control")
QUBIT = model_from_ionization("N", 0.6, 5.7, role="qubit", radius_scale_factor=0.5)
SPECTRAL = SpectralModel(600.0, 1.1, (), 1.5)
EPR = EprModel(0.05, zeeman_spread_fwhm_mev=4.0)


def _scenario(placements):
    return Scenario(
        name="probe",
        lattice=LatticeSpec(40.0),
        species=(CONTROL, QUBIT),
        spectral=SPECTRAL,
        epr=EPR,
        placements=tuple(placements),
    )


def test_wavelength_conversions():
    # hc = 1239841.9843 meV nm; both formulas written out by hand
    assert wavelength_to_mev(637.0) == pytest.approx(1239841.9843 / 637.0, rel=1e-12)
    assert wavelength_width_to_mev(0.36, 637.0) == pytest.approx(
        1239841.9843 * 0.36 / 637.0**2, rel=1e-12)
    # the NV anchor: 0.36 nm at 637 nm is 1.10 meV
    assert wavelength_width_to_mev(0.36, 637.0) == pytest.approx(1.10, abs=0.01)


def test_two_control_lines_sit_at_transfer_branches():
    sc = _scenario([
        Placement("C1", "P", (-12.0, 0.0, 0.0)),
        Placement("C2", "P", (12.0, 0.0, 0.0)),
    ])
    transfer = transfer_splitting_curve(CONTROL, [24.0], base_transition_mev=600.0)
    t = abs(transfer[0].transfer_mev)
    hop = np.array([[0.0, transfer[0].transfer_mev], [transfer[0].transfer_mev, 0.0]])
    lines = gate_transitions(sc, hop, seed=5)
    energies = sorted(ln.energy_mev for ln in lines)
    assert energies[0] == pytest.approx(600.0 - t, rel=1e-9)
    assert energies[1] == pytest.approx(600.0 + t, rel=1e-9)
    for ln in lines:
        assert ln.width_mev == pytest.approx(1.1)
        names = [name for name, _ in ln.shift_breakdown]
        assert names == ["overlap"]
        assert ln.shift_mev() == pytest.approx(ln.energy_mev - 600.0, rel=1e-9)


def test_single_control_is_unshifted_without_disorder():
    sc = _scenario([Placement("C1", "P", (0.0, 0.0, 0.0))])
    (line,) = gate_transitions(sc, np.zeros((1, 1)), seed=3)
    assert line.energy_mev == pytest.approx(600.0)


NOISY = SpectralModel(600.0, 1.1, (("strain", 10.0),), 1.5)


def test_lines_deterministic_in_seed():
    sc = replace(_scenario([Placement("C1", "P", (0.0, 0.0, 0.0))]),
                 spectral=NOISY)
    a = gate_transitions(sc, np.zeros((1, 1)), seed=42)
    b = gate_transitions(sc, np.zeros((1, 1)), seed=42)
    c = gate_transitions(sc, np.zeros((1, 1)), seed=43)
    assert a[0].energy_mev == b[0].energy_mev
    assert a[0].energy_mev != c[0].energy_mev


def test_disorder_width_is_fwhm():
    # component FWHM 10 meV -> sample sigma 10/2.3548; 600 draws pins the
    # estimate to ~3%, assert 10%
    sc = replace(_scenario([Placement("C1", "P", (0.0, 0.0, 0.0))]),
                 spectral=NOISY)
    shifts = [gate_transitions(sc, np.zeros((1, 1)), seed=s)[0].energy_mev - 600.0
              for s in range(600)]
    assert np.std(shifts) == pytest.approx(10.0 / 2.3548, rel=0.10)


def test_a_malformed_transfer_matrix_is_refused():
    # the matrix is read in scenario.controls() order, (m, m) for m
    # controls; one of another shape, not finite, not symmetric or not zero
    # on the diagonal is refused before any line is placed
    sc = _scenario([
        Placement("C1", "P", (-12.0, 0.0, 0.0)),
        Placement("C2", "P", (12.0, 0.0, 0.0)),
        Placement("C3", "P", (0.0, 12.0, 0.0)),
    ])
    good = np.array([[0.0, 30.0, 40.0], [30.0, 0.0, 20.0], [40.0, 20.0, 0.0]])
    assert len(gate_transitions(sc, good, seed=5)) == 3
    lopsided = good.copy()
    lopsided[1, 2] = 21.0
    on_site = good + np.eye(3)
    for bad, why in ((good[:2, :2], "shape"), (np.zeros((3, 4)), "shape"),
                     ({}, "shape"), ([[0.0, 30.0, 40.0], [30.0, 0.0], [40.0, 20.0, 0.0]], "shape"),
                     (np.where(good == 20.0, np.nan, good), "finite"),
                     (np.where(good == 30.0, np.inf, good), "finite"),
                     (good.astype(str), "finite"), (good.astype(object), "finite"),
                     (good.astype(bool), "finite"), (good.astype(complex), "finite"),
                     (lopsided, "symmetric"), (on_site, "zero diagonal")):
        with pytest.raises(PreconditionError, match=f"transfer matrix .*{why}"):
            gate_transitions(sc, bad, seed=5)
    with pytest.raises(PreconditionError, match="shape"):
        gate_transitions(_scenario([]), good, seed=5)
    assert gate_transitions(_scenario([]), np.zeros((0, 0)), seed=5) == []


def _brute_max_subset(energies, min_gap):
    best = 0
    for k in range(len(energies), 0, -1):
        for combo in itertools.combinations(sorted(energies), k):
            if all(b - a >= min_gap for a, b in zip(combo, combo[1:])):
                return k
    return best


def test_resolvable_count_hand_cases():
    assert resolvable_gate_count([600.0], 1.0, 1.5) == 1
    assert resolvable_gate_count([600.0, 600.0, 600.0], 1.0, 1.5) == 1
    assert resolvable_gate_count([0.0, 1.0, 2.0, 3.0], 1.0, 1.5) == 2
    # exact boundary separation counts
    assert resolvable_gate_count([0.0, 1.5], 1.0, 1.5) == 2
    with pytest.raises(PreconditionError):
        resolvable_gate_count([], 1.0, 1.5)
    # a NaN has no place in a sort, so the count would hang on where it
    # lands; an energy that is not a finite number is refused, bare or in
    # a line
    for bad in (math.nan, math.inf, -math.inf):
        for energies in ([1.0, bad, 3.0, 2.0], [bad, 1.0, 3.0, 2.0]):
            with pytest.raises(PreconditionError, match="finite"):
                resolvable_gate_count(energies, 0.5)
            with pytest.raises(PreconditionError, match="finite"):
                resolvable_gate_count([TransitionLine("C1", e, 0.5, ()) for e in energies], 0.5)


def test_resolvable_count_refuses_a_line_of_another_width():
    # lines are counted on the homogeneous width passed in, so a line that
    # carries another one is refused; bare energies carry none
    lines = [TransitionLine("C1", 600.0, 1.1, ()), TransitionLine("C2", 602.0, 1.1, ())]
    assert resolvable_gate_count(lines, 1.1, 1.5) == 2
    for width in (55.0, 0.5, math.nan):
        odd = [lines[0], TransitionLine("C2", 602.0, width, ())]
        with pytest.raises(PreconditionError, match="C2's line width .* is not the homogeneous"):
            resolvable_gate_count(odd, 1.1, 1.5)
    assert resolvable_gate_count([600.0, 602.0], 1.1, 1.5) == 2


def test_resolvable_count_takes_the_spectral_model_rule():
    # a width or factor that a SpectralModel rejects cannot be counted on
    lines = [574.264, 625.736]
    for width, factor in ((-1.1, 1.5), (0.0, 1.5), (math.nan, 1.5),
                          (math.inf, 1.5), (1.1, 0.5), (1.1, math.nan),
                          (1.1, math.inf)):
        with pytest.raises(PreconditionError):
            resolvable_gate_count(lines, width, factor)
        with pytest.raises(InvalidSpecError):
            SpectralModel(600.0, width, (), factor)


def test_resolvable_count_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 11))
        energies = np.sort(rng.uniform(0.0, 12.0, size=n))
        got = resolvable_gate_count(list(energies), 1.0, 1.5)
        assert got == _brute_max_subset(list(energies), 1.5)
