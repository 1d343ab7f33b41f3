"""Effective-mass model construction and the initialization check."""

import math

import pytest

from donorgate import (
    InvalidModelError,
    model_from_ionization,
    with_radius_scale,
    zeeman_check,
)


def test_radius_anchor_for_deep_donor():
    # 0.6 eV binding in eps = 5.7 must give a* = 2.10 A: the scaling relation
    # a* = 0.529 * (13.6 / eps) / R_c evaluated by hand
    m = model_from_ionization("P", 0.6, 5.7)
    assert m.effective_bohr_radius_a == pytest.approx(2.1036, abs=5e-4)
    assert m.effective_bohr_radius_a == pytest.approx(
        0.529 * 13.6 / (5.7 * 0.6), rel=1e-12)


def test_radius_scales_inversely_with_binding():
    a06 = model_from_ionization("P", 0.6, 5.7).effective_bohr_radius_a
    a04 = model_from_ionization("P", 0.4, 5.7).effective_bohr_radius_a
    assert a04 / a06 == pytest.approx(1.5, rel=1e-12)


def test_central_cell_split_deepens_without_shrinking():
    plain = model_from_ionization("X", 0.4, 5.7)
    split = model_from_ionization("X", 0.6, 5.7, central_cell_split_ev=0.2)
    assert split.coulombic_binding_ev == pytest.approx(0.4, rel=1e-12)
    assert split.effective_bohr_radius_a == pytest.approx(
        plain.effective_bohr_radius_a, rel=1e-12)


def test_orbital_radii_conventions():
    m = model_from_ionization("P", 0.6, 5.7, radius_scale_factor=0.5)
    assert m.ground_orbital_radius_a() == pytest.approx(
        0.5 * m.effective_bohr_radius_a, rel=1e-12)
    # the excited envelope ignores the compactness factor; its decay length
    # is 2a by the orbital kind convention, not here
    assert m.excited_orbital_radius_a() == pytest.approx(
        m.effective_bohr_radius_a, rel=1e-12)


def test_model_validation():
    with pytest.raises(InvalidModelError):
        model_from_ionization("P", -0.1, 5.7)
    with pytest.raises(InvalidModelError):
        model_from_ionization("P", 0.6, 0.9)
    with pytest.raises(InvalidModelError):
        model_from_ionization("P", 0.6, 5.7, central_cell_split_ev=0.7)
    with pytest.raises(InvalidModelError):
        model_from_ionization("P", 0.6, 5.7, role="bystander")
    with pytest.raises(InvalidModelError):
        model_from_ionization("P", 0.6, 5.7, radius_scale_factor=1.2)
    with pytest.raises(InvalidModelError, match="t1_s"):
        model_from_ionization("N", 0.6, 5.7, role="qubit", t1_s=-1.0)
    with pytest.raises(InvalidModelError, match="t2_s"):
        model_from_ionization("N", 0.6, 5.7, role="qubit", t2_s=0.0)


def test_with_radius_scale_only_touches_compactness():
    m = model_from_ionization("P", 0.6, 5.7)
    half = with_radius_scale(m, 0.5)
    assert half.radius_scale_factor == 0.5
    assert half.effective_bohr_radius_a == m.effective_bohr_radius_a
    assert half.binding_energy_ev == m.binding_energy_ev


def test_zeeman_check_matches_hand_formula():
    # g = 2, 5 T, 1 K: ratio = 2 * 0.0578838 * 5 / 0.0861733
    chk = zeeman_check(2.0, 5.0, 1.0)
    want_ratio = 2.0 * 5.7883818060e-2 * 5.0 / (8.617333262e-2 * 1.0)
    assert chk.ratio == pytest.approx(want_ratio, rel=1e-9)
    assert chk.polarization == pytest.approx(math.tanh(want_ratio / 2.0), rel=1e-12)
    # high field / low temperature saturates
    assert zeeman_check(2.0, 12.0, 0.1).polarization > 0.999
    with pytest.raises(InvalidModelError):
        zeeman_check(2.0, 5.0, 0.0)


@pytest.mark.parametrize("g_factor, field_t, temperature_k", [
    (math.nan, 5.0, 1.0), (2.0, math.nan, 1.0), (2.0, math.inf, 1.0), (2.0, 5.0, math.inf)])
def test_zeeman_check_rejects_non_finite_inputs(g_factor, field_t, temperature_k):
    with pytest.raises(InvalidModelError, match="must be a finite number"):
        zeeman_check(g_factor, field_t, temperature_k)
