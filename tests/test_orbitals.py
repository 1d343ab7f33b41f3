"""Gaussian expansions of the hydrogenic envelopes.

Normalization checks use the closed Gaussian moment formulas written out
here, not the package's integral routines.
"""

import math

import numpy as np
import pytest

from donorgate import FitFailureError, InvalidModelError, OrbitalSpec, fit_gaussian_expansion


def _self_overlap_s(terms):
    # int (sum c exp(-a r^2))^2 d3r = sum_ij ci cj (pi/(ai+aj))^(3/2)
    val = 0.0
    for ai, ci in terms:
        for aj, cj in terms:
            val += ci * cj * (math.pi / (ai + aj)) ** 1.5
    return val


def _self_overlap_p(terms):
    # int (z sum c exp(-a r^2))^2 d3r = sum_ij ci cj (pi/(ai+aj))^(3/2) / (2(ai+aj))
    val = 0.0
    for ai, ci in terms:
        for aj, cj in terms:
            p = ai + aj
            val += ci * cj * (math.pi / p) ** 1.5 / (2.0 * p)
    return val


def test_s_expansion_is_normalized():
    exp = fit_gaussian_expansion(OrbitalSpec("s1", 2.1))
    assert _self_overlap_s(exp.terms) == pytest.approx(1.0, rel=1e-10)


def test_p_expansion_is_normalized():
    exp = fit_gaussian_expansion(OrbitalSpec("p2", 2.1))
    assert _self_overlap_p(exp.terms) == pytest.approx(1.0, rel=1e-10)


def test_fit_error_reported_and_below_tolerance():
    for kind in ("s1", "p2"):
        exp = fit_gaussian_expansion(OrbitalSpec(kind, 1.0), n_terms=6, tol=0.05)
        assert 0.0 < exp.fit_error < 0.05


def test_fit_error_decreases_with_terms():
    spec = OrbitalSpec("s1", 1.0)
    errors = [fit_gaussian_expansion(spec, n_terms=n).fit_error for n in (3, 4, 6)]
    assert errors[0] > errors[1] > errors[2]


def test_exponents_scale_with_inverse_square_radius():
    # alpha -> alpha * zeta^2 is exact, so the exponent sets of two radii must
    # be related by (a1/a2)^2 term by term
    e1 = fit_gaussian_expansion(OrbitalSpec("s1", 1.0))
    e2 = fit_gaussian_expansion(OrbitalSpec("s1", 2.0))
    for (a1, _), (a2, _) in zip(sorted(e1.terms), sorted(e2.terms)):
        assert a1 / a2 == pytest.approx(4.0, rel=1e-9)


def test_fitted_radial_shape_tracks_slater():
    a = 2.1
    exp = fit_gaussian_expansion(OrbitalSpec("s1", a))
    r = np.array([0.5 * a, a, 2.0 * a, 3.0 * a])
    fit = sum(c * np.exp(-alpha * r**2) for alpha, c in exp.terms)
    slater = (1.0 / math.sqrt(math.pi * a**3)) * np.exp(-r / a)
    assert np.all(np.abs(fit / slater - 1.0) < 0.05)


def test_decay_constants():
    assert OrbitalSpec("s1", 2.0).decay_constant == pytest.approx(0.5)
    assert OrbitalSpec("p2", 2.0).decay_constant == pytest.approx(0.25)


def test_kind_and_radius_validated():
    with pytest.raises(InvalidModelError):
        OrbitalSpec("d3", 1.0)
    for bad_radius in (-1.0, math.nan, math.inf):
        with pytest.raises(InvalidModelError):
            OrbitalSpec("s1", bad_radius)


def test_unreachable_tolerance_raises():
    with pytest.raises(FitFailureError):
        fit_gaussian_expansion(OrbitalSpec("s1", 1.0), n_terms=3, tol=1e-4)
    with pytest.raises(InvalidModelError):
        fit_gaussian_expansion(OrbitalSpec("s1", 1.0), n_terms=2)


def test_at_moves_center_only():
    spec = OrbitalSpec("s1", 2.1)
    moved = spec.at((1.0, 2.0, 3.0))
    assert moved.center == (1.0, 2.0, 3.0)
    assert moved.kind == spec.kind and moved.bohr_radius_a == spec.bohr_radius_a
