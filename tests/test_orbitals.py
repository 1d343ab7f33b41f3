"""Gaussian expansions of the hydrogenic envelopes.

Normalization checks use the closed Gaussian moment formulas written out
here, not the package's integral routines. The frozen fit table is read
straight from the package data and checked against the public API and the
fitter that wrote it.
"""

import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import donorgate
from donorgate import (FitFailureError, InvalidModelError, OrbitalSpec,
                       exchange_curve, fit_gaussian_expansion,
                       model_from_ionization, pair_integrals,
                       transfer_splitting_curve)
from donorgate.gaussian_fits import fit_canonical

SUPPORTED = range(3, 9)


def _table_rows():
    text = resources.files("donorgate").joinpath("data", "gaussian_fits.json").read_text()
    return json.loads(text)["fits"]


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


def test_table_covers_every_supported_row():
    keys = [(row["kind"], row["n_terms"]) for row in _table_rows()]
    assert sorted(keys) == sorted((k, n) for k in ("s1", "p2") for n in SUPPORTED)
    for row in _table_rows():
        assert len(row["terms"]) == row["n_terms"]


def test_default_table_matches_refit():
    rows = {(row["kind"], row["n_terms"]): row for row in _table_rows()}
    for kind in ("s1", "p2"):
        terms, err = fit_canonical(kind, 6)
        row = rows[kind, 6]
        assert np.asarray(terms) == pytest.approx(np.asarray(row["terms"]), rel=1e-9, abs=0.0)
        assert err == pytest.approx(row["fit_error"], rel=0.0, abs=1e-12)


def test_fit_error_decreases_with_terms():
    for kind in ("s1", "p2"):
        rows = sorted((row["n_terms"], row["fit_error"])
                      for row in _table_rows() if row["kind"] == kind)
        errors = [err for _, err in rows]
        assert all(0.0 < err < 0.05 for err in errors)
        assert all(a > b for a, b in zip(errors, errors[1:]))
        spec = OrbitalSpec(kind, 1.0)
        assert [fit_gaussian_expansion(spec, n_terms=n).fit_error for n, _ in rows] == errors


def test_every_row_reproduces_its_fit_error():
    # sum c exp(-a r^2) approximates exp(-r) under the weight r^2 (s1) or
    # r^4 (p2); integrate the relative L2 error by Gauss-Legendre panels
    x, w = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(0.0, 60.0, 601)
    mid, half = (edges[:-1] + edges[1:]) / 2, np.diff(edges) / 2
    r = (mid[:, None] + half[:, None] * x).ravel()
    dr = (half[:, None] * w).ravel()
    for row in _table_rows():
        a, c = np.array(row["terms"]).T
        weight = dr * r ** (2 if row["kind"] == "s1" else 4)
        target = np.exp(-r)
        fit = np.exp(-np.outer(r**2, a)) @ c
        err = math.sqrt(np.sum(weight * (target - fit) ** 2) / np.sum(weight * target**2))
        assert err == pytest.approx(row["fit_error"], rel=1e-4)


def test_every_row_is_normalized():
    overlap = {"s1": _self_overlap_s, "p2": _self_overlap_p}
    for row in _table_rows():
        exp = fit_gaussian_expansion(OrbitalSpec(row["kind"], 1.7), n_terms=row["n_terms"])
        assert overlap[row["kind"]](exp.terms) == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("bad", [2, 9, 6.0, True, "6", None])
def test_n_terms_outside_table_rejected(bad):
    control = model_from_ionization("P", 0.6, 5.7, role="control")
    qubit = model_from_ionization("P", 0.6, 5.7, role="qubit")
    a = OrbitalSpec("p2", 2.0)
    b = OrbitalSpec("s1", 1.0)
    # fill the pair cache at n_terms = 6 first: 6.0 == 6 must not hit it
    pair_integrals(a, b, 6.0, 5.7, n_terms=6)
    transfer_splitting_curve(control, [12.0], n_terms=6)
    calls = [
        lambda: fit_gaussian_expansion(OrbitalSpec("s1", 1.0), n_terms=bad),
        lambda: pair_integrals(a, b, 6.0, 5.7, n_terms=bad),
        lambda: exchange_curve(control, qubit, True, [6.0], n_terms=bad),
        lambda: exchange_curve(control, qubit, True, [], n_terms=bad),
        lambda: transfer_splitting_curve(control, [12.0], n_terms=bad),
    ]
    for call in calls:
        with pytest.raises(InvalidModelError):
            call()


def test_run_time_path_needs_no_fit_and_no_scipy_signal():
    code = """
import sys
import scipy.optimize

def refuse(*args, **kwargs):
    raise AssertionError("scipy.optimize.minimize called at run time")

scipy.optimize.minimize = refuse
import donorgate as d
d.pair_integrals(d.OrbitalSpec("p2", 2.0), d.OrbitalSpec("s1", 1.0), 6.0, 5.7)
assert "scipy.signal" not in sys.modules, "scipy.signal imported"
"""
    src = str(Path(donorgate.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr


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

