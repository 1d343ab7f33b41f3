"""Scaled hydrogenic orbitals and their Gaussian expansions.

The two-center integral engine wants Gaussians; the physics wants Slater-type
envelopes exp(-zeta r) (1s) and r exp(-zeta r) (2p). The bridge is a
least-squares radial fit at canonical zeta = 1, reused for every radius
through the exact scaling rule alpha -> alpha * zeta^2.

The canonical fits are frozen package data, data/gaussian_fits.json: one row
per kind and supported expansion length, n_terms = 3 to 8. No fit runs at
run time; an n_terms outside that range is an InvalidModelError. The table is
written by the fitter in `donorgate.gaussian_fits`; regenerate it with

    python -m donorgate.gaussian_fits
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import FitFailureError, InvalidModelError

ORBITAL_KINDS = ("s1", "p2")
# expansion lengths with a frozen canonical fit
N_TERMS = range(3, 9)

_TABLE_FILE = "gaussian_fits.json"


@dataclass(frozen=True)
class OrbitalSpec:
    """A hydrogenic envelope: kind and radius parameter.

    kind "s1" decays as exp(-r/a); kind "p2" is the 2p-sigma envelope
    r cos(theta) exp(-r/2a), whose axis is the line to the other center of
    the pair it enters. `bohr_radius_a` is the 1s Bohr-radius parameter a in
    angstrom for both kinds (the 2p of the same center shares the center's a).
    An envelope has no position: a pair is two envelopes and their
    separation (`pair_integrals`).
    """

    kind: str
    bohr_radius_a: float

    def __post_init__(self):
        if self.kind not in ORBITAL_KINDS:
            raise InvalidModelError(f"orbital kind must be one of {ORBITAL_KINDS}")
        if not (math.isfinite(self.bohr_radius_a) and self.bohr_radius_a > 0):
            raise InvalidModelError("bohr radius must be finite and positive")

    @property
    def decay_constant(self) -> float:
        """Slater exponent zeta in 1/angstrom."""
        if self.kind == "s1":
            return 1.0 / self.bohr_radius_a
        return 0.5 / self.bohr_radius_a


@dataclass(frozen=True)
class GaussianExpansion:
    """Radial Gaussian expansion of one orbital, unit self-overlap."""

    terms: tuple  # of (exponent in 1/A^2, coefficient)
    target: OrbitalSpec
    fit_error: float


@lru_cache(maxsize=None)
def _fit_table() -> dict:
    """(kind, n_terms) -> (canonical terms, fit error), loaded once."""
    doc = json.loads(resources.files("donorgate").joinpath("data", _TABLE_FILE).read_text())
    return {(row["kind"], row["n_terms"]): (tuple(map(tuple, row["terms"])), row["fit_error"])
            for row in doc["fits"]}


def check_n_terms(n_terms) -> None:
    """Raise InvalidModelError unless `n_terms` is an int with a frozen fit."""
    if isinstance(n_terms, bool) or not isinstance(n_terms, int) or n_terms not in N_TERMS:
        raise InvalidModelError(
            f"n_terms must be an int from {N_TERMS[0]} to {N_TERMS[-1]}, got {n_terms!r}")


def _self_overlap(kind: str, terms) -> float:
    """3D self-overlap of the expansion (p2 as its z-pointing component)."""
    a = np.array([t[0] for t in terms])
    c = np.array([t[1] for t in terms])
    pair = a[:, None] + a[None, :]
    if kind == "s1":
        block = (np.pi / pair) ** 1.5
    else:
        block = (np.pi / pair) ** 1.5 / (2.0 * pair)
    return float(c @ block @ c)


def fit_gaussian_expansion(
    orbital: OrbitalSpec, n_terms: int = 6, tol: float = 0.05
) -> GaussianExpansion:
    """Gaussian expansion of `orbital`, normalized to unit self-overlap.

    Rescales the frozen canonical fit for (kind, n_terms), n_terms an int
    from 3 to 8: exponents carry the exact factor zeta^2, which leaves the
    relative fit error unchanged. Raises FitFailureError when the relative
    L2 residual exceeds `tol`.
    """
    check_n_terms(n_terms)
    canonical, res = _fit_table()[orbital.kind, n_terms]
    if res > tol:
        raise FitFailureError(
            f"fit error {res:.3e} above tolerance {tol:.1e} "
            f"({orbital.kind}, {n_terms} terms)",
            residual=res,
        )
    zeta = orbital.decay_constant
    scaled = [(a * zeta * zeta, c) for a, c in canonical]
    norm = math.sqrt(_self_overlap(orbital.kind, scaled))
    terms = tuple((a, c / norm) for a, c in scaled)
    return GaussianExpansion(terms=terms, target=orbital, fit_error=res)
