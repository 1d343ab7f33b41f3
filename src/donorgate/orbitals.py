"""Scaled hydrogenic orbitals and their Gaussian expansions.

The two-center integral engine wants Gaussians; the physics wants Slater-type
envelopes exp(-zeta r) (1s) and r exp(-zeta r) (2p). The bridge is a
least-squares radial fit at canonical zeta = 1, reused for every radius
through the exact scaling rule alpha -> alpha * zeta^2.

The fit minimizes the relative L2 error of the radial function under the
weight r^(2+2l), solving coefficients exactly per exponent set (variable
projection) and optimizing only the exponents. Exponent sets are
parameterized with a minimum ratio between successive exponents, which keeps
the Gram matrix well conditioned; without it, fits beyond ~5 terms collapse
into near-duplicate exponents with huge cancelling coefficients and the
two-electron integrals built from them lose all precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize
from scipy.special import erfcx, gammaln

from .errors import FitFailureError, InvalidModelError

_KINDS = ("s1", "p2")

# exponent-ratio floor and absolute exponent floor for the fit parameterization
_RMIN = 1.35
_AMIN = 2e-4


@dataclass(frozen=True)
class OrbitalSpec:
    """A hydrogenic envelope: kind, radius parameter, placement.

    kind "s1" decays as exp(-r/a); kind "p2" is the 2p-sigma envelope
    r cos(theta) exp(-r/2a), whose axis is the line to the other center of
    the pair it enters. `bohr_radius_a` is the 1s Bohr-radius parameter a in
    angstrom for both kinds (the 2p of the same center shares the center's a).
    """

    kind: str
    bohr_radius_a: float
    center: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidModelError(f"orbital kind must be one of {_KINDS}")
        if not (math.isfinite(self.bohr_radius_a) and self.bohr_radius_a > 0):
            raise InvalidModelError("bohr radius must be finite and positive")

    @property
    def decay_constant(self) -> float:
        """Slater exponent zeta in 1/angstrom."""
        if self.kind == "s1":
            return 1.0 / self.bohr_radius_a
        return 0.5 / self.bohr_radius_a

    def at(self, center) -> "OrbitalSpec":
        return OrbitalSpec(self.kind, self.bohr_radius_a, tuple(center))


@dataclass(frozen=True)
class GaussianExpansion:
    """Radial Gaussian expansion of one orbital, unit self-overlap."""

    terms: tuple  # of (exponent in 1/A^2, coefficient)
    target: OrbitalSpec
    fit_error: float


def _moments(alphas: np.ndarray, zeta: float, nmax: int) -> np.ndarray:
    """M[n, i] = integral_0^inf r^n exp(-alphas[i] r^2 - zeta r) dr."""
    a = np.asarray(alphas, dtype=float)
    sq = np.sqrt(a)
    out = np.empty((nmax + 1, a.size))
    out[0] = 0.5 * np.sqrt(np.pi / a) * erfcx(zeta / (2.0 * sq))
    if nmax >= 1:
        out[1] = (1.0 - zeta * out[0]) / (2.0 * a)
    for n in range(1, nmax):
        out[n + 1] = (n * out[n - 1] - zeta * out[n]) / (2.0 * a)
    return out


def _unpack(params: np.ndarray) -> np.ndarray:
    """Exponents from free parameters, ratio floor _RMIN enforced."""
    a1 = _AMIN + math.exp(params[0])
    if params.size == 1:
        return np.array([a1])
    gaps = math.log(_RMIN) + np.logaddexp(0.0, params[1:])
    return a1 * np.exp(np.concatenate(([0.0], np.cumsum(gaps))))


def _fit_pieces(kind: str):
    # weight r^(2+2l); Nf = integral r^w exp(-2r) = w!/2^(w+1)
    w = 2 if kind == "s1" else 4
    nf = math.factorial(w) / 2.0 ** (w + 1)
    half = (w + 1) / 2.0
    gram_const = 0.5 * math.exp(gammaln(half))

    def solve(alphas: np.ndarray):
        pair = alphas[:, None] + alphas[None, :]
        g = gram_const * pair**(-half)
        m = _moments(alphas, 1.0, w)[w]
        try:
            c = np.linalg.solve(g, m)
        except np.linalg.LinAlgError:
            return None, np.inf
        res2 = max(nf - float(m @ c), 0.0) / nf
        return c, math.sqrt(res2)

    return solve


def _objective(kind: str):
    solve = _fit_pieces(kind)

    def f(params):
        _, res = solve(_unpack(params))
        return res

    return f, solve


@lru_cache(maxsize=None)
def _canonical_fit(kind: str, n_terms: int) -> tuple[tuple, float]:
    """Best exponents/coefficients for exp(-r) (or r exp(-r)) at zeta = 1."""
    f, solve = _objective(kind)
    best = None
    # deterministic multistart over geometric-progression seeds
    for beta in (2.4, 3.2, 4.2):
        gap_param = math.log(math.expm1(max(math.log(beta) - math.log(_RMIN), 1e-6)))
        for lo in (-4.5, -3.0):
            x0 = np.array([lo] + [gap_param] * (n_terms - 1))
            r = minimize(f, x0, method="Nelder-Mead",
                         options={"maxiter": 4000, "xatol": 1e-10, "fatol": 1e-14})
            if best is None or r.fun < best.fun:
                best = r
    alphas = _unpack(best.x)
    coeffs, res = solve(alphas)
    if coeffs is None or not np.isfinite(res):
        raise FitFailureError(f"{kind} fit with {n_terms} terms did not converge",
                              residual=float("inf"))
    return tuple(zip(alphas.tolist(), coeffs.tolist())), res


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

    Fits once per (kind, n_terms) at canonical zeta and rescales: exponents
    carry the exact factor zeta^2, which leaves the relative fit error
    unchanged. Raises FitFailureError when the relative L2 residual exceeds
    `tol`.
    """
    if n_terms < 3:
        raise InvalidModelError("n_terms must be >= 3")
    canonical, res = _canonical_fit(orbital.kind, n_terms)
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
