"""Regenerate the canonical Gaussian fits frozen in data/gaussian_fits.json.

Run `python -m donorgate.gaussian_fits` to refit every supported
(kind, n_terms) row and rewrite the table; nothing at run time imports this
module. `json` writes floats with repr, so the loaded table is bit-identical
to what the fitter returned.

The fit minimizes the relative L2 error of the radial function exp(-r) (s1)
or r exp(-r) (p2) under the weight r^(2+2l), solving coefficients exactly per
exponent set (variable projection) and optimizing only the exponents with a
deterministic six-start Nelder-Mead. Exponent sets are parameterized with a
minimum ratio between successive exponents, which keeps the Gram matrix well
conditioned; without it, fits beyond ~5 terms collapse into near-duplicate
exponents with huge cancelling coefficients and the two-electron integrals
built from them lose all precision.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import minimize
from scipy.special import erfcx, gammaln

from .errors import FitFailureError
from .orbitals import _TABLE_FILE, N_TERMS, ORBITAL_KINDS

_TABLE_PATH = Path(__file__).with_name("data") / _TABLE_FILE

# exponent-ratio floor and absolute exponent floor for the fit parameterization
_RMIN = 1.35
_AMIN = 2e-4


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


def fit_canonical(kind: str, n_terms: int) -> tuple[tuple, float]:
    """Best (exponent, coefficient) terms for exp(-r) (or r exp(-r)) at
    zeta = 1, and their relative L2 fit error."""
    solve = _fit_pieces(kind)

    def f(params):
        return solve(_unpack(params))[1]

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


def main() -> None:
    rows = []
    for kind in ORBITAL_KINDS:
        for n in N_TERMS:
            terms, err = fit_canonical(kind, n)
            rows.append({"kind": kind, "n_terms": n, "fit_error": err,
                         "terms": [list(t) for t in terms]})
    doc = {
        "generator": "python -m donorgate.gaussian_fits",
        "description": "relative L2 Gaussian fits of exp(-r) (s1) and r exp(-r) "
                       "(p2) at zeta = 1; terms are [exponent, coefficient]",
        "fits": rows,
    }
    _TABLE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(rows)} fits to {_TABLE_PATH}")


if __name__ == "__main__":
    main()
