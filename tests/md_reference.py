"""Scalar McMurchie-Davidson reference for the pair integral blocks.

One primitive (or primitive quadruple) at a time, by plain recursion over
Python floats: Hermite expansion coefficients, Hermite-Coulomb kernels through
the Boys function, and the overlap, kinetic, nuclear-attraction and
electron-repulsion primitives built from them (McMurchie & Davidson,
J. Comput. Phys. 26, 218, 1978). The package evaluates the same recursions
over numpy exponent grids; this module is the slow, loop-by-loop form the
tests compare those grids against. It shares only the Gaussian fit with the
package, not any integral code.

`reduced_pair` returns the same blocks as `donorgate.integrals._pair_blocks`
returns at one separation, for the same dimensionless geometry: center A at
the origin, center B at (0, 0, r), a p2 orbital pointing along z. It takes
both radii and both charges explicitly; the package fixes radius_a = 1 and
derives each charge as 1/radius. Each contracted orbital takes its center
as a 3-vector argument, so the primitives stay general in x and y, where
the package keeps only the pair axis.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, gammaln

from donorgate import OrbitalSpec, fit_gaussian_expansion


def _boys(n: int, x: float) -> float:
    if x < 1e-12:
        return 1.0 / (2 * n + 1)
    # regularized lower incomplete gamma keeps this stable for large x
    return math.exp(gammaln(n + 0.5)) * gammainc(n + 0.5, x) / (2.0 * x ** (n + 0.5))


def _hermite_e(i, j, t, p, mu, xab, xpa, xpb, cache):
    if t < 0 or t > i + j:
        return 0.0
    key = (i, j, t)
    if key in cache:
        return cache[key]
    if i == 0 and j == 0 and t == 0:
        val = math.exp(-mu * xab * xab)
    elif i > 0:
        val = (_hermite_e(i - 1, j, t - 1, p, mu, xab, xpa, xpb, cache) / (2 * p)
               + xpa * _hermite_e(i - 1, j, t, p, mu, xab, xpa, xpb, cache)
               + (t + 1) * _hermite_e(i - 1, j, t + 1, p, mu, xab, xpa, xpb, cache))
    else:
        val = (_hermite_e(i, j - 1, t - 1, p, mu, xab, xpa, xpb, cache) / (2 * p)
               + xpb * _hermite_e(i, j - 1, t, p, mu, xab, xpa, xpb, cache)
               + (t + 1) * _hermite_e(i, j - 1, t + 1, p, mu, xab, xpa, xpb, cache))
    cache[key] = val
    return val


def _e_coeffs(la, lb, a, b, A, B):
    p = a + b
    mu = a * b / p
    P = (a * A + b * B) / p
    dims = []
    for d in range(3):
        cache = {}
        dims.append([
            _hermite_e(la[d], lb[d], t, p, mu, A[d] - B[d], P[d] - A[d], P[d] - B[d], cache)
            for t in range(la[d] + lb[d] + 1)
        ])
    return dims, p, P


def _hermite_coulomb(tmax, umax, vmax, p, PC):
    nmax = tmax + umax + vmax
    x = p * float(PC @ PC)
    fn = [_boys(n, x) for n in range(nmax + 1)]
    table = {}
    for n in range(nmax + 1):
        table[(n, 0, 0, 0)] = (-2.0 * p) ** n * fn[n]

    def get(n, t, u, v):
        if t < 0 or u < 0 or v < 0:
            return 0.0
        key = (n, t, u, v)
        if key in table:
            return table[key]
        if t > 0:
            val = (t - 1) * get(n + 1, t - 2, u, v) + PC[0] * get(n + 1, t - 1, u, v)
        elif u > 0:
            val = (u - 1) * get(n + 1, t, u - 2, v) + PC[1] * get(n + 1, t, u - 1, v)
        else:
            val = (v - 1) * get(n + 1, t, u, v - 2) + PC[2] * get(n + 1, t, u, v - 1)
        table[key] = val
        return val

    out = np.zeros((tmax + 1, umax + 1, vmax + 1))
    for t in range(tmax + 1):
        for u in range(umax + 1):
            for v in range(vmax + 1):
                out[t, u, v] = get(0, t, u, v)
    return out


def _overlap_1d(i, j, a, b, Ad, Bd):
    p = a + b
    mu = a * b / p
    P = (a * Ad + b * Bd) / p
    return math.sqrt(math.pi / p) * _hermite_e(i, j, 0, p, mu, Ad - Bd, P - Ad, P - Bd, {})


def _prim_overlap(la, a, A, lb, b, B):
    E, p, _ = _e_coeffs(la, lb, a, b, A, B)
    return (math.pi / p) ** 1.5 * E[0][0] * E[1][0] * E[2][0]


def _prim_kinetic(la, a, A, lb, b, B):
    S = [_overlap_1d(la[d], lb[d], a, b, A[d], B[d]) for d in range(3)]
    T = []
    for d in range(3):
        j = lb[d]
        t = b * (2 * j + 1) * S[d]
        t -= 2.0 * b * b * _overlap_1d(la[d], j + 2, a, b, A[d], B[d])
        if j >= 2:
            t -= 0.5 * j * (j - 1) * _overlap_1d(la[d], j - 2, a, b, A[d], B[d])
        T.append(t)
    return T[0] * S[1] * S[2] + S[0] * T[1] * S[2] + S[0] * S[1] * T[2]


def _prim_nuclear(la, a, A, lb, b, B, C):
    """(a| 1/r_C |b), positive sign; the caller applies -Z."""
    E, p, P = _e_coeffs(la, lb, a, b, A, B)
    tmax, umax, vmax = la[0] + lb[0], la[1] + lb[1], la[2] + lb[2]
    R = _hermite_coulomb(tmax, umax, vmax, p, P - C)
    val = 0.0
    for t in range(tmax + 1):
        for u in range(umax + 1):
            for v in range(vmax + 1):
                e = E[0][t] * E[1][u] * E[2][v]
                if e != 0.0:
                    val += e * R[t, u, v]
    return 2.0 * math.pi / p * val


def _prim_eri(la, a, A, lb, b, B, lc, c, C, ld, d, D):
    Eab, p, P = _e_coeffs(la, lb, a, b, A, B)
    Ecd, q, Q = _e_coeffs(lc, ld, c, d, C, D)
    reduced = p * q / (p + q)
    t1, u1, v1 = la[0] + lb[0], la[1] + lb[1], la[2] + lb[2]
    t2, u2, v2 = lc[0] + ld[0], lc[1] + ld[1], lc[2] + ld[2]
    R = _hermite_coulomb(t1 + t2, u1 + u2, v1 + v2, reduced, P - Q)
    val = 0.0
    for t in range(t1 + 1):
        for u in range(u1 + 1):
            for v in range(v1 + 1):
                eab = Eab[0][t] * Eab[1][u] * Eab[2][v]
                if eab == 0.0:
                    continue
                for tt in range(t2 + 1):
                    for uu in range(u2 + 1):
                        for vv in range(v2 + 1):
                            ecd = Ecd[0][tt] * Ecd[1][uu] * Ecd[2][vv]
                            if ecd == 0.0:
                                continue
                            val += eab * ecd * (-1.0) ** (tt + uu + vv) * R[t + tt, u + uu, v + vv]
    return 2.0 * math.pi**2.5 / (p * q * math.sqrt(p + q)) * val


class _Contracted:
    """Primitive list (coeff, exponent, angular triple) of `spec`, all at `center`."""

    def __init__(self, spec: OrbitalSpec, center, n_terms: int):
        ang = (0, 0, 0) if spec.kind == "s1" else (0, 0, 1)
        self.prims = [(c, a, ang) for a, c in fit_gaussian_expansion(spec, n_terms).terms]
        self.center = np.asarray(center, dtype=float)


def _pairwise(f, oa: _Contracted, ob: _Contracted, *args) -> float:
    return sum(
        ca * cb * f(anga, aa, oa.center, angb, ab, ob.center, *args)
        for ca, aa, anga in oa.prims
        for cb, ab, angb in ob.prims
    )


def _eri_scalar(oa, ob, oc, od) -> float:
    """Reference contraction over scalar primitive quadruples (slow path)."""
    val = 0.0
    for ca, aa, anga in oa.prims:
        for cb, ab, angb in ob.prims:
            for cc, ac, angc in oc.prims:
                for cd, ad, angd in od.prims:
                    val += ca * cb * cc * cd * _prim_eri(
                        anga, aa, oa.center, angb, ab, ob.center,
                        angc, ac, oc.center, angd, ad, od.center)
    return val


def reduced_pair(kind_a, kind_b, radius_a, radius_b, r, za, zb, n_terms):
    """S, hAA, hBB, hAB, Jc and Kx for the reduced geometry, scalar path."""
    A = _Contracted(OrbitalSpec(kind_a, radius_a), (0.0, 0.0, 0.0), n_terms)
    B = _Contracted(OrbitalSpec(kind_b, radius_b), (0.0, 0.0, r), n_terms)
    ca, cb = A.center, B.center
    out = {"S": _pairwise(_prim_overlap, A, B)}
    for name, (x, y) in (("hAA", (A, A)), ("hBB", (B, B)), ("hAB", (A, B))):
        kin = _pairwise(_prim_kinetic, x, y)
        att = -za * _pairwise(_prim_nuclear, x, y, ca) - zb * _pairwise(_prim_nuclear, x, y, cb)
        out[name] = kin + att
    out["Jc"] = _eri_scalar(A, A, B, B)
    out["Kx"] = _eri_scalar(A, B, A, B)
    return out
