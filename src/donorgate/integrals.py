"""Two-center integrals and Heitler-London pair energies.

Every block is a contraction over the Gaussian expansions from `orbitals`,
priced by McMurchie & Davidson's Hermite recursions (J. Comput. Phys. 26,
218, 1978): Hermite expansion coefficients E_t by recursion in each Cartesian
direction, Hermite-Coulomb kernels R_tuv from the Boys function. The
recursions run once per block with the primitive exponents as numpy grids,
so an overlap, kinetic, nuclear-attraction or electron-repulsion block is
one contracted call whatever the expansion length.

A contracted orbital is a single block: its coefficients and exponents, one
Cartesian angular triple, one center. A p2 orbital is the 2p-sigma envelope
of its pair, pointing along the line between the two centers; the reduced
frame puts that line on z, so its triple is (0, 0, 1).

Everything runs in the medium's atomic units: lengths in units of center A's
Bohr radius l, energies in units of e^2/(eps*l), so one dimensionless
geometry serves every (binding, eps) pair that shares it. Effective charges
default to Z = l/a per center, which makes each 1s envelope the ground state
of its own screened Coulomb potential.

The pair assembly is the textbook two-electron Heitler-London treatment of
the {A, B} minimal basis: covalent configurations A(1)B(2) +/- B(1)A(2),
singlet/triplet energies from the overlap, one-electron, Coulomb and exchange
blocks, and the splitting J = E(triplet) - E(singlet). The ion-ion term
enters both energies identically and cancels in J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import gammainc, gammaln

from .constants import medium_hartree_mev
from .donor import DonorModel
from .errors import IllConditionedGeometryError, InvalidModelError, PreconditionError
from .orbitals import OrbitalSpec, check_n_terms, fit_gaussian_expansion

_OVERLAP_LIMIT = 0.999


# ---------------------------------------------------------------------------
# Hermite recursions over exponent grids (McMurchie-Davidson)
# ---------------------------------------------------------------------------

def _boys_array(nmax: int, x):
    x = np.asarray(x, dtype=float)
    small = x < 1e-10
    safe = np.where(small, 1.0, x)
    out = []
    for n in range(nmax + 1):
        f = math.exp(gammaln(n + 0.5)) * gammainc(n + 0.5, safe) / (2.0 * safe ** (n + 0.5))
        out.append(np.where(small, 1.0 / (2 * n + 1) - x / (2 * n + 3), f))
    return out


def _e_table(la: int, lb: int, a, b, Ad: float, Bd: float):
    """E_t^{la,lb} for one dimension, over broadcastable exponent grids."""
    p = a + b
    xab = Ad - Bd
    Pd = (a * Ad + b * Bd) / p
    xpa, xpb = Pd - Ad, Pd - Bd
    mu = a * b / p
    cache = {}

    def E(i, j, t):
        if t < 0 or t > i + j:
            return 0.0
        key = (i, j, t)
        if key in cache:
            return cache[key]
        if i == 0 and j == 0 and t == 0:
            v = np.exp(-mu * xab * xab)
        elif i > 0:
            v = E(i - 1, j, t - 1) / (2 * p) + xpa * E(i - 1, j, t) + (t + 1) * E(i - 1, j, t + 1)
        else:
            v = E(i, j - 1, t - 1) / (2 * p) + xpb * E(i, j - 1, t) + (t + 1) * E(i, j - 1, t + 1)
        cache[key] = v
        return v

    return [E(la, lb, t) for t in range(la + lb + 1)]


def _r_entries(tmax, umax, vmax, p, PC):
    """Hermite-Coulomb R_{tuv} arrays at n = 0, over grid-shaped p and PC."""
    nmax = tmax + umax + vmax
    F = _boys_array(nmax, p * (PC[0] ** 2 + PC[1] ** 2 + PC[2] ** 2))
    cache = {}

    def R(n, t, u, v):
        if t < 0 or u < 0 or v < 0:
            return 0.0
        key = (n, t, u, v)
        if key in cache:
            return cache[key]
        if t == 0 and u == 0 and v == 0:
            val = (-2.0 * p) ** n * F[n]
        elif t > 0:
            val = (t - 1) * R(n + 1, t - 2, u, v) + PC[0] * R(n + 1, t - 1, u, v)
        elif u > 0:
            val = (u - 1) * R(n + 1, t, u - 2, v) + PC[1] * R(n + 1, t, u - 1, v)
        else:
            val = (v - 1) * R(n + 1, t, u, v - 2) + PC[2] * R(n + 1, t, u, v - 1)
        cache[key] = val
        return val

    return {(t, u, v): R(0, t, u, v)
            for t in range(tmax + 1) for u in range(umax + 1) for v in range(vmax + 1)}


# ---------------------------------------------------------------------------
# contracted blocks
# ---------------------------------------------------------------------------

class _Orbital(NamedTuple):
    """A contracted orbital: primitive coefficients and exponents sharing one
    Cartesian angular triple and one center."""

    coef: np.ndarray
    exp: np.ndarray
    ang: tuple
    center: tuple


def _orbital(spec: OrbitalSpec, n_terms: int) -> _Orbital:
    exponents, coefs = np.array(fit_gaussian_expansion(spec, n_terms).terms).T
    ang = (0, 0, 0) if spec.kind == "s1" else (0, 0, 1)
    return _Orbital(coefs, exponents, ang, tuple(float(c) for c in spec.center))


def _charge_grid(x: _Orbital, y: _Orbital):
    """Exponent sum p, product center P and Hermite coefficients of x*y,
    over the (len x, len y) primitive grid."""
    a = x.exp[:, None]
    b = y.exp[None, :]
    p = a + b
    P = [(a * x.center[d] + b * y.center[d]) / p for d in range(3)]
    E = [_e_table(x.ang[d], y.ang[d], a, b, x.center[d], y.center[d]) for d in range(3)]
    return p, P, E


def _overlap(x: _Orbital, y: _Orbital) -> float:
    p, _, E = _charge_grid(x, y)
    grid = (np.pi / p) ** 1.5 * E[0][0] * E[1][0] * E[2][0]
    return float(x.coef @ grid @ y.coef)


def _kinetic(x: _Orbital, y: _Orbital) -> float:
    """<x| -laplacian/2 |y>, differentiating y's Cartesian Gaussian."""
    a = x.exp[:, None]
    b = y.exp[None, :]
    root = np.sqrt(np.pi / (a + b))

    def s1d(d, j):
        return root * _e_table(x.ang[d], j, a, b, x.center[d], y.center[d])[0]

    S, T = [], []
    for d in range(3):
        j = y.ang[d]
        S.append(s1d(d, j))
        t = b * (2 * j + 1) * S[d] - 2.0 * b * b * s1d(d, j + 2)
        if j >= 2:
            t = t - 0.5 * j * (j - 1) * s1d(d, j - 2)
        T.append(t)
    grid = T[0] * S[1] * S[2] + S[0] * T[1] * S[2] + S[0] * S[1] * T[2]
    return float(x.coef @ grid @ y.coef)


def _attraction(x: _Orbital, y: _Orbital, nuclei) -> float:
    """<x| -sum_C Z_C / r_C |y> over `nuclei`, a sequence of (Z_C, C)."""
    p, P, E = _charge_grid(x, y)
    lt, lu, lv = (x.ang[d] + y.ang[d] for d in range(3))
    total = 0.0
    for charge, C in nuclei:
        R = _r_entries(lt, lu, lv, p, [P[d] - C[d] for d in range(3)])
        total = total - charge * sum(E[0][t] * E[1][u] * E[2][v] * R[(t, u, v)]
                                     for t, u, v in R)
    return float(x.coef @ (2.0 * math.pi / p * total) @ y.coef)


def _eri(oa: _Orbital, ob: _Orbital, oc: _Orbital, od: _Orbital) -> float:
    """Contracted (ab|cd) over the four primitive grids at once."""
    p, P, e_bra = _charge_grid(oa, ob)
    q, Q, e_ket = _charge_grid(oc, od)
    la, lb, lc, ld = oa.ang, ob.ang, oc.ang, od.ang

    p4 = p[:, :, None, None]
    q4 = q[None, None, :, :]
    rho = p4 * q4 / (p4 + q4)
    PQ = [P[d][:, :, None, None] - Q[d][None, None, :, :] for d in range(3)]

    t1, u1, v1 = la[0] + lb[0], la[1] + lb[1], la[2] + lb[2]
    t2, u2, v2 = lc[0] + ld[0], lc[1] + ld[1], lc[2] + ld[2]
    rtab = _r_entries(t1 + t2, u1 + u2, v1 + v2, rho, PQ)

    total = 0.0
    for t in range(t1 + 1):
        for u in range(u1 + 1):
            for v in range(v1 + 1):
                eab = e_bra[0][t] * e_bra[1][u] * e_bra[2][v]
                for tt in range(t2 + 1):
                    for uu in range(u2 + 1):
                        for vv in range(v2 + 1):
                            ecd = e_ket[0][tt] * e_ket[1][uu] * e_ket[2][vv]
                            sign = (-1.0) ** (tt + uu + vv)
                            total = total + sign * (
                                eab[:, :, None, None] * ecd[None, None, :, :]
                                * rtab[(t + tt, u + uu, v + vv)])

    total = total * 2.0 * math.pi**2.5 / (p4 * q4 * np.sqrt(p4 + q4))
    weights = (oa.coef[:, None, None, None] * ob.coef[None, :, None, None]
               * oc.coef[None, None, :, None] * od.coef[None, None, None, :])
    return float(np.sum(weights * total))


# ---------------------------------------------------------------------------
# reduced (dimensionless) pair problem, cached
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _reduced_pair(kind_a, kind_b, radius_a, radius_b, r, za, zb, n_terms,
                  two_electron=True):
    """All pair blocks for the dimensionless geometry (lengths in units l).

    Center A sits at the origin with radius parameter `radius_a` (= 1 when l
    is A's own Bohr radius), center B at (0, 0, r); a p2 orbital points
    along z. Returns plain floats in medium hartrees.
    """
    A = _orbital(OrbitalSpec(kind_a, radius_a, (0.0, 0.0, 0.0)), n_terms)
    B = _orbital(OrbitalSpec(kind_b, radius_b, (0.0, 0.0, r)), n_terms)

    s = _overlap(A, B)
    if abs(s) > _OVERLAP_LIMIT:
        raise IllConditionedGeometryError(
            f"|S| = {abs(s):.4f} at reduced separation {r:.3f}; "
            "orbitals nearly coincide"
        )
    nuclei = ((za, A.center), (zb, B.center))
    out = {"S": s}
    for name, (x, y) in (("hAA", (A, A)), ("hBB", (B, B)), ("hAB", (A, B))):
        out[name] = _kinetic(x, y) + _attraction(x, y, nuclei)
    if two_electron:
        out["Jc"] = _eri(A, A, B, B)
        out["Kx"] = _eri(A, B, A, B)
    return out


# ---------------------------------------------------------------------------
# public pair results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairIntegralResult:
    """Integral blocks and Heitler-London energies for one pair geometry.

    Energies in meV. `transfer_mev` is the symmetrically orthogonalized
    one-electron hopping element; `coulomb_mev`/`exchange_integral_mev` are
    the two-electron direct and exchange integrals over the screened
    interaction; `exchange_splitting_mev` is J = E(triplet) - E(singlet).
    """

    separation_a: float
    overlap: float
    transfer_mev: float
    coulomb_mev: float
    exchange_integral_mev: float
    singlet_mev: float
    triplet_mev: float
    exchange_splitting_mev: float
    configuration: tuple

    @property
    def two_electron_splitting_mev(self) -> float:
        """Two-electron part of the splitting, 2(S^2 Jc - Kx)/(1 - S^4).

        The remainder of J is the one-electron transfer-overlap term; the
        split is recorded because the two parts behave very differently with
        orbital compactness.
        """
        s2 = self.overlap**2
        return 2.0 * (s2 * self.coulomb_mev - self.exchange_integral_mev) / (1.0 - s2 * s2)


def pair_integrals(
    A: OrbitalSpec,
    B: OrbitalSpec,
    epsilon: float,
    n_terms: int = 6,
) -> PairIntegralResult:
    """Heitler-London integrals for two centers in a screened medium.

    A p2 orbital on either center is the 2p-sigma envelope pointing along
    the line between the two centers, so only their separation enters. In
    the length unit l = a_A the nuclear charges are (l/a_A, l/a_B): each
    isolated center then binds its own 1s envelope with its Coulombic
    binding energy in the medium.
    """
    check_n_terms(n_terms)  # before the cache, where 6.0 would hit a 6 entry
    delta = np.asarray(B.center, dtype=float) - np.asarray(A.center, dtype=float)
    r_ang = float(np.linalg.norm(delta))
    if not math.isfinite(r_ang):
        raise PreconditionError("centers must be finite")
    if r_ang <= 0.0:
        raise PreconditionError("centers must be distinct")

    scale = A.bohr_radius_a  # length unit l
    hartree = medium_hartree_mev(epsilon, scale)
    za, zb = 1.0, scale / B.bohr_radius_a

    key = lambda x: round(x, 12)
    blocks = _reduced_pair(
        A.kind, B.kind,
        key(A.bohr_radius_a / scale), key(B.bohr_radius_a / scale),
        key(r_ang / scale),
        key(za), key(zb), n_terms,
    )

    s = blocks["S"]
    h_aa, h_bb, h_ab = blocks["hAA"], blocks["hBB"], blocks["hAB"]
    jc, kx = blocks["Jc"], blocks["Kx"]
    vnn = za * zb / (r_ang / scale)
    h11 = h_aa + h_bb + jc + vnn
    h12 = 2.0 * s * h_ab + kx + s * s * vnn
    e_singlet = (h11 + h12) / (1.0 + s * s)
    e_triplet = (h11 - h12) / (1.0 - s * s)
    t_hop = (h_ab - s * (h_aa + h_bb) / 2.0) / (1.0 - s * s)

    return PairIntegralResult(
        separation_a=r_ang,
        overlap=s,
        transfer_mev=t_hop * hartree,
        coulomb_mev=jc * hartree,
        exchange_integral_mev=kx * hartree,
        singlet_mev=e_singlet * hartree,
        triplet_mev=e_triplet * hartree,
        exchange_splitting_mev=(e_triplet - e_singlet) * hartree,
        configuration=((A.kind, A.bohr_radius_a), (B.kind, B.bohr_radius_a)),
    )


def _check_grid(r_grid) -> list[float]:
    grid = [float(r) for r in r_grid]
    if (not all(math.isfinite(r) and r > 0 for r in grid)
            or any(b <= a for a, b in zip(grid, grid[1:]))):
        raise PreconditionError("R grid must be finite, positive and strictly increasing")
    return grid


def _pair_orbitals(control: DonorModel, qubit: DonorModel, excited: bool, r: float):
    kind = "p2" if excited else "s1"
    radius = (control.excited_orbital_radius_a() if excited
              else control.ground_orbital_radius_a())
    a = OrbitalSpec(kind, radius, (0.0, 0.0, 0.0))
    b = OrbitalSpec("s1", qubit.ground_orbital_radius_a(), (0.0, 0.0, r))
    return a, b


def exchange_curve(
    control: DonorModel,
    qubit: DonorModel,
    excited: bool,
    r_grid,
    n_terms: int = 6,
) -> list[PairIntegralResult]:
    """J(R) for the control-qubit pair, control ground (1s) or excited (2p).

    The excited control is the 2p-sigma envelope pointing at the qubit.
    """
    grid = _check_grid(r_grid)
    check_n_terms(n_terms)
    if abs(control.dielectric_constant - qubit.dielectric_constant) > 1e-9:
        raise InvalidModelError("pair models must share the medium dielectric")
    out = []
    for r in grid:
        a, b = _pair_orbitals(control, qubit, excited, r)
        out.append(pair_integrals(a, b, control.dielectric_constant, n_terms=n_terms))
    return out


@dataclass(frozen=True)
class TransferSplitting:
    """Bonding/antibonding transition-energy pair for two excited controls."""

    separation_a: float
    transfer_mev: float
    splitting_mev: float
    branch_lower_mev: float
    branch_upper_mev: float


def transfer_splitting_curve(
    control: DonorModel,
    r_grid,
    base_transition_mev: float = 600.0,
    n_terms: int = 6,
) -> list[TransferSplitting]:
    """Excitation-sharing splitting of two identical controls versus R.

    One shared excitation hopping between two sigma-aligned 2p envelopes
    splits the transition into branches at base +/- |t|; the splitting is
    2|t|. Monopole shifts are excluded: both donors are neutral, so the
    ion-ion and electron-ion monopole tails compensate.
    """
    grid = _check_grid(r_grid)
    check_n_terms(n_terms)
    radius = control.excited_orbital_radius_a()
    scale = radius
    hartree = medium_hartree_mev(control.dielectric_constant, scale)
    out = []
    for r in grid:
        blocks = _reduced_pair(
            "p2", "p2", 1.0, 1.0, round(r / scale, 12),
            1.0, 1.0, n_terms, two_electron=False,
        )
        s, h_aa, h_bb, h_ab = blocks["S"], blocks["hAA"], blocks["hBB"], blocks["hAB"]
        t_hop = (h_ab - s * (h_aa + h_bb) / 2.0) / (1.0 - s * s)
        t_mev = t_hop * hartree
        out.append(TransferSplitting(
            separation_a=r,
            transfer_mev=t_mev,
            splitting_mev=2.0 * abs(t_mev),
            branch_lower_mev=base_transition_mev - abs(t_mev),
            branch_upper_mev=base_transition_mev + abs(t_mev),
        ))
    return out
