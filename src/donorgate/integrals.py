"""Two-center integrals and Heitler-London pair energies.

Every block is a contraction over the Gaussian expansions from `orbitals`,
priced by McMurchie & Davidson's Hermite recursions (J. Comput. Phys. 26,
218, 1978): Hermite expansion coefficients E_t, Hermite-Coulomb kernels R_tuv
from the Boys function. The recursions run once per block with the primitive
exponents as numpy grids, so an overlap, kinetic, nuclear-attraction or
electron-repulsion block is one contracted call whatever the expansion
length.

The grids also carry a leading separation axis: center A sits at the origin
and center B at (0, 0, r) with r an array of reduced separations, so one
kernel call, `_pair_blocks`, prices every block at every separation it is
given and returns one value per separation. Inside the call the grids are
cut along that axis to bound their temporaries: the electron-repulsion
grids `_R_CHUNK` separations at a time, the one-electron grids, n_terms^2
primitives per separation against up to n_terms^4, `_R_CHUNK * n_terms^2`
at a time. An electron-repulsion integral runs over the distinct primitive
pairs only: the product of an orbital with itself keeps each pair i <= j
once, and (AB|AB), whose bra and ket are one product, keeps each pair of
pairs u <= v once, an off-diagonal entry weighted twice; those index pairs
are built once per shape. Each block is reduced to its value per separation
by a fixed-order sum along contiguous rows, never by a BLAS product, so a
separation's blocks are the same bits whatever batch prices it.

The Boys function is evaluated at its top order only and recurred downward,
F_n = (2x F_{n+1} + e^-x) / (2n + 1), which is stable in that direction.
F_0 alone comes from erf. A higher top order is read from a table of F_m,
m <= 10, at the nodes x = i/100 below x = 50, filled on first use: five
Taylor terms about the nearest node, and the asymptote
Gamma(n+1/2) / (2 x^(n+1/2)) from x = 50 on (Helgaker, Jorgensen & Olsen,
Molecular Electronic-Structure Theory, section 9.8).

`exchange_curve`, `transfer_splitting_curve` and `pair_integrals` read each
reduced point from one cache, `_reduced_pair`, which keeps at most
`_CACHE_POINTS` (4096) points, least recently used out first. A curve builds
its grid's keys once, prices all of their misses in one kernel call, then
reads its points with the same keys; a lone `pair_integrals` call prices
its miss as a batch of one. `exchange_curve` and `pair_integrals` assemble
the Heitler-London result in one helper, `_heitler_london`.

Every center and every orbital axis lies on the pair axis z. A contracted
orbital is its coefficients and exponents, its angular momentum along z and
its position on z; a p2 orbital is the 2p-sigma envelope pointing along the
line between the two centers. Across the axis each Gaussian product is that
of two s primitives on a common center, so the x and y factors are closed
forms and only the z recursions run.

Everything runs in the medium's atomic units: lengths in units of center A's
Bohr radius l, energies in units of e^2/(eps*l), so one dimensionless
geometry serves every (binding, eps) pair that shares it. The nuclear charge
of each center is Z = l/a, which makes each 1s envelope the ground state of
its own screened Coulomb potential.

The pair assembly is the textbook two-electron Heitler-London treatment of
the {A, B} minimal basis: covalent configurations A(1)B(2) +/- B(1)A(2),
singlet/triplet energies from the overlap, one-electron, Coulomb and exchange
blocks, and the splitting J = E(triplet) - E(singlet). The ion-ion term
enters both energies identically and cancels in J.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import erf, gammainc

from .constants import medium_hartree_mev
from .donor import DonorModel
from .errors import IllConditionedGeometryError, InvalidModelError, PreconditionError, finite
from .orbitals import OrbitalSpec, check_n_terms, fit_gaussian_expansion

_OVERLAP_LIMIT = 0.999
# separations per electron-repulsion chunk inside a kernel call; those grids
# hold up to n_terms^4 primitives per separation, so this bounds the
# temporaries of every grid (the one-electron chunks take n_terms^2 times as
# many separations)
_R_CHUNK = 8
# reduced pair points the cache keeps
_CACHE_POINTS = 4096
# the Boys table: node spacing, the x from which the asymptote takes over,
# the highest order held and the Taylor terms taken per point; top orders up
# to _BOYS_MAX_ORDER - _BOYS_TERMS + 1 = 6 are served, and the kernels ask
# for at most 4 (a repulsion between two p2-p2 products)
_BOYS_STEP = 0.01
_BOYS_X_MAX = 50.0
_BOYS_MAX_ORDER = 10
_BOYS_TERMS = 5


# ---------------------------------------------------------------------------
# Hermite recursions over exponent grids (McMurchie-Davidson)
# ---------------------------------------------------------------------------

def _boys_down(nmax: int, x, top):
    """[F_0(x), ..., F_nmax(x)] from the top order `top` = F_nmax(x) by
    downward recursion."""
    out = [top]
    if nmax:
        decay = np.exp(-x)
        for n in range(nmax - 1, -1, -1):
            out.append((2.0 * x * out[-1] + decay) / (2 * n + 1))
    return out[::-1]


@functools.cache
def _boys_nodes() -> np.ndarray:
    """The Boys table: F_m at the nodes x_i = i * `_BOYS_STEP` from 0 to
    `_BOYS_X_MAX`, one row per order m = 0..`_BOYS_MAX_ORDER`. The top order
    comes from the incomplete gamma function (1/(2m+1) at x = 0), the lower
    ones by downward recursion. Read-only, as every call shares it."""
    x = np.arange(round(_BOYS_X_MAX / _BOYS_STEP) + 1) * _BOYS_STEP
    a = _BOYS_MAX_ORDER + 0.5
    safe = np.where(x > 0.0, x, 1.0)
    top = np.where(x > 0.0, math.gamma(a) * gammainc(a, safe) / (2.0 * safe**a),
                   1.0 / (2 * _BOYS_MAX_ORDER + 1))
    table = np.stack(_boys_down(_BOYS_MAX_ORDER, x, top))
    table.flags.writeable = False
    return table


def _boys_array(nmax: int, x):
    """[F_0(x), ..., F_nmax(x)]: the top order from the Boys table (erf for
    nmax = 0), the lower ones by downward recursion.

    Below `_BOYS_X_MAX` the top order is the Taylor series about the nearest
    node, F_n(x) = sum_k F_{n+k}(x_i) (x_i - x)^k / k!, k < `_BOYS_TERMS`,
    from x_i's row of the table; with |x - x_i| <= `_BOYS_STEP` / 2 the
    first term left out is below 3e-14 relative. From `_BOYS_X_MAX` on it is
    the asymptote Gamma(n+1/2) / (2 x^(n+1/2)), whose relative error, about
    x^(n-1/2) e^-x / Gamma(n+1/2), is below 2e-15 there.

    F_0 alone keeps erf: the table replaces the incomplete gamma function,
    not `scipy.special`, so that import, and with it the benchmark's set-up
    time, stays as it is until that timer can measure a shorter set-up
    (ROADMAP item 7).
    """
    x = np.asarray(x, dtype=float)
    if nmax == 0:
        small = x < 1e-10
        root = np.sqrt(np.where(small, 1.0, x))
        return [np.where(small, 1.0 - x / 3.0, math.sqrt(math.pi) * erf(root) / (2.0 * root))]
    if nmax + _BOYS_TERMS - 1 > _BOYS_MAX_ORDER:
        raise PreconditionError(f"the Boys table serves nmax <= "
                                f"{_BOYS_MAX_ORDER - _BOYS_TERMS + 1}, got {nmax}")
    node = np.rint(np.minimum(x, _BOYS_X_MAX) / _BOYS_STEP).astype(np.intp)
    dx = x - node * _BOYS_STEP
    rows = _boys_nodes()[nmax:nmax + _BOYS_TERMS]
    top = rows[-1].take(node)
    for k in range(_BOYS_TERMS - 2, -1, -1):
        top = rows[k].take(node) - dx * top / (k + 1)
    far = x >= _BOYS_X_MAX
    if far.any():
        a = nmax + 0.5
        top[far] = math.gamma(a) / (2.0 * x[far] ** a)
    return _boys_down(nmax, x, top)


def _e_table(la: int, lb: int, a, b, Az, Bz):
    """E_t^{la,lb}, t = 0..la+lb, along z over broadcastable exponent grids.

    Built up from E^{00}: lb steps on the B index, then la on the A index,
    each E^{+1}_t = E_{t-1} / 2p + X E_t + (t+1) E_{t+1} with X = P - B or
    P - A.
    """
    p = a + b
    Pz = (a * Az + b * Bz) / p
    xab = Az - Bz
    row = [np.exp(-(a * b / p) * xab * xab)]
    for step in range(la + lb):
        X = Pz - Bz if step < lb else Pz - Az
        n = len(row)
        nxt = []
        for t in range(n + 1):
            v = X * row[t] if t < n else 0.0
            if t:
                v = row[t - 1] / (2 * p) + v
            if t + 1 < n:
                v = v + (t + 1) * row[t + 1]
            nxt.append(v)
        row = nxt
    return row


def _r_table(vmax: int, p, PC):
    """Hermite-Coulomb R_{00v}, v = 0..vmax, over grid-shaped p and PC.

    Every charge sits on the z axis, so only the z offset PC enters. Level v
    holds R^n_{00v} for n = 0..vmax-v, from
    R^n_{00v} = (v-1) R^{n+1}_{00,v-2} + PC R^{n+1}_{00,v-1}.
    """
    F = _boys_array(vmax, p * PC**2)
    lower, level = None, [(-2.0 * p) ** n * F[n] for n in range(vmax + 1)]
    out = [level[0]]
    for v in range(1, vmax + 1):
        lower, level = level, [
            PC * level[n + 1] if v == 1 else (v - 1) * lower[n + 1] + PC * level[n + 1]
            for n in range(vmax + 1 - v)]
        out.append(level[0])
    return out


# ---------------------------------------------------------------------------
# contracted blocks, one value per separation
# ---------------------------------------------------------------------------

class _Orbital(NamedTuple):
    """A contracted orbital on the pair axis: primitive coefficients and
    exponents, the angular momentum `l` along z (0 for s1, 1 for p2) and the
    position `z`, a float or an array with one entry per separation: (m, 1, 1)
    for the one-electron grids, (m, 1) for the electron-repulsion pair
    lists."""

    coef: np.ndarray
    exp: np.ndarray
    l: int
    z: object


def _orbital(kind: str, radius: float, z, n_terms: int) -> _Orbital:
    exponents, coefs = np.array(fit_gaussian_expansion(OrbitalSpec(kind, radius), n_terms).terms).T
    return _Orbital(coefs, exponents, 0 if kind == "s1" else 1, z)


def _charge_grid(x: _Orbital, y: _Orbital):
    """Exponent sum p, product center Pz and Hermite coefficients of x*y,
    over the ([m,] len x, len y) primitive grid. Across the pair axis the
    product is that of two s primitives on a common center."""
    a = x.exp[:, None]
    b = y.exp[None, :]
    p = a + b
    return p, (a * x.z + b * y.z) / p, _e_table(x.l, y.l, a, b, x.z, y.z)


def _contract(grid, weights):
    """sum_k grid[..., k] * weights[k] for each leading index, summed in one
    fixed order along a C-contiguous row, so that a separation's value does
    not depend on how many separations share the call (a BLAS product blocks
    the rows and can round one apart with another row count)."""
    return np.add.reduce(np.ascontiguousarray(grid) * weights, axis=-1)


def _one_electron(x: _Orbital, y: _Orbital, grid):
    """x.coef^T grid y.coef over the last two axes of the primitive grid."""
    return _contract(grid.reshape(grid.shape[:-2] + (-1,)), np.outer(x.coef, y.coef).ravel())


def _overlap(x: _Orbital, y: _Orbital):
    p, _, E = _charge_grid(x, y)
    return _one_electron(x, y, (np.pi / p) ** 1.5 * E[0])


def _kinetic(x: _Orbital, y: _Orbital):
    """<x| -laplacian/2 |y>, differentiating y's Gaussian along z (l <= 1);
    each transverse direction adds the s-s term (ab/p) times the overlap."""
    a = x.exp[:, None]
    b = y.exp[None, :]
    p = a + b
    j = y.l
    s = _e_table(x.l, j, a, b, x.z, y.z)[0]
    t = b * (2 * j + 1) * s - 2.0 * b * b * _e_table(x.l, j + 2, a, b, x.z, y.z)[0]
    return _one_electron(x, y, (np.pi / p) ** 1.5 * (t + 2.0 * a * b / p * s))


def _attraction(x: _Orbital, y: _Orbital, nuclei):
    """<x| -sum_C Z_C / r_C |y> over `nuclei`, a sequence of (Z_C, z_C)."""
    p, Pz, E = _charge_grid(x, y)
    total = 0.0
    for charge, zc in nuclei:
        R = _r_table(len(E) - 1, p, Pz - zc)
        total = total - charge * sum(e * r for e, r in zip(E, R))
    return _one_electron(x, y, 2.0 * math.pi / p * total)


class _Density(NamedTuple):
    """The product x*y as a flat list of primitive pairs along the last
    axis: contraction weights, exponent sums p, product centers Pz and the
    Hermite coefficients E_t."""

    weight: np.ndarray
    p: np.ndarray
    Pz: np.ndarray
    E: list


@functools.cache
def _index_pairs(n: int, m: int, same: bool):
    """Index pairs (i, j) of an n x m product and the weight of each: every
    pair, or, when both factors are one object (so n == m and the product is
    symmetric), each pair i <= j once, an off-diagonal pair weighted twice.
    Built once per shape; the arrays are read-only, as every call shares
    them."""
    if same:
        i, j = np.triu_indices(n)
        fold = np.where(i == j, 1.0, 2.0)
        fold.flags.writeable = False
    else:
        i, j = (k.ravel() for k in np.indices((n, m)))
        fold = 1.0
    i.flags.writeable = j.flags.writeable = False
    return i, j, fold


def _density(x: _Orbital, y: _Orbital) -> _Density:
    """x*y over its distinct primitive pairs: the product of an orbital with
    itself (`x is y`, both factors one coefficient and exponent array) keeps
    each pair i <= j once."""
    i, j, fold = _index_pairs(len(x.exp), len(y.exp), x is y)
    a, b = x.exp[i], y.exp[j]
    p = a + b
    return _Density(fold * x.coef[i] * y.coef[j], p, (a * x.z + b * y.z) / p,
                    _e_table(x.l, y.l, a, b, x.z, y.z))


def _eri(bra: _Density, ket: _Density):
    """Contracted (bra|ket) over every pair of their primitive pairs at
    once; when bra is ket, as in (AB|AB), each pair of pairs u <= v once."""
    u, v, fold = _index_pairs(len(bra.weight), len(ket.weight), bra is ket)
    p, q = bra.p[u], ket.p[v]
    R = _r_table(len(bra.E) + len(ket.E) - 2, p * q / (p + q),
                 np.take(bra.Pz, u, axis=-1) - np.take(ket.Pz, v, axis=-1))

    e_ket = [np.take(e, v, axis=-1) for e in ket.E]
    total = 0.0
    for s, e in enumerate(bra.E):
        eb = np.take(e, u, axis=-1)
        for t, ek in enumerate(e_ket):
            total = total + (-1.0) ** t * (eb * ek * R[s + t])

    weights = fold * bra.weight[u] * ket.weight[v] * (2.0 * math.pi**2.5 / (p * q * np.sqrt(p + q)))
    return _contract(total, weights)


def _by_chunks(price, size: int, B: _Orbital, z):
    """`price(B at z[i:i+size])` for each run of `size` separations, joined
    into one array per block."""
    parts = [price(B._replace(z=z[i:i + size])) for i in range(0, len(z), size)]
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


def _pair_blocks(kind_a, kind_b, radius_b, r, n_terms, two_electron):
    """All pair blocks at the reduced separations `r`, a 1-D array.

    Center A (radius 1, the length unit) sits at the origin, center B at
    (0, 0, r); a p2 orbital points along z, and each nuclear charge is the
    inverse of its center's radius. Returns one array per block, in medium
    hartrees, with one value per separation. Near-coincident orbitals are
    priced too; the readers of the blocks reject them (`_check_overlap`).

    The one-electron grids hold n_terms^2 primitives per separation and the
    electron-repulsion grids up to n_terms^4, so the first are priced
    `_R_CHUNK * n_terms^2` separations at a time and the second `_R_CHUNK`
    at a time: no grid holds more than `_R_CHUNK * n_terms^4` entries.
    """
    A = _orbital(kind_a, 1.0, 0.0, n_terms)
    B = _orbital(kind_b, radius_b, 0.0, n_terms)

    def one_electron(b):
        nuclei = ((1.0, A.z), (1.0 / radius_b, b.z))
        out = {"S": _overlap(A, b)}
        for name, (x, y) in (("hAA", (A, A)), ("hBB", (b, b)), ("hAB", (A, b))):
            out[name] = _kinetic(x, y) + _attraction(x, y, nuclei)
        return out

    out = _by_chunks(one_electron, _R_CHUNK * n_terms**2, B, r[:, None, None])
    if two_electron:
        aa = _density(A, A)

        def repulsion(b):
            ab = _density(A, b)
            return {"Jc": _eri(aa, _density(b, b)), "Kx": _eri(ab, ab)}

        out.update(_by_chunks(repulsion, _R_CHUNK, B, r[:, None]))
    return out


# ---------------------------------------------------------------------------
# reduced (dimensionless) pair points, cached
# ---------------------------------------------------------------------------

class _PairCache:
    """Pair blocks per reduced point, at most `maxsize` points, least
    recently used out first.

    A point's key, from `_pair_key`, is its pair configuration (kind_a,
    kind_b, radius_b, n_terms, two_electron) and its reduced separation; its
    row is one dict of plain floats. `fill` prices every key it does not
    hold, all of one configuration, in one `_pair_blocks` call with the
    separations in the order given, so a curve's misses are one batch;
    calling the cache reads one point, pricing it alone if it is not held
    (as a point that a fill into a full cache pushed out is). `cache_info()`
    is (hits, misses): reads served from the cache and points priced.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._rows = OrderedDict()
        self._hits = self._misses = 0

    def fill(self, keys) -> None:
        missing = [key for key in dict.fromkeys(keys) if key not in self._rows]
        if not missing:
            return
        self._misses += len(missing)
        config = missing[0][0]
        blocks = _pair_blocks(*config[:3], np.array([r for _, r in missing]), *config[3:])
        columns = [v.tolist() for v in blocks.values()]
        for key, values in zip(missing, zip(*columns)):
            self._rows[key] = dict(zip(blocks, values))
            if len(self._rows) > self.maxsize:
                self._rows.popitem(last=False)

    def __call__(self, key) -> dict:
        row = self._rows.get(key)
        if row is None:
            self.fill([key])
            return self._rows[key]
        self._hits += 1
        self._rows.move_to_end(key)
        return row

    def cache_info(self) -> tuple:
        return self._hits, self._misses


_reduced_pair = _PairCache(_CACHE_POINTS)


def _pair_key(a: OrbitalSpec, b: OrbitalSpec, separation_a: float, n_terms: int,
              two_electron: bool = True) -> tuple:
    """Pair-cache key of `a` and `b` at `separation_a` angstrom: the pair
    configuration and the reduced separation, every reduced length (in
    units of a's radius) rounded to 12 decimals."""
    scale = a.bohr_radius_a
    return ((a.kind, b.kind, round(b.bohr_radius_a / scale, 12), n_terms, two_electron),
            round(separation_a / scale, 12))


def _hopping(blocks: dict) -> float:
    """Orthogonalized hopping (hAB - S (hAA + hBB) / 2) / (1 - S^2)."""
    s = blocks["S"]
    return (blocks["hAB"] - s * (blocks["hAA"] + blocks["hBB"]) / 2.0) / (1.0 - s * s)


def _check_overlap(s: float, separation_a: float) -> None:
    """Reject a pair whose orbitals nearly coincide, naming the separation
    in angstrom the caller passed."""
    if abs(s) > _OVERLAP_LIMIT:
        raise IllConditionedGeometryError(
            f"|S| = {abs(s):.4f} at separation {separation_a:g} A; "
            "orbitals nearly coincide")


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
    a: OrbitalSpec,
    b: OrbitalSpec,
    separation_a: float,
    epsilon: float,
    n_terms: int = 6,
) -> PairIntegralResult:
    """Heitler-London integrals for envelopes `a` and `b` on centers
    `separation_a` angstrom apart (finite, positive) in a medium of
    dielectric constant `epsilon` (finite, above 1).

    A p2 envelope on either center is the 2p-sigma envelope pointing along
    the line between the two centers, so only their separation enters. In
    the length unit l = a_A the nuclear charges are (l/a_A, l/a_B): each
    isolated center then binds its own 1s envelope with its Coulombic
    binding energy in the medium. The blocks are read from the pair cache.
    """
    check_n_terms(n_terms)  # before the cache, where 6.0 would hit a 6 entry
    r_ang = float(separation_a)
    if not (math.isfinite(r_ang) and r_ang > 0.0):
        raise PreconditionError(f"separation_a must be finite and positive, got {r_ang!r}")
    if not (math.isfinite(epsilon) and epsilon > 1.0):
        raise PreconditionError(f"epsilon must be finite and exceed 1, got {epsilon!r}")

    return _heitler_london(a, b, r_ang, epsilon, _reduced_pair(_pair_key(a, b, r_ang, n_terms)))


def _heitler_london(a: OrbitalSpec, b: OrbitalSpec, separation_a: float, epsilon: float,
                    blocks: dict) -> PairIntegralResult:
    """The pair result of `a` and `b` at `separation_a` angstrom from their
    reduced `blocks`, after rejecting near-coincident orbitals."""
    scale = a.bohr_radius_a  # length unit l
    hartree = medium_hartree_mev(epsilon, scale)
    zb = scale / b.bohr_radius_a

    s = blocks["S"]
    _check_overlap(s, separation_a)
    jc, kx = blocks["Jc"], blocks["Kx"]
    vnn = zb / (separation_a / scale)
    h11 = blocks["hAA"] + blocks["hBB"] + jc + vnn
    h12 = 2.0 * s * blocks["hAB"] + kx + s * s * vnn
    e_singlet = (h11 + h12) / (1.0 + s * s)
    e_triplet = (h11 - h12) / (1.0 - s * s)

    return PairIntegralResult(
        separation_a=separation_a,
        overlap=s,
        transfer_mev=_hopping(blocks) * hartree,
        coulomb_mev=jc * hartree,
        exchange_integral_mev=kx * hartree,
        singlet_mev=e_singlet * hartree,
        triplet_mev=e_triplet * hartree,
        exchange_splitting_mev=(e_triplet - e_singlet) * hartree,
    )


def _check_grid(r_grid) -> list[float]:
    grid = [float(r) for r in r_grid]
    if (not all(math.isfinite(r) and r > 0 for r in grid)
            or any(b <= a for a, b in zip(grid, grid[1:]))):
        raise PreconditionError("R grid must be finite, positive and strictly increasing")
    return grid


def exchange_curve(
    control: DonorModel,
    qubit: DonorModel,
    excited: bool,
    r_grid,
    n_terms: int = 6,
) -> list[PairIntegralResult]:
    """J(R) for the control-qubit pair, control ground (1s) or excited (2p).

    The excited control is the 2p-sigma envelope pointing at the qubit.

    Each grid point's pair-cache key is built once. The points missing from
    the cache (at most 4096 reduced points, least recently used out first)
    are priced first, in one call of the integral kernel along a separation
    axis. Each point is then read from the cache with its key and assembled
    as `pair_integrals` assembles it, so a point equals a `pair_integrals`
    call on the same two envelopes at that separation.
    """
    grid = _check_grid(r_grid)
    check_n_terms(n_terms)
    if abs(control.dielectric_constant - qubit.dielectric_constant) > 1e-9:
        raise InvalidModelError("pair models must share the medium dielectric")
    a = (OrbitalSpec("p2", control.excited_orbital_radius_a()) if excited
         else OrbitalSpec("s1", control.ground_orbital_radius_a()))
    b = OrbitalSpec("s1", qubit.ground_orbital_radius_a())
    keys = [_pair_key(a, b, r, n_terms) for r in grid]
    _reduced_pair.fill(keys)
    return [_heitler_london(a, b, r, control.dielectric_constant, _reduced_pair(key))
            for r, key in zip(grid, keys)]


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

    As in `exchange_curve`, each point's key is built once, the grid's cache
    misses are priced first in one kernel call along a separation axis,
    one-electron blocks only, and each point is then read from the pair
    cache with its key.
    """
    grid = _check_grid(r_grid)
    check_n_terms(n_terms)
    finite(base_transition_mev, "base_transition_mev", PreconditionError)
    p2 = OrbitalSpec("p2", control.excited_orbital_radius_a())
    hartree = medium_hartree_mev(control.dielectric_constant, p2.bohr_radius_a)
    keys = [_pair_key(p2, p2, r, n_terms, two_electron=False) for r in grid]
    _reduced_pair.fill(keys)
    out = []
    for r, key in zip(grid, keys):
        blocks = _reduced_pair(key)
        _check_overlap(blocks["S"], r)
        t_mev = _hopping(blocks) * hartree
        out.append(TransferSplitting(
            separation_a=r,
            transfer_mev=t_mev,
            splitting_mev=2.0 * abs(t_mev),
            branch_lower_mev=base_transition_mev - abs(t_mev),
            branch_upper_mev=base_transition_mev + abs(t_mev),
        ))
    return out
