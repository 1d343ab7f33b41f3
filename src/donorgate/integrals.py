"""Two-center integrals and Heitler-London pair energies.

Every block is a contraction over the Gaussian expansions from `orbitals`,
priced by McMurchie & Davidson's Hermite recursions (J. Comput. Phys. 26,
218, 1978): Hermite expansion coefficients E_t, Hermite-Coulomb kernels R_tuv
from the Boys function. The recursions run once per block with the primitive
exponents as numpy grids, so an overlap, kinetic, nuclear-attraction or
electron-repulsion block is one contracted call whatever the expansion
length. The one-electron products of a pair that share their angular
momenta (l_x, l_y), <B|B> and <A|B> of a ground s1-s1 or a transfer p2-p2
pair, are stacked on one grid, so one Hermite table serves their overlaps,
kinetic energies (from the table's extra row E_0^{la,lb+2}, pruned to t =
0) and nuclear attractions. Center A's terms do not depend on the
separation: its orbital, its self-density and every part of <A|h|A> but
the attraction to center B are a constant table per (kind, n_terms),
`_center_a`, built on first use.

The grids also carry a leading separation axis: center A sits at the origin
and center B at (0, 0, r) with r an array of reduced separations, so one
kernel call, `_pair_blocks`, prices every block at every separation it is
given and returns one value per separation. Inside the call the grids are
cut along that axis to bound their temporaries: the one-electron grids hold
their products times n_terms^2 entries per separation and the
electron-repulsion grids up to n_terms^2 (n_terms^2 + 1) / 2, and each kind
is priced in the fewest near-equal chunks of separations whose grids hold
at most `_GRID_ENTRIES` entries. Separations past `_REACH` Bohr radii of
center B are rejected, as rounding there reaches the kinetic energy. An
electron-repulsion integral runs over the distinct primitive pairs only:
the product of an orbital with itself keeps each pair i <= j once, and
(AB|AB), whose bra and ket are one product, keeps each pair of pairs u <= v
once, an off-diagonal entry weighted twice; those index pairs are built
once per shape, and each integral's quartets (index pairs, reduced
exponents and weights) once per call. Each block is reduced to its value
per separation by a fixed-order sum along contiguous rows, never by a BLAS
product, so a separation's blocks are the same bits whatever batch prices
it.

The Boys function is evaluated at its top order only and recurred downward,
F_n = (2x F_{n+1} + e^-x) / (2n + 1), which is stable in that direction.
F_0 alone comes from erf. A higher top order is read from a table of F_m,
m <= 10, at the nodes x = i/100 below x = 50, filled on first use: five
Taylor terms about the nearest node, and the asymptote
Gamma(n+1/2) / (2 x^(n+1/2)) from x = 50 on (Helgaker, Jorgensen & Olsen,
Molecular Electronic-Structure Theory, section 9.8).

`exchange_curve`, `transfer_splitting_curve` and `pair_integrals` read
their blocks from one cache of whole pricing calls, `_reduced_pair`, which
holds the last `_CACHE_CALLS` (64) calls. A call builds its pair
configuration once and rounds each reduced separation to 12 decimals with
Python's `round`. The configuration and the tuple of those keys are the
cache key; a miss prices every point in one kernel call and holds its
blocks as one read-only (points, blocks) array. The Heitler-London assembly,
`_pair_curve`, works on that array's columns, and `pair_integrals` is that
assembly at one point. A curve comes back as a `Curve`: one read-only
array per field, whose rows are built only when read.

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
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np
from scipy.special import erf, gammainc

from .constants import medium_hartree_mev
from .donor import DonorModel
from .errors import IllConditionedGeometryError, InvalidModelError, PreconditionError, finite
from .orbitals import OrbitalSpec, check_n_terms, fit_gaussian_expansion

_OVERLAP_LIMIT = 0.999
# the farthest separation priced, in center B's Bohr radii: the product of an
# orbital with itself at z has its center Pz off z by up to 4u|z| (u =
# 2^-53), and the kinetic row E_0^{l,l+2} takes that offset d squared beside
# 1/2p. With p <= 2b for the largest exponent b of any frozen fit, 84.6 in B's
# radii, 4 b d^2 <= u holds up to z = 1 / (8 sqrt(b u)) = 1.29e6; farther,
# energies drift (fig2a's ground singlet by 3 % at 1e15 A) and then overflow
_REACH = 1e6
# entries a grid inside a kernel call holds at most, which bounds its
# temporaries: a call's separations are cut into the fewest near-equal chunks
# under it. It is 16 separations of (AB|AB) at n_terms = 6, 666 primitive
# quartets each, 85 kB a float grid, and the allocator sets its ceiling:
# from glibc's 128 KiB mmap threshold on, each temporary is mapped and
# page-faulted afresh. A 25-point p2-s1 pricing at 16 or 24 separations a
# chunk took 0-0.1 minor page faults a call, and at 25 (one 133 kB chunk)
# 434-531 and 14-35 % longer; with 8, 12, 25 or 32 in its place a
# curve_sweep op took 10-14, 4-6, 11-22 and 11-18 % longer
_GRID_ENTRIES = 16 * 666
# pricing calls the cache of reduced pair blocks holds
_CACHE_CALLS = 64
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
        two_x = 2.0 * x
        for n in range(nmax - 1, 0, -1):
            out.append((two_x * out[-1] + decay) / (2 * n + 1))
        out.append(two_x * out[-1] + decay)
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
        if not small.any():
            root = np.sqrt(x)
            return [math.sqrt(math.pi) * erf(root) / (2.0 * root)]
        root = np.sqrt(np.where(small, 1.0, x))
        return [np.where(small, 1.0 - x / 3.0, math.sqrt(math.pi) * erf(root) / (2.0 * root))]
    if nmax + _BOYS_TERMS - 1 > _BOYS_MAX_ORDER:
        raise PreconditionError(f"the Boys table serves nmax <= "
                                f"{_BOYS_MAX_ORDER - _BOYS_TERMS + 1}, got {nmax}")
    node = np.rint(np.minimum(x, _BOYS_X_MAX) / _BOYS_STEP)
    dx = x - node * _BOYS_STEP
    node = node.astype(np.intp)
    rows = _boys_nodes()[nmax:nmax + _BOYS_TERMS]
    top = rows[-1].take(node)
    for k in range(_BOYS_TERMS - 2, -1, -1):
        top = rows[k].take(node) - (dx * top / (k + 1) if k else dx * top)
    far = x >= _BOYS_X_MAX
    if far.any():
        a = nmax + 0.5
        top[far] = math.gamma(a) / (2.0 * x[far] ** a)
    return _boys_down(nmax, x, top)


def _e_table(la: int, lb: int, a, b, p, Pz, Az, Bz, kinetic: bool):
    """(E_t^{la,lb} for t = 0..la+lb, E_0^{la,lb+2} if `kinetic` else None)
    along z over broadcastable exponent grids, with p = a + b and center Pz.

    Built up from E^{00}: lb steps on the B index, then la on the A index,
    each E^{+1}_t = E_{t-1} / 2p + X E_t + (t+1) E_{t+1} with X = P - B or
    P - A. The kinetic row leaves after the lb B steps for two more and the
    la A steps, keeping only the t that can still reach t = 0.
    """
    two_p = 2 * p
    XB = Pz - Bz if lb or kinetic else None
    XA = Pz - Az if la else None

    def step(row, X, keep):
        # the next row's first `keep` t; its top, E^{00} / (2p)^k, is never -0.0
        n = len(row)
        nxt = [X * row[0] + row[1] if n > 1 else X * row[0]]
        for t in range(1, min(n + 1, keep)):
            v = row[t - 1] / two_p + X * row[t] if t < n else row[t - 1] / two_p
            nxt.append(v + (t + 1) * row[t + 1] if t + 1 < n else v)
        return nxt

    xab = Az - Bz
    row = [np.exp(-(a * b / p) * xab * xab)]
    for _ in range(lb):
        row = step(row, XB, len(row) + 1)
    k_row = row
    for k, X in enumerate([XB, XB] + [XA] * la if kinetic else []):
        k_row = step(k_row, X, la + 2 - k)
    for _ in range(la):
        row = step(row, XA, len(row) + 1)
    return row, (k_row[0] if kinetic else None)


def _r_table(vmax: int, p, PC):
    """Hermite-Coulomb R_{00v}, v = 0..vmax, over grid-shaped p and PC.

    Every charge sits on the z axis, so only the z offset PC enters. Level v
    holds R^n_{00v} for n = 0..vmax-v, from
    R^n_{00v} = (v-1) R^{n+1}_{00,v-2} + PC R^{n+1}_{00,v-1}.
    """
    F = _boys_array(vmax, p * PC**2)
    lower, level = None, [F[0]] + [(-2.0 * p) ** n * F[n] for n in range(1, vmax + 1)]
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


def _contract(grid, weights):
    """sum_k grid[..., k] * weights[k] for each leading index, summed in one
    fixed order along a C-contiguous row, so that a separation's value does
    not depend on how many separations share the call (a BLAS product blocks
    the rows and can round one apart with another row count)."""
    return np.add.reduce(np.ascontiguousarray(grid) * weights, axis=-1)


def _one_electron(pairs, charge_b: float, zb):
    """(S, T + V) of each product x*y in `pairs`, which all share (x.l,
    y.l): <x|y>, and <x| -laplacian/2 - 1/r_A - charge_b/r_B |y> with center
    A's unit charge at the origin and center B's at `zb`, the (m, 1, 1)
    separations. One Hermite table, one Hermite-Coulomb table per nucleus
    and one contraction per term serve every product, over the stacked
    (product, [m,] len x, len y) primitive grid (across the pair axis, two s
    primitives on a common center); each result has one row per product. T
    differentiates y's Gaussian along z (l <= 1), which takes the table's
    kinetic row E_0^{l_x,l_y+2}; each transverse direction adds (ab/p) S.

    Center A's attraction takes Pz itself as its offset and no charge
    factor, as its z is 0 and its charge 1. It starts as 0.0 - x, so a +0.0
    sum (E underflowed) leaves V at +0.0 where -x would leave -0.0, but no
    block's bytes depend on which. T + V is -0.0 only if both its
    contractions are, and the kinetic one only if each of its terms is: its
    weights are positive (so is every frozen fit coefficient), so each
    entry t + (2ab/p) s would be -0.0, which needs s = E_0 = -0.0 with a
    +0.0 kinetic row. E_0 is -0.0 only as X_B E^{00} with E^{00}
    underflowed on <A|B> (X_B < 0), for (l_x, l_y) = (0, 1), and then the
    kinetic row is -0.0 too. tests/test_integrals.py checks the fits' signs,
    the kinetic entries and that an underflowed hAB is +0.0."""
    xs, ys = zip(*pairs)
    a = np.stack([x.exp for x in xs])[:, None, :, None]
    b = np.stack([y.exp for y in ys])[:, None, None, :]
    Az, Bz = (np.stack(np.broadcast_arrays(*(o.z for o in side))).reshape(len(pairs), -1, 1, 1)
              for side in (xs, ys))
    p = a + b
    Pz = (a * Az + b * Bz) / p
    E, k_row = _e_table(xs[0].l, ys[0].l, a, b, p, Pz, Az, Bz, kinetic=True)
    s = E[0]
    t = b * (2 * ys[0].l + 1) * s - 2.0 * b * b * k_row
    v = 0.0 - sum(e * r for e, r in zip(E, _r_table(len(E) - 1, p, Pz)))
    v = v - charge_b * sum(e * r for e, r in zip(E, _r_table(len(E) - 1, p, Pz - zb)))
    weights = np.stack([np.outer(x.coef, y.coef).ravel() for x, y in pairs])[:, None]

    def contract(grid):
        return _contract(grid.reshape(grid.shape[:-2] + (-1,)), weights)

    g = (np.pi / p) ** 1.5
    return (contract(g * s),
            contract(g * (t + 2.0 * a * b / p * s)) + contract(2.0 * math.pi / p * v))


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
    Pz = (a * x.z + b * y.z) / p
    return _Density(fold * x.coef[i] * y.coef[j], p, Pz,
                    _e_table(x.l, y.l, a, b, p, Pz, x.z, y.z, kinetic=False)[0])


class _CenterA(NamedTuple):
    """Center A's terms, which no pricing call changes: A is the radius-1
    orbital at the origin, so every A*A entry is the same at every
    separation. `orbital` is A; `density` is A*A over its distinct
    primitive pairs, the repulsion blocks' bra of Jc. The rest is <A|h|A>
    as `_one_electron` grids it, (n, n) primitive pairs: exponent sums `p`,
    centers `Pz` (all 0), Hermite rows `E`, the factor 2 pi / p, the
    contraction `weights`, the contracted kinetic term `kinetic` and the
    attraction to A's own nucleus `v_own`, 0.0 - sum_t E_t R_t, per
    primitive pair."""

    orbital: _Orbital
    density: _Density
    p: np.ndarray
    Pz: np.ndarray
    E: list
    two_pi_over_p: np.ndarray
    weights: np.ndarray
    kinetic: float
    v_own: np.ndarray


@functools.cache
def _center_a(kind: str, n_terms: int) -> _CenterA:
    """Center A's terms for an orbital `kind` of `n_terms` primitives, with
    the float operations and operands of `_one_electron`'s (A, A) product,
    built on first use; the arrays are read-only, as every call shares
    them."""
    A = _orbital(kind, 1.0, 0.0, n_terms)
    a, b = A.exp[:, None], A.exp[None, :]
    p = a + b
    Pz = (a * A.z + b * A.z) / p
    E, k_row = _e_table(A.l, A.l, a, b, p, Pz, A.z, A.z, kinetic=True)
    s = E[0]
    t = b * (2 * A.l + 1) * s - 2.0 * b * b * k_row
    weights = np.outer(A.coef, A.coef).ravel()
    kinetic = _contract(((np.pi / p) ** 1.5 * (t + 2.0 * a * b / p * s)).ravel(), weights)
    v_own = 0.0 - sum(e * r for e, r in zip(E, _r_table(len(E) - 1, p, Pz)))
    center = _CenterA(A, _density(A, A), p, Pz, E, 2.0 * math.pi / p, weights, float(kinetic),
                      v_own)
    density = center.density
    for array in (A.coef, A.exp, density.weight, density.p, density.Pz, *density.E, p, Pz, *E,
                  center.two_pi_over_p, weights, v_own):
        array.flags.writeable = False
    return center


def _h_aa(center: _CenterA, charge_b: float, zb):
    """<A|h|A> at the (m, 1, 1) separations `zb`: only the attraction to
    center B is priced, then added as `_one_electron` adds it."""
    E = center.E
    v = center.v_own - charge_b * sum(e * r for e, r in zip(E, _r_table(len(E) - 1, center.p,
                                                                         center.Pz - zb)))
    return center.kinetic + _contract((center.two_pi_over_p * v).reshape(len(zb), -1),
                                      center.weights)


class _Quartets(NamedTuple):
    """The primitive quartets of (bra|ket), which do not depend on the
    separation: index pairs `u` into bra's primitive pairs and `v` into
    ket's, reduced exponents pq / (p + q) and contraction weights."""

    u: np.ndarray
    v: np.ndarray
    reduced: np.ndarray
    weights: np.ndarray


def _quartets(bra: _Density, ket: _Density) -> _Quartets:
    """(bra|ket)'s quartets: every pair of their primitive pairs, or, when
    bra is ket, as in (AB|AB), each pair of pairs u <= v once."""
    u, v, fold = _index_pairs(len(bra.weight), len(ket.weight), bra is ket)
    p, q = bra.p[u], ket.p[v]
    weights = fold * bra.weight[u] * ket.weight[v] * (2.0 * math.pi**2.5 / (p * q * np.sqrt(p + q)))
    return _Quartets(u, v, p * q / (p + q), weights)


def _eri(bra: _Density, ket: _Density, quartets: _Quartets):
    """Contracted (bra|ket) over `quartets`, all at once."""
    u, v, reduced, weights = quartets
    R = _r_table(len(bra.E) + len(ket.E) - 2, reduced,
                 np.take(bra.Pz, u, axis=-1) - np.take(ket.Pz, v, axis=-1))

    e_ket = [np.take(e, v, axis=-1) for e in ket.E]
    total = 0.0
    for s, e in enumerate(bra.E):
        eb = np.take(e, u, axis=-1)
        for t, ek in enumerate(e_ket):
            term = eb * ek * R[s + t]
            total = total - term if t % 2 else total + term
    return _contract(total, weights)


def _rows(density: _Density, rows: slice) -> _Density:
    """The separations `rows` of a density priced over a call's separations
    (its Pz and E rows; its weights and p do not depend on them)."""
    return density._replace(Pz=density.Pz[rows], E=[e[rows] for e in density.E])


def _by_chunks(price, per_separation: int, count: int):
    """`price(slice(i, j))` over the fewest near-equal runs of `count`
    separations whose grids, `per_separation` entries each, hold at most
    `_GRID_ENTRIES` entries (one separation at least), joined into one array
    per block."""
    pieces = -(-count // max(1, _GRID_ENTRIES // per_separation))
    bounds = [count * k // pieces for k in range(pieces + 1)]
    parts = [price(slice(i, j)) for i, j in zip(bounds, bounds[1:])]
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


def _pair_blocks(kind_a, kind_b, radius_b, r, n_terms, two_electron):
    """All pair blocks at the reduced separations `r`, a 1-D array.

    Center A (radius 1, the length unit) sits at the origin, center B at
    (0, 0, r); a p2 orbital points along z, and each nuclear charge is the
    inverse of its center's radius. Returns one array per block, in medium
    hartrees, with one value per separation. Near-coincident orbitals are
    priced too; the readers of the blocks reject them (`_check_overlap`).

    Center A's terms come from `_center_a`, so of <A|h|A> only the
    attraction to center B is priced. <B|B> and <A|B> share (l_x, l_y)
    exactly when the two orbitals share l, as in a ground s1-s1 or a
    transfer p2-p2 pair; then one `_one_electron` pass prices both, and
    otherwise one pass each. B's densities and each repulsion block's
    quartets are built once over all separations. A pass's grids hold its
    products times n_terms^2 entries per separation, and the
    electron-repulsion grids, (AB|AB) the largest, n_terms^2 (n_terms^2 +
    1) / 2, so each kind of pass cuts the separations into the fewest
    near-equal chunks whose grids hold at most `_GRID_ENTRIES`.
    """
    center = _center_a(kind_a, n_terms)
    A = center.orbital
    B = _orbital(kind_b, radius_b, 0.0, n_terms)
    charge_b = 1.0 / radius_b
    names = ("hBB", "hAB")
    groups = [names] if A.l == B.l else [(name,) for name in names]

    def one_electron(rows):
        zb = r[rows, None, None]
        b = B._replace(z=zb)
        products = {"hBB": (b, b), "hAB": (A, b)}
        s, h = {}, {"hAA": _h_aa(center, charge_b, zb)}
        for group in groups:
            s_group, h_group = _one_electron([products[name] for name in group], charge_b, zb)
            s.update(zip(group, s_group))
            h.update(zip(group, h_group))
        return {"S": s["hAB"], "hAA": h["hAA"], "hBB": h["hBB"], "hAB": h["hAB"]}

    out = _by_chunks(one_electron, len(groups[0]) * n_terms**2, len(r))
    if two_electron:
        aa = center.density
        b = B._replace(z=r[:, None])
        ab, bb = _density(A, b), _density(b, b)
        coulomb, exchange = _quartets(aa, bb), _quartets(ab, ab)

        def repulsion(rows):
            ab_rows = _rows(ab, rows)
            return {"Jc": _eri(aa, _rows(bb, rows), coulomb),
                    "Kx": _eri(ab_rows, ab_rows, exchange)}

        out.update(_by_chunks(repulsion, n_terms**2 * (n_terms**2 + 1) // 2, len(r)))
    return out


# ---------------------------------------------------------------------------
# reduced (dimensionless) pair blocks, cached by pricing call
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=_CACHE_CALLS)
def _reduced_pair(config: tuple, separations: tuple) -> np.ndarray:
    """The blocks of the pair configuration `config`, (kind_a, kind_b,
    radius_b, n_terms, two_electron), at the reduced separations
    `separations`, both keyed by `_read_blocks`: one kernel call in grid
    order, as one read-only (points, blocks) array whose columns are S, hAA,
    hBB, hAB and, with two-electron blocks, Jc and Kx."""
    blocks = _pair_blocks(*config[:3], np.array(separations), *config[3:])
    table = np.column_stack(list(blocks.values()))
    table.flags.writeable = False
    return table


def _read_blocks(a: OrbitalSpec, b: OrbitalSpec, separation_a: np.ndarray, n_terms: int,
                 two_electron: bool = True) -> np.ndarray:
    """`_reduced_pair`'s blocks of `a` and `b` at the separations
    `separation_a` (angstrom, a 1-D array). Its key is the pair
    configuration, built once with the radius ratio rounded to 12 decimals,
    and the tuple of reduced separations (in units of a's radius), each
    rounded to 12 decimals; Python's `round` makes every key. An empty grid
    gives an empty array and reaches neither the cache nor the kernel, whose
    chunks cannot cut zero separations."""
    if not len(separation_a):
        return np.empty((0, 6 if two_electron else 4))
    scale = a.bohr_radius_a
    config = (a.kind, b.kind, round(b.bohr_radius_a / scale, 12), n_terms, two_electron)
    return _reduced_pair(config, tuple(round(r, 12) for r in (separation_a / scale).tolist()))


def _hopping(s, h_aa, h_bb, h_ab):
    """Orthogonalized hopping (hAB - S (hAA + hBB) / 2) / (1 - S^2)."""
    return (h_ab - s * (h_aa + h_bb) / 2.0) / (1.0 - s * s)


def _splitting(t_mev):
    """The splitting 2|t| of two controls' branches at base +/- |t|."""
    return 2.0 * np.abs(t_mev)


def _check_overlap(s: np.ndarray, separation_a: np.ndarray) -> None:
    """Reject pairs whose orbitals nearly coincide, naming the first such
    separation in grid order, in angstrom as the caller passed it."""
    close = np.abs(s) > _OVERLAP_LIMIT
    if close.any():
        i = int(np.argmax(close))
        raise IllConditionedGeometryError(
            f"|S| = {abs(float(s[i])):.4f} at separation {float(separation_a[i]):g} A; "
            "orbitals nearly coincide")


def _check_reach(b: OrbitalSpec, separation_a: np.ndarray) -> None:
    """Reject separations past `_REACH` Bohr radii of center B, naming the
    first such separation in grid order, in angstrom."""
    limit = _REACH * b.bohr_radius_a
    far = separation_a > limit
    if far.any():
        raise PreconditionError(
            f"separation {float(separation_a[np.argmax(far)]):g} A is past {_REACH:g} Bohr "
            f"radii of center B ({limit:g} A), where rounding of the product centers "
            "reaches the kinetic energy")


def _check_grid(r_grid) -> np.ndarray:
    """`r_grid`, an iterable of real numbers (a bool or a string is not
    one), as a new 1-D float array; it must be finite, positive and strictly
    increasing. A tuple or list of finite floats, as a preset grid is, is
    read in one numpy pass; any other is read entry by entry, naming the
    first entry that is not a finite number."""
    if isinstance(r_grid, (tuple, list)) and all(isinstance(r, float) for r in r_grid):
        floats = np.array(r_grid, dtype=float)
        if np.isfinite(floats).all():
            r_grid = floats
    if not (isinstance(r_grid, np.ndarray) and r_grid.dtype.kind in "fiu"):
        try:
            r_grid = [finite(r, "each R grid entry", PreconditionError) for r in r_grid]
        except TypeError:
            raise PreconditionError(f"R grid must be an iterable of numbers, got {r_grid!r}") from None
    grid = np.array(r_grid, dtype=float)
    if grid.ndim != 1 or not (np.isfinite(grid).all() and (grid > 0.0).all()
                              and (grid[1:] > grid[:-1]).all()):
        raise PreconditionError("R grid must be finite, positive and strictly increasing")
    return grid


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


class Curve(Sequence):
    """A curve's rows as columns: one read-only float array per field of
    `row_type` (`PairIntegralResult` or `TransferSplitting`), as the
    attribute of that name, one entry per grid point.

    `len()` is the number of grid points. Indexing and iteration give
    `row_type` rows of plain floats, built only when read, and a slice gives
    a `Curve`; two curves are equal when their rows are.
    """

    def __init__(self, row_type, **columns):
        for column in columns.values():
            column.flags.writeable = False
        vars(self).update(columns, row_type=row_type, _columns=tuple(columns.values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"a {type(self).__name__} is read-only")

    def __len__(self) -> int:
        return len(self.separation_a)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Curve(self.row_type, **{f.name: getattr(self, f.name)[i]
                                           for f in fields(self.row_type)})
        return self.row_type(*(column[i].item() for column in self._columns))

    def __iter__(self):
        return map(self.row_type, *(column.tolist() for column in self._columns))

    def __eq__(self, other):
        if not isinstance(other, Curve):
            return NotImplemented
        return self.row_type is other.row_type and list(self) == list(other)

    __hash__ = None


def _pair_curve(a: OrbitalSpec, b: OrbitalSpec, grid: np.ndarray, epsilon: float,
                n_terms: int) -> Curve:
    """The Heitler-London rows of `a` and `b` at the separations `grid`
    (angstrom, a checked 1-D array), assembled from the columns of one
    cached pricing call's (points, blocks) array.

    The one assembly of `exchange_curve` and `pair_integrals`: every step
    is a numpy operation over all points at once, in the order and with the
    operands a point's scalar formula takes, so a point's row does not
    depend on the grid around it. Separations past `_REACH` Bohr radii of
    b, then near-coincident orbitals, are rejected first, each naming the
    first such separation.
    """
    scale = a.bohr_radius_a  # length unit l
    hartree = medium_hartree_mev(epsilon, scale)
    zb = scale / b.bohr_radius_a

    _check_reach(b, grid)
    s, h_aa, h_bb, h_ab, jc, kx = _read_blocks(a, b, grid, n_terms).T
    _check_overlap(s, grid)
    vnn = zb / (grid / scale)
    h11 = h_aa + h_bb + jc + vnn
    h12 = 2.0 * s * h_ab + kx + s * s * vnn
    e_singlet = (h11 + h12) / (1.0 + s * s)
    e_triplet = (h11 - h12) / (1.0 - s * s)

    return Curve(
        PairIntegralResult,
        separation_a=grid,
        overlap=s,
        transfer_mev=_hopping(s, h_aa, h_bb, h_ab) * hartree,
        coulomb_mev=jc * hartree,
        exchange_integral_mev=kx * hartree,
        singlet_mev=e_singlet * hartree,
        triplet_mev=e_triplet * hartree,
        exchange_splitting_mev=(e_triplet - e_singlet) * hartree,
    )


def pair_integrals(
    a: OrbitalSpec,
    b: OrbitalSpec,
    separation_a: float,
    epsilon: float,
    n_terms: int = 6,
) -> PairIntegralResult:
    """Heitler-London integrals for envelopes `a` and `b` on centers
    `separation_a` angstrom apart (finite, positive, at most 1e6 Bohr radii
    of `b`, where rounding would reach the kinetic energy) in a medium of
    dielectric constant `epsilon` (finite, above 1).

    A p2 envelope on either center is the 2p-sigma envelope pointing along
    the line between the two centers, so only their separation enters. In
    the length unit l = a_A the nuclear charges are (l/a_A, l/a_B): each
    isolated center then binds its own 1s envelope with its Coulombic
    binding energy in the medium. The blocks are a one-point pricing call,
    cached as a curve's is, and the result is `exchange_curve`'s assembly
    at one point, so it equals a curve's row at that separation bit for bit.
    """
    check_n_terms(n_terms)  # before the cache, where 6.0 would hit a 6 entry
    r_ang = float(separation_a)
    if not (math.isfinite(r_ang) and r_ang > 0.0):
        raise PreconditionError(f"separation_a must be finite and positive, got {r_ang!r}")
    if not (math.isfinite(epsilon) and epsilon > 1.0):
        raise PreconditionError(f"epsilon must be finite and exceed 1, got {epsilon!r}")
    return _pair_curve(a, b, np.array([r_ang]), epsilon, n_terms)[0]


def exchange_curve(
    control: DonorModel,
    qubit: DonorModel,
    excited: bool,
    r_grid,
    n_terms: int = 6,
) -> Curve:
    """J(R) for the control-qubit pair, control ground (1s) or excited (2p),
    as a `Curve` of `PairIntegralResult` rows, one per point of `r_grid`
    (finite, positive, strictly increasing, in angstrom, and at most 1e6
    Bohr radii of the qubit's ground envelope, as in `pair_integrals`).

    The excited control is the 2p-sigma envelope pointing at the qubit.

    The pair configuration is built once per call, and each point's reduced
    separation is rounded once. A call the cache does not hold (it keeps
    the last 64) prices every point in one call of the integral kernel
    along a separation axis, however long the grid; a repeat call reads
    that call's blocks back. The blocks come as one array and are assembled
    as columns, as `pair_integrals` assembles one point, so a row equals a
    `pair_integrals` call on the same two envelopes at that separation.
    """
    grid = _check_grid(r_grid)
    check_n_terms(n_terms)
    if abs(control.dielectric_constant - qubit.dielectric_constant) > 1e-9:
        raise InvalidModelError("pair models must share the medium dielectric")
    a = (OrbitalSpec("p2", control.excited_orbital_radius_a()) if excited
         else OrbitalSpec("s1", control.ground_orbital_radius_a()))
    b = OrbitalSpec("s1", qubit.ground_orbital_radius_a())
    return _pair_curve(a, b, grid, control.dielectric_constant, n_terms)


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
) -> Curve:
    """Excitation-sharing splitting of two identical controls versus R, as a
    `Curve` of `TransferSplitting` rows, one per point of `r_grid` (as in
    `exchange_curve`, at most 1e6 Bohr radii of the 2p envelope).

    One shared excitation hopping between two sigma-aligned 2p envelopes
    splits the transition into branches at base +/- |t|; the splitting is
    2|t|. Monopole shifts are excluded: both donors are neutral, so the
    ion-ion and electron-ion monopole tails compensate.

    As in `exchange_curve`, a call the cache does not hold prices the grid
    in one kernel call along a separation axis, one-electron blocks only,
    and the blocks are read as one array and assembled as columns, so a
    row equals a one-point curve at that separation.
    """
    grid = _check_grid(r_grid)
    check_n_terms(n_terms)
    base = finite(base_transition_mev, "base_transition_mev", PreconditionError)
    p2 = OrbitalSpec("p2", control.excited_orbital_radius_a())
    hartree = medium_hartree_mev(control.dielectric_constant, p2.bohr_radius_a)
    _check_reach(p2, grid)
    s, h_aa, h_bb, h_ab = _read_blocks(p2, p2, grid, n_terms, two_electron=False).T
    _check_overlap(s, grid)
    t_mev = _hopping(s, h_aa, h_bb, h_ab) * hartree
    return Curve(
        TransferSplitting,
        separation_a=grid,
        transfer_mev=t_mev,
        splitting_mev=_splitting(t_mev),
        branch_lower_mev=base - np.abs(t_mev),
        branch_upper_mev=base + np.abs(t_mev),
    )
