"""Diamond lattice geometry: site enumeration, neighbor shells, doping.

All integer site algebra happens in units of a0/4 (a0 = conventional cubic
lattice constant), where diamond sites are exactly the integer triples that
are either all even with x+y+z = 0 (mod 4) or all odd with x+y+z = 3 (mod 4).
Shell membership is decided by exact equality of integer squared distances,
so shells can never merge through floating-point rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import DIAMOND_LATTICE_CONSTANT
from .errors import InsufficientRegionError, InvalidSpecError, count, store_finite


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry of the enumerated crystal region.

    The sphere is centred on a lattice site, and that site itself is
    counted.

    Parameters
    ----------
    bounding_radius : float
        Sphere radius in angstrom; sites with |r| <= bounding_radius are in.
    lattice_constant : float
        Conventional cubic cell edge in angstrom.
    """

    bounding_radius: float
    lattice_constant: float = DIAMOND_LATTICE_CONSTANT

    def __post_init__(self):
        store_finite(self, "bounding_radius", "lattice_constant")
        if self.lattice_constant <= 0:
            raise InvalidSpecError("lattice_constant must be positive")
        if self.bounding_radius < 0:
            raise InvalidSpecError("bounding_radius must be non-negative")


@dataclass(frozen=True)
class ShellTable:
    """Ordered neighbor shells of the origin site."""

    shells: tuple  # of (shell_radius_angstrom, site_count)


@dataclass(frozen=True, eq=False)
class DopedRegion:
    """A random doping realization over one enumerated region: the occupied
    sites in enumeration order and the species on each.

    Equality and hashing are by identity, since `sites` is an array; compare
    two regions through their `sites` and `species`.
    """

    spec: LatticeSpec
    sites: np.ndarray  # (N, 3) int, units of a0/4
    species: tuple  # one species name per row of sites
    concentration: float
    seed: int
    n_sites: int = 0  # enumerated sites in the region


@functools.lru_cache(maxsize=8)
def _integer_sites(lattice_constant: float, radius: float) -> np.ndarray:
    """All diamond sites with |r| <= radius, as an (N, 3) int array in a0/4.

    Generated slab by slab in z to bound memory; order is deterministic
    (increasing z, then the generation order of the masked grid). Each
    sphere is enumerated once per process and shared, so the array is
    read-only; callers index or copy it.
    """
    # r2max in integer units; the +1e-9 guards against radius values that are
    # meant to be exactly on a shell.
    q = 4.0 * radius / lattice_constant
    r2max = int(math.floor(q * q + 1e-9))
    n = int(math.floor(q + 1e-9))

    chunks = [np.zeros((0, 3), dtype=np.int32)]
    axis = np.arange(-n, n + 1, dtype=np.int32)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    xx = xx.ravel()
    yy = yy.ravel()
    sum_xy = xx.astype(np.int64) + yy
    r2_xy = xx.astype(np.int64) ** 2 + yy.astype(np.int64) ** 2
    parity_xy = (xx & 1) + (yy & 1)  # 0 = both even, 2 = both odd, 1 = mixed
    for z in range(-n, n + 1):
        r2 = r2_xy + z * z
        ok = r2 <= r2max
        if z & 1:
            ok &= (parity_xy == 2) & ((sum_xy + z) % 4 == 3)
        else:
            ok &= (parity_xy == 0) & ((sum_xy + z) % 4 == 0)
        if not ok.any():
            continue
        m = np.empty((int(ok.sum()), 3), dtype=np.int32)
        m[:, 0] = xx[ok]
        m[:, 1] = yy[ok]
        m[:, 2] = z
        chunks.append(m)
    sites = np.vstack(chunks)
    sites.flags.writeable = False
    return sites


def sphere_count_report(spec: LatticeSpec) -> dict:
    """Site count plus the metadata needed to interpret it.

    Reports the discrete enumeration alongside the continuum estimate
    rho*V with rho = 8/a0^3, and states the center convention explicitly.
    """
    count = _integer_sites(spec.lattice_constant, spec.bounding_radius).shape[0]
    volume = 4.0 / 3.0 * math.pi * spec.bounding_radius**3
    density = 8.0 / spec.lattice_constant**3
    return {
        "bounding_radius_angstrom": spec.bounding_radius,
        "lattice_constant_angstrom": spec.lattice_constant,
        "enumerated_count": int(count),
        "continuum_estimate": density * volume,
        "convention": "sphere centred on a lattice site; the center site is counted",
    }


def _check_shell_count(n_shells: int) -> None:
    if n_shells < 1:
        raise InvalidSpecError("n_shells must be >= 1")


def _shell_offsets(n_shells: int) -> tuple[int, np.ndarray]:
    """The first n_shells neighbor shells of a sublattice-A site.

    Returns the squared radius of shell n_shells and the offsets (integer
    units) of every site out to it, as one (M, 3) array. Offsets from a
    sublattice-B site are the negatives of these; even shells are
    inversion-symmetric so the sign only matters for the odd ones.
    """
    # 3 cells in every direction is plenty for the shells this library uses
    # (first five shells reach sqrt(11)/4 a0 < 1 a0).
    if n_shells > 12:
        raise InsufficientRegionError("shell offsets tabulated up to 12 shells")
    probe = _integer_sites(1.0, 3.0)
    d2 = (probe.astype(np.int64) ** 2).sum(axis=1)
    levels = np.unique(d2[d2 > 0])
    if len(levels) < n_shells:
        raise InsufficientRegionError("probe region too small for shell table")
    r2 = int(levels[n_shells - 1])
    return r2, probe[(d2 > 0) & (d2 <= r2)]


def shell_sizes(spec: LatticeSpec, n_shells: int) -> ShellTable:
    """Distances and exact counts of the first n_shells neighbor shells."""
    _check_shell_count(n_shells)
    coords = _integer_sites(spec.lattice_constant, spec.bounding_radius)
    d2 = (coords.astype(np.int64) ** 2).sum(axis=1)
    d2 = d2[d2 > 0]
    levels, counts = np.unique(d2, return_counts=True)
    if len(levels) < n_shells:
        raise InsufficientRegionError(
            f"region of radius {spec.bounding_radius} A holds only "
            f"{len(levels)} complete shells; {n_shells} requested"
        )
    scale = spec.lattice_constant / 4.0
    shells = tuple(
        (scale * math.sqrt(float(levels[i])), int(counts[i])) for i in range(n_shells)
    )
    return ShellTable(shells=shells)


def _pack(coords: np.ndarray) -> np.ndarray:
    """Pack int coordinate triples into sortable int64 keys."""
    c = coords.astype(np.int64) + (1 << 20)
    return (c[:, 0] << 42) | (c[:, 1] << 21) | c[:, 2]


def place_dopants(
    spec: LatticeSpec,
    concentration: float,
    species_mix,
    seed: int,
) -> DopedRegion:
    """Independent Bernoulli occupation of every site at the given fraction.

    species_mix maps species id -> fraction (a non-empty mix of finite
    fractions that sum to 1), and seed a non-negative integer. Placement is
    reproducible: a fixed enumeration order and a single rng stream mean
    identical (spec, concentration, seed) give identical regions. The
    occupied sites are gathered by index from the enumerated (n, 3) int32
    array, so `sites` is a new C-contiguous int32 array in enumeration order.
    """
    if not (0.0 < concentration < 1.0):
        raise InvalidSpecError("concentration must lie strictly between 0 and 1")
    mix = dict(species_mix)
    fractions = np.array(list(mix.values()), dtype=float)
    if (not mix or not np.isfinite(fractions).all() or fractions.min() < 0
            or abs(fractions.sum() - 1.0) > 1e-9):
        raise InvalidSpecError(
            "species mix must be non-empty, its fractions finite, non-negative and summing to 1")
    names = list(mix.keys())
    seed = count(seed, "seed")

    coords = _integer_sites(spec.lattice_constant, spec.bounding_radius)
    rng = np.random.default_rng(seed)
    picked = coords[np.flatnonzero(rng.random(coords.shape[0]) < concentration)]
    species = rng.choice(len(names), size=picked.shape[0], p=fractions)
    return DopedRegion(
        spec=spec,
        sites=picked,
        species=tuple(names[k] for k in species),
        concentration=concentration,
        seed=seed,
        n_sites=int(coords.shape[0]),
    )


@dataclass(frozen=True)
class NeighborStatistics:
    """Observed and analytic dopants-per-neighborhood distributions."""

    empirical: dict
    analytic: dict
    shell_sites: int
    dopants_counted: int


def _binomial_pmf(m: int, p: float) -> dict:
    pmf = {}
    for k in range(m + 1):
        pmf[k] = math.comb(m, k) * p**k * (1.0 - p) ** (m - k)
    return pmf


def neighbor_statistics(region: DopedRegion, n_shells: int = 5) -> NeighborStatistics:
    """P(k other dopants within the first n_shells) across the region.

    Only dopants whose full shell neighborhood fits inside the bounding
    sphere are counted, so truncated neighborhoods at the surface cannot
    bias the distribution. The analytic reference is the binomial over the
    enumerated shell-site count at the region's concentration.
    """
    _check_shell_count(n_shells)
    if not region.species:
        raise InvalidSpecError("region holds no dopants")
    r2_shell, offsets = _shell_offsets(n_shells)
    m_sites = offsets.shape[0]

    keys = np.sort(_pack(region.sites))

    # interior = full neighborhood inside the sphere
    scale = region.spec.lattice_constant / 4.0
    r_shell = math.sqrt(float(r2_shell)) * scale
    radii = np.sqrt((region.sites.astype(float) ** 2).sum(axis=1)) * scale
    interior = radii <= region.spec.bounding_radius - r_shell
    inner = region.sites[interior]
    if inner.shape[0] == 0:
        raise InvalidSpecError(
            "no dopant has a complete neighborhood inside the region; "
            "increase bounding_radius"
        )

    # sublattice A (even coords) sees +offsets, B sees -offsets
    sub_a = (inner[:, 0] & 1) == 0
    counts = np.zeros(inner.shape[0], dtype=np.int64)
    for sign, mask in ((1, sub_a), (-1, ~sub_a)):
        pts = inner[mask]
        if pts.shape[0] == 0:
            continue
        acc = np.zeros(pts.shape[0], dtype=np.int64)
        for off in offsets:
            probe_keys = _pack(pts + sign * off)
            pos = np.searchsorted(keys, probe_keys)
            pos[pos >= keys.shape[0]] = keys.shape[0] - 1
            acc += keys[pos] == probe_keys
        counts[mask] = acc

    ks, freq = np.unique(counts, return_counts=True)
    empirical = {int(k): float(f) / inner.shape[0] for k, f in zip(ks, freq)}
    analytic = _binomial_pmf(m_sites, region.concentration)
    return NeighborStatistics(
        empirical=empirical,
        analytic=analytic,
        shell_sites=m_sites,
        dopants_counted=int(inner.shape[0]),
    )
