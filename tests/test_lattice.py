"""Diamond lattice enumeration against a brute-force reconstruction.

The oracle below rebuilds the lattice from its definition (fcc plus the
(1/4,1/4,1/4) basis) with nothing shared with the package except numpy, and
the shell table asserts are taken from its histogram, not from literature
tables.
"""

import math

import numpy as np
import pytest

from donorgate import (
    InsufficientRegionError,
    InvalidSpecError,
    LatticeSpec,
    neighbor_statistics,
    place_dopants,
    shell_sizes,
    sphere_count_report,
)
from donorgate import lattice
from donorgate.lattice import _integer_sites

import pins

A0 = 3.567


def _brute_diamond(radius: float, a0: float = A0) -> np.ndarray:
    """All diamond sites with |r| <= radius, one atom at the origin."""
    n = int(np.ceil(radius / a0)) + 2
    cells = np.arange(-n, n + 1)
    grid = np.stack(np.meshgrid(cells, cells, cells, indexing="ij"), axis=-1).reshape(-1, 3)
    fcc = np.array([[0, 0, 0], [0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]])
    basis = np.concatenate([fcc, fcc + 0.25])
    pts = (grid[:, None, :] + basis[None, :, :]).reshape(-1, 3) * a0
    keep = np.einsum("ij,ij->i", pts, pts) <= radius**2 + 1e-9
    return pts[keep]


def _brute_shell_histogram(n_shells: int) -> list[tuple[float, int]]:
    pts = _brute_diamond(4.0 * A0)
    d = np.sqrt(np.einsum("ij,ij->i", pts, pts))
    d = np.sort(d[d > 1e-9])
    shells = []
    for dist in d:
        if shells and abs(dist - shells[-1][0]) < 1e-6:
            shells[-1] = (shells[-1][0], shells[-1][1] + 1)
        else:
            shells.append((dist, 1))
    return shells[:n_shells]


def test_enumerated_counts_match_brute_force():
    for radius in (4.0, 7.5, 11.0):
        spec = LatticeSpec(radius)
        assert len(_integer_sites(spec.lattice_constant, radius)) == len(_brute_diamond(radius))
        assert sphere_count_report(spec)["enumerated_count"] == len(_brute_diamond(radius))


def test_sites_unique_and_inside_sphere():
    pos = _integer_sites(A0, 9.0) * (A0 / 4.0)
    assert len(np.unique(np.round(pos, 6), axis=0)) == len(pos)
    assert np.all(np.einsum("ij,ij->i", pos, pos) <= 9.0**2 + 1e-6)
    # origin site present under the atom-centered convention
    assert np.min(np.einsum("ij,ij->i", pos, pos)) < 1e-12


def test_count_report_fields_and_continuum_estimate():
    spec = LatticeSpec(10.0)
    rep = sphere_count_report(spec)
    assert rep["bounding_radius_angstrom"] == 10.0
    assert rep["lattice_constant_angstrom"] == A0
    assert rep["enumerated_count"] == len(_brute_diamond(10.0))
    want = 8.0 / A0**3 * 4.0 / 3.0 * np.pi * 10.0**3
    assert rep["continuum_estimate"] == pytest.approx(want, rel=1e-12)
    assert "convention" in rep


def test_shell_table_matches_brute_force():
    table = shell_sizes(LatticeSpec(16.0), 8)
    brute = _brute_shell_histogram(8)
    assert len(table.shells) == 8
    for (dist, count), (bd, bc) in zip(table.shells, brute):
        assert dist == pytest.approx(bd, abs=1e-9)
        assert count == bc


def test_first_shell_is_the_bond_length():
    table = shell_sizes(LatticeSpec(12.0), 1)
    dist, count = table.shells[0]
    assert dist == pytest.approx(np.sqrt(3.0) / 4.0 * A0, rel=1e-12)
    assert count == 4


def test_shell_table_needs_enough_region():
    with pytest.raises(InsufficientRegionError):
        shell_sizes(LatticeSpec(2.0), 8)
    with pytest.raises(InvalidSpecError):
        shell_sizes(LatticeSpec(12.0), 0)


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        LatticeSpec(10.0, lattice_constant=-1.0)
    with pytest.raises(InvalidSpecError):
        LatticeSpec(-5.0)


def test_placement_reproducible_and_complete():
    spec = LatticeSpec(14.0)
    r1 = place_dopants(spec, 0.02, {"P": 0.75, "N": 0.25}, seed=7)
    r2 = place_dopants(spec, 0.02, {"P": 0.75, "N": 0.25}, seed=7)
    np.testing.assert_array_equal(r1.sites, r2.sites)
    assert r1.species == r2.species
    assert r1.n_sites == sphere_count_report(spec)["enumerated_count"]
    assert set(r1.species) <= {"P", "N"}


def test_region_equality_is_identity():
    # the sites are an array, so a field-wise == would raise on its truth value
    spec = LatticeSpec(10.0)
    a = place_dopants(spec, 0.05, {"P": 1.0}, 1)
    b = place_dopants(spec, 0.05, {"P": 1.0}, 1)
    np.testing.assert_array_equal(a.sites, b.sites)  # a copy with equal sites
    assert a.species == b.species
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_each_sphere_is_enumerated_once_and_read_only(monkeypatch):
    sites = _integer_sites(A0, 12.0)
    assert _integer_sites(A0, 12.0) is sites
    with pytest.raises(ValueError):
        sites[0, 0] = 1
    spec = LatticeSpec(12.0, A0)
    cached = place_dopants(spec, 0.05, {"P": 0.4, "N": 0.6}, seed=4)
    monkeypatch.setattr(lattice, "_integer_sites", _integer_sites.__wrapped__)
    fresh = place_dopants(spec, 0.05, {"P": 0.4, "N": 0.6}, seed=4)
    assert np.array_equal(cached.sites, fresh.sites)
    assert cached.species == fresh.species and len(cached.species) > 5
    assert cached.n_sites == fresh.n_sites


def test_placement_respects_concentration_and_mix():
    spec = LatticeSpec(22.0)
    region = place_dopants(spec, 0.05, {"P": 0.8, "N": 0.2}, seed=3)
    n = len(region.species)
    # ~4400 draws at p = 0.05: allow 4 sigma
    mean = region.n_sites * 0.05
    sigma = np.sqrt(region.n_sites * 0.05 * 0.95)
    assert abs(n - mean) < 4 * sigma
    n_p = region.species.count("P")
    assert abs(n_p / n - 0.8) < 4 * np.sqrt(0.8 * 0.2 / n)


def test_placement_validation():
    spec = LatticeSpec(8.0)
    with pytest.raises(InvalidSpecError):
        place_dopants(spec, 0.0, {"P": 1.0}, seed=1)
    # a mix that does not sum to 1, holds a NaN fraction or is empty
    for mix in ({"P": 0.5, "N": 0.2}, {"P": math.nan, "N": 1.0}, {}):
        with pytest.raises(InvalidSpecError):
            place_dopants(spec, 0.02, mix, seed=1)
    # a negative, boolean or fractional seed is refused, not handed to numpy
    for seed in (-1, True, 2.5):
        with pytest.raises(InvalidSpecError, match="seed must be a non-negative integer"):
            place_dopants(spec, 0.02, {"P": 1.0}, seed=seed)


def test_pinned_placements_are_contiguous_int32():
    # the place_dopants_r40 pin digests the site bytes, which hold neither
    # the dtype nor the memory layout
    for region in pins.placements_r40().values():
        assert region.sites.dtype == np.int32 and region.sites.flags.c_contiguous


def test_neighbor_statistics_against_binomial():
    # one region is a noisy estimator (overlapping neighborhoods correlate),
    # so pool a few seeds before comparing to the binomial
    pooled, weights = {}, 0
    stats = None
    for seed in range(4):
        region = place_dopants(LatticeSpec(26.0), 0.03, {"P": 1.0}, seed=seed)
        stats = neighbor_statistics(region, n_shells=4)
        for k, v in stats.empirical.items():
            pooled[k] = pooled.get(k, 0.0) + v * stats.dopants_counted
        weights += stats.dopants_counted
    m = stats.shell_sites
    for k, analytic in stats.analytic.items():
        want = math.comb(m, k) * 0.03**k * 0.97 ** (m - k)
        assert analytic == pytest.approx(want, rel=1e-9)
    assert abs(sum(stats.analytic.values()) - 1.0) < 1e-12
    assert abs(sum(stats.empirical.values()) - 1.0) < 1e-9
    for k in (0, 1, 2):
        assert abs(pooled.get(k, 0.0) / weights - stats.analytic[k]) < 0.05


def test_neighbor_statistics_needs_dopants():
    # fixed seed, ~1300 sites at 1e-9: no site is occupied
    region = place_dopants(LatticeSpec(10.0), 1e-9, {"P": 1.0}, seed=2)
    assert not region.species
    with pytest.raises(InvalidSpecError):
        neighbor_statistics(region)


@pytest.mark.parametrize("n_shells", [0, -1])
def test_neighbor_statistics_needs_a_shell(n_shells):
    region = place_dopants(LatticeSpec(20.0), 0.01, {"P": 1.0}, seed=1)
    assert region.species
    with pytest.raises(InvalidSpecError, match="n_shells"):
        neighbor_statistics(region, n_shells=n_shells)
