"""Why criterion 01 fails: the quoted site counts are a continuum estimate.

The paper quotes 742, 4327 and 11592 diamond lattice sites within spheres
of R = 10, 18 and 25 A. `lattice.sphere_count_report` enumerates 729, 4259
and 11543 (one atom at the centre, a = 3.567 A), so criterion 01 fails its
tolerance of 2 sites. These tests read the quoted numbers with their own
enumeration, which shares no code with `donorgate.lattice`:

- All three quoted counts imply one atom density, 1.7711-1.7714e23 cm^-3,
  the density 8/a^3 of a lattice constant of 3.5612-3.5613 A.
- The continuum count n (4/3) pi R^3 at n = 1.7712e23 cm^-3 is 741.9,
  4326.9 and 11592.5: each quoted count to within one site.
- No exact enumeration tried comes within 2 sites at all three radii. The
  sphere was centred on an atom, a bond centre, the tetrahedral and
  hexagonal interstitials and (1, 0, 0) a/4, with a = 3.5612, 3.5613,
  3.5668, 3.567 and 3.57 A. The exact count at 10 A alone spans 729-762
  over these.

So the quoted numbers look like a continuum estimate at a slightly denser
lattice, not a site count. Criterion 01 keeps its target and tolerance and
keeps failing; ROADMAP item 4 holds the rest of the audit.
"""

import math

import numpy as np

QUOTED = {10.0: 742, 18.0: 4327, 25.0: 11592}
# cm^-3 per A^-3
PER_CM3 = 1e24
DENSITY = 1.7712e23
# sphere centres in units of the lattice constant, one atom at the origin
# and its bonded neighbour at (1, 1, 1)/4
CENTRES = {"atom": (0.0, 0.0, 0.0), "bond centre": (0.125, 0.125, 0.125),
           "tetrahedral": (0.5, 0.5, 0.5), "hexagonal": (0.625, 0.625, 0.625),
           "(1,0,0) a/4": (0.25, 0.0, 0.0)}
LATTICE_CONSTANTS = (3.5612, 3.5613, 3.5668, 3.567, 3.57)


def _sphere_volume(radius: float) -> float:
    return 4.0 / 3.0 * math.pi * radius**3


def _diamond_count(radius: float, a: float, centre) -> int:
    """Diamond sites within `radius` A of `centre` (in units of a): the fcc
    sites of the conventional cells around it and the same shifted by
    (1, 1, 1) a/4."""
    n = math.ceil(radius / a) + 2
    cells = np.arange(-n, n + 1)
    grid = np.stack(np.meshgrid(cells, cells, cells, indexing="ij"), axis=-1).reshape(-1, 3)
    fcc = np.array([[0, 0, 0], [0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]])
    basis = np.concatenate([fcc, fcc + 0.25])
    pts = ((grid[:, None, :] + basis[None, :, :]).reshape(-1, 3) - np.asarray(centre)) * a
    return int(np.count_nonzero(np.einsum("ij,ij->i", pts, pts) <= radius**2 + 1e-9))


def test_the_quoted_counts_imply_one_density():
    densities = [count / _sphere_volume(r) * PER_CM3 for r, count in QUOTED.items()]
    assert all(1.7711e23 <= n <= 1.7714e23 for n in densities)
    # eight atoms per conventional cell
    assert {round((8.0 * PER_CM3 / n) ** (1.0 / 3.0), 4) for n in densities} == {3.5612, 3.5613}


def test_the_continuum_count_at_that_density_gives_each_quoted_count():
    continuum = {r: DENSITY / PER_CM3 * _sphere_volume(r) for r in QUOTED}
    assert [round(c, 1) for c in continuum.values()] == [741.9, 4326.9, 11592.5]
    assert all(abs(continuum[r] - count) <= 1.0 for r, count in QUOTED.items())


def test_no_exact_enumeration_matches_within_the_tolerance():
    at_10 = []
    for a in LATTICE_CONSTANTS:
        for name, centre in CENTRES.items():
            got = {r: _diamond_count(r, a, centre) for r in QUOTED}
            assert not all(abs(got[r] - QUOTED[r]) <= 2 for r in QUOTED), (a, name, got)
            at_10.append(got[10.0])
    assert (min(at_10), max(at_10)) == (729, 762)
    # the library's convention, one atom at the centre and a = 3.567 A,
    # gives criterion 01's printed counts
    assert [_diamond_count(r, 3.567, CENTRES["atom"]) for r in QUOTED] == [729, 4259, 11543]


def test_the_enumeration_counts_the_first_shells():
    # an atom, its 4 bonded neighbours, then the 12 of the second shell
    a = 3.567
    bond = a * math.sqrt(3.0) / 4.0
    assert _diamond_count(bond * 0.99, a, CENTRES["atom"]) == 1
    assert _diamond_count(bond * 1.01, a, CENTRES["atom"]) == 5
    assert _diamond_count(a / math.sqrt(2.0) * 1.01, a, CENTRES["atom"]) == 17
