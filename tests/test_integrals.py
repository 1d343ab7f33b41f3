"""Two-center integral engine against an independent quadrature oracle.

The oracle (quad_oracle.py) never touches the Gaussian machinery; it was
written and converged first, and its outputs for the frozen geometry are
pinned below so a regression in either side is visible. The 2p-sigma blocks,
which the oracle does not cover yet, are checked against the scalar
McMurchie-Davidson loops in md_reference.py.
"""

import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from donorgate import (
    IllConditionedGeometryError,
    InvalidModelError,
    OrbitalSpec,
    PairIntegralResult,
    PreconditionError,
    exchange_curve,
    get_preset,
    medium_hartree_mev,
    model_from_ionization,
    pair_integrals,
    transfer_splitting_curve,
)
from donorgate import integrals
from donorgate.orbitals import N_TERMS, fit_gaussian_expansion

import md_reference
import pins
import quad_oracle

# frozen geometry: 1s-1s, a = 2.1 A on both centers, R = 10 A, eps = 5.7
RADIUS_A = 2.1
SEP_A = 10.0
EPS = 5.7
R_REDUCED = SEP_A / RADIUS_A

# oracle outputs for that geometry, medium atomic units (l = a, E = e^2/eps*a).
# Regenerate with `python3 tests/quad_oracle.py`; convergence is ~1e-6 or
# better on every block (S agrees with the closed form to 1e-13).
ORACLE = {
    "S": 1.1388093799e-01,
    "hAA": -7.0991156026e-01,
    "hAB": -1.0620077600e-01,
    "Jc": 2.0934691018e-01,
    "Kx": 5.3054214615e-03,
    "transfer": -2.5688532817e-02,
    "singlet": -1.0036199992e+00,
    "triplet": -9.9724980728e-01,
    "splitting": 6.3701919636e-03,
}

# e^2/(eps*a) in meV, written out rather than imported so a units bug in the
# package cannot hide here
HARTREE_MEV = 1000.0 * 2.0 * 13.6 * 0.529 / (EPS * RADIUS_A)


def _frozen_pair(n_terms=6):
    a = OrbitalSpec("s1", RADIUS_A)
    return pair_integrals(a, a, SEP_A, EPS, n_terms=n_terms)


def test_oracle_still_matches_its_frozen_values():
    live = quad_oracle.heitler_london(R_REDUCED)
    for key, frozen in ORACLE.items():
        assert live[key] == pytest.approx(frozen, rel=1e-6), key


def test_oracle_overlap_agrees_with_closed_form():
    # Sugiura: S = exp(-w) (1 + w + w^2/3) for equal 1s radii
    w = R_REDUCED
    closed = math.exp(-w) * (1 + w + w * w / 3.0)
    assert quad_oracle.one_electron_blocks(w)["S"] == pytest.approx(closed, rel=1e-10)


def test_engine_integral_blocks_match_quadrature():
    res = _frozen_pair()
    checks = [
        (res.overlap, ORACLE["S"]),
        (res.transfer_mev, ORACLE["transfer"] * HARTREE_MEV),
        (res.coulomb_mev, ORACLE["Jc"] * HARTREE_MEV),
        (res.exchange_integral_mev, ORACLE["Kx"] * HARTREE_MEV),
        (res.singlet_mev, ORACLE["singlet"] * HARTREE_MEV),
        (res.triplet_mev, ORACLE["triplet"] * HARTREE_MEV),
    ]
    for got, want in checks:
        assert got == pytest.approx(want, rel=0.01)


def test_engine_splitting_matches_quadrature_to_two_percent():
    # J is a ~7.7 meV difference of two ~1200 meV energies, so the <0.1%
    # basis truncation in each energy is amplified roughly tenfold here
    res = _frozen_pair()
    want = ORACLE["splitting"] * HARTREE_MEV
    assert res.exchange_splitting_mev == pytest.approx(want, rel=0.02)


def test_splitting_stable_against_expansion_size():
    j6 = _frozen_pair(n_terms=6).exchange_splitting_mev
    j8 = _frozen_pair(n_terms=8).exchange_splitting_mev
    assert j6 == pytest.approx(j8, rel=0.01)


def test_singlet_below_triplet_for_ground_pairs():
    a = OrbitalSpec("s1", RADIUS_A)
    for r in (6.0, 10.0, 14.0, 20.0):
        res = pair_integrals(a, a, r, EPS)
        assert res.singlet_mev < res.triplet_mev
        assert res.exchange_splitting_mev > 0


def test_swap_is_exact_for_equal_radii(fresh_cache):
    # both orders share one cache key, so each is priced in a fresh cache;
    # otherwise the reversed call would read back the forward blocks
    a = OrbitalSpec("s1", RADIUS_A)
    b = OrbitalSpec("s1", RADIUS_A)
    fresh_cache()
    fwd = pair_integrals(a, b, 8.0, EPS)
    cache = fresh_cache()
    rev = pair_integrals(b, a, 8.0, EPS)
    assert cache.cache_info()[1] == 1  # the reversed call reached the kernel
    assert fwd.overlap == pytest.approx(rev.overlap, rel=1e-12)
    assert fwd.singlet_mev == pytest.approx(rev.singlet_mev, rel=1e-12)
    assert fwd.exchange_splitting_mev == pytest.approx(rev.exchange_splitting_mev, rel=1e-12)


def test_swap_preserves_dimensionless_and_eri_blocks():
    # with unequal radii the length unit follows center A (control-first
    # convention), so only mass-independent quantities survive the swap
    a = OrbitalSpec("s1", 2.1)
    b = OrbitalSpec("s1", 3.15)
    fwd = pair_integrals(a, b, 12.0, EPS)
    rev = pair_integrals(b, a, 12.0, EPS)
    assert fwd.overlap == pytest.approx(rev.overlap, rel=1e-10)
    assert fwd.coulomb_mev == pytest.approx(rev.coulomb_mev, rel=1e-10)
    assert fwd.exchange_integral_mev == pytest.approx(rev.exchange_integral_mev, rel=1e-10)


def test_dilation_scaling_is_exact():
    # same reduced geometry, radii and separation scaled by 1.5: every energy
    # must scale by exactly 1/1.5 (shared cache key makes this machine exact)
    small = pair_integrals(OrbitalSpec("s1", 2.1), OrbitalSpec("s1", 2.1), 9.0, EPS)
    big = pair_integrals(OrbitalSpec("s1", 3.15), OrbitalSpec("s1", 3.15), 13.5, EPS)
    assert big.exchange_splitting_mev * 1.5 == pytest.approx(
        small.exchange_splitting_mev, rel=1e-12)
    assert big.transfer_mev * 1.5 == pytest.approx(small.transfer_mev, rel=1e-12)


def test_two_electron_splitting_property_consistent():
    res = _frozen_pair()
    s2 = res.overlap**2
    want = 2.0 * (s2 * res.coulomb_mev - res.exchange_integral_mev) / (1.0 - s2 * s2)
    assert res.two_electron_splitting_mev == pytest.approx(want, rel=1e-12)


def _full_e_table(la, lb, a, b, Az, Bz):
    """`integrals._e_table` as it built every table in full, its own p and
    Pz included: the reference its rows, and the kinetic row it takes from
    the same table, must equal bit for bit."""
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


@pytest.mark.parametrize("la, lb", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_kinetic_row_equals_a_second_full_table(la, lb):
    # random exponent grids over separations that keep the centers apart
    # and that make them coincide, at the origin and away from it (every
    # X = 0); the kinetic row is E_0^{la,lb+2} of a second full build
    rng = np.random.default_rng(2 * la + lb)
    a = rng.uniform(0.01, 40.0, (7, 1))
    b = rng.uniform(0.01, 40.0, (1, 5))
    for Az, Bz in ((0.0, np.concatenate([[0.0], rng.uniform(0.05, 30.0, 12)])[:, None, None]),
                   (2.5, np.array([2.5, -1.0, 6.0])[:, None, None]),
                   (0.0, 0.0)):
        p = a + b
        Pz = (a * Az + b * Bz) / p
        E, k_row = integrals._e_table(la, lb, a, b, p, Pz, Az, Bz, kinetic=True)
        want = _full_e_table(la, lb, a, b, Az, Bz)
        assert len(E) == len(want) == la + lb + 1
        for got, ref in zip(E, want):
            assert got.tobytes() == ref.tobytes(), (Az, Bz)
        ref = _full_e_table(la, lb + 2, a, b, Az, Bz)[0]
        assert k_row.shape == ref.shape and k_row.tobytes() == ref.tobytes(), (Az, Bz)
        E_only, none = integrals._e_table(la, lb, a, b, p, Pz, Az, Bz, kinetic=False)
        assert none is None
        assert [e.tobytes() for e in E_only] == [e.tobytes() for e in E]


def test_blocks_match_scalar_reference(monkeypatch):
    # the grid recursions against the primitive-by-primitive loops: the
    # excited control with a compact qubit (radii 1 and 0.5, charges l/a),
    # and the p2-p2 transfer geometry, one-electron blocks only; the kernel
    # derives each charge from its radius and prices all separations of a
    # case in one call. The 80-separation cases cross an electron-repulsion
    # chunk boundary (a chunk holds 78 separations of (AB|AB) at n_terms =
    # 4), found from the separations each `_eri` call takes, and are checked
    # on both sides of it and at every tenth point; their folded sums (pairs
    # i <= j of an orbital with itself, pairs of pairs u <= v of (AB|AB))
    # weight each off-diagonal entry twice, where the reference sums every
    # primitive quadruple
    sizes = []
    eri = integrals._eri
    monkeypatch.setattr(integrals, "_eri",
                        lambda bra, ket, quartets: sizes.append(len(ket.Pz))
                        or eri(bra, ket, quartets))
    long = np.linspace(1.5, 9.6, 80)
    cases = (
        (("p2", "s1", 0.5, np.array([3.0, 4.5]), 4), True),
        (("p2", "p2", 1.0, np.array([6.0, 7.5]), 4), False),
        (("s1", "s1", 1.5, long, 4), True),
        (("p2", "s1", 0.5, long, 4), True),
    )
    for (kind_a, kind_b, radius_b, seps, n_terms), two_electron in cases:
        sizes.clear()
        engine = integrals._pair_blocks(kind_a, kind_b, radius_b, seps, n_terms, two_electron)
        starts = np.cumsum(sizes[1::2])[:-1]  # each chunk takes Jc, then Kx
        assert (len(starts) > 0) == (len(seps) > 2)
        points = set(range(0, len(seps), 10)) | set(starts) | set(starts - 1) | {len(seps) - 1}
        for i in sorted(points):
            reference = md_reference.reduced_pair(
                kind_a, kind_b, 1.0, radius_b, seps[i], 1.0, 1.0 / radius_b, n_terms)
            assert set(engine) <= set(reference)
            for key, got in engine.items():
                assert got[i] == pytest.approx(reference[key], rel=1e-12), (kind_b, seps[i], key)


def test_far_separation_splitting_underflows_cleanly():
    a = OrbitalSpec("s1", RADIUS_A)
    res = pair_integrals(a, a, 200.0, EPS)
    assert abs(res.exchange_splitting_mev) < 1e-9
    assert abs(res.overlap) < 1e-30


def test_underflowed_one_electron_blocks_are_positive_zeros():
    # `_one_electron` starts center A's attraction as 0.0 - x, and its
    # docstring shows that the sign of zero this keeps cannot reach a
    # block. The argument takes every frozen fit coefficient as positive and
    # no kinetic entry as -0.0 where the <A|B> product underflows, on every
    # (l_x, l_y); hAB is +0.0 there
    for kind in ("s1", "p2"):
        for n_terms in N_TERMS:
            terms = fit_gaussian_expansion(OrbitalSpec(kind, 1.0), n_terms).terms
            assert all(coef > 0.0 for _, coef in terms), (kind, n_terms)
    far = np.array([1e3, 4e4, 1e6])
    for kind_a, kind_b in itertools.product(("s1", "p2"), repeat=2):
        for radius_b in (0.35, 1.0, 2.5):
            for n_terms in (3, 8):
                x = integrals._orbital(kind_a, 1.0, 0.0, n_terms)
                y = integrals._orbital(kind_b, radius_b, far[:, None, None], n_terms)
                a, b = x.exp[:, None], y.exp[None, :]
                p = a + b
                Pz = (a * 0.0 + b * y.z) / p
                E, k_row = integrals._e_table(x.l, y.l, a, b, p, Pz, 0.0, y.z, kinetic=True)
                assert not np.any(E), (kind_a, kind_b, radius_b, n_terms)
                s = E[0]
                kinetic = b * (2 * y.l + 1) * s - 2.0 * b * b * k_row + 2.0 * a * b / p * s
                assert not np.signbit(kinetic).any(), (kind_a, kind_b, radius_b, n_terms)
                blocks = integrals._pair_blocks(kind_a, kind_b, radius_b, far,
                                                n_terms, False)
                assert blocks["hAB"].tobytes() == np.zeros(len(far)).tobytes(), (
                    kind_a, kind_b, radius_b, n_terms)


def test_separations_past_the_reach_are_rejected(fresh_cache):
    # the product of an orbital with itself at z has its center off z by
    # up to 4u|z| (u = 2^-53), and the kinetic row takes that offset
    # squared: fig2a's ground singlet read -3096 meV at 1e15 A against
    # -2999 meV nearer, the transfer curve was NaN at 1e100 A and the
    # excited J at 1e154 A, with overflow warnings
    fresh_cache()
    _, fig2a = get_preset("fig2a")
    control, qubit = fig2a.control, fig2a.qubit
    limit = integrals._REACH * qubit.ground_orbital_radius_a()
    near, edge = exchange_curve(control, qubit, False, [1e3, limit])
    assert edge.singlet_mev == pytest.approx(near.singlet_mev, rel=1e-12)
    past = float(np.nextafter(limit, np.inf))
    for call in (lambda: exchange_curve(control, qubit, False, [8.0, past]),
                 lambda: exchange_curve(control, qubit, False, [8.0, 1e15]),
                 lambda: exchange_curve(control, qubit, True, [1e154]),
                 lambda: pair_integrals(OrbitalSpec("s1", 1.0), OrbitalSpec("s1", 1.0), 2e6, EPS),
                 lambda: transfer_splitting_curve(control, [1e100])):
        with pytest.raises(PreconditionError, match=r"past 1e\+06 Bohr radii of center B"):
            call()


def test_the_reach_keeps_the_kinetic_rounding_below_one_unit():
    # the offset d <= 4u z of a product center enters E_0^{l,l+2} as d^2
    # beside 1/2p, p <= 2b for the largest exponent b of any frozen fit
    # (in center B's Bohr radii); 4 b d^2 <= u holds for z up to
    # 1 / (8 sqrt(b u))
    b = max(max(e for e, _ in fit_gaussian_expansion(OrbitalSpec(kind, 1.0), n).terms)
            for kind in ("s1", "p2") for n in N_TERMS)
    assert integrals._REACH <= 1.0 / (8.0 * math.sqrt(b * 2.0**-53))


def test_coincident_centers_rejected():
    a = OrbitalSpec("s1", RADIUS_A)
    with pytest.raises(PreconditionError):
        pair_integrals(a, a, 0.0, EPS)


def test_non_finite_geometry_rejected():
    a = OrbitalSpec("s1", RADIUS_A)
    for far in (math.nan, math.inf):
        with pytest.raises(PreconditionError):
            pair_integrals(a, a, far, EPS)
    control = model_from_ionization("P", 0.6, 5.7)
    qubit = model_from_ionization("N", 0.6, 5.7, role="qubit")
    with pytest.raises(PreconditionError):
        exchange_curve(control, qubit, True, [math.nan])
    with pytest.raises(PreconditionError):
        exchange_curve(control, qubit, False, [8.0, math.inf])
    with pytest.raises(PreconditionError):
        transfer_splitting_curve(control, [math.inf])


@pytest.mark.parametrize("epsilon", [0.0, -5.7, 1.0, math.nan, math.inf])
def test_medium_outside_the_dielectric_rule_rejected(epsilon):
    # the rule of DonorModel.dielectric_constant: finite and above 1
    a = OrbitalSpec("s1", RADIUS_A)
    with pytest.raises(PreconditionError, match="epsilon"):
        pair_integrals(a, a, SEP_A, epsilon)


@pytest.mark.parametrize("base", [math.nan, math.inf, -math.inf])
def test_transfer_curve_rejects_non_finite_base(base):
    control = model_from_ionization("P", 0.6, 5.7)
    with pytest.raises(PreconditionError, match="base_transition_mev"):
        transfer_splitting_curve(control, [10.0, 11.0], base_transition_mev=base)


def test_near_coincident_centers_flagged_ill_conditioned():
    a = OrbitalSpec("s1", RADIUS_A)
    with pytest.raises(IllConditionedGeometryError):
        pair_integrals(a, a, 0.02, EPS)


def test_exchange_curve_validates_grid_and_medium():
    control = model_from_ionization("P", 0.6, 5.7)
    qubit = model_from_ionization("N", 0.6, 5.7, role="qubit")
    with pytest.raises(PreconditionError):
        exchange_curve(control, qubit, False, [10.0, 9.0])
    with pytest.raises(PreconditionError):
        exchange_curve(control, qubit, False, [-1.0, 5.0])
    mismatched = model_from_ionization("N", 0.6, 11.0, role="qubit")
    with pytest.raises(InvalidModelError):
        exchange_curve(control, mismatched, False, [8.0, 10.0])


@pytest.mark.parametrize("grid", [5.0, None, "5.0", [True, 2.0], [0.5, True],
                                  np.array([True]), [4.0, "5.0"], [[4.0], [5.0]],
                                  [4.0, None],
                                  (4.0, math.nan), [math.inf, 4.0], (4.0, -math.inf),
                                  (np.float64(4.0), np.float64("nan")), [4.0, np.float64(np.inf)],
                                  (4.0, 5.0, True), [np.float64(4.0), 5, np.nan],
                                  (5.0, 4.0), [0.0, 4.0], (np.float64(-1.0), 4.0)])
def test_curves_reject_a_grid_that_is_not_numbers(grid):
    # a bool is not a separation (True once priced a 1 A point) and a string
    # is not one either. A tuple or list of floats is read in one numpy
    # pass; a non-finite entry still gets the entry-by-entry message, which
    # names it, and finite floats out of order or not positive are refused
    # after the pass
    control = model_from_ionization("P", 0.6, 5.7)
    qubit = model_from_ionization("N", 0.6, 5.7, role="qubit")
    entries = grid if isinstance(grid, (tuple, list)) else []
    bad = [r for r in entries if isinstance(r, float) and not math.isfinite(r)]
    match = (re.escape(f"each R grid entry must be a finite number, got {bad[0]!r}") if bad
             else "R grid")
    with pytest.raises(PreconditionError, match=match):
        exchange_curve(control, qubit, True, grid)
    with pytest.raises(PreconditionError, match=match):
        transfer_splitting_curve(control, grid)


def test_curves_take_integer_and_numpy_scalar_grids(fresh_cache):
    fresh_cache()
    control = model_from_ionization("P", 0.6, 5.7)
    qubit = model_from_ionization("N", 0.6, 5.7, role="qubit")
    want = exchange_curve(control, qubit, False, [8.0, 10.0])
    assert exchange_curve(control, qubit, False, [8, np.int64(10)]) == want
    assert exchange_curve(control, qubit, False, np.array([8, 10])) == want
    assert exchange_curve(control, qubit, False, iter([np.float64(8.0), 10.0])) == want
    assert transfer_splitting_curve(control, range(10, 13)) == \
        transfer_splitting_curve(control, [10.0, 11.0, 12.0])


def test_excited_curve_reaches_farther_than_ground():
    # the 2p envelope is larger, so at wide separations the excited-state
    # splitting must dominate the ground one
    control = model_from_ionization("P", 0.6, 5.7)
    qubit = model_from_ionization("N", 0.6, 5.7, role="qubit")
    grid = [14.0, 18.0]
    ground = exchange_curve(control, qubit, False, grid)
    excited = exchange_curve(control, qubit, True, grid)
    for g, x in zip(ground, excited):
        assert abs(x.exchange_splitting_mev) > abs(g.exchange_splitting_mev)


def test_transfer_curve_branches_and_decay():
    control = model_from_ionization("P", 0.6, 5.7)
    rows = transfer_splitting_curve(control, [10.0, 14.0, 18.0, 24.0, 30.0, 38.0],
                                    base_transition_mev=600.0)
    mags = [abs(r.transfer_mev) for r in rows]
    assert all(a > b for a, b in zip(mags, mags[1:]))
    for r in rows:
        assert r.splitting_mev == pytest.approx(2.0 * abs(r.transfer_mev), rel=1e-12)
        assert r.branch_upper_mev - r.branch_lower_mev == pytest.approx(
            r.splitting_mev, rel=1e-12)
        assert 0.5 * (r.branch_upper_mev + r.branch_lower_mev) == pytest.approx(
            600.0, abs=1e-9)


# ---------------------------------------------------------------------------
# the separation axis, the pair cache and the Boys function
# ---------------------------------------------------------------------------

@pytest.fixture
def kernel_calls(monkeypatch):
    """Separations passed to each `_pair_blocks` call, in call order."""
    calls = []
    kernel = integrals._pair_blocks

    def counted(kind_a, kind_b, radius_b, r, *rest):
        calls.append(list(r))
        return kernel(kind_a, kind_b, radius_b, r, *rest)

    monkeypatch.setattr(integrals, "_pair_blocks", counted)
    return calls


def _rows(results):
    return [tuple(float(v) for v in vars(res).values() if isinstance(v, float))
            for res in results]


def _assert_rows_close(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12, abs=1e-300)


def _one_at_a_time(fresh_cache, curve, grid):
    out = []
    for r in grid:
        fresh_cache()
        out.extend(curve([r]))
    return out


def test_curves_match_points_priced_one_at_a_time(fresh_cache, kernel_calls):
    _, fig2a = get_preset("fig2a")
    _, fig3 = get_preset("fig3")
    control = fig2a.control
    curves = [
        (lambda g: exchange_curve(control, fig2a.qubit, True, g), fig2a.r_grid,
         control.excited_orbital_radius_a()),
        (lambda g: exchange_curve(control, fig2a.qubit, False, g), fig2a.r_grid,
         control.ground_orbital_radius_a()),
        (lambda g: transfer_splitting_curve(fig3.control, g), fig3.r_grid,
         fig3.control.excited_orbital_radius_a()),
    ]
    for curve, grid, scale in curves:
        fresh_cache()
        kernel_calls.clear()
        batched = curve(grid)
        # the misses go through the kernel in one call, in grid order
        assert len(kernel_calls) == 1
        assert kernel_calls[0] == pytest.approx([r / scale for r in grid], rel=1e-12)
        single = _one_at_a_time(fresh_cache, curve, grid)
        assert [res.separation_a for res in batched] == list(grid)
        _assert_rows_close(_rows(batched), _rows(single))


def test_partly_warm_grid_gives_the_cold_rows(fresh_cache):
    # a grid a third of whose points an earlier call priced gives the rows
    # of the grid priced from an empty cache, bit for bit
    _, fig2a = get_preset("fig2a")
    grid = fig2a.r_grid
    fresh_cache()
    cold = exchange_curve(fig2a.control, fig2a.qubit, True, grid)
    fresh_cache()
    exchange_curve(fig2a.control, fig2a.qubit, True, grid[::3])
    warm = exchange_curve(fig2a.control, fig2a.qubit, True, grid)
    assert list(warm) == list(cold)


def test_a_pair_point_does_not_depend_on_the_batch_that_priced_it(fresh_cache):
    # table1 prices its C1-C2 transfer alone, at 24 A, a point of fig3's
    # grid; with BLAS contracting the batch's rows it read 25.735634444596457
    # meV priced in fig3's batch where alone it read 25.735634444596446
    _, table1 = get_preset("table1")
    _, fig3 = get_preset("fig3")
    control = table1.model_for("C1")
    assert 24.0 in fig3.r_grid
    fresh_cache()
    alone = transfer_splitting_curve(control, (24.0,))[0].transfer_mev
    fresh_cache()
    in_fig3 = transfer_splitting_curve(fig3.control, fig3.r_grid)
    after_fig3 = transfer_splitting_curve(control, (24.0,))[0].transfer_mev
    assert in_fig3[list(fig3.r_grid).index(24.0)].transfer_mev == alone
    assert after_fig3 == alone


@pytest.mark.parametrize("kind_a, kind_b", [("s1", "s1"), ("p2", "s1"), ("p2", "p2")])
def test_every_block_of_a_point_is_bitwise_the_same_in_any_batch(kind_a, kind_b):
    # a separation priced alone and inside batches of 2 to 1000 others, at a
    # random position, must give the same bits in all six blocks
    rng = np.random.default_rng(["s1", "p2"].index(kind_a) * 2 + ["s1", "p2"].index(kind_b))
    for _ in range(10):
        radius_b = rng.uniform(0.4, 1.6)
        r = rng.uniform(0.5, 12.0)
        alone = integrals._pair_blocks(kind_a, kind_b, radius_b, np.array([r]), 6, True)
        size = int(rng.integers(2, 1001))
        batch = rng.uniform(0.5, 12.0, size)
        at = int(rng.integers(size))
        batch[at] = r
        priced = integrals._pair_blocks(kind_a, kind_b, radius_b, batch, 6, True)
        assert sorted(priced) == ["Jc", "Kx", "S", "hAA", "hAB", "hBB"]
        for name, values in priced.items():
            assert values[at] == alone[name][0], (name, size, at)


def test_ill_conditioned_error_names_the_first_close_separation(fresh_cache):
    # twelve near-coincident p2-p2 pairs are priced in one kernel call; the
    # error must name the first of them, not the last or a later one, as the
    # separation in angstrom the caller passed
    fresh_cache()
    control = model_from_ionization("P", 0.6, 5.7)
    scale = control.excited_orbital_radius_a()
    close = [0.01 * k for k in range(1, 13)]
    transfer_splitting_curve(control, [40.0])  # a warm point after them
    with pytest.raises(IllConditionedGeometryError,
                       match=r"at separation 0\.01 A;"):
        transfer_splitting_curve(control, close + [40.0])
    with pytest.raises(IllConditionedGeometryError,
                       match=r"at separation 0\.06 A;"):
        transfer_splitting_curve(control, close[5:] + [40.0])
    a = OrbitalSpec("p2", scale)
    with pytest.raises(IllConditionedGeometryError,
                       match=r"at separation 0\.03 A;"):
        pair_integrals(a, a, 0.03, EPS)


def test_boys_downward_recursion_matches_reference():
    # below x = 1e-12 the reference drops the linear term of the series,
    # which moves it by less than x relative
    x = pins.boys_x()
    for nmax in range(7):
        boys = integrals._boys_array(nmax, x)
        assert len(boys) == nmax + 1
        for n, fn in enumerate(boys):
            want = np.array([md_reference._boys(n, xi) for xi in x])
            np.testing.assert_allclose(fn, want, rtol=1e-12, atol=0.0,
                                       err_msg=f"nmax={nmax}, n={n}")
    with pytest.raises(PreconditionError, match="nmax <= 6"):
        integrals._boys_array(7, x)


def test_every_pinned_case_crosses_a_chunk_boundary(monkeypatch):
    # the pair_blocks pin checks the joins between chunks only if, in each
    # pass of each case, some grid is priced in more than one chunk: a
    # kernel call there takes fewer separations than the grid holds. The
    # kernels are stubbed out, as only their chunks are counted
    seen = []

    def one_electron(pairs, charge_b, zb):
        seen.append(("1e", len(zb)))
        return np.zeros((len(pairs), len(zb))), np.zeros((len(pairs), len(zb)))

    def eri(bra, ket, quartets):
        seen.append(("2e", len(ket.Pz)))
        return np.zeros(len(ket.Pz))

    monkeypatch.setattr(integrals, "_one_electron", one_electron)
    monkeypatch.setattr(integrals, "_eri", eri)
    for kind_a, kind_b, ratio, n_terms, two_electron in pins.PAIR_BLOCK_CASES:
        crossed = set()
        for r in pins.pair_block_grids(n_terms).values():
            seen.clear()
            integrals._pair_blocks(kind_a, kind_b, ratio, r, n_terms, two_electron)
            crossed |= {kind for kind, size in seen if size < len(r)}
        assert crossed == ({"1e", "2e"} if two_electron else {"1e"}), \
            (kind_a, kind_b, ratio, n_terms, two_electron)


def _per_product_one_electron(x, y, nuclei):
    """`integrals._one_electron` as it priced one product x*y per pass, with
    each nucleus (Z_C, z_C) taken as it came, center A's z = 0 and Z = 1
    included: the reference the grouped pass must equal bit for bit."""
    a = x.exp[:, None]
    b = y.exp[None, :]
    p = a + b
    Pz = (a * x.z + b * y.z) / p
    E, k_row = integrals._e_table(x.l, y.l, a, b, p, Pz, x.z, y.z, kinetic=True)
    s = E[0]
    t = b * (2 * y.l + 1) * s - 2.0 * b * b * k_row
    v = 0.0
    for charge, zc in nuclei:
        R = integrals._r_table(len(E) - 1, p, Pz - zc)
        v = v - charge * sum(e * r for e, r in zip(E, R))
    g = (np.pi / p) ** 1.5

    def contract(grid):
        return integrals._contract(grid.reshape(grid.shape[:-2] + (-1,)),
                                   np.outer(x.coef, y.coef).ravel())

    return contract(g * s), contract(g * (t + 2.0 * a * b / p * s)) + contract(2.0 * math.pi / p * v)


@pytest.mark.parametrize("kind_a, kind_b", [("s1", "s1"), ("s1", "p2"), ("p2", "s1"),
                                            ("p2", "p2")])
def test_grouped_one_electron_pass_equals_one_pass_per_product(kind_a, kind_b):
    # every one-electron block of `_pair_blocks` against the per-product
    # pass over all separations at once, byte for byte; at the far points
    # S and hAB underflow to 0
    r = np.concatenate([np.geomspace(0.05, 40.0, 23), [150.0, 600.0, 3e3, 4e4]])
    assert (integrals._pair_blocks("s1", "s1", 1.0, r, 3, False)["S"][-3:] == 0.0).all()
    for ratio, n_terms in itertools.product((0.35, 1.0, 2.5), (3, 6, 8)):
        A = integrals._orbital(kind_a, 1.0, 0.0, n_terms)
        B = integrals._orbital(kind_b, ratio, r[:, None, None], n_terms)
        nuclei = ((1.0, A.z), (1.0 / ratio, B.z))
        s, h_ab = _per_product_one_electron(A, B, nuclei)
        want = {"S": s, "hAA": _per_product_one_electron(A, A, nuclei)[1],
                "hBB": _per_product_one_electron(B, B, nuclei)[1], "hAB": h_ab}
        got = integrals._pair_blocks(kind_a, kind_b, ratio, r, n_terms, False)
        assert list(got) == list(want)
        for name, values in want.items():
            assert got[name].tobytes() == values.tobytes(), (ratio, n_terms, name)


@pytest.mark.parametrize("kind_a", ["s1", "p2"])
def test_center_a_table_gives_the_generic_haa_bit_for_bit(kind_a):
    # a pricing call prices only <A|-Z_B/r_B|A> and takes the rest of hAA
    # from center A's constant table: at random radius ratios, on a grid
    # that every one-electron pass prices in more than one chunk, hAA must
    # equal the generic one-electron pass over the product (A, A) byte for
    # byte
    rng = np.random.default_rng(["s1", "p2"].index(kind_a))
    r = np.sort(rng.uniform(0.3, 40.0, 1300))
    for n_terms in (3, 6, 8):
        assert len(r) > integrals._GRID_ENTRIES // n_terms**2
        A = integrals._orbital(kind_a, 1.0, 0.0, n_terms)
        for kind_b in ("s1", "p2"):
            ratio = rng.uniform(0.3, 2.5)
            want = integrals._one_electron([(A, A)], 1.0 / ratio, r[:, None, None])[1][0]
            got = integrals._pair_blocks(kind_a, kind_b, ratio, r, n_terms, False)["hAA"]
            assert got.tobytes() == want.tobytes(), (n_terms, kind_b, ratio)


def test_center_a_tables_are_read_only():
    # every call shares them, so no array of theirs can be written
    for kind, n_terms in itertools.product(("s1", "p2"), N_TERMS):
        center = integrals._center_a(kind, n_terms)
        assert integrals._center_a(kind, n_terms) is center
        arrays = [*center.orbital[:2], *center.density[:3], *center.density.E,
                  center.p, center.Pz, *center.E, center.two_pi_over_p, center.weights,
                  center.v_own]
        for array in arrays:
            assert isinstance(array, np.ndarray) and not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
    assert integrals._center_a.cache_info().currsize <= 2 * len(N_TERMS)


def test_importing_the_package_builds_no_center_table():
    code = ("import donorgate\n"
            "from donorgate import integrals\n"
            "assert integrals._center_a.cache_info().currsize == 0\n")
    src = str(Path(integrals.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_a_4200_point_grid_is_one_kernel_call(fresh_cache, kernel_calls):
    # a long grid is priced in one kernel call, each point once, and its
    # rows equal the same points priced in two shorter calls
    control = model_from_ionization("P", 0.6, 5.7)
    grid = np.linspace(20.0, 60.0, 4200)
    fresh_cache()
    curve = transfer_splitting_curve(control, grid)
    assert [len(call) for call in kernel_calls] == [len(grid)]
    halves = []
    for part in np.array_split(grid, 2):
        fresh_cache()
        halves.extend(transfer_splitting_curve(control, part))
    assert list(curve) == halves


def test_second_pricing_of_a_curve_calls_no_kernel(fresh_cache, kernel_calls):
    fresh_cache()
    _, fig2a = get_preset("fig2a")
    first = exchange_curve(fig2a.control, fig2a.qubit, True, fig2a.r_grid)
    assert kernel_calls
    kernel_calls.clear()
    second = exchange_curve(fig2a.control, fig2a.qubit, True, fig2a.r_grid)
    assert kernel_calls == []
    assert _rows(second) == _rows(first)
    # a one-point call gives the curve's row at that point
    a = OrbitalSpec("p2", fig2a.control.excited_orbital_radius_a())
    b = OrbitalSpec("s1", fig2a.qubit.ground_orbital_radius_a())
    assert pair_integrals(a, b, fig2a.r_grid[4], fig2a.control.dielectric_constant) == first[4]


def test_a_curves_overlap_column_is_a_read_only_view_of_the_cached_blocks(fresh_cache):
    # the cache holds each call's blocks once, and a curve reads its overlap
    # column straight from them: that view cannot be made writeable, so a
    # second call still returns the first call's rows bit for bit
    fresh_cache()
    _, fig2a = get_preset("fig2a")
    grid = np.array(fig2a.r_grid)
    first = exchange_curve(fig2a.control, fig2a.qubit, True, grid)
    rows = list(first)
    a = OrbitalSpec("p2", fig2a.control.excited_orbital_radius_a())
    b = OrbitalSpec("s1", fig2a.qubit.ground_orbital_radius_a())
    blocks = integrals._read_blocks(a, b, grid, 6)
    assert np.shares_memory(first.overlap, blocks)
    with pytest.raises(ValueError):
        first.overlap.flags.writeable = True
    with pytest.raises(ValueError):
        blocks[:, 0] = 0.0
    second = exchange_curve(fig2a.control, fig2a.qubit, True, grid)
    assert np.shares_memory(second.overlap, blocks)
    assert list(second) == rows


def test_a_curve_builds_each_point_key_once(fresh_cache, monkeypatch):
    # a call builds its pair configuration once, rounding the radius ratio
    # with one `round`, then rounds each reduced separation with one `round`
    # in grid order, cold and warm; the Boys table is filled first, so that
    # no other rounding is counted
    cache = fresh_cache()
    _, fig2a = get_preset("fig2a")
    integrals._boys_nodes()
    rounded = []

    def counted_round(x, ndigits=None):
        rounded.append(x)
        return round(x, ndigits)

    monkeypatch.setattr(integrals, "round", counted_round, raising=False)
    grid = list(fig2a.r_grid)
    scale = fig2a.control.excited_orbital_radius_a()
    ratio = fig2a.qubit.ground_orbital_radius_a() / scale
    for temperature in ("cold", "warm"):
        rounded.clear()
        exchange_curve(fig2a.control, fig2a.qubit, True, grid)
        assert rounded == [ratio] + [r / scale for r in grid], temperature
    assert cache.cache_info()[:2] == (1, 1)  # the warm call is a hit


# ---------------------------------------------------------------------------
# curves as columns
# ---------------------------------------------------------------------------

def test_curve_rows_equal_points_assembled_alone_exactly(fresh_cache):
    # one assembly: every row of both fig2a branches is, bit for bit, the
    # pair_integrals result at its separation, and every fig3 row is a
    # one-point curve's row; each side is priced from an empty cache
    _, fig2a = get_preset("fig2a")
    _, fig3 = get_preset("fig3")
    control, qubit = fig2a.control, fig2a.qubit
    b = OrbitalSpec("s1", qubit.ground_orbital_radius_a())
    for excited, a in ((True, OrbitalSpec("p2", control.excited_orbital_radius_a())),
                       (False, OrbitalSpec("s1", control.ground_orbital_radius_a()))):
        fresh_cache()
        curve = exchange_curve(control, qubit, excited, fig2a.r_grid)
        fresh_cache()
        alone = [pair_integrals(a, b, r, control.dielectric_constant) for r in fig2a.r_grid]
        assert len(curve) == len(alone) == len(fig2a.r_grid)
        for row, point in zip(curve, alone):
            assert row == point, (excited, row.separation_a)
    fresh_cache()
    curve = transfer_splitting_curve(fig3.control, fig3.r_grid)
    fresh_cache()
    alone = [transfer_splitting_curve(fig3.control, [r])[0] for r in fig3.r_grid]
    assert len(curve) == len(alone) == len(fig3.r_grid)
    for row, point in zip(curve, alone):
        assert row == point, row.separation_a


def test_an_empty_grid_gives_an_empty_curve(fresh_cache, kernel_calls):
    cache = fresh_cache()
    control = model_from_ionization("P", 0.6, 5.7)
    qubit = model_from_ionization("N", 0.6, 5.7, role="qubit")
    for curve in (exchange_curve(control, qubit, True, []),
                  exchange_curve(control, qubit, False, ()),
                  transfer_splitting_curve(control, np.array([]))):
        assert len(curve) == 0
        assert list(curve) == []
        assert curve.separation_a.shape == curve.transfer_mev.shape == (0,)
    assert kernel_calls == []
    assert cache.cache_info()[:2] == (0, 0)


def test_near_coincident_exchange_pair_names_the_first_close_separation(fresh_cache):
    # equal 1s radii nearly coincide below about 0.15 A; the error names the
    # first such separation in grid order, whatever the cache held
    fresh_cache()
    control = model_from_ionization("P", 0.6, 5.7)
    qubit = model_from_ionization("N", 0.6, 5.7, role="qubit")
    close = [0.01 * k for k in range(1, 13)]
    exchange_curve(control, qubit, False, [40.0])
    with pytest.raises(IllConditionedGeometryError, match=r"at separation 0\.01 A;"):
        exchange_curve(control, qubit, False, close + [40.0])
    with pytest.raises(IllConditionedGeometryError, match=r"at separation 0\.06 A;"):
        exchange_curve(control, qubit, False, close[5:] + [40.0])


def test_a_list_a_tuple_and_an_array_grid_give_the_same_rows(fresh_cache):
    _, fig2a = get_preset("fig2a")
    control, qubit = fig2a.control, fig2a.qubit
    for curve in (lambda g: exchange_curve(control, qubit, True, g),
                  lambda g: exchange_curve(control, qubit, False, g),
                  lambda g: transfer_splitting_curve(control, g)):
        priced = []
        for grid in (list(fig2a.r_grid), tuple(fig2a.r_grid), np.array(fig2a.r_grid)):
            fresh_cache()
            priced.append(curve(grid))
        assert list(priced[0]) == list(priced[1]) == list(priced[2])
        assert priced[0] == priced[1] == priced[2]


def test_a_curve_is_read_only_columns_whose_rows_are_built_when_read():
    _, fig3 = get_preset("fig3")
    grid = np.array(fig3.r_grid)
    curve = transfer_splitting_curve(fig3.control, grid)
    assert len(curve) == len(grid)
    assert curve.separation_a.tolist() == grid.tolist()
    assert curve[-1] == list(curve)[-1]
    assert isinstance(curve[0].transfer_mev, float)
    assert list(curve[2:5]) == list(curve)[2:5]
    with pytest.raises(ValueError):
        curve.transfer_mev[0] = 0.0
    with pytest.raises(AttributeError):
        curve.transfer_mev = curve.splitting_mev
    grid[0] = 1.0  # the caller's grid is copied
    assert curve.separation_a[0] == fig3.r_grid[0]


def _scalar_heitler_london(a, b, r, epsilon, n_terms=6):
    """The pair row at `r` angstrom by Python float arithmetic, one point
    at a time, from that point's blocks priced alone: the reference for the
    column assembly."""
    scale = a.bohr_radius_a
    hartree = medium_hartree_mev(epsilon, scale)
    zb = scale / b.bohr_radius_a
    blocks = integrals._pair_blocks(a.kind, b.kind, round(b.bohr_radius_a / scale, 12),
                                    np.array([round(r / scale, 12)]), n_terms, True)
    s, h_aa, h_bb, h_ab, jc, kx = (float(blocks[k][0])
                                   for k in ("S", "hAA", "hBB", "hAB", "Jc", "Kx"))
    vnn = zb / (r / scale)
    h11 = h_aa + h_bb + jc + vnn
    h12 = 2.0 * s * h_ab + kx + s * s * vnn
    e_singlet = (h11 + h12) / (1.0 + s * s)
    e_triplet = (h11 - h12) / (1.0 - s * s)
    hopping = (h_ab - s * (h_aa + h_bb) / 2.0) / (1.0 - s * s)
    return PairIntegralResult(
        r, s, hopping * hartree, jc * hartree, kx * hartree, e_singlet * hartree,
        e_triplet * hartree, (e_triplet - e_singlet) * hartree)


def test_curve_columns_equal_the_scalar_formula_bit_for_bit(fresh_cache):
    fresh_cache()
    _, fig2a = get_preset("fig2a")
    control, qubit = fig2a.control, fig2a.qubit
    b = OrbitalSpec("s1", qubit.ground_orbital_radius_a())
    for excited, a in ((True, OrbitalSpec("p2", control.excited_orbital_radius_a())),
                       (False, OrbitalSpec("s1", control.ground_orbital_radius_a()))):
        curve = exchange_curve(control, qubit, excited, fig2a.r_grid)
        for row, r in zip(curve, fig2a.r_grid):
            assert row == _scalar_heitler_london(a, b, r, control.dielectric_constant), \
                (excited, r)

