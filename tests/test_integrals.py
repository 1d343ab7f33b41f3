"""Two-center integral engine against an independent quadrature oracle.

The oracle (quad_oracle.py) never touches the Gaussian machinery; it was
written and converged first, and its outputs for the frozen geometry are
pinned below so a regression in either side is visible. The 2p-sigma blocks,
which the oracle does not cover yet, are checked against the scalar
McMurchie-Davidson loops in md_reference.py.
"""

import math

import numpy as np
import pytest

from donorgate import (
    IllConditionedGeometryError,
    InvalidModelError,
    OrbitalSpec,
    PreconditionError,
    exchange_curve,
    get_preset,
    model_from_ionization,
    pair_integrals,
    transfer_splitting_curve,
)
from donorgate import integrals

import md_reference
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


def test_swap_is_exact_for_equal_radii(monkeypatch):
    # both orders share one cache key, so each is priced in a fresh cache;
    # otherwise the reversed call would read back the forward blocks
    a = OrbitalSpec("s1", RADIUS_A)
    b = OrbitalSpec("s1", RADIUS_A)
    _fresh_cache(monkeypatch)
    fwd = pair_integrals(a, b, 8.0, EPS)
    cache = _fresh_cache(monkeypatch)
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


def test_blocks_match_scalar_reference():
    # the grid recursions against the primitive-by-primitive loops: the
    # excited control with a compact qubit (radii 1 and 0.5, charges l/a),
    # and the p2-p2 transfer geometry, one-electron blocks only; the kernel
    # derives each charge from its radius and prices all separations of a
    # case in one call. The ten-separation cases cross an electron-repulsion
    # chunk boundary, and their folded sums (pairs i <= j of an orbital with
    # itself, pairs of pairs u <= v of (AB|AB)) weight each off-diagonal
    # entry twice, where the reference sums every primitive quadruple
    ten = tuple(np.linspace(1.5, 9.6, 10))
    assert len(ten) > integrals._R_CHUNK
    cases = (
        (("p2", "s1", 0.5, (3.0, 4.5), 4), True),
        (("p2", "p2", 1.0, (6.0, 7.5), 4), False),
        (("s1", "s1", 1.5, ten, 4), True),
        (("p2", "s1", 0.5, ten, 4), True),
    )
    for (kind_a, kind_b, radius_b, seps, n_terms), two_electron in cases:
        engine = integrals._pair_blocks(kind_a, kind_b, radius_b, np.array(seps),
                                        n_terms, two_electron)
        for i, r in enumerate(seps):
            reference = md_reference.reduced_pair(
                kind_a, kind_b, 1.0, radius_b, r, 1.0, 1.0 / radius_b, n_terms)
            assert set(engine) <= set(reference)
            for key, got in engine.items():
                assert got[i] == pytest.approx(reference[key], rel=1e-12), (kind_b, r, key)


def test_far_separation_splitting_underflows_cleanly():
    a = OrbitalSpec("s1", RADIUS_A)
    res = pair_integrals(a, a, 200.0, EPS)
    assert abs(res.exchange_splitting_mev) < 1e-9
    assert abs(res.overlap) < 1e-30


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
def cold_cache(monkeypatch):
    """An empty pair cache of the package's size, for this test only."""
    cache = integrals._PairCache(integrals._CACHE_POINTS)
    monkeypatch.setattr(integrals, "_reduced_pair", cache)
    return cache


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


def _fresh_cache(monkeypatch):
    cache = integrals._PairCache(integrals._CACHE_POINTS)
    monkeypatch.setattr(integrals, "_reduced_pair", cache)
    return cache


def _one_at_a_time(monkeypatch, curve, grid):
    out = []
    for r in grid:
        _fresh_cache(monkeypatch)
        out.extend(curve([r]))
    return out


def test_curves_match_points_priced_one_at_a_time(monkeypatch, kernel_calls):
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
        _fresh_cache(monkeypatch)
        kernel_calls.clear()
        batched = curve(grid)
        # the misses go through the kernel in one call, in grid order
        assert len(kernel_calls) == 1
        assert kernel_calls[0] == pytest.approx([r / scale for r in grid], rel=1e-12)
        single = _one_at_a_time(monkeypatch, curve, grid)
        assert [res.separation_a for res in batched] == list(grid)
        _assert_rows_close(_rows(batched), _rows(single))


def test_partly_warm_grid_gives_the_cold_rows(monkeypatch, kernel_calls):
    _, fig2a = get_preset("fig2a")
    grid = fig2a.r_grid
    _fresh_cache(monkeypatch)
    cold = exchange_curve(fig2a.control, fig2a.qubit, True, grid)
    cache = _fresh_cache(monkeypatch)
    exchange_curve(fig2a.control, fig2a.qubit, True, grid[::3])
    assert cache.cache_info() == (len(grid[::3]), len(grid[::3]))
    kernel_calls.clear()
    warm = exchange_curve(fig2a.control, fig2a.qubit, True, grid)
    # only the points the priming left out reach the kernel
    priced = sum(len(call) for call in kernel_calls)
    assert priced == len(grid) - len(grid[::3])
    assert cache.cache_info() == (len(grid[::3]) + len(grid), len(grid))
    _assert_rows_close(_rows(warm), _rows(cold))


def test_a_pair_point_does_not_depend_on_the_batch_that_priced_it(monkeypatch):
    # table1 prices its C1-C2 transfer alone, at 24 A, a point of fig3's
    # grid; with BLAS contracting the batch's rows it read 25.735634444596457
    # meV priced in fig3's batch where alone it read 25.735634444596446
    _, table1 = get_preset("table1")
    _, fig3 = get_preset("fig3")
    control = table1.model_for("C1")
    assert 24.0 in fig3.r_grid
    _fresh_cache(monkeypatch)
    alone = transfer_splitting_curve(control, (24.0,))[0].transfer_mev
    cache = _fresh_cache(monkeypatch)
    transfer_splitting_curve(fig3.control, fig3.r_grid)
    misses = cache.cache_info()[1]
    after_fig3 = transfer_splitting_curve(control, (24.0,))[0].transfer_mev
    assert cache.cache_info()[1] == misses  # read from fig3's batch
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


def test_ill_conditioned_error_names_the_first_close_separation(cold_cache):
    # twelve near-coincident p2-p2 pairs are priced in one kernel call; the
    # error must name the first of them, not the last or a later one, as the
    # separation in angstrom the caller passed
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
    # the Boys table's nodes are 0.01 apart up to x = 50, so their midpoints
    # are the farthest a point takes its Taylor series; from 50 on the
    # asymptote takes over
    edge = integrals._BOYS_X_MAX
    x = np.concatenate([[0.0], np.logspace(-14, 3, 171),
                        [np.nextafter(1e-10, 0.0), 1e-10, np.nextafter(1e-10, 1.0)],
                        (np.arange(0, 5000, 7) + 0.5) / 100.0,
                        [edge - 0.005, np.nextafter(edge, 0.0), edge,
                         np.nextafter(edge, np.inf), edge + 0.005]])
    for nmax in range(7):
        boys = integrals._boys_array(nmax, x)
        assert len(boys) == nmax + 1
        for n, fn in enumerate(boys):
            want = np.array([md_reference._boys(n, xi) for xi in x])
            np.testing.assert_allclose(fn, want, rtol=1e-12, atol=0.0,
                                       err_msg=f"nmax={nmax}, n={n}")
    with pytest.raises(PreconditionError, match="nmax <= 6"):
        integrals._boys_array(7, x)


def test_cache_keeps_at_most_its_bound_least_recently_used_out(cold_cache, kernel_calls):
    control = model_from_ionization("P", 0.6, 5.7)
    size = integrals._CACHE_POINTS
    assert cold_cache.maxsize == size
    grid = list(np.linspace(20.0, 60.0, size + 100))
    transfer_splitting_curve(control, grid[:size])
    transfer_splitting_curve(control, grid[:1])  # a hit refreshes the oldest
    transfer_splitting_curve(control, grid[size:])
    assert len(cold_cache._rows) == size
    assert cold_cache.cache_info()[1] == len(grid)
    kernel_calls.clear()
    transfer_splitting_curve(control, grid[:1])   # kept: used recently
    assert kernel_calls == []
    transfer_splitting_curve(control, grid[1:2])  # dropped: least recently used
    assert [len(call) for call in kernel_calls] == [1]
    assert cold_cache.cache_info()[1] == len(grid) + 1
    assert len(cold_cache._rows) == size


def test_second_pricing_of_a_curve_calls_no_kernel(cold_cache, kernel_calls):
    _, fig2a = get_preset("fig2a")
    first = exchange_curve(fig2a.control, fig2a.qubit, True, fig2a.r_grid)
    assert kernel_calls
    kernel_calls.clear()
    second = exchange_curve(fig2a.control, fig2a.qubit, True, fig2a.r_grid)
    assert kernel_calls == []
    assert _rows(second) == _rows(first)
    # a one-point call reads the same cache
    a = OrbitalSpec("p2", fig2a.control.excited_orbital_radius_a())
    b = OrbitalSpec("s1", fig2a.qubit.ground_orbital_radius_a())
    assert _rows([pair_integrals(a, b, fig2a.r_grid[4], fig2a.control.dielectric_constant)]) \
        == [_rows(first)[4]]
    assert kernel_calls == []


def test_a_curve_builds_each_point_key_once(cold_cache, monkeypatch):
    _, fig2a = get_preset("fig2a")
    calls = []
    key = integrals._pair_key

    def counted(*args, **kwargs):
        calls.append(args[2])
        return key(*args, **kwargs)

    monkeypatch.setattr(integrals, "_pair_key", counted)
    grid = list(fig2a.r_grid)
    for temperature in ("cold", "warm"):
        calls.clear()
        exchange_curve(fig2a.control, fig2a.qubit, True, grid)
        assert calls == grid, temperature
    assert cold_cache.cache_info() == (2 * len(grid), len(grid))
