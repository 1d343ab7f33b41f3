"""Scan rendering, adjacency inference, and gate calibration."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.signal import find_peaks

from donorgate import (
    DependencyError,
    EprModel,
    InvalidSpecError,
    LatticeSpec,
    Placement,
    PreconditionError,
    ScanMap,
    Scenario,
    SpectralModel,
    TransitionLine,
    calibrate_gate_time,
    get_preset,
    infer_adjacency,
    model_from_ionization,
    simulate_scan,
)
from donorgate import configure
from donorgate.configure import ControlHypothesis, _baseline, _find_peaks
from donorgate.feasibility import resolve_cluster

CONTROL = model_from_ionization("P", 0.6, 5.7, role="control")
QUBIT = model_from_ionization("N", 0.6, 5.7, role="qubit", radius_scale_factor=0.5)
DELTA_H = 1.1
GAMMA = 0.05
SPECTRAL = SpectralModel(600.0, DELTA_H, (), 1.5)


def _lorentzian(x, center, fwhm):
    half = 0.5 * fwhm
    return half * half / ((x - center) ** 2 + half * half)


def _scenario(placements, offsets, threshold=1.0):
    return Scenario(
        name="probe",
        lattice=LatticeSpec(40.0),
        species=(CONTROL, QUBIT),
        spectral=SPECTRAL,
        epr=EprModel(GAMMA, zeeman_offsets_mev=offsets),
        placements=tuple(placements),
        detection_threshold_mev=threshold,
    )


def _one_control_case(j1=8.0, j2=0.0):
    """C1 at 600 meV coupled to Q1 (j1) and, if nonzero, Q2 (j2)."""
    placements = [
        Placement("C1", "P", (0.0, 0.0, 0.0)),
        Placement("Q1", "N", (0.0, 8.0, 0.0)),
        Placement("Q2", "N", (8.0, 8.0, 0.0)),
    ]
    offsets = (("Q1", -8.0), ("Q2", 8.0))
    lines = (TransitionLine("C1", 600.0, DELTA_H, ()),)
    return _scenario(placements, offsets), lines, np.array([[j1, j2]])


def _row_nearest(scan, optical_mev):
    return scan.response[int(np.argmin(np.abs(scan.optical_axis_mev - optical_mev)))]


def test_unexcited_row_equals_baseline_spectrum():
    sc, lines, couplings = _one_control_case(j1=8.0)
    scan = simulate_scan(sc, lines, couplings)
    epr = scan.epr_axis_mev
    # the first row sits 4 homogeneous widths below the line: nothing excited
    assert abs(scan.optical_axis_mev[0] - 600.0) > DELTA_H
    baseline = _lorentzian(epr, -8.0, GAMMA) + _lorentzian(epr, 8.0, GAMMA)
    assert np.max(np.abs(scan.response[0] - baseline)) < 1e-12


def test_excited_row_splits_only_coupled_lines():
    sc, lines, couplings = _one_control_case(j1=8.0)
    scan = simulate_scan(sc, lines, couplings)
    epr = scan.epr_axis_mev
    want = (0.5 * _lorentzian(epr, -8.0 - 4.0, GAMMA)
            + 0.5 * _lorentzian(epr, -8.0 + 4.0, GAMMA)
            + _lorentzian(epr, 8.0, GAMMA))  # Q2 uncoupled, unmoved
    assert np.max(np.abs(_row_nearest(scan, 600.0) - want)) < 1e-12


def test_doubling_coupling_doubles_displacement():
    for j in (4.0, 8.0):
        sc, lines, couplings = _one_control_case(j1=j)
        scan = simulate_scan(sc, lines, couplings)
        epr = scan.epr_axis_mev
        want = (0.5 * _lorentzian(epr, -8.0 - j / 2.0, GAMMA)
                + 0.5 * _lorentzian(epr, -8.0 + j / 2.0, GAMMA)
                + _lorentzian(epr, 8.0, GAMMA))
        assert np.max(np.abs(_row_nearest(scan, 600.0) - want)) < 1e-12


def test_scan_is_additive_over_disjoint_clusters():
    # two controls far apart in optical energy, disjoint qubit sets: the
    # union's response is the sum of the parts minus the doubled baseline.
    # Q3, uncoupled and farthest out, sets the EPR span, so the three scans
    # share their axes
    placements = [
        Placement("C1", "P", (0.0, 0.0, 0.0)),
        Placement("C2", "P", (24.0, 0.0, 0.0)),
        Placement("Q1", "N", (0.0, 8.0, 0.0)),
        Placement("Q2", "N", (24.0, 8.0, 0.0)),
        Placement("Q3", "N", (48.0, 8.0, 0.0)),
    ]
    offsets = (("Q1", -8.0), ("Q2", 8.0), ("Q3", 20.0))
    lines = (TransitionLine("C1", 590.0, DELTA_H, ()),
             TransitionLine("C2", 610.0, DELTA_H, ()))
    both = np.array([[6.0, 0.0, 0.0], [0.0, 9.0, 0.0]])
    only1 = np.array([[6.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    only2 = np.array([[0.0, 0.0, 0.0], [0.0, 9.0, 0.0]])
    sc = _scenario(placements, offsets)
    scans = [simulate_scan(sc, lines, c) for c in (both, only1, only2)]
    for scan in scans[1:]:
        assert np.array_equal(scan.optical_axis_mev, scans[0].optical_axis_mev)
        assert np.array_equal(scan.epr_axis_mev, scans[0].epr_axis_mev)
    epr = scans[0].epr_axis_mev
    r_both, r_1, r_2 = (scan.response for scan in scans)
    baseline = sum(_lorentzian(epr, z, GAMMA) for _, z in offsets)
    assert np.max(np.abs(r_both - (r_1 + r_2 - baseline[None, :]))) < 1e-12
    # both excitation windows are in the scan
    assert np.max(np.abs(_row_nearest(scans[0], 590.0) - baseline)) > 0.1
    assert np.max(np.abs(_row_nearest(scans[0], 610.0) - baseline)) > 0.1


def test_scan_invariants_and_csv_shape():
    sc, lines, couplings = _one_control_case(j1=8.0)
    scan = simulate_scan(sc, lines, couplings)
    assert np.all(np.diff(scan.optical_axis_mev) > 0)
    assert np.all(np.diff(scan.epr_axis_mev) > 0)
    assert np.all(scan.response >= 0.0)
    header, rows = scan.to_rows()
    assert header[0] == "optical_mev"
    assert len(header) == 1 + len(scan.epr_axis_mev)
    assert len(rows) == len(scan.optical_axis_mev)


def test_scan_row_sets_are_numbered_as_the_rows_first_reach_them():
    # delta_h = 1 and lines on the quarter grid, so that rows at exactly
    # delta_h from a line exist; overlapping windows give the sets {},
    # {C1}, {C1, C2}, {C2} and {} again, in that order along the axis
    placements = [Placement("C1", "P", (0.0, 0.0, 0.0)),
                  Placement("C2", "P", (24.0, 0.0, 0.0)),
                  Placement("Q1", "N", (0.0, 8.0, 0.0)),
                  Placement("Q2", "N", (24.0, 8.0, 0.0))]
    sc = dataclasses.replace(_scenario(placements, (("Q1", -8.0), ("Q2", 8.0))),
                             spectral=SpectralModel(600.0, 1.0, (), 1.5))
    lines = (TransitionLine("C1", 600.0, 1.0, ()),
             TransitionLine("C2", 601.5, 1.0, ()))
    scan = simulate_scan(sc, lines, np.diag([6.0, 9.0]))
    optical = scan.optical_axis_mev
    for edge in (599.0, 601.0, 600.5, 602.5):
        assert edge in optical
    # the sets each row excites, one row at a time
    sets = [frozenset(line.gate_id for line in lines
                      if abs(line.energy_mev - f) <= 1.0) for f in optical]
    assert sets[list(optical).index(599.0)] == {"C1"}
    assert sets[list(optical).index(602.5)] == {"C2"}
    order = list(dict.fromkeys(sets))
    assert order == [frozenset(), {"C1"}, {"C1", "C2"}, {"C2"}]
    assert scan.row_spectrum.tolist() == [order.index(s) for s in sets]
    assert len(scan.spectra) == 4
    assert np.array_equal(scan.spectra[3],
                          simulate_scan(sc, lines[1:], np.diag([0.0, 9.0])).spectra[1])
    # no lines: every row excites nothing and shares one spectrum
    empty = simulate_scan(sc, (), np.zeros((2, 2)))
    assert len(empty.spectra) == 1
    assert not empty.row_spectrum.any()


def _infer(sc, scan):
    return infer_adjacency(scan, sc.detection_threshold_mev)


def test_a_malformed_exchange_matrix_is_refused():
    # J is read in scenario.controls() x scenario.qubits() order, (1, 2)
    # here; one of another shape, or with an entry that is not a finite
    # number, is refused before any axis is laid out (a NaN or an inf would
    # reach np.arange), and so is a line that names no control
    sc, lines, excited = _one_control_case(j1=8.0, j2=11.0)
    assert len(simulate_scan(sc, lines, excited).spectra) == 2
    stray = (TransitionLine("C9", 610.0, DELTA_H, ()),)
    for bad, why in ((excited[0], "shape"), (excited.T, "shape"),
                     (np.vstack([excited, excited]), "shape"), ({("C1", "Q1"): 8.0}, "shape"),
                     ([[8.0, 11.0], [8.0]], "shape"),
                     (np.array([[np.nan, 11.0]]), "finite"),
                     (np.array([[8.0, np.inf]]), "finite"),
                     (np.array([[-np.inf, 11.0]]), "finite"),
                     (np.array([["7", "11"]]), "finite"),
                     (np.array([[8.0, "7"]], dtype=object), "finite"),
                     (np.array([[True, False]]), "finite")):
        with pytest.raises(PreconditionError, match=f"exchange matrix .*{why}"):
            simulate_scan(sc, lines, bad)
    with pytest.raises(PreconditionError, match="C9"):
        simulate_scan(sc, lines + stray, excited)
    # an integer matrix is a matrix of numbers, rendered as its floats
    ints = simulate_scan(sc, lines, np.array([[8, 11]]))
    assert ints.spectra.tobytes() == simulate_scan(sc, lines, excited).spectra.tobytes()


def test_scan_carries_its_instrument_settings():
    sc, lines, couplings = _one_control_case(j1=8.0, j2=11.0)
    scan = simulate_scan(sc, lines, couplings)
    assert scan.epr_lines_mev == (("Q1", -8.0), ("Q2", 8.0))
    assert scan.epr_linewidth_mev == GAMMA
    assert scan.homogeneous_fwhm_mev == DELTA_H


def test_inference_recovers_single_cluster():
    sc, lines, couplings = _one_control_case(j1=8.0, j2=11.0)
    scan = simulate_scan(sc, lines, couplings)
    hyp = _infer(sc, scan)
    assert len(hyp.entries) == 1
    entry = hyp.entries[0]
    assert entry.optical_energy_mev == pytest.approx(600.0, abs=DELTA_H / 2.0)
    got = dict(entry.couplings)
    assert set(got) == {"Q1", "Q2"}
    assert got["Q1"] == pytest.approx(8.0, rel=0.05)
    assert got["Q2"] == pytest.approx(11.0, rel=0.05)
    assert not entry.ambiguous
    # every reported coupling respects the detection threshold
    assert all(abs(j) >= hyp.detection_threshold_mev for _, j in entry.couplings)


def test_inference_deterministic():
    sc, lines, couplings = _one_control_case(j1=8.0, j2=11.0)
    scan = simulate_scan(sc, lines, couplings)
    a, b = _infer(sc, scan), _infer(sc, scan)
    assert a == b


def test_empty_scenario_gives_empty_hypothesis():
    placements = [Placement("Q1", "N", (0.0, 8.0, 0.0))]
    sc = _scenario(placements, (("Q1", -8.0),))
    scan = simulate_scan(sc, (), np.zeros((0, 1)))
    hyp = _infer(sc, scan)
    assert hyp.entries == ()


def test_overlapping_optical_lines_flagged_ambiguous():
    placements = [
        Placement("C1", "P", (0.0, 0.0, 0.0)),
        Placement("C2", "P", (24.0, 0.0, 0.0)),
        Placement("Q1", "N", (0.0, 8.0, 0.0)),
        Placement("Q2", "N", (24.0, 8.0, 0.0)),
    ]
    offsets = (("Q1", -8.0), ("Q2", 8.0))
    # two controls 0.4 delta_h apart: inside each other's excitation window
    lines = (TransitionLine("C1", 600.0, DELTA_H, ()),
             TransitionLine("C2", 600.0 + 0.4 * DELTA_H, DELTA_H, ()))
    sc = _scenario(placements, offsets)
    scan = simulate_scan(sc, lines, np.diag([6.0, 9.0]))
    hyp = _infer(sc, scan)
    assert any(e.ambiguous for e in hyp.entries)


def _random_case(seed):
    """2 controls, 3 qubits, separated lines, couplings well above
    threshold: (scenario, lines, J), each control coupled to two qubits."""
    rng = np.random.default_rng(seed)
    thr = 1.0
    e1 = 600.0 + rng.uniform(-10.0, 0.0)
    e2 = e1 + rng.uniform(3.0 * DELTA_H, 25.0)
    lines = (TransitionLine("C1", e1, DELTA_H, ()),
             TransitionLine("C2", e2, DELTA_H, ()))
    qs = ("Q1", "Q2", "Q3")
    adj = np.zeros((2, 3))
    for row in adj:
        for k in rng.choice(3, size=2, replace=False):
            row[k] = rng.uniform(5.5 * thr, 30.0)
    spacing = float(adj.max()) / 2.0 + 12.0 * GAMMA + 1.0
    offsets = tuple((q, (i - 1) * spacing + float(rng.uniform(-0.2, 0.2)))
                    for i, q in enumerate(qs))
    placements = [Placement("C1", "P", (0.0, 0.0, 0.0)),
                  Placement("C2", "P", (24.0, 0.0, 0.0))]
    placements += [Placement(q, "N", (8.0 * i, 8.0, 0.0)) for i, q in enumerate(qs)]
    sc = _scenario(placements, offsets, threshold=thr)
    return sc, lines, adj


def test_round_trip_recovers_random_scenarios():
    for seed in range(10):
        sc, lines, adj = _random_case(seed)
        scan = simulate_scan(sc, lines, adj)
        hyp = _infer(sc, scan)
        assert len(hyp.entries) == 2, f"seed {seed}"
        for line, row in zip(lines, adj):
            cid = line.gate_id
            entry = min(hyp.entries,
                        key=lambda e: abs(e.optical_energy_mev - line.energy_mev))
            want = {q: j for q, j in zip(("Q1", "Q2", "Q3"), row) if j}
            got = dict(entry.couplings)
            assert set(got) == set(want), f"seed {seed} {cid}"
            for q, j in want.items():
                assert got[q] == pytest.approx(j, rel=0.05), f"seed {seed} {cid} {q}"


def _assert_baseline_exact(scan):
    baseline, deviation = _baseline(scan.spectra, scan.row_spectrum)
    dense = scan.response
    want = np.median(dense, axis=0)
    assert baseline.tobytes() == want.tobytes()
    assert deviation.tobytes() == np.sum(np.abs(dense - want), axis=1).tobytes()
    return baseline


def test_table1_scan_stores_three_spectra_and_its_exact_baseline():
    _, sc = get_preset("table1")
    scan = simulate_scan(*resolve_cluster(sc))
    assert len(scan.spectra) == 3
    assert scan.response.shape == (220, 15294)
    _assert_baseline_exact(scan)


def test_random_scan_baselines_are_exact():
    for seed in range(10):
        _assert_baseline_exact(simulate_scan(*_random_case(seed)))


def _synthetic_scan(spectra, row_spectrum):
    return ScanMap(np.arange(float(len(row_spectrum))),
                   np.arange(float(spectra.shape[1])), spectra, row_spectrum,
                   (("Q1", 0.0),), GAMMA, DELTA_H)


@pytest.mark.parametrize("row_spectrum", [
    [0],  # a single row
    [1, 0, 1],  # odd, spectrum 2 unused
    [2, 0, 1, 0],  # even
    [0, 0, 2, 2],  # even, the middle ranks in two spectra
    [3, 3, 1, 0, 2, 3, 1],
    [2] * 5 + [0] * 5,  # even, spectra 1 and 3 unused
    [8] * 4 + [0] * 4,  # even, the middle ranks in the first and last spectra
    [4, 8, 0, 4, 8, 0, 4, 8],  # even, three spectra used
    list(range(9)),  # each spectrum once
    [8] * 7,  # odd, only the last spectrum used
    [0, 2, 2, 1, 2],  # odd, a majority
    [1, 1, 0, 1, 2, 1],  # even, a majority
    [0] * 2 + [3] * 3,  # a majority in the last spectrum
    [2, 2, 2, 0, 1, 1],  # even, exactly half in one of three spectra
    [0, 1, 2, 0, 1, 2, 3],  # odd, no majority
])
def test_weighted_median_matches_dense_median(ranked_calls, row_spectrum):
    # a spectrum used by more than half the rows holds both middle ranks of
    # every column, whatever the ties, so it is the median as it stands;
    # exactly half is not enough and is ranked
    majority = 2 * max(np.bincount(row_spectrum)) > len(row_spectrum)
    for table in _tied_tables(row_spectrum):
        ranked_calls.clear()
        scan = _synthetic_scan(table, row_spectrum)
        baseline = _assert_baseline_exact(scan)
        assert len(ranked_calls) == (0 if majority else 1)
        assert not np.shares_memory(baseline, scan.spectra)


def _tied_tables(row_spectrum):
    """Every table of 1 to 9 spectra the row index fits, each with ties."""
    for n_spectra in range(max(row_spectrum) + 1, 10):
        rng = np.random.default_rng(n_spectra)
        spectra = rng.uniform(0.0, 2.0, size=(n_spectra, 64))
        # ties: a column equal across spectra, a column of zeros, columns
        # drawn from few values, and a spectrum of zeros
        spectra[:, 5] = 0.7
        spectra[:, 6] = 0.0
        spectra[:, 10:30] = rng.choice([0.0, 0.25, 1.0 / 3.0], size=(n_spectra, 20))
        spectra[n_spectra // 2] = 0.0
        # and a table whose columns are each equal across the spectra
        yield spectra
        yield np.repeat(spectra[-1:], n_spectra, axis=0)


@pytest.fixture
def ranked_calls(monkeypatch):
    """The calls `_baseline` makes to its rank-counting median."""
    calls, rank = [], configure._ranked_median
    monkeypatch.setattr(configure, "_ranked_median",
                        lambda *args: calls.append(args) or rank(*args))
    return calls


def test_a_majority_spectrum_past_half_the_largest_float_is_ranked(ranked_calls):
    # for even N the median is (s + s)/2, which overflows to inf above half
    # the largest float; for odd N it is s itself
    spectra = np.array([[1.0, 2.0], [1e308, 3.0]])
    for row_spectrum, majority in (([1, 1, 0], True), ([1, 1, 1, 0], False)):
        ranked_calls.clear()
        with np.errstate(over="ignore"):
            _assert_baseline_exact(_synthetic_scan(spectra, row_spectrum))
        assert len(ranked_calls) == (0 if majority else 1)
    with np.errstate(over="ignore"):
        baseline, deviation = _baseline(spectra, np.array([1, 1, 1, 0]))
    assert baseline[0] == np.inf and np.all(deviation == np.inf)


def _peak_cases():
    rng = np.random.default_rng(11)
    x = np.linspace(0.0, 20.0, 400)
    smooth = sum(_lorentzian(x, c, 0.4) for c in (3.0, 7.5, 7.9, 15.0))
    cases = [rng.uniform(0.0, 1.0, 200), smooth, smooth + rng.normal(0.0, 0.05, 400),
             rng.choice([0.0, 0.5, 1.0], 300)]  # random, smooth, noisy, many ties
    plateau = np.zeros(40)
    plateau[5:9] = 1.0  # even width
    plateau[15:18] = 0.8  # odd width
    plateau[22:24] = [0.5, 0.5]
    plateau[30:32] = 0.9  # a two-sample top next to a lower shoulder
    plateau[32:35] = 0.4
    edges = np.array([1.0, 1.0, 0.2, 0.7, 0.2, 0.3, 0.3, 0.3])  # plateaus at both ends
    cases += [plateau, edges, edges[::-1].copy(), np.full(50, 0.3), np.zeros(2),
              np.array([0.0, 1.0, 0.0]), np.zeros(0)]
    # short arrays of three values: every arrangement of ties and edges
    return cases + [rng.choice([0.0, 0.5, 1.0], rng.integers(1, 10)) for _ in range(300)]


def test_peak_finder_is_scipys_find_peaks(monkeypatch):
    cases = [(v, h) for v in _peak_cases()
             for h in (0.0, 0.12 * float(np.max(v, initial=0.0)), 0.5)]
    # and every row table1's inference looks at, with its own floor
    seen, find = [], configure._find_peaks
    monkeypatch.setattr(configure, "_find_peaks",
                        lambda v, h, p: seen.append((v, h)) or find(v, h, p))
    _, sc = get_preset("table1")
    assert infer_adjacency(simulate_scan(*resolve_cluster(sc)),
                           sc.detection_threshold_mev).entries
    assert len(seen) > 1
    for values, height in cases + seen:
        want, _ = find_peaks(values, height=height, prominence=height / 2.0)
        assert np.array_equal(_find_peaks(values, height, height / 2.0), want), values


def _numpy_peak_positions(axis, values, floor):
    """Parabolic refinement on numpy scalars, with `np.clip`, a peak at
    either end taken as is."""
    out = []
    for k in _find_peaks(values, floor, floor / 2.0):
        if 0 < k < len(values) - 1:
            denom = values[k - 1] - 2.0 * values[k] + values[k + 1]
            frac = 0.5 * (values[k - 1] - values[k + 1]) / denom if denom != 0 else 0.0
            out.append(float(axis[k] + np.clip(frac, -1, 1) * (axis[1] - axis[0])))
        else:
            out.append(float(axis[k]))
    return out


def test_peak_positions_are_the_numpy_scalar_refinement():
    rng = np.random.default_rng(5)
    _, sc = get_preset("table1")
    scan = simulate_scan(*resolve_cluster(sc))
    rows = [(scan.epr_axis_mev, row) for row in scan.spectra]
    for values in _peak_cases():
        # ends and flat tops from the peak cases, on offset uneven grids
        axis = np.cumsum(rng.uniform(0.01, 0.3, len(values))) - rng.uniform(0, 50)
        rows.append((axis, values))
    rows += [(np.linspace(-3.0, 4.0, 101), rng.uniform(0.0, 1.0, 101) ** 4)
             for _ in range(100)]
    for axis, values in rows:
        for floor in (0.0, 0.12 * float(np.max(values, initial=0.0)), 0.5):
            got = configure._peak_positions(axis, values, floor)
            assert all(type(p) is float for p in got)
            assert got == _numpy_peak_positions(axis, values, floor), values


def test_scan_map_checks_its_row_index():
    spectra = np.ones((2, 4))
    scan = _synthetic_scan(spectra, [1, 0, 1])
    assert scan.response.shape == (3, 4)
    assert not scan.response.flags.writeable
    for bad in ([0, 2, 1], [0, -1, 1], [0.0, 1.0, 0.0]):
        with pytest.raises(InvalidSpecError):
            _synthetic_scan(spectra, bad)
    settings = ((("Q1", 0.0),), GAMMA, DELTA_H)
    with pytest.raises(InvalidSpecError):  # two rows on a three-row axis
        ScanMap(np.arange(3.0), np.arange(4.0), spectra, [0, 1], *settings)
    with pytest.raises(InvalidSpecError):  # three EPR points on a four-point axis
        ScanMap(np.arange(3.0), np.arange(4.0), np.ones((2, 3)), [1, 0, 1],
                *settings)
    with pytest.raises(InvalidSpecError):
        _synthetic_scan(-spectra, [1, 0, 1])


def test_scan_map_refuses_values_that_are_not_finite():
    # NaN compares false both ways, so it passes `< 0` and `diff <= 0`
    # checks; inference then returned an empty hypothesis without an error
    axis, spectra, rows = np.arange(3.0), np.ones((2, 4)), [1, 0, 1]
    lines = (("Q1", 0.0),)
    ScanMap(axis, np.arange(4.0), spectra, rows, lines, GAMMA, DELTA_H)
    for value in (np.nan, np.inf, -np.inf):
        bad = spectra.copy()
        bad[1, 2] = value
        with pytest.raises(InvalidSpecError):
            ScanMap(axis, np.arange(4.0), bad, rows, lines, GAMMA, DELTA_H)
        for at in (0, 1, 2):
            bad_axis = np.arange(3.0)
            bad_axis[at] = value
            with pytest.raises(InvalidSpecError):
                ScanMap(bad_axis, np.arange(4.0), spectra, rows, lines, GAMMA, DELTA_H)
            with pytest.raises(InvalidSpecError):
                ScanMap(axis, np.r_[bad_axis, 3.0], spectra, rows, lines, GAMMA, DELTA_H)
    with pytest.raises(InvalidSpecError):  # a NaN on a one-point axis
        ScanMap(axis, [np.nan], np.ones((2, 1)), rows, lines, GAMMA, DELTA_H)
    for position in (np.nan, np.inf):  # a line that names no EPR position
        with pytest.raises(InvalidSpecError):
            ScanMap(axis, np.arange(4.0), spectra, rows,
                    (("Q1", 0.0), ("Q2", position)), GAMMA, DELTA_H)
    for width in (np.nan, np.inf, -GAMMA, 0.0, True, "0.05"):
        with pytest.raises(InvalidSpecError):
            ScanMap(axis, np.arange(4.0), spectra, rows, lines, width, DELTA_H)
        with pytest.raises(InvalidSpecError):
            ScanMap(axis, np.arange(4.0), spectra, rows, lines, GAMMA, width)


def test_one_point_epr_axis_is_read_without_a_step():
    # a peak needs a lower sample on each side, so a one-point axis has
    # none and needs no sample step
    scan = ScanMap(np.arange(3.0), np.array([0.5]), np.array([[0.0], [1.0]]),
                   [0, 0, 1], (("Q1", 0.5),), 0.05, 1.1)
    (entry,) = infer_adjacency(scan, 0.05).entries
    assert entry.optical_energy_mev == pytest.approx(0.5 * (1.0 + 2.0) + 1.1)
    assert entry.couplings == ()


# --- calibration ----------------------------------------------------------

# the true J of table1's two controls, by control, over the qubits QUBITS
QUBITS = ("Q1", "Q2", "Q3")
TABLE1_TRUTH = {"C1": [116.4, 38.61, 0.0], "C2": [0.0, 20.92, 147.5]}


def test_exact_inference_calibrates_to_unit_fidelity():
    exact = {"C1": ControlHypothesis(574.264, (("Q1", 116.4), ("Q2", 38.61))),
             "C2": ControlHypothesis(625.736, (("Q3", 147.5), ("Q2", 20.92)))}
    for cid, entry in exact.items():
        rep = calibrate_gate_time(entry, TABLE1_TRUTH[cid], QUBITS)
        assert rep.fidelity_to_target == pytest.approx(1.0, abs=1e-8), cid
        assert rep.entangling_power > 1e-6


def test_five_percent_error_tolerable_for_clean_ratio_clusters():
    # equal couplings calibrate at the first clean interval, where a 5%
    # coupling error costs little (measured worst 0.989 over wider sweeps)
    truth = {"C1": [40.0, 40.0, 0.0], "C2": [0.0, 25.0, 25.0]}
    rng = np.random.default_rng(1)
    for _ in range(2):
        f = lambda j: float(j * (1.0 + rng.uniform(-0.05, 0.05)))
        pert = (ControlHypothesis(574.264, (("Q1", f(40.0)), ("Q2", f(40.0)))),
                ControlHypothesis(625.736, (("Q3", f(25.0)), ("Q2", f(25.0)))))
        for cid, entry in zip(("C1", "C2"), pert):
            rep = calibrate_gate_time(entry, truth[cid], QUBITS)
            assert rep.fidelity_to_target >= 0.95


def test_generic_ratio_clusters_are_tau_sensitive():
    # at the table1 coupling ratios the usable dip sits near J*tau/hbar of
    # 25-30 rad, so a 5% coupling error is a large phase error; the sweep
    # documents that honestly rather than asserting robustness
    rng = np.random.default_rng(0)
    fids = []
    for _ in range(2):
        f = lambda j: float(j * (1.0 + rng.uniform(-0.05, 0.05)))
        pert = (ControlHypothesis(574.264, (("Q1", f(116.4)), ("Q2", f(38.61)))),
                ControlHypothesis(625.736, (("Q3", f(147.5)), ("Q2", f(20.92)))))
        for cid, entry in zip(("C1", "C2"), pert):
            fids.append(calibrate_gate_time(entry, TABLE1_TRUTH[cid], QUBITS)
                        .fidelity_to_target)
    assert all(0.0 < f_ <= 1.0 + 1e-12 for f_ in fids)
    assert max(fids) > 0.9  # some draws stay close
    assert min(fids) > 0.2  # none collapse to an unrelated gate


def test_detection_threshold_validation():
    # no coupling compares at or above NaN or inf, so these would drop every
    # coupling of every resonance without a word
    sc, lines, couplings = _one_control_case(j1=8.0, j2=11.0)
    scan = simulate_scan(sc, lines, couplings)
    for bad_threshold in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(PreconditionError):
            infer_adjacency(scan, bad_threshold)


def test_calibration_needs_two_inferred_qubits():
    one = ControlHypothesis(574.264, (("Q1", 116.4),))
    with pytest.raises(PreconditionError):
        calibrate_gate_time(one, [116.4], ("Q1",))


def test_calibration_needs_true_couplings_to_both_qubits():
    # a qubit the control has J = 0 to, exactly, or that no column names,
    # cannot be scored: the pipeline then leaves the control uncalibrated
    entry = ControlHypothesis(574.264, (("Q1", 116.4), ("Q2", 38.61)))
    assert calibrate_gate_time(entry, [116.4, 38.61, 0.0], QUBITS).qubit_labels == ("Q1", "Q2")
    for row, labels in (([116.4, 0.0, 0.0], QUBITS), ([0.0, 38.61, 0.0], QUBITS),
                        ([116.4, 38.61], ("Q1", "Q3"))):
        with pytest.raises(DependencyError):
            calibrate_gate_time(entry, row, labels)


def test_epr_model_validation():
    with pytest.raises(InvalidSpecError):
        EprModel(0.0, zeeman_spread_fwhm_mev=4.0)
    with pytest.raises(InvalidSpecError):
        EprModel(0.05)
