"""Metamorphic invariance: the report must not change when the scenario is
restated in a way that is not physics.

Two kinds of transform are tried. A shuffle of the placement order must
leave every section of the report the same, keyed by label, bit for bit,
through its JSON text: a transfer row by its unordered pair, and a gate's
qubit pair as a set only where its two couplings are equal, since a tie in
|J| keeps the qubit placed first. The configuration scan of the cluster is
compared bit for bit too: its axes, its spectra, its row index and its table
of EPR lines. A symmetry of the lattice (an axis permutation, a half turn
about z, a translation by a lattice vector) moves the dopants; the report,
keyed the same way, must keep its labels, flags and integers exactly and its
floats to within 1e-15 relative.
"""

import dataclasses
import json

import numpy as np
import pytest

import donorgate as dg

import pins


def _table1():
    return dg.get_preset("table1")[1]


def _corpus_seed3():
    """Seed 3 of the R = 15 A random corpus of tests/pins.py, realized: 3
    controls, 8 qubits and 3 gates, one with J1 = J2, and a configuration
    attempt that is not recovered."""
    sc = dataclasses.replace(pins.random_scenario(15.0, 2.5e-3),
                             epr=dg.EprModel(0.05, zeeman_spread_fwhm_mev=40.0))
    return dg.realize_placements(dataclasses.replace(
        sc, random_placement=dataclasses.replace(sc.random_placement, seed=3)))


def _in_label_order(report) -> dict:
    """A copy of the report's dict, with the rows of each section in label
    order; `to_dict` shares its rows with the report, so they are not
    sorted in place."""
    out = json.loads(report.to_json())
    out["placements"].sort(key=lambda p: p["label"])
    out["exchange"].sort(key=lambda r: (r["control"], r["qubit"]))
    for row in out["transfer"]:
        row["pair"].sort()
    out["transfer"].sort(key=lambda r: r["pair"])
    for gate in out["gates"]:
        if gate["j1_mev"] == gate["j2_mev"]:
            gate["qubits"].sort()
    return out


def _keyed(report) -> dict:
    """Each section of the report, rows in label order, as JSON text."""
    return {section: json.dumps(rows, sort_keys=True)
            for section, rows in _in_label_order(report).items()}


def _scan(sc) -> dict:
    """The bytes of the cluster's configuration scan, and its EPR lines."""
    scan = dg.simulate_scan(*dg.resolve_cluster(sc))
    return {"optical_axis": scan.optical_axis_mev.tobytes(),
            "epr_axis": scan.epr_axis_mev.tobytes(), "spectra": scan.spectra.tobytes(),
            "row_spectrum": scan.row_spectrum.tobytes(), "epr_lines": scan.epr_lines_mev}


@pytest.mark.parametrize("make", [_table1, _corpus_seed3])
def test_a_shuffle_of_the_placements_leaves_the_report_unchanged(make):
    sc = make()
    want, want_scan = _keyed(dg.run_feasibility(sc)), _scan(sc)
    n = len(sc.placements)
    rng = np.random.default_rng(26)
    for order in (np.arange(n)[::-1], rng.permutation(n), rng.permutation(n)):
        shuffled = dataclasses.replace(sc, placements=tuple(sc.placements[i] for i in order))
        assert _keyed(dg.run_feasibility(shuffled)) == want
        got = _scan(shuffled)
        assert [k for k in want_scan if got[k] != want_scan[k]] == []


# maps of a position r (a (3,) array, in angstrom) on a lattice of constant a
# that keep the diamond lattice and every separation
_MOVES = {
    "cyclic axes": lambda r, a: r[[1, 2, 0]],
    "x <-> y": lambda r, a: r[[1, 0, 2]],
    "(x, y) -> (-x, -y)": lambda r, a: r * [-1.0, -1.0, 1.0],
    "lattice translation": lambda r, a: r + np.array([2.0, 2.0, 0.0]) * (a / 4.0),
}


def _mismatches(got, want, where="report") -> list:
    """Where two report trees differ: a float by more than 1e-15 relative,
    anything else (a label, a flag, an integer, a key or a row count) at
    all."""
    if isinstance(want, float) and isinstance(got, float):
        return [] if abs(got - want) <= 1e-15 * max(abs(got), abs(want)) else [where]
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return [m for k in want for m in _mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{where}[{i}]")]
    return [] if type(got) is type(want) and got == want else [where]


@pytest.mark.parametrize("move", _MOVES)
@pytest.mark.parametrize("make", [_table1, _corpus_seed3])
def test_a_symmetry_of_the_lattice_leaves_the_report_unchanged(make, move):
    # a permutation of the axes, a half turn about z and a translation by a
    # lattice vector move every dopant but keep every separation, so the
    # report, keyed by label as under a shuffle, keeps every label, flag and
    # integer, and every float to within 1e-15 relative: an axis permutation
    # reorders the sum of squares of a separation, which may move its last
    # bit. Only the placements' positions, which the map moves, are left out
    sc = make()
    a = sc.lattice.lattice_constant
    moved = dataclasses.replace(sc, placements=tuple(
        dataclasses.replace(p, position_a=tuple(_MOVES[move](np.array(p.position_a), a)))
        for p in sc.placements))
    want, got = (_in_label_order(dg.run_feasibility(s)) for s in (sc, moved))
    for out in (want, got):
        for placement in out["placements"]:
            del placement["position_a"]
    assert _mismatches(got, want) == []
