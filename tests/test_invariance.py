"""Metamorphic invariance: the report must not change when the scenario is
restated in a way that is not physics.

The one transform here is a shuffle of the placement order. Every section of
the report is compared keyed by label, bit for bit, through its JSON text: a
transfer row by its unordered pair, and a gate's qubit pair as a set only
where its two couplings are equal, since a tie in |J| keeps the qubit placed
first. The configuration scan of the cluster is compared bit for bit too:
its axes, its spectra, its row index and its table of EPR lines.
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


def _keyed(report) -> dict:
    """Each section of the report's dict, with its rows in label order."""
    out = report.to_dict()
    out["placements"].sort(key=lambda p: p["label"])
    out["exchange"].sort(key=lambda r: (r["control"], r["qubit"]))
    for row in out["transfer"]:
        row["pair"].sort()
    out["transfer"].sort(key=lambda r: r["pair"])
    for gate in out["gates"]:
        if gate["j1_mev"] == gate["j2_mev"]:
            gate["qubits"].sort()
    return {section: json.dumps(rows, sort_keys=True) for section, rows in out.items()}


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
