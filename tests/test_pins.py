"""Every pin of tests/pins.py equals what its producer makes now; a change
that moves one reruns `python tests/pins.py` and says why in CHANGES.md."""

import json

import pytest

import pins


@pytest.mark.parametrize("name", list(pins.PINS))
def test_pin_equals_what_its_producer_makes(name):
    assert pins.moved(name) == []


def test_every_file_in_tests_data_is_pinned():
    assert {pin.file for pin in pins.PINS.values()} == {p.name for p in pins.DATA.iterdir()}


def test_the_check_names_a_pin_whose_producer_moves_one_bit(monkeypatch):
    # seed 3's first site byte moves by one bit; a check that compared each
    # file with itself would name no pin
    pin = pins.PINS["place_dopants_r40"]

    def one_bit_off():
        out = pin.produce()
        out["3"] = bytes([out["3"][0] ^ 1]) + out["3"][1:]
        return out

    monkeypatch.setitem(pins.PINS, "place_dopants_r40", pin._replace(produce=one_bit_off))
    assert {name: pins.moved(name) for name in ("place_dopants_r40", "configure_scan")} \
        == {"place_dopants_r40": ["3"], "configure_scan": []}


def test_the_diff_names_the_field_a_nudge_moves_and_by_how_much():
    # one producer run; the same output against tests/data itself and
    # against a copy whose report has one float nudged by 1e-9 relative
    new = pins.produced("table1_report")
    assert pins.drift("table1_report", new, pins.pinned("table1_report")) == {}
    report = json.loads(pins.pinned("table1_report"))
    report["exchange"][1]["j_excited_mev"] *= 1.0 + 1e-9
    changes = pins.drift("table1_report", new, json.dumps(report).encode())
    assert list(changes) == ["exchange[1].j_excited_mev"]
    assert changes["exchange[1].j_excited_mev"] == pytest.approx(1e-9, rel=1e-6)


def test_the_diff_reads_csv_cells_and_names_changed_digests():
    table = b"R_angstrom,J_meV,label\n4,2.5,a\n4.5,2,b\n"
    assert pins.drift("exchange_curve_fig2a", table, table) == {}
    moved = b"R_angstrom,J_meV,label\n4,2.5,a\n4.5,2.2,c\n5,1,d\n"
    assert pins.drift("exchange_curve_fig2a", moved, table) == {
        "[1].J_meV": pytest.approx(0.1), "[1].label": None,
        "[2].J_meV": None, "[2].R_angstrom": None, "[2].label": None}
    digests = {"a": "00", "b": {"c": "11"}}
    old = json.dumps(digests).encode()
    digests["b"]["c"] = "12"
    assert pins.drift("configure_scan", json.dumps(digests).encode(), old) == {"b.c": None}
