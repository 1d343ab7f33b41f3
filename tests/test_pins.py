"""Every pin of tests/pins.py equals what its producer makes now; a change
that moves one reruns `python tests/pins.py` and says why in CHANGES.md."""

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
