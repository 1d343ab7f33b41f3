"""Fixtures shared by the test modules."""

import functools

import pytest

from donorgate import feasibility, integrals


@pytest.fixture
def fresh_cache(monkeypatch):
    """A factory of empty pair caches: each call puts a new one, a
    `functools.lru_cache` of the package's size around
    `integrals._reduced_pair.__wrapped__`, in its place for this test only,
    and returns it. Each call also empties the lattice coupling tables, with
    a new `feasibility._coupling_table` of the same bound, so that no tally
    reads a J priced before it."""

    def make():
        pairs = integrals._reduced_pair
        cache = functools.lru_cache(maxsize=pairs.cache_parameters()["maxsize"])(
            pairs.__wrapped__)
        monkeypatch.setattr(integrals, "_reduced_pair", cache)
        tables = feasibility._coupling_table
        monkeypatch.setattr(feasibility, "_coupling_table", functools.lru_cache(
            maxsize=tables.cache_parameters()["maxsize"])(tables.__wrapped__))
        return cache

    return make
