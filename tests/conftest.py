"""Fixtures shared by the test modules."""

import functools

import pytest

from donorgate import feasibility, integrals


@pytest.fixture
def fresh_cache(monkeypatch):
    """A factory of empty pair caches: each call puts a new one, of the
    package's size unless `maxsize` is given, in place of
    `integrals._reduced_pair` for this test only, and returns it. Each call
    also empties the lattice coupling tables, with a new
    `feasibility._coupling_table` of the same bound, so that no tally reads
    a J priced before it."""

    def make(maxsize=integrals._CACHE_POINTS):
        cache = integrals._PairCache(maxsize)
        monkeypatch.setattr(integrals, "_reduced_pair", cache)
        tables = feasibility._coupling_table
        monkeypatch.setattr(feasibility, "_coupling_table", functools.lru_cache(
            maxsize=tables.cache_parameters()["maxsize"])(tables.__wrapped__))
        return cache

    return make
