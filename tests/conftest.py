"""Fixtures shared by the test modules."""

import pytest

from donorgate import integrals


@pytest.fixture
def fresh_cache(monkeypatch):
    """A factory of empty pair caches: each call puts a new one, of the
    package's size unless `maxsize` is given, in place of
    `integrals._reduced_pair` for this test only, and returns it."""

    def make(maxsize=integrals._CACHE_POINTS):
        cache = integrals._PairCache(maxsize)
        monkeypatch.setattr(integrals, "_reduced_pair", cache)
        return cache

    return make
