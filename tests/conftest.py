"""Fixtures shared by the test modules."""

import functools

import pytest

from donorgate import feasibility, integrals, spins


def _fresh_lru(monkeypatch, module, name):
    """Put a new, empty `functools.lru_cache` of the same bound around
    `module.name.__wrapped__` in its place for this test only, and return it."""
    cached = getattr(module, name)
    cache = functools.lru_cache(maxsize=cached.cache_parameters()["maxsize"])(
        cached.__wrapped__)
    monkeypatch.setattr(module, name, cache)
    return cache


@pytest.fixture
def fresh_cache(monkeypatch):
    """A factory of empty pair caches: each call puts a new one in place of
    `integrals._reduced_pair` for this test only, and returns it. Each call
    also empties the lattice coupling tables, with a new
    `feasibility._coupling_table`, so that no tally reads a J priced before
    it."""

    def make():
        _fresh_lru(monkeypatch, feasibility, "_coupling_table")
        return _fresh_lru(monkeypatch, integrals, "_reduced_pair")

    return make


@pytest.fixture
def fresh_gate_cache(monkeypatch):
    """A factory of empty gate-search caches: each call puts a new one in
    place of `spins._gate_search` for this test only, and returns it. A test
    that patches the search's internals takes one before each search it
    traces, so that no search is read back from a cache."""

    def make():
        return _fresh_lru(monkeypatch, spins, "_gate_search")

    return make
