"""Spans around the public functions of each donorgate layer, recorded from
outside the package.

Each function is wrapped at the name its caller looks it up under (for
example `donorgate.feasibility.sfg_gate` and `donorgate.configure.sfg_gate`),
so calls made inside the package are seen too. A span is (name, start, end,
parent, op id); spans are kept in memory in flat arrays and written out when
the run ends. A span's self time is its duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# layer metric name -> the (module, attribute) names callers use
TARGETS = {
    "orbitals.fit_gaussian_expansion": [("donorgate.integrals", "fit_gaussian_expansion")],
    "integrals.exchange_curve": [("donorgate", "exchange_curve"),
                                 ("donorgate.feasibility", "exchange_curve")],
    "integrals.transfer_splitting_curve": [("donorgate", "transfer_splitting_curve"),
                                           ("donorgate.feasibility", "transfer_splitting_curve")],
    "integrals.pair_integrals": [("donorgate.integrals", "pair_integrals")],
    "spins.sfg_gate": [("donorgate.feasibility", "sfg_gate"),
                       ("donorgate.configure", "sfg_gate")],
    "spins.induced_qubit_operator": [("donorgate.configure", "induced_qubit_operator")],
    "configure.simulate_scan": [("donorgate.feasibility", "simulate_scan")],
    "configure.infer_adjacency": [("donorgate.feasibility", "infer_adjacency")],
    "configure.calibrate_gate_time": [("donorgate.feasibility", "calibrate_gate_time")],
    "spectra.gate_transitions": [("donorgate.feasibility", "gate_transitions")],
    "spectra.resolvable_gate_count": [("donorgate.feasibility", "resolvable_gate_count")],
    "lattice.place_dopants": [("donorgate.feasibility", "place_dopants")],
    "scenario.Scenario.model_for": [("donorgate.scenario", "Scenario.model_for")],
    "feasibility.realize_placements": [("donorgate.feasibility", "realize_placements")],
}

# the root span around each traced op
OP = "op"

# counts taken from a wrapped function's result
RESULT_COUNTS = {
    "integrals.exchange_curve": ("integrals.points", len),
    "integrals.transfer_splitting_curve": ("integrals.points", len),
    "configure.simulate_scan": ("configure.scan_cells", lambda scan: scan.response.size),
    "lattice.place_dopants": ("lattice.sites", lambda region: region.n_sites),
}
COUNTERS = ("integrals.points", "spins.unclean", "configure.scan_cells", "lattice.sites")


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Recorder:
    """Collects spans and counts while installed; a no-op otherwise."""

    def __init__(self):
        self.names = [OP, *TARGETS]
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]
        self._op_id = -1
        self._saved = []
        errors = importlib.import_module("donorgate.errors")
        self._unclean = errors.NoCleanGateError

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        nid = self.names.index(name)
        counted = RESULT_COUNTS.get(name)
        unclean = self._unclean if name == "spins.sfg_gate" else ()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except unclean:
                self.counts["spins.unclean"] += 1
                raise
            finally:
                self._close(idx)
            if counted:
                self.counts[counted[0]] += counted[1](result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every target with its traced wrapper for the duration."""
        for name, places in TARGETS.items():
            for module, attr in places:
                owner, leaf = _resolve(module, attr)
                original = getattr(owner, leaf)
                self._saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(name, original))
        try:
            yield self
        finally:
            while self._saved:
                owner, leaf, original = self._saved.pop()
                setattr(owner, leaf, original)

    @contextmanager
    def op_span(self, op_id: int):
        self._op_id = op_id
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)

    def arrays(self) -> dict:
        return {"name": np.array(self.name, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "op": np.array(self.op, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64)}

    def save(self, path):
        """Write every span to an .npz file (names indexed by the `name` column)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Per-span duration minus the time its children cover.

    Each child is clipped to its parent's interval. Children of one span do
    not overlap each other, because spans come from one thread's call stack.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    child = np.flatnonzero(parent >= 0)
    p = parent[child]
    covered = np.clip(np.minimum(end[child], end[p]) - np.maximum(start[child], start[p]),
                      0.0, None)
    return (end - start) - np.bincount(p, weights=covered, minlength=len(start))


def layer_totals(recorder: Recorder) -> dict:
    """{name: {"calls", "self_s", "total_s"}} over every recorded span."""
    cols = recorder.arrays()
    own = self_times(cols["start"], cols["end"], cols["parent"])
    dur = cols["end"] - cols["start"]
    n = len(recorder.names)
    calls = np.bincount(cols["name"], minlength=n)
    self_s = np.bincount(cols["name"], weights=own, minlength=n)
    total_s = np.bincount(cols["name"], weights=dur, minlength=n)
    return {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                   "total_s": float(total_s[i])}
            for i, name in enumerate(recorder.names)}
