"""The names the benchmark's tracer wraps still resolve.

`bench/tracing.py` wraps each (module, attribute) of its `TARGETS` at the
name its caller looks it up under, and `RESULT_COUNTS` reads counts off the
wrapped functions' results. A change to the package's API that renames,
moves or stops importing one of them breaks the traced benchmark, so this
test reads the tracer's own tables and checks each entry against the
package. It loads the tracer from its file and writes nothing under bench/.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import donorgate as dg

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    """The tracer module, loaded from its file without a bytecode cache."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("donorgate_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_wraps_resolves(tracing):
    names = [name for targets in tracing.TARGETS.values() for name in targets]
    for module, attr in names:
        owner, leaf = tracing._resolve(module, attr)
        assert callable(getattr(owner, leaf, None)), f"{module}.{attr}"
    # the scan API and the calibration, under the names the pipeline calls
    for name in (("donorgate.feasibility", "simulate_scan"),
                 ("donorgate.feasibility", "calibrate_gate_time"),
                 ("donorgate.configure", "induced_qubit_operator")):
        assert name in names


def test_every_result_count_reads_a_traced_result(tracing):
    assert set(tracing.RESULT_COUNTS) <= set(tracing.TARGETS)
    assert {name for name, _ in tracing.RESULT_COUNTS.values()} <= set(tracing.COUNTERS)
    # the scan's count reads ScanMap.response, the dense map
    assert isinstance(dg.ScanMap.response, property)
    _, cells = tracing.RESULT_COUNTS["configure.simulate_scan"]
    scan = dg.simulate_scan(*dg.resolve_cluster(dg.get_preset("table1")[1]))
    assert cells(scan) == len(scan.optical_axis_mev) * len(scan.epr_axis_mev)
