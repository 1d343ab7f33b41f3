"""Tests of the benchmark itself (not part of the program's test suite).

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import donorgate  # noqa: E402
import run  # noqa: E402
import hostspeed  # noqa: E402
from hostspeed import INTERVAL_S, Sampler  # noqa: E402
from hostspeed import REFERENCE_PASS_S as REF  # noqa: E402
from tracing import Recorder, layer_totals, self_times  # noqa: E402
from workloads import DEFAULT_SEED, Workload  # noqa: E402


# -- self-time arithmetic ----------------------------------------------------

def test_self_time_subtracts_children_clipped_to_the_parent():
    # op [0, 10] holds a [1, 4] (which holds a [2, 3]) and b [8, 12],
    # which overruns its parent and counts only up to 10
    start = [0.0, 1.0, 2.0, 8.0]
    end = [10.0, 4.0, 3.0, 12.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent).tolist() == [5.0, 2.0, 1.0, 4.0]


def test_layer_totals_sum_self_time_per_name():
    rec = Recorder()
    for nid, parent, s, e in ((0, -1, 0.0, 10.0), (1, 0, 1.0, 3.0), (1, 0, 4.0, 5.0),
                              (2, 2, 4.5, 4.75)):
        rec.name.append(nid)
        rec.parent.append(parent)
        rec.op.append(0)
        rec.start.append(s)
        rec.end.append(e)
    totals = layer_totals(rec)
    op, first, second = (totals[rec.names[i]] for i in range(3))
    assert op == {"calls": 1, "self_s": 7.0, "total_s": 10.0}
    assert first == {"calls": 2, "self_s": 2.75, "total_s": 3.0}
    assert second == {"calls": 1, "self_s": 0.25, "total_s": 0.25}
    assert all(t["calls"] == 0 for t in list(totals.values())[3:])


# -- output checks -----------------------------------------------------------

def _reference_op(workload: Workload, k: int = 0):
    inp = next(islice(workload.inputs(DEFAULT_SEED), k, None))
    ref = workload.reference()
    if workload.name == "table1_report":
        return inp, dict(copy.deepcopy(ref), seed=inp)
    return inp, copy.deepcopy(ref[k])


def test_table1_check_accepts_the_reference_and_rejects_perturbations():
    w = Workload("table1_report", donorgate)
    inp, out = _reference_op(w)
    assert w.problems(0, DEFAULT_SEED, inp, out) == []
    assert w.problems(0, 99, inp, out) == [], "table1 checks hold for any seed"
    edits = (
        lambda o: o["gates"][0].__setitem__("duration_ps", o["gates"][0]["duration_ps"] * (1 + 1e-7)),
        lambda o: o["gates"][0].__setitem__("clean", not o["gates"][0]["clean"]),
        lambda o: o.__setitem__("resolvable_gates", o["resolvable_gates"] + 1),
        lambda o: o["placements"][0].__setitem__("label", "X1"),
        lambda o: o.__setitem__("seed", inp + 1),
    )
    for edit in edits:
        bad = copy.deepcopy(out)
        edit(bad)
        assert w.problems(0, DEFAULT_SEED, inp, bad)


def test_curve_check_rejects_reference_drift_and_broken_invariants():
    w = Workload("curve_sweep", donorgate)
    inp, out = _reference_op(w, 3)
    assert w.problems(3, DEFAULT_SEED, inp, out) == []
    drift = copy.deepcopy(out)
    drift["excited"][5][5] *= 1 + 1e-6
    assert w.problems(3, DEFAULT_SEED, inp, drift)
    assert w.problems(3, 7, inp, drift) == [], "other seeds check invariants only"
    for edit in (lambda o: o["transfer"][2].__setitem__(2, 3.0 * abs(o["transfer"][2][1])),
                 lambda o: o["ground"][0].__setitem__(1, 1.0)):
        bad = copy.deepcopy(out)
        edit(bad)
        assert w.problems(3, 7, inp, bad)


def test_patch_check_rejects_reference_drift_and_broken_tallies():
    w = Workload("patch_sweep", donorgate)
    inp, out = _reference_op(w, 1)
    assert w.problems(1, DEFAULT_SEED, inp, out) == []
    drift = copy.deepcopy(out)
    key = next(iter(drift["gate_counts"]))
    drift["gate_counts"] = {str(int(key) + 1): 1}
    assert w.problems(1, DEFAULT_SEED, inp, drift)
    bad = copy.deepcopy(out)
    bad["qubit_counts"] = {k: 2 for k in bad["qubit_counts"]}
    assert w.problems(1, 7, inp, bad)


def test_failed_checks_count_and_times_are_corrected_for_host_speed():
    ops = [{"traced": False, "t": 0.0, "s": 1.0, "wall": 1.5, "problems": []},
           {"traced": False, "t": 5.0, "s": 2.0, "wall": 2.5, "problems": ["x: 1 != 2"]},
           {"traced": False, "t": 10.0, "s": 3.0, "wall": 3.5, "problems": []},
           {"traced": False, "t": 15.0, "s": 4.0, "wall": 4.5, "problems": []}]
    # set-up ran at 1.5 times the reference time; in the timed phase the
    # host ran 2 times slower around the first two ops and 4 times after
    worker = {"ops": ops, "timed_s": 10.0, "timed_wall_s": 20.0, "setup_end": -1.0,
              "setup_cpu_s": 3.0,
              "sample_at": [-3.0, -2.5, 0.5, 5.5, 10.5, 15.5],
              "sample_s": [1.5 * REF, 1.5 * REF, 2 * REF, 2 * REF, 4 * REF, 4 * REF]}
    m = run.end_to_end(worker, 3.5, 100.0)
    assert m["failed_ops_frac"]["value"] == 0.25
    assert (m["setup_s"]["value"], m["setup_s"]["wall"]) == (2.0, 3.5)
    # corrected op times 0.5, 1.0, 0.75 and 1.0
    assert (m["op_p50_s"]["value"], m["op_p50_s"]["wall"]) == (0.875, 3.0)
    assert (m["ops_per_s"]["value"], m["ops_per_s"]["wall"]) == (pytest.approx(0.9), 0.15)
    assert "op_tail_s" not in m


def test_slowdown_comes_from_the_samples_around_the_work():
    at, per_pass = [0.0, 1.0, 9.0], [REF, REF, 3 * REF]
    assert hostspeed.slowdown_around(0.5, 1.5, at, per_pass) == 1.0
    assert hostspeed.slowdown_around(8.0, 11.0, at, per_pass) == 3.0
    assert hostspeed.slowdown_around(50.0, 53.0, at, per_pass) == 1.0, "none near: all"


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    rec = Recorder()
    layers = {name: {"calls": 1, "self_s": 0.5, "total_s": 1.0} for name in rec.names}
    worker = {"layers": layers, "counts": dict(rec.counts),
              "ops": [{"traced": True, "t": 0.0, "s": 1.0, "wall": 1.0, "problems": []},
                      {"traced": False, "t": 1.0, "s": 1.0, "wall": 1.0, "problems": []}],
              "setup_end": -1.0, "setup_cpu_s": 1.0, "sample_at": [-2.0, 0.5],
              "sample_s": [REF, REF]}
    metrics, _ = run.per_layer(worker)
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, run.end_to_end(dict(worker, ops=worker["ops"][1:], timed_s=1.0,
                                   timed_wall_s=1.0), 1.0, 1.0)[name]["unit"])
        for name in run.END_TO_END]


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail(list(range(19))) is None
    pct, value = run.tail([float(i) for i in range(100)])
    assert (pct, value) == (90.0, 89.0)


def test_sampler_samples_on_the_running_thread_and_accounts_its_time():
    sampler = Sampler()
    with sampler.running():
        start = time.perf_counter()
        while time.perf_counter() - start < 4 * INTERVAL_S:  # busy, as an op is
            pass
        end = time.perf_counter()
    assert 3 <= len(sampler.per_pass) <= 5
    assert all(start <= t < end for t in sampler.at)
    assert all(p > 0.0 for p in sampler.per_pass)
    assert 0.0 < sampler.spent_cpu < end - start
    assert 0.0 < sampler.spent_wall < end - start


# -- generated inputs --------------------------------------------------------

@pytest.mark.parametrize("name", ["table1_report", "curve_sweep", "patch_sweep"])
def test_same_seed_same_inputs(name):
    w = Workload(name, donorgate)
    first = list(islice(w.inputs(5), 6))
    assert first == list(islice(w.inputs(5), 6))
    assert first != list(islice(w.inputs(6), 6))


def test_curve_inputs_cover_the_declared_ranges():
    w = Workload("curve_sweep", donorgate)
    pairs = list(islice(w.inputs(1), 200))
    bindings = np.array([c.binding_energy_ev for c, _ in pairs])
    scales = np.array([q.radius_scale_factor for _, q in pairs])
    assert 0.35 <= bindings.min() and bindings.max() <= 0.70
    assert 0.4 <= scales.min() and scales.max() <= 1.0
    assert len(set(bindings)) == len(bindings), "every op is a new model"


# -- tracing leaves outputs unchanged ----------------------------------------

def _worker(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout)


@pytest.mark.parametrize("workload", ["curve_sweep", "patch_sweep"])
def test_traced_outputs_equal_untraced_outputs(workload):
    with ThreadPoolExecutor(2) as pool:
        plain, traced = pool.map(lambda t: _worker(workload, t), (0, 1))
    assert [op["traced"] for op in traced["ops"]][:2] == [True, False]
    assert traced["layers"]["integrals.pair_integrals"]["calls"] > 0
    n = min(len(plain["ops"]), len(traced["ops"]))
    assert n >= 2
    for a, b in zip(plain["ops"][:n], traced["ops"][:n]):
        assert a["problems"] == b["problems"] == []
        assert a["digest"] == b["digest"]
