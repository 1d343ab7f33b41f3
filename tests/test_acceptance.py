"""Acceptance: one test per headline number, one printed line per criterion.

Each test prints a single pass/fail line with the measured values so the
whole scorecard is readable from the test log. Known shortfalls are left
failing on purpose rather than hidden behind loosened tolerances. Criterion
01's analysis is tests/test_site_count_analysis.py; that of criteria 04 and
05 is open item 4 of ROADMAP.md.
"""

import math

import numpy as np
import pytest

from donorgate import (
    LatticeSpec,
    SpinSystem,
    build_hamiltonian,
    effective_coupling,
    exchange_curve,
    gate_fidelity,
    get_preset,
    infer_adjacency,
    model_from_ionization,
    propagator,
    run_feasibility,
    save_scenario,
    sfg_gate,
    simulate_scan,
)
from donorgate.cli import main as cli_main
from donorgate.lattice import neighbor_statistics, place_dopants, sphere_count_report
from donorgate.spectra import GAUSSIAN_FWHM, resolvable_gate_count
from donorgate.spins import HBAR_MEV_PS
from test_configure import _random_case

# quoted values for the five-dopant cluster: (separation A, exchange meV)
CLUSTER_TARGETS = {
    ("C2", "Q3"): (9.0, 41.2),
    ("C1", "Q1"): (10.0, 32.3),
    ("C1", "Q2"): (14.0, 10.5),
    ("C2", "Q2"): (16.0, 5.6),
    ("C1", "Q3"): (25.6, 0.2),
    ("C2", "Q1"): (33.3, 0.01),
}


def _check(n, label, ok, detail):
    print(f"criterion {n:02d} {'PASS' if ok else 'FAIL'}: {label} [{detail}]")
    assert ok, f"criterion {n}: {label}: {detail}"


@pytest.fixture(scope="module")
def table1_report():
    _, sc = get_preset("table1")
    return run_feasibility(sc)


def test_criterion_01_lattice_site_counts():
    """The quoted counts fit the continuum estimate n (4/3) pi R^3 at one
    density, 1.7712e23 cm^-3 (a = 3.5613 A), to within a site, and no exact
    enumeration tried matches all three within the tolerance: they are not
    site counts. tests/test_site_count_analysis.py shows this without
    donorgate.lattice; the target and tolerance stay as quoted."""
    want = {10.0: 742, 18.0: 4327, 25.0: 11592}
    got = {r: sphere_count_report(LatticeSpec(r))["enumerated_count"]
           for r in want}
    ok = all(abs(got[r] - want[r]) <= 2 for r in want)
    _check(1, "site counts at 10/18/25 A",
           ok, f"want {want} got {got}")


def test_criterion_02_doping_statistics():
    want = np.array([64.4, 28.3, 6.2, 1.1])
    # analytic binomial over the five-shell neighborhood at 1%
    region = place_dopants(LatticeSpec(40.0), 0.01, {"P": 1.0}, seed=1000)
    stats = neighbor_statistics(region, n_shells=5)
    p = stats.analytic
    analytic = 100.0 * np.array([p[0], p[1], p[2], 1.0 - p[0] - p[1] - p[2]])
    analytic_ok = np.all(np.abs(analytic - want) <= 2.0)

    # Monte Carlo until 1e5 dopants have complete neighborhoods
    acc = {}
    n_dop = 0
    seed = 1000
    while n_dop < 100_000:
        region = place_dopants(LatticeSpec(40.0), 0.01, {"P": 1.0}, seed=seed)
        stats = neighbor_statistics(region, n_shells=5)
        for k, frac in stats.empirical.items():
            acc[k] = acc.get(k, 0.0) + frac * stats.dopants_counted
        n_dop += stats.dopants_counted
        seed += 1
    emp = np.array([acc.get(0, 0.0), acc.get(1, 0.0), acc.get(2, 0.0)]) / n_dop
    emp = np.append(emp, 1.0 - emp.sum())
    ana = analytic / 100.0
    sigma = np.sqrt(ana * (1.0 - ana) / n_dop)
    z = np.abs(emp - ana) / sigma
    mc_ok = np.all(z < 3.0)
    _check(2, "1% doping neighbor distribution", analytic_ok and mc_ok,
           f"analytic {np.round(analytic, 2).tolist()} vs {want.tolist()}, "
           f"MC n={n_dop} |z|={np.round(z, 2).tolist()}")


def test_criterion_03_donor_bohr_radius():
    base = model_from_ionization("P", 0.6, 5.7)
    split = model_from_ionization("P", 0.6, 5.7, central_cell_split_ev=0.2)
    a_base = base.effective_bohr_radius_a
    ratio = split.effective_bohr_radius_a / a_base
    ok = abs(a_base - 2.10) <= 0.01 and abs(ratio - 1.5) <= 0.01
    _check(3, "effective Bohr radius", ok,
           f"a*={a_base:.4f} A, 0.4 eV Coulombic ratio={ratio:.4f}")


def _excited_minus_ground(ctrl, qub, grid):
    jg = [abs(r.exchange_splitting_mev)
          for r in exchange_curve(ctrl, qub, False, grid)]
    je = [abs(r.exchange_splitting_mev)
          for r in exchange_curve(ctrl, qub, True, grid)]
    return np.asarray(je) - np.asarray(jg)


def _crossover_radius(binding_ev, lo, hi):
    """Last upward zero crossing of (excited - ground), refined to 0.05 A."""
    ctrl = model_from_ionization("P", binding_ev, 5.7, role="control")
    qub = model_from_ionization("P", binding_ev, 5.7, role="qubit")
    coarse = np.arange(lo, hi + 1e-9, 0.5)
    d = _excited_minus_ground(ctrl, qub, coarse)
    i = np.nonzero((d[:-1] < 0.0) & (d[1:] >= 0.0))[0][-1]
    fine = np.arange(coarse[i], coarse[i + 1] + 1e-9, 0.05)
    df = _excited_minus_ground(ctrl, qub, fine)
    j = np.nonzero((df[:-1] < 0.0) & (df[1:] >= 0.0))[0][-1]
    return fine[j] + 0.05 * (-df[j]) / (df[j + 1] - df[j])


def test_criterion_04_exchange_crossovers():
    r06 = _crossover_radius(0.6, 4.0, 16.0)
    r04 = _crossover_radius(0.4, 4.0, 24.0)
    ctrl = model_from_ionization("P", 0.6, 5.7, role="control")
    full = model_from_ionization("P", 0.6, 5.7, role="qubit")
    half = model_from_ionization("N", 0.6, 5.7, role="qubit",
                                 radius_scale_factor=0.5)
    j_full = abs(exchange_curve(ctrl, full, True, [15.0])[0].exchange_splitting_mev)
    j_half = abs(exchange_curve(ctrl, half, True, [15.0])[0].exchange_splitting_mev)
    factor = j_full / j_half
    ok = (abs(r06 - 9.0) <= 3.0 and abs(r04 - 18.0) <= 5.0
          and abs(factor - 2.0) <= 0.7)
    _check(4, "excited/ground crossover and half-radius factor", ok,
           f"0.6 eV crossover {r06:.2f} A (9+-3), "
           f"0.4 eV crossover {r04:.2f} A (18+-5), "
           f"half-radius factor {factor:.3f} (2+-0.7)")


def test_criterion_05_cluster_couplings(table1_report):
    rows = {(r["control"], r["qubit"]): r for r in table1_report.exchange}
    sep_ok = all(abs(rows[p]["separation_a"] - sep) <= 0.1
                 for p, (sep, _) in CLUSTER_TARGETS.items())
    ratios = {p: rows[p]["j_excited_mev"] / j
              for p, (_, j) in CLUSTER_TARGETS.items()}
    factor_ok = all(max(r, 1.0 / r) <= 3.0 for r in ratios.values())
    order_want = [p for p, (_, j) in
                  sorted(CLUSTER_TARGETS.items(), key=lambda kv: -kv[1][1])]
    order_got = sorted(rows, key=lambda p: -rows[p]["j_excited_mev"])
    order_ok = order_want == order_got
    detail = ", ".join(f"{c}-{q} x{ratios[(c, q)]:.2f}"
                       for c, q in order_want)
    _check(5, "five-dopant cluster couplings",
           sep_ok and factor_ok and order_ok,
           f"separations<=0.1A: {sep_ok}, rank order: {order_ok}, {detail}")


def test_criterion_06_effective_couplings():
    gate1 = effective_coupling(32.3, 10.5, 600.0)
    gate2 = effective_coupling(41.2, 5.6, 600.0)
    ok = (abs(gate1 - 0.565) <= 5e-4 and abs(gate2 - 0.385) <= 5e-4
          and 0.5 <= gate1 / 0.7 <= 2.0 and 0.5 <= gate2 / 0.4 <= 2.0)
    _check(6, "second-order gate couplings", ok,
           f"gate1 {gate1:.4f} meV (0.565, quoted 0.7), "
           f"gate2 {gate2:.4f} meV (0.385, quoted 0.4)")


def test_criterion_07_resolvable_gate_count():
    rng = np.random.default_rng(2026)
    sigma = 14.0 / GAUSSIAN_FWHM  # disorder FWHM in units of the linewidth
    counts = [resolvable_gate_count(rng.normal(0.0, sigma, 20), 1.0, 1.5)
              for _ in range(1000)]
    mean = float(np.mean(counts))
    ok = abs(mean - 10.0) <= 2.0
    _check(7, "resolvable lines out of 20", ok,
           f"mean {mean:.2f} over 1000 draws (10+-2)")


def test_criterion_08_spin_dynamics():
    rng = np.random.default_rng(8)
    unit_err = 0.0
    sz_err = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 5))
        couplings = {(i, j): float(rng.uniform(-5.0, 5.0))
                     for i in range(n) for j in range(i + 1, n)}
        system = SpinSystem(
            spins=tuple((f"s{i}", "qubit") for i in range(n)),
            couplings=couplings,
            zeeman_mev=tuple(float(rng.uniform(-2.0, 2.0)) for _ in range(n)))
        H = build_hamiltonian(system)
        U = propagator(H, float(rng.uniform(0.1, 5.0)))
        unit_err = max(unit_err, float(np.max(np.abs(U.conj().T @ U - np.eye(2 ** n)))))
        # total Sz is diagonal: each set bit carries -1/2, each clear bit +1/2
        sz = np.diag([0.5 * n - bin(b).count("1") for b in range(2 ** n)])
        sz_err = max(sz_err, float(np.max(np.abs(H @ sz - sz @ H))))

    J = 7.0
    pair = SpinSystem(spins=(("a", "qubit"), ("b", "qubit")),
                      couplings={(0, 1): J})
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    U = propagator(build_hamiltonian(pair), math.pi * HBAR_MEV_PS / J)
    swap_err = 1.0 - gate_fidelity(U, swap)

    report = sfg_gate(10.0, 10.0)

    ok = (unit_err < 1e-10 and swap_err < 1e-10 and sz_err < 1e-12
          and report.control_residual_entanglement < 1e-6
          and report.entangling_power > 0.0)
    _check(8, "spin dynamics invariants", ok,
           f"unitarity {unit_err:.1e}, SWAP err {swap_err:.1e}, "
           f"[H,Sz] {sz_err:.1e}, trio residual "
           f"{report.control_residual_entanglement:.1e}, "
           f"ep {report.entangling_power:.3f}")


def test_criterion_09_adjacency_round_trip(table1_report):
    failures = []
    for seed in range(100):
        sc, lines, adj = _random_case(seed)
        hyp = infer_adjacency(simulate_scan(sc, lines, adj),
                              sc.detection_threshold_mev)
        recovered = len(hyp.entries) == 2
        if recovered:
            for line, row in zip(lines, adj):
                entry = min(hyp.entries,
                            key=lambda e: abs(e.optical_energy_mev - line.energy_mev))
                want = {q for (q, _), j in zip(sc.qubits(), row) if j}
                recovered &= set(dict(entry.couplings)) == want
        if not recovered:
            failures.append(seed)

    conf = table1_report.configuration
    preset_adj = {e["control"]: set(e["inferred"]) for e in conf["entries"]}
    preset_ok = preset_adj == {"C1": {"Q1", "Q2"}, "C2": {"Q2", "Q3"}}
    _check(9, "blind adjacency round trip",
           not failures and preset_ok,
           f"{100 - len(failures)}/100 random scenarios"
           + (f" (failed seeds {failures})" if failures else "")
           + f", preset adjacency {preset_adj}")


def test_criterion_10_determinism(tmp_path):
    _, sc = get_preset("table1")
    path = tmp_path / "cluster.json"
    save_scenario(sc, path)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli_main(["feasibility", "run", "--scenario", str(path),
                         "--seed", "11", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    _check(10, "byte-identical reruns", ok,
           f"{len(outs[0])} bytes each" if ok else "reports differ")
