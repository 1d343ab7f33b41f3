"""Spin-cluster dynamics against an independently built Kronecker oracle."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from donorgate import (
    DimensionError,
    InvalidSpecError,
    NoCleanGateError,
    PreconditionError,
    SpinSystem,
    build_hamiltonian,
    effective_coupling,
    entangling_power,
    gate_fidelity,
    induced_qubit_operator,
    propagator,
    sfg_gate,
)
from donorgate.constants import HBAR_MEV_PS
from donorgate import spins
from donorgate.spins import (_MAX_GRID_POINTS, _SCAN_CHUNK, _SCREEN_MARGIN,
                             _SCREEN_ROWS,
                             _down_down_q, _entropy_cut, _residual_scan,
                             _trio_levels)

from pins import search_outcome

HBAR = 0.6582  # meV ps

SX = np.array([[0, 1], [1, 0]]) / 2.0
SY = np.array([[0, -1j], [1j, 0]]) / 2.0
SZ = np.array([[1, 0], [0, -1]]) / 2.0


def _op(n, k, single):
    mats = [np.eye(2)] * n
    mats[k] = single
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _kron_hamiltonian(n, couplings, zeeman=None):
    H = np.zeros((2**n, 2**n), dtype=complex)
    for (i, j), J in couplings.items():
        for s in (SX, SY, SZ):
            H += J * _op(n, i, s) @ _op(n, j, s)
    for k, d in enumerate(zeeman or []):
        H += d * _op(n, k, SZ)
    return H


def test_hamiltonian_matches_kronecker_oracle():
    couplings = {(0, 1): 3.7, (0, 2): -1.2, (1, 2): 0.4}
    zeeman = (0.5, -0.25, 0.0)
    sys3 = SpinSystem(
        spins=(("C", "control"), ("Q1", "qubit"), ("Q2", "qubit")),
        couplings=couplings,
        zeeman_mev=zeeman,
    )
    H = build_hamiltonian(sys3)
    want = _kron_hamiltonian(3, couplings, zeeman)
    assert np.max(np.abs(H - want)) < 1e-12
    assert np.max(np.abs(H - H.T)) < 1e-12


def test_propagator_unitary_and_conserves_total_sz():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        couplings = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.7:
                    couplings[(i, j)] = float(rng.normal(0.0, 20.0))
        sys_n = SpinSystem(
            spins=tuple((f"s{k}", "qubit") for k in range(n)),
            couplings=couplings,
            zeeman_mev=tuple(rng.normal(0.0, 2.0) for _ in range(n)),
        )
        H = build_hamiltonian(sys_n)
        U = propagator(H, float(rng.uniform(0.1, 50.0)))
        assert np.max(np.abs(U.conj().T @ U - np.eye(2**n))) < 1e-10
        sz_tot = sum(_op(n, k, SZ) for k in range(n))
        assert np.max(np.abs(H @ sz_tot - sz_tot @ H)) < 1e-12


def test_two_spin_swap_at_pi_hbar_over_j():
    J = 7.0
    pair = SpinSystem(spins=(("a", "qubit"), ("b", "qubit")), couplings={(0, 1): J})
    H = build_hamiltonian(pair)
    up_down = np.array([0.0, 1.0, 0.0, 0.0])  # |a up, b down>
    out = propagator(H, math.pi * HBAR / J) @ up_down
    # population fully transferred
    assert abs(out[2]) ** 2 == pytest.approx(1.0, abs=1e-10)
    # and the full propagator is SWAP up to a global phase
    U = propagator(H, math.pi * HBAR / J)
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert gate_fidelity(U, swap) == pytest.approx(1.0, abs=1e-10)


def test_half_swap_interval_is_root_swap():
    J = 7.0
    pair = SpinSystem(spins=(("a", "qubit"), ("b", "qubit")), couplings={(0, 1): J})
    U = propagator(build_hamiltonian(pair), math.pi * HBAR / (2.0 * J))
    assert entangling_power(U) == pytest.approx(1.0 / 6.0, abs=1e-9)


def test_effective_coupling_formula():
    assert effective_coupling(32.3, 10.5, 600.0) == pytest.approx(0.56525, abs=1e-6)
    assert effective_coupling(41.2, 5.6, 600.0) == pytest.approx(0.384533, abs=1e-6)
    for bad_energy in (0.0, -600.0, math.nan, math.inf):
        with pytest.raises(PreconditionError):
            effective_coupling(10.0, 5.0, bad_energy)


def test_entangling_power_anchors():
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert entangling_power(cnot) == pytest.approx(2.0 / 9.0, abs=1e-12)
    assert entangling_power(swap) == pytest.approx(0.0, abs=1e-12)
    assert entangling_power(np.eye(4)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(PreconditionError):
        entangling_power(np.ones((4, 4)))
    with pytest.raises(DimensionError):
        entangling_power(np.eye(8))


def _kron_entangling_power(unitary):
    """`spins.entangling_power` as it built U x U with `np.kron`: the
    reference its broadcast product must equal bit for bit."""
    W = np.kron(unitary, unitary)
    return float(1.0 - np.trace(W @ spins._AVG_IN @ W.conj().T @ spins._SWAP_A).real)


def test_entangling_power_equals_the_kron_form():
    # random unitaries (QR of complex Gaussians), phase gates and the gates
    # the search reports, whose entries include exact zeros and signed zeros
    rng = np.random.default_rng(31)
    gates = [np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
             for _ in range(2000)]
    gates += [np.diag(np.exp(1j * rng.uniform(-math.pi, math.pi, 4))) for _ in range(200)]
    gates += [np.eye(4), -np.eye(4) + 0j, np.conj(np.eye(4) * -1j)]
    gates += [sfg_gate(j1, j2).qubit_unitary for j1, j2 in ((10.0, 10.0), (-7.0, -7.0))]
    for k, U in enumerate(gates):
        got = entangling_power(U)
        assert np.float64(got).tobytes() == np.float64(_kron_entangling_power(U)).tobytes(), k


def test_symmetric_trio_clean_gate():
    J = 10.0
    report = sfg_gate(J, J)
    # equal couplings disentangle at 4 pi hbar / 3J
    tau1 = 4.0 * math.pi * HBAR / (3.0 * J)
    assert report.duration_ps == pytest.approx(tau1, rel=1e-6)
    assert report.control_residual_entanglement < 1e-6
    assert report.entangling_power == pytest.approx(0.125, abs=1e-6)
    # the reported operator really is what the qubits see at that interval
    block, residual = induced_qubit_operator(J, J, report.duration_ps)
    assert residual < 1e-6
    assert gate_fidelity(block, report.qubit_unitary) == pytest.approx(1.0, abs=1e-9)


def test_generic_ratio_raises_with_best_candidate():
    # incommensurate couplings admit no exactly clean interval; the error must
    # carry a genuine entangling candidate, not the identity at tau -> 0
    with pytest.raises(NoCleanGateError) as err:
        sfg_gate(116.4, 38.6)
    best = err.value.best_candidate
    assert best is not None
    assert best.entangling_power > 1e-6
    assert best.duration_ps > 0.01 * math.pi * HBAR / 116.4
    assert best.control_residual_entanglement < 0.05


# sfg_gate outcomes recorded before the gate scan moved to the trio's three
# levels: (j1, j2, clean, duration_ps, entangling_power, residual_bits)
_RECORDED_GATES = [
    (10.0, 10.0, True, 0.27570617214954396, 0.125, 3.1577734916786698e-15),
    (20.0, 10.0, False, 0.7000569126601289, 0.026644458200076437, 0.06934740622233866),
    (30.0, 10.0, False, 0.6226269091254465, 0.0016397805667416332, 0.011266758743473954),
    (10.0, 5.0, False, 1.4001138253202579, 0.026644458200076437, 0.06934740622233866),
    (41.2, 5.6, False, 1.065072554866187, 0.006048067911936572, 0.057981969445075124),
    (116.43664836379166, 38.61269955378912, False,  # table1 C1
     0.16050319005268462, 0.0010224266330343124, 0.007479520899628051),
    (147.51734661265843, 20.91738401817267, False,  # table1 C2
     0.2695902179956986, 0.0008960831991231544, 0.011122190557227008),
]


@pytest.mark.parametrize("j1, j2, clean, duration, power, residual", _RECORDED_GATES)
def test_sfg_gate_matches_recorded_outcomes(j1, j2, clean, duration, power, residual):
    try:
        report = sfg_gate(j1, j2)
        found_clean = True
    except NoCleanGateError as err:
        report = err.best_candidate
        found_clean = False
    assert found_clean == clean
    assert report.duration_ps == pytest.approx(duration, rel=1e-9)
    assert report.entangling_power == pytest.approx(power, rel=1e-9)
    # a clean interval's residual is rounding noise at the 1e-15 level
    assert report.control_residual_entanglement == pytest.approx(
        residual, rel=1e-9, abs=1e-12)


def test_sfg_gate_coupling_validation():
    # the control must couple both qubits, each by a finite amount
    for j1, j2 in ((5.0, 0.0), (0.0, 5.0), (math.nan, 5.0), (5.0, math.inf)):
        with pytest.raises(PreconditionError):
            sfg_gate(j1, j2)
        with pytest.raises(PreconditionError):
            induced_qubit_operator(j1, j2, 1.0)
    # and the interval must be finite, or the residual comes back NaN
    for tau in (math.nan, math.inf, -math.inf):
        with pytest.raises(PreconditionError):
            induced_qubit_operator(10.0, 5.0, tau)
    # either sign of coupling is a gate trio
    assert sfg_gate(-10.0, -10.0).control_residual_entanglement < 1e-6


def test_sfg_gate_grid_validation():
    for bad_range in ((0.0, math.nan), (math.nan, 1.0), (0.0, math.inf),
                      (-math.inf, 1.0)):
        with pytest.raises(PreconditionError):
            sfg_gate(5.0, 5.0, bad_range)
    # exactly two bounds, each a real number: a string, a bool or a third
    # bound is refused, not converted, truncated or left to numpy
    for bad_range in (("0", "1"), (0.0, 1.0, 2.0), "x", [0.0], (), 1.0,
                      (True, 1.0), (0.0, False)):
        with pytest.raises(PreconditionError, match="^tau range"):
            sfg_gate(20.0, 10.0, bad_range)
    for bad_range in (("0", "1"), (True, 1.0), (0.0, False)):
        with pytest.raises(PreconditionError, match="must be a finite number"):
            sfg_gate(20.0, 10.0, bad_range)
    # any pair of real numbers is a range: a list, an array, integers
    want = sfg_gate(10.0, 10.0, (0.0, 1.0))
    for good_range in ([0.0, 1.0], np.array([0.0, 1.0]), (0, 1)):
        got = sfg_gate(10.0, 10.0, good_range)
        assert got.duration_ps == want.duration_ps
        assert np.array_equal(got.qubit_unitary, want.qubit_unitary)


def test_sfg_gate_threshold_validation():
    # no residual compares below NaN or a non-positive bound, so these would
    # report an exactly clean trio as not clean
    for bad_threshold in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(PreconditionError):
            sfg_gate(5.0, 5.0, residual_threshold=bad_threshold)
    # a string or a bool is no threshold, though float() would take either
    for bad_threshold in ("1e-6", True, None):
        with pytest.raises(PreconditionError, match="residual_threshold must be "
                                                   "a finite number"):
            sfg_gate(5.0, 5.0, residual_threshold=bad_threshold)
    assert sfg_gate(5.0, 5.0, residual_threshold=1).entangling_power > 0.1


def _reference_residuals(j1, j2, taus):
    """Worst control entropy in bits over the 36 product probes at each tau,
    from U = V exp(-i w tau/hbar) V^dag and an explicit partial trace."""
    w, V = np.linalg.eigh(_kron_hamiltonian(3, {(0, 1): j1, (0, 2): j2}))
    s = 1.0 / math.sqrt(2.0)
    kets = np.array([[1, 0], [0, 1], [s, s], [s, -s], [s, 1j * s], [s, -1j * s]])
    control_up = np.array([1.0, 0.0])
    probes = np.array([np.kron(control_up, np.kron(a, b))
                       for a in kets for b in kets]).T  # 8 x 36
    U = np.einsum("ik,tk,jk->tij", V, np.exp(-1j * np.outer(taus, w) / HBAR),
                  V.conj())
    # control index first: psi[t, c, q, probe]; trace out the qubits q
    psi = (U @ probes).reshape(len(taus), 2, 4, -1)
    rho = np.einsum("tcqp,tdqp->tpcd", psi, psi.conj())
    lam = np.clip(np.linalg.eigvalsh(rho), 1e-300, 1.0)
    return np.max(-np.sum(lam * np.log2(lam), axis=-1), axis=-1)


@pytest.mark.parametrize("j1, j2", [
    (32.3, 10.5), (41.2, 5.6),  # quoted table1 gate couplings
    (147.5, 20.9),  # the bundled cluster's C2 trio
    (116.4, 38.6),  # generic ratio, no clean interval
    (10.0, 10.0), (-10.0, -10.0), (20.0, 20.0),  # equal couplings, either sign
    (5.0, -5.0),  # opposite signs
    (150.0, 1.5),  # a 100:1 ratio
])
def test_batched_scan_matches_propagator(j1, j2):
    # a grid that ends in a partial chunk
    taus = np.linspace(1e-3, 4.0 * math.pi * HBAR / j2, 2 * _SCAN_CHUNK + 37)
    residuals = _residual_scan(*_trio_levels(j1, j2))
    scanned = residuals(taus)
    assert scanned.shape == taus.shape
    assert np.max(np.abs(scanned - _reference_residuals(j1, j2, taus))) < 1e-12
    # the last chunk reuses the front rows of the work arrays; a stale row
    # would show against a fresh call on that chunk alone
    for start in range(0, len(taus), _SCAN_CHUNK):
        chunk = slice(start, start + _SCAN_CHUNK)
        assert np.array_equal(scanned[chunk], residuals(taus[chunk]))
    # a lone tau takes the matrix-vector product, which rounds differently
    # from the matrix-matrix one by a few ulp
    alone = np.array([residuals(taus[k:k + 1])[0] for k in range(len(taus))])
    assert np.max(np.abs(scanned - alone)) < 1e-14


def test_lone_scorer_equals_a_one_row_chunk():
    # `at` makes the one-row chunk's matrix-vector products and float
    # operations without its work arrays; it must return the same bits, on
    # random trios with equal, opposite, near-equal and random couplings, at
    # tau near 0, within the first period and across several periods
    rng = np.random.default_rng(29)
    for case in range(1200):
        j1 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 200.0))
        j2 = (j1, -j1, j1 * (1.0 + float(rng.uniform(-1e-6, 1e-6))),
              float(rng.uniform(-2.0, 2.0)) * j1)[case % 4]
        levels, projectors = _trio_levels(j1, j2)
        residuals = _residual_scan(levels, projectors)
        period = 2.0 * math.pi * HBAR / abs(j1)
        for tau in (float(rng.uniform(0.0, 1e-6) * period),
                    float(rng.uniform(0.0, 1.0) * period),
                    float(rng.uniform(1.0, 12.0) * period)):
            want = residuals(np.array([tau]))[0]
            got = residuals.at(tau)
            assert isinstance(got, float), case
            assert np.float64(got).tobytes() == want.tobytes(), (j1, j2, tau)


def _stacked_residual_bits(p_up, p_down, coh, work):
    """`spins._residual_bits` as it took the worst probe with
    `take_along_axis`, both eigenvalue fractions with `np.stack` and kept
    them in (0, 1] with `np.clip`: the reference its row gather and its
    `np.minimum(np.maximum(...))` must equal bit for bit."""
    split, total = work
    np.subtract(p_up, p_down, out=split)
    np.square(split, out=split)
    np.add(split, np.multiply(4.0, coh, out=coh), out=split)
    np.add(p_up, p_down, out=total)
    ratio = np.divide(split, np.square(total, out=coh), out=coh)
    worst = np.argmin(ratio, axis=-1)[..., None]
    split = np.take_along_axis(split, worst, axis=-1)[..., 0]
    total = np.take_along_axis(total, worst, axis=-1)[..., 0]
    disc = np.sqrt(split)
    lam = np.stack([(total + disc) / 2.0, (total - disc) / 2.0]) / total
    lam = np.clip(lam, 1e-300, 1.0)
    return -np.sum(lam * np.log2(lam), axis=0)


@pytest.mark.parametrize("rows", [_SCAN_CHUNK, 1])
def test_residual_bits_equal_the_stacked_formula(rows):
    # a full chunk and a lone tau, on random moments (|coherence|^2 <=
    # p_up p_down), with zero coherence, with p_up = p_down (every ratio
    # zero, so the worst probe is a tie), with totals near 1e-300 (ratios
    # 0/0), with totals near 1e-150 (squares near 1e-300), with pure control
    # states (p = 1 or p = 0, a zero fraction clipped up to 1e-300) and with
    # a coherence a rounding above p_up p_down (fractions past 1 and below 0)
    rng = np.random.default_rng(rows)
    shape = (rows, 36)
    p_up = rng.uniform(0.0, 1.0, shape)
    p_down = rng.uniform(0.0, 1.0, shape) * (1.0 - p_up)
    coh = rng.uniform(0.0, 1.0, shape) * p_up * p_down
    tiny = rng.uniform(0.5, 2.0, shape) * 1e-300
    small = p_up * 1e-150
    pure = np.arange(rows)[:, None] % 3 == 0  # every probe of every third row
    cases = [(p_up, p_down, coh), (p_up, p_down, np.zeros(shape)),
             (p_up, p_up, coh), (p_up, p_up, np.zeros(shape)),
             (tiny, tiny[:, ::-1], np.zeros(shape)), (tiny, 3.0 * tiny, tiny),
             (small, p_down * 1e-150, coh * 1e-300),
             (np.ones(shape), np.zeros(shape), np.zeros(shape)),
             (np.zeros(shape), np.ones(shape), np.zeros(shape)),
             (np.where(pure, 1.0, p_up), np.where(pure, 0.0, p_down),
              np.where(pure, 0.0, coh)),
             (p_up, p_down, p_up * p_down * (1.0 + 1e-12))]
    for case, (up, down, c) in enumerate(cases):
        with np.errstate(invalid="ignore", divide="ignore"):
            got = spins._residual_bits(up, down, c.copy(), np.empty((2,) + shape))
            want = _stacked_residual_bits(up, down, c.copy(), np.empty((2,) + shape))
        assert got.shape == (rows,), case
        assert got.tobytes() == want.tobytes(), case


def _entropy_bits(q):
    lam = np.clip(np.stack([q, 1.0 - q]), 1e-300, 1.0)
    return -np.sum(lam * np.log2(lam), axis=0)


def _sfg_grid(j1, j2, lo, hi):
    """The tau grid sfg_gate scans over (lo, hi)."""
    resolution = min(1e-3 * math.pi * HBAR_MEV_PS / max(abs(j1), abs(j2)),
                     (hi - lo) / 200.0)
    return np.arange(max(lo, resolution), hi, resolution)


def _cosine_per_point_q(levels, projectors, taus):
    """q = min(p, 1 - p) for the |down down> probe, with the cosine of each
    point's own angle: p = sum_k w_k^2 + 2 sum_{k<l} w_k w_l cos((E_k -
    E_l) tau/hbar), w_k = P_k[3, 3]."""
    w = projectors[:, 3, 3]
    constant = float(np.sum(w * w))
    p = sum(2.0 * w[k] * w[l] * np.cos((levels[k] - levels[l]) * taus / HBAR_MEV_PS)
            for k, l in ((0, 1), (0, 2), (1, 2)))
    return np.minimum(p + constant, 1.0 - constant - p)


def test_down_down_q_is_a_cosine_per_point_within_2e_13():
    # the screen takes each point's cosines from its block start's and its
    # in-block offset's; against a cosine per point q stays within the
    # 2e-13 that its docstring claims, on seeded trios with equal, opposite
    # and random-ratio couplings, over uniform grids at the search's step
    # from one point to about 1e5, a third of them starting within 1e-6 of 0
    rng = np.random.default_rng(35)
    lengths = [1, 2, 3, _SCAN_CHUNK - 1, _SCAN_CHUNK, _SCAN_CHUNK + 1,
               3 * _SCAN_CHUNK + 7, 100_000]
    lengths += [int(n) for n in np.exp(rng.uniform(0.0, math.log(50_000.0), 28))]
    worst = 0.0
    for case, n in enumerate(lengths):
        j1 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 200.0))
        j2 = (j1, -j1, float(rng.uniform(-2.0, 2.0)) * j1)[case % 3]
        step = 1e-3 * math.pi * HBAR_MEV_PS / max(abs(j1), abs(j2))
        step *= float(rng.uniform(0.5, 2.0))
        period = 2.0 * math.pi * HBAR_MEV_PS / abs(j1)
        start = float(rng.uniform(0.0, 1e-6 if case % 3 == 0 else 4.0) * period)
        taus = np.arange(start, start + (n - 0.5) * step, step)
        assert len(taus) == n, case
        trio = _trio_levels(j1, j2)
        q = _down_down_q(*trio, taus)
        assert q.shape == taus.shape, case
        error = float(np.max(np.abs(q - _cosine_per_point_q(*trio, taus))))
        assert error < 2e-13, (j1, j2, n, error)
        worst = max(worst, error)
    assert worst > 0.0  # the two ways round apart, so the bound is tested
    # the longest grid spans several row pieces of the screen's product
    assert max(lengths) > 2 * _SCREEN_ROWS * _SCAN_CHUNK


def test_down_down_screen_admits_every_point_below_the_level():
    # one probe's entropy never exceeds the worst probe's, so the screen must
    # admit every point whose scored residual lies below the level, over
    # random trios that include equal and opposite couplings and grids that
    # start near zero: on a multi-block grid with a partial last block, on
    # the narrow range calibrate_gate_time searches, on the one-point grid
    # sfg_gate falls back to and, for every 130th trio, on a grid at the
    # search's step that spans three row pieces of the screen's product
    rng = np.random.default_rng(16)
    levels_bits = [1e-2 * 8.0 ** m for m in range(4)]
    assert levels_bits[-1] >= 1.0
    cuts = [_entropy_cut(level + _SCREEN_MARGIN) for level in levels_bits]
    below_each_level = np.zeros(len(levels_bits), dtype=int)
    for case in range(1000):
        j1 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 200.0))
        j2 = (j1, -j1, float(rng.uniform(-2.0, 2.0)) * j1)[case % 3]
        period = 2.0 * math.pi * HBAR / abs(j1)
        step = period * 10.0 ** rng.uniform(-4.0, -2.0)
        start = float(rng.uniform(0.0, 1e-6 if case % 4 == 0 else 4.0) * period)
        blocks = np.arange(start, start + (_SCAN_CHUNK + 37.5) * step, step)
        assert len(blocks) > _SCAN_CHUNK and len(blocks) % _SCAN_CHUNK, case
        tau = float(rng.uniform(0.05, 1.0) * period)
        narrow = _sfg_grid(j1, j2, 0.7 * tau, 1.3 * tau)
        one_point = np.array([tau])
        grids = [blocks, narrow, one_point]
        if case % 130 == 0:
            resolution = 1e-3 * math.pi * HBAR_MEV_PS / max(abs(j1), abs(j2))
            points = (2 * _SCREEN_ROWS + 5) * _SCAN_CHUNK + 37.5
            grids.append(np.arange(start, start + points * resolution, resolution))
            assert len(grids[-1]) > 2 * _SCREEN_ROWS * _SCAN_CHUNK, case
        trio = _trio_levels(j1, j2)
        residuals = _residual_scan(*trio)
        for taus in grids:
            q = _down_down_q(*trio, taus)
            scored = residuals(taus)
            assert np.all(_entropy_bits(q) <= scored + 1e-12), (j1, j2, case)
            for m, (level, cut) in enumerate(zip(levels_bits, cuts)):
                below = scored < level
                assert np.all(q[below] < cut), (j1, j2, case, level)
                below_each_level[m] += np.count_nonzero(below)
    assert np.all(below_each_level > 0), below_each_level


def test_entropy_cut_brackets_the_level():
    # H2 rises on [0, 1/2]: at the cut it is above the level, and twice the
    # padding inside the cut below it; past H2's maximum every q is admitted
    for bits in (1e-2 + 1e-9, 8e-2 + 1e-9, 0.64 + 1e-9, 0.3):
        cut = _entropy_cut(bits)
        assert spins._binary_entropy(cut) > bits
        assert spins._binary_entropy(cut * (1.0 - 2.0 * spins._CUT_PAD)) < bits
    assert _entropy_cut(1.0) > 0.5
    assert _entropy_cut(5.12 + 1e-9) == math.inf


def test_oversized_tau_grid_is_refused_before_it_is_allocated():
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError) as err:
            sfg_gate(20.0, 10.0, (0.0, 1e12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the message names the grid's point count and the limit
    points, limit = map(int, re.search(r"needs (\d+) grid points, more than "
                                       r"the limit of (\d+)", str(err.value)).groups())
    assert limit == _MAX_GRID_POINTS
    assert points == pytest.approx(1e12 / (1e-3 * math.pi * HBAR_MEV_PS / 20.0),
                                   rel=1e-9)


def _full_grid_refines(coarse, lo):
    """The gate search's dip rule on a fully scored grid: the indices it
    refines (every dip below 1e-2, else the deepest), and its dips."""
    left = np.concatenate(([np.inf], coarse[:-1]))
    right = np.concatenate((coarse[1:], [np.inf]))
    dips = np.flatnonzero((coarse <= left) & (coarse <= right))
    if lo <= 0.0 and len(dips) and dips[0] == 0:
        dips = dips[1:]
    refine = [int(k) for k in dips if coarse[k] < 1e-2]
    if not refine and len(dips):
        refine = [int(dips[np.argmin(coarse[dips])])]
    return refine, dips


def _traced_search(monkeypatch, fresh_gate_cache, j1, j2, tau_range):
    """sfg_gate's report, its grid, the brackets it refined, the number of
    points it scored and the row count of each batch it scored through the
    chunked scan, from a search run afresh on an empty gate cache. A lone
    point scored by the scan's `at` outside the refine fails the search."""
    grids, brackets, batches, scored, refining = [], [], [], [0], [False]
    screen, scan, minimize = (spins._down_down_q, spins._residual_scan,
                              spins._minimize_bounded)

    def traced_screen(levels, projectors, taus):
        grids.append(taus)
        return screen(levels, projectors, taus)

    def traced_scan(levels, projectors):
        residuals = scan(levels, projectors)

        def counted(taus):
            scored[0] += len(taus)
            batches.append(len(taus))
            return residuals(taus)

        def counted_at(tau):
            assert refining[0], "a lone point scored outside the refine"
            scored[0] += 1
            return residuals.at(tau)

        counted.at = counted_at
        return counted

    def traced_minimize(fun, bounds, **kwargs):
        brackets.append(bounds)
        refining[0] = True
        try:
            return minimize(fun, bounds, **kwargs)
        finally:
            refining[0] = False

    fresh_gate_cache()
    with monkeypatch.context() as patch:
        patch.setattr(spins, "_down_down_q", traced_screen)
        patch.setattr(spins, "_residual_scan", traced_scan)
        patch.setattr(spins, "_minimize_bounded", traced_minimize)
        try:
            report = sfg_gate(j1, j2, tau_range)
        except NoCleanGateError as err:
            report = err.best_candidate
    return report, grids[0], brackets, scored[0], batches


# 147.5/20.9 and 30/10 have no dip below 1e-2; 25/24 has three, two of them
# at 7.5e-3 where the bound is the residual. 30/7 and the exact pairs after
# it, among the slowest searches of a random R = 60 A patch, have a coupling
# ratio of 3 to 5 and no dip below 8e-2, as have two of the random trios
_rng = np.random.default_rng(7)
_SELECTION_TRIOS = [(20.0, 10.0), (20.0, 20.0), (10.0, 10.0), (-10.0, -10.0),
                    (5.0, -5.0), (10.0, 5.0), (116.4, 38.6), (147.5, 20.9),
                    (41.2, 5.6), (30.0, 10.0), (25.0, 24.0), (30.0, 7.0),
                    (37.79330824348506, 7.562170555572578),
                    (186.90420424958134, 43.47361143851192),
                    (232.2112280084883, 66.88793344284835)] + [
    (j1, j1 * ratio) for j1, ratio in zip(
        _rng.choice([-1.0, 1.0], 10) * _rng.uniform(5.0, 150.0, 10),
        [1.0, -1.0, 1.0 + 1e-3, 0.999, *_rng.uniform(-1.2, 1.2, 6)])]

# ranges (0, share * default end) over which the rise out of the identity at
# tau -> 0 is the lowest stretch, so the search escalates past the ramp: to
# 0.64 for 147.5/20.9, and to admitting every point for 20/10, with a dip at
# 0.81 over a tenth of the range and none over a fiftieth
_RAMP_RANGES = [(147.5, 20.9, 0.05), (20.0, 10.0, 0.1), (20.0, 10.0, 0.02)]


def _selection_cases():
    """(j1, j2, tau_range) of every selection trio over the default range
    and over the (0.7 tau, 1.3 tau) window that calibrate_gate_time searches,
    then of the ramp ranges."""
    cases = []
    for j1, j2 in _SELECTION_TRIOS:
        tau = search_outcome(j1, j2, None)[1].duration_ps
        cases += [(j1, j2, None), (j1, j2, (0.7 * tau, 1.3 * tau))]
    return cases + [(j1, j2, (0.0, share * 4.0 * math.pi * HBAR_MEV_PS
                              / min(abs(j1), abs(j2))))
                    for j1, j2, share in _RAMP_RANGES]


def test_screened_search_selects_as_the_full_grid(monkeypatch, fresh_gate_cache):
    # the screen scores only points whose q lies below the level's cut; it must
    # refine the grid indices the fully scored grid would, and report the
    # same gate to the bit. Lone points (gemv) and chunks (gemm) round apart
    # in the last place, so this also guards the rounding of screened subsets,
    # and outside the refine no batch may be a lone point
    paths = set()
    for case in _selection_cases():
        j1, j2, tau_range = case
        report, taus, brackets, scored, batches = _traced_search(
            monkeypatch, fresh_gate_cache, j1, j2, tau_range)
        lo, hi = tau_range or (0.0, 4.0 * math.pi * HBAR_MEV_PS / min(abs(j1), abs(j2)))
        resolution = min(1e-3 * math.pi * HBAR_MEV_PS / max(abs(j1), abs(j2)),
                         (hi - lo) / 200.0)
        assert np.array_equal(taus, np.arange(max(lo, resolution), hi, resolution))
        coarse = _residual_scan(*_trio_levels(j1, j2))(taus)
        refine, dips = _full_grid_refines(coarse, lo)
        assert brackets == [(max(lo, taus[k] - resolution),
                             min(hi, taus[k] + resolution)) for k in refine], case
        assert 1 not in batches, case
        deepest = min(coarse[dips], default=math.inf)
        # only a search with no dip at all scores every point
        if len(dips):
            assert scored < len(taus), case
        # the same search with every point admitted is the full-grid search
        with monkeypatch.context() as patch:
            patch.setattr(spins, "_down_down_q",
                          lambda levels, projectors, taus: np.zeros(len(taus)))
            full, _, full_brackets, _, _ = _traced_search(
                monkeypatch, fresh_gate_cache, j1, j2, tau_range)
        assert full_brackets == brackets, case
        assert full.duration_ps == report.duration_ps, case
        assert np.array_equal(full.qubit_unitary, report.qubit_unitary), case
        assert (full.control_residual_entanglement
                == report.control_residual_entanglement), case
        assert full.entangling_power == report.entangling_power, case
        if deepest >= 1e-2:
            paths.add("escalation")
        if 8e-2 <= deepest < 0.64:
            paths.add("level 0.64")
        if deepest >= 0.64:
            paths.add("every point")
        if lo <= 0.0 and coarse[0] <= coarse[1]:
            paths.add("ramp")
        if j1 == j2:
            paths.add("equal")
    assert paths == {"escalation", "level 0.64", "every point", "ramp", "equal"}
    # none of these searches admits a lone point at once; a screen that does
    # must still score it by the matrix-matrix product
    with monkeypatch.context() as patch:
        patch.setattr(spins, "_down_down_q", lambda levels, projectors, taus:
                      np.where(np.arange(len(taus)) == 7, 0.0, 0.5))
        batches = _traced_search(monkeypatch, fresh_gate_cache, 20.0, 10.0, None)[4]
    assert batches[0] == 2 and 1 not in batches
    # an escalated level scores its points best first: table1's C2 trio, whose
    # deepest dip lies at 1.1e-2, scored 415 points in batches when each level
    # scored every point it admitted
    batches = _traced_search(monkeypatch, fresh_gate_cache, 147.51734661265843,
                             20.91738401817267, None)[4]
    assert sum(batches) <= 64


def _outcome(j1, j2, tau_range):
    """One sfg_gate call as bits, and its report: the clean flag, the
    duration, residual and entangling power as float.hex, the unitary's
    bytes, and the NoCleanGateError message (None for a clean gate)."""
    try:
        report, message = sfg_gate(j1, j2, tau_range), None
    except NoCleanGateError as err:
        report, message = err.best_candidate, str(err)
    return (message is None, report.duration_ps.hex(),
            report.control_residual_entanglement.hex(), report.entangling_power.hex(),
            report.qubit_unitary.tobytes(), message), report


def test_a_cached_search_is_the_uncached_search_bit_for_bit(monkeypatch,
                                                            fresh_gate_cache):
    # every selection case, searched without a cache, then a miss and a hit
    # on an empty one: the same bits each time. A hit hands back the cached
    # report, whose unitary every caller shares, so it refuses writes
    cases = _selection_cases()
    with monkeypatch.context() as patch:
        patch.setattr(spins, "_gate_search", spins._gate_search.__wrapped__)
        want = [_outcome(*case)[0] for case in cases]
    cache = fresh_gate_cache()
    for case, bits in zip(cases, want):
        miss, first = _outcome(*case)
        hit, again = _outcome(*case)
        assert miss == bits and hit == bits, case
        assert again is first, case
        with pytest.raises(ValueError, match="read-only"):
            again.qubit_unitary[0, 0] = 0.0
    assert cache.cache_info()[:2] == (len(cases), len(cases))  # hits, misses
    assert {bits[0] for bits in want} == {True, False}


def test_a_signed_zero_lower_bound_keeps_its_own_message(monkeypatch,
                                                         fresh_gate_cache):
    # -0.0 and 0.0 compare equal, so both ranges share one entry, in either
    # order, and the sign of zero reaches no bit of the search; but they print
    # apart, and every call, hit or miss, raises a fresh error whose message
    # is built from its own range
    ranges = [(-0.0, 0.3), (0.0, 0.3)]
    with monkeypatch.context() as patch:
        patch.setattr(spins, "_gate_search", spins._gate_search.__wrapped__)
        want = [_outcome(116.4, 38.6, r)[0] for r in ranges]
    assert "in (-0, 0.3) ps" in want[0][-1] and "in (0, 0.3) ps" in want[1][-1]
    assert want[0][:-1] == want[1][:-1]
    for order in ([0, 1], [1, 0]):
        cache = fresh_gate_cache()
        for _ in range(2):
            for k in order:
                assert _outcome(116.4, 38.6, ranges[k])[0] == want[k], (order, k)
        assert cache.cache_info()[:2] == (3, 1)  # hits, misses
    errors = []
    for _ in range(2):
        with pytest.raises(NoCleanGateError) as err:
            sfg_gate(116.4, 38.6, ranges[0])
        errors.append(err.value)
    assert errors[0] is not errors[1]
    assert errors[0].best_candidate is errors[1].best_candidate


def test_refused_arguments_raise_on_every_call_and_cache_nothing(fresh_gate_cache):
    # a bad range, a bad threshold, a zero or non-finite coupling and a grid
    # past the limit are refused before the cache, on a hit's key too
    cache = fresh_gate_cache()
    sfg_gate(5.0, 5.0)
    info = cache.cache_info()
    refused = [((5.0, 5.0, (0.0, math.nan)), {}), ((20.0, 10.0, (0.0, 1.0, 2.0)), {}),
               ((20.0, 10.0, "x"), {}), ((5.0, 5.0, (1.0, 0.5)), {}),
               ((5.0, 5.0), {"residual_threshold": 0.0}),
               ((5.0, 5.0), {"residual_threshold": "1e-6"}),
               ((5.0, 0.0), {}), ((math.nan, 5.0), {}),
               ((20.0, 10.0, (0.0, 1e12)), {})]
    for args, kwargs in refused:
        for _ in range(2):
            with pytest.raises(PreconditionError):
                sfg_gate(*args, **kwargs)
    assert cache.cache_info() == info
    assert info.currsize == 1


def test_the_gate_cache_is_bounded(fresh_gate_cache):
    # the seed-0 R = 60 A patch makes 182 distinct searches for its 189
    # gates, all of which the bound holds; past it the least recently used
    # search is dropped
    cache = fresh_gate_cache()
    bound = cache.cache_parameters()["maxsize"]
    assert bound == spins._CACHE_SEARCHES >= 189
    for k in range(bound + 20):
        search_outcome(10.0 + 0.01 * k, 5.0, (0.0, 0.5))
        assert cache.cache_info().currsize <= bound
    assert cache.cache_info()[1:] == (bound + 20, bound, bound)  # misses, maxsize, size
    search_outcome(10.0, 5.0, (0.0, 0.5))
    assert cache.cache_info().misses == bound + 21


def test_bounded_refine_is_scipys_bounded_brent(monkeypatch, fresh_gate_cache):
    # the refine is a port of minimize_scalar(method="bounded"); it must give
    # the same x and value to the bit on every bracket the gate search
    # refines, each search run afresh on an empty gate cache
    calls, minimize = [], spins._minimize_bounded
    fresh_gate_cache()

    def recorded(fun, bounds, xatol):
        calls.append((fun, bounds, xatol))
        return minimize(fun, bounds, xatol)

    monkeypatch.setattr(spins, "_minimize_bounded", recorded)
    for j1, j2 in _SELECTION_TRIOS:
        tau = search_outcome(j1, j2, None)[1].duration_ps
        search_outcome(j1, j2, (0.7 * tau, 1.3 * tau))
    assert len(calls) > 2 * len(_SELECTION_TRIOS)
    calls += [(lambda x: (x - 2.0) * x * (x + 2.0) ** 2, (-3.0, -1.0), 1e-5),
              (lambda x: math.cos(x) + 0.1 * x, (1.0, 5.0), 1e-12),
              (lambda x: abs(x - 0.3), (0.0, 1.0), 1e-9)]
    for fun, bounds, xatol in calls:
        x, fx = minimize(fun, bounds, xatol)
        want = minimize_scalar(fun, bounds=bounds, method="bounded",
                               options={"xatol": xatol})
        assert x == want.x and fx == want.fun, bounds


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("ratio", [1.0, 0.999, 0.5, -0.5, 1.0 / 3.0, 0.1, -1.0, 0.01,
                                   1e-3, -1e-3])
def test_trio_levels_are_the_closed_form_three(ratio, sign):
    j1 = sign * 20.0
    j2 = j1 * ratio
    levels, projectors = _trio_levels(j1, j2)
    root = 0.5 * math.sqrt(j1 * j1 + j2 * j2 - j1 * j2)
    assert levels == pytest.approx([(j1 + j2) / 4.0, -(j1 + j2) / 4.0 + root,
                                    -(j1 + j2) / 4.0 - root], abs=1e-12)
    # orthogonal projectors of ranks 4, 2, 2 that resolve H and the identity
    ranks = [np.trace(P) for P in projectors]
    assert ranks == pytest.approx([4.0, 2.0, 2.0], abs=1e-12)
    for k, P in enumerate(projectors):
        for m, R in enumerate(projectors):
            want = P if k == m else np.zeros_like(P)
            assert np.max(np.abs(P @ R - want)) < 1e-12
    assert np.max(np.abs(projectors.sum(axis=0) - np.eye(8))) < 1e-12
    H = _kron_hamiltonian(3, {(0, 1): j1, (0, 2): j2})
    resolved = np.einsum("k,kij->ij", levels, projectors)
    assert np.max(np.abs(resolved - H)) < 1e-12
    # and the levels are the spectrum, eigenvalue by eigenvalue
    want = np.repeat(levels, [4, 2, 2])
    assert np.sort(want) == pytest.approx(np.linalg.eigvalsh(H), abs=1e-12)


def test_system_validation():
    with pytest.raises(InvalidSpecError):
        SpinSystem(spins=())
    with pytest.raises(InvalidSpecError):
        SpinSystem(spins=(("a", "qubit"), ("a", "qubit")))
    with pytest.raises(InvalidSpecError):
        SpinSystem(spins=(("a", "qubit"),), couplings={(0, 0): 1.0})
    with pytest.raises(InvalidSpecError):
        SpinSystem(spins=(("a", "qubit"), ("b", "qubit")),
                   couplings={(0, 1): 1.0}, zeeman_mev=(0.0,))
    with pytest.raises(DimensionError):
        SpinSystem(spins=tuple((f"s{k}", "qubit") for k in range(15)))
