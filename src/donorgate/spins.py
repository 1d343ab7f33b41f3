"""Exact dynamics of small spin-1/2 clusters and the optically gated
two-qubit unitary they realize.

The model is isotropic Heisenberg exchange plus per-spin Zeeman terms,

    H = sum_{i<j} J_ij S_i.S_j + sum_i D_i S_i^z   (meV),

diagonalized densely. The gate is one excited control coupled to two qubits,

    H = J1 S0.S1 + J2 S0.S2,

with the control as spin 0, no qubit-qubit term and no Zeeman term; it is
fixed by its two couplings alone. Leaving the control excited for the right
interval returns it unentangled while the qubits pick up a joint unitary:
`sfg_gate(j1, j2)` scans for such intervals and reports the gate.

The trio is not diagonalized: its quartet projector P_Q = 1/2 + 2/3 (S0.S1
+ S0.S2 + S1.S2) and its two doublet projectors are closed forms, and every
evolution of it is U(tau) = sum_k exp(-i E_k tau/hbar) P_k.

The search scores the control's worst case over 36 product probes only where
a dip can be. The probe |down down> stays in the S_z = -1/2 sector, so the
control's state for it has no coherence and its entropy is H2(p), with
p(tau) = |U[3, 3]|^2 a sum of three real cosines: a closed-form lower bound
on the worst case. H2 rises with q = min(p, 1 - p), so the probes are scored
only where q lies below the cut that a level sets. On the uniform grid the
three cosines come by angle addition, as one (blocks x 6) @ (6 x 512) matrix
product per search.

A search is a pure function of its checked arguments. `sfg_gate` checks them
on every call and keeps the last 256 searches in an LRU, `_gate_search`,
keyed by the floats (j1, j2, lo, hi, residual_threshold). A hit hands back
the cached report, whose unitary is read-only because every caller shares
it, or raises a fresh NoCleanGateError built from the call's own arguments
and the cached best candidate. Only a search repeated with equal arguments
in one process gains: a report repeated over scan seeds runs no search after
the first, while a cold one-shot run searches each distinct set of arguments
once, as before.

Basis convention: spin k maps to bit (n-1-k) of the state index, bit value 0
meaning m = +1/2. Equivalently the basis is the Kronecker product of the
single-spin bases in spin order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR_MEV_PS
from .errors import (DimensionError, InvalidSpecError, NoCleanGateError,
                     PreconditionError, finite)

MAX_SPINS = 14  # dense-matrix budget
_EP_FLOOR = 1e-6  # below this a candidate interval is the identity, not a gate


@dataclass(frozen=True)
class SpinSystem:
    """Labeled spin-1/2 cluster with pairwise exchange and Zeeman terms.

    `spins` is an ordered tuple of (label, role) pairs; `couplings` maps
    index pairs to J_ij in meV (any iterable of ((i, j), J) or a dict);
    `zeeman_mev` lists the per-spin splitting D_i, defaulting to zero.
    """

    spins: tuple
    couplings: tuple = ()
    zeeman_mev: tuple = None

    def __post_init__(self):
        spins = tuple((str(l), str(r)) for l, r in self.spins)
        n = len(spins)
        if n == 0:
            raise InvalidSpecError("need at least one spin")
        if n > MAX_SPINS:
            raise DimensionError(f"{n} spins exceeds the dense budget of {MAX_SPINS}")
        if len({l for l, _ in spins}) != n:
            raise InvalidSpecError("spin labels must be unique")

        raw = self.couplings.items() if hasattr(self.couplings, "items") else self.couplings
        seen = {}
        for (i, j), value in raw:
            i, j = int(i), int(j)
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise InvalidSpecError(f"bad coupling index pair ({i}, {j})")
            if not math.isfinite(value):
                raise InvalidSpecError("couplings must be finite")
            key = (min(i, j), max(i, j))
            if key in seen and seen[key] != float(value):
                raise InvalidSpecError(f"conflicting values for coupling {key}")
            seen[key] = float(value)
        zee = self.zeeman_mev
        zee = tuple(0.0 for _ in spins) if zee is None else tuple(float(z) for z in zee)
        if len(zee) != n:
            raise InvalidSpecError("zeeman_mev length must match spin count")
        if not all(math.isfinite(z) for z in zee):
            raise InvalidSpecError("zeeman terms must be finite")

        object.__setattr__(self, "spins", spins)
        object.__setattr__(self, "couplings", tuple(sorted(seen.items())))
        object.__setattr__(self, "zeeman_mev", zee)

    @property
    def n_spins(self) -> int:
        return len(self.spins)

    @property
    def dimension(self) -> int:
        return 1 << self.n_spins


def build_hamiltonian(system: SpinSystem) -> np.ndarray:
    """Dense H in meV, real since S_i.S_j and S^z are real in this basis."""
    n = system.n_spins
    dim = system.dimension
    states = np.arange(dim)
    sz = [0.5 - ((states >> (n - 1 - k)) & 1) for k in range(n)]

    diag = np.zeros(dim)
    for k, delta in enumerate(system.zeeman_mev):
        if delta != 0.0:
            diag += delta * sz[k]

    H = np.zeros((dim, dim))
    for (i, j), coupling in system.couplings:
        if coupling == 0.0:
            continue
        diag += coupling * sz[i] * sz[j]
        # flip-flop: J/2 between states with opposite i, j spins
        differ = np.flatnonzero(sz[i] != sz[j])
        partner = states[differ] ^ ((1 << (n - 1 - i)) | (1 << (n - 1 - j)))
        H[partner, differ] += 0.5 * coupling
    H[states, states] += diag
    return H


def propagator(H: np.ndarray, t_ps: float) -> np.ndarray:
    """exp(-i H t / hbar) by eigendecomposition; H in meV, t in ps."""
    w, V = np.linalg.eigh(H)
    phases = np.exp(-1j * w * t_ps / HBAR_MEV_PS)
    return (V * phases) @ V.conj().T


def effective_coupling(j1_mev: float, j2_mev: float,
                       excitation_energy_mev: float) -> float:
    """Second-order qubit-qubit coupling J1*J2/dE mediated by the excitation."""
    if finite(excitation_energy_mev, "excitation energy", PreconditionError) <= 0:
        raise PreconditionError("excitation energy must be positive")
    return j1_mev * j2_mev / excitation_energy_mev


# ---------------------------------------------------------------------------
# entanglement metrics
# ---------------------------------------------------------------------------

def _qubit_swap(n_qubits: int, a: int, b: int) -> np.ndarray:
    dim = 1 << n_qubits
    states = np.arange(dim)
    pa, pb = n_qubits - 1 - a, n_qubits - 1 - b
    bits_a = (states >> pa) & 1
    bits_b = (states >> pb) & 1
    swapped = states ^ (((bits_a ^ bits_b) << pa) | ((bits_a ^ bits_b) << pb))
    P = np.zeros((dim, dim))
    P[swapped, states] = 1.0
    return P


# entangling_power's doubled space, copies ordered A, B, A', B': the swaps
# of the two copies of qubit A and of qubit B, and the average over uniform
# product inputs
_SWAP_A = _qubit_swap(4, 0, 2)
_SWAP_B = _qubit_swap(4, 1, 3)
_AVG_IN = (np.eye(16) + _SWAP_A) @ (np.eye(16) + _SWAP_B) / 36.0


def entangling_power(unitary: np.ndarray) -> float:
    """Mean linear entropy generated from uniform product inputs, in [0, 2/9].

    Computed in the doubled space: with S_A swapping the two copies of qubit
    A, E[tr rho_A^2] = tr[(U x U)(I+S_A)(I+S_B)/36 (U x U)^dag S_A]. Zero
    for local gates and SWAP, 2/9 for the CNOT class.
    """
    U = np.asarray(unitary, dtype=complex)
    if U.shape != (4, 4):
        raise DimensionError("entangling power is defined for two-qubit unitaries")
    if np.max(np.abs(U.conj().T @ U - np.eye(4))) > 1e-8:
        raise PreconditionError("input must be unitary")
    # U x U as one broadcast product, the multiplications np.kron makes
    W = (U[:, None, :, None] * U[None, :, None, :]).reshape(16, 16)
    purity = np.trace(W @ _AVG_IN @ W.conj().T @ _SWAP_A).real
    return float(1.0 - purity)


def unitary_part(M: np.ndarray) -> np.ndarray:
    """The unitary factor of the polar decomposition M = U P, from the SVD."""
    u, _, vh = np.linalg.svd(M)
    return u @ vh


def gate_fidelity(U: np.ndarray, V: np.ndarray) -> float:
    """Phase-insensitive overlap |tr(U^dag V)|^2 / d^2."""
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    d = U.shape[0]
    return float(abs(np.trace(U.conj().T @ V)) ** 2 / d**2)


# ---------------------------------------------------------------------------
# the optically gated two-qubit unitary
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GateReport:
    """Outcome of one gate interval: duration, the induced qubit unitary,
    and how cleanly the control returned."""

    duration_ps: float
    qubit_unitary: np.ndarray
    control_residual_entanglement: float  # bits
    entangling_power: float
    fidelity_to_target: float = None
    qubit_labels: tuple = ()  # named by calibrate_gate_time; the search has none


def _single_qubit_probes() -> np.ndarray:
    s = 1.0 / math.sqrt(2.0)
    kets = np.array([
        [1, 0], [0, 1], [s, s], [s, -s], [s, 1j * s], [s, -1j * s],
    ], dtype=complex)
    probes = [np.kron(x, y) for x in kets for y in kets]
    return np.array(probes, dtype=complex).T  # 4 x 36


_PROBES = _single_qubit_probes()


# tau points per batched residual evaluation, whatever the length of the
# grid or of its screened subset. A scan allocates its work arrays once, at
# up to this many rows (about 2.6 kB per row: the three 36-probe moments,
# the squared coherence and two score arrays), and reuses them for every
# chunk, the shorter last one included. At 512 rows each of those arrays is
# 147-295 kB, above glibc's 128 KiB mmap threshold, so arrays allocated
# afresh for each chunk would be mapped and page-faulted again on every
# chunk. The 9 level-pair phases (73 kB a chunk) stay under it and are
# allocated per chunk. The |down down> screen splits the grid into blocks of
# the same length and takes cosines only of the block starts and of the
# offsets within a block; its only full-grid array is q (8 bytes a point).
_SCAN_CHUNK = 512

# block rows per (rows x 6) @ (6 x _SCAN_CHUNK) product of the |down down>
# screen, a constant so that OpenBLAS keeps it on one thread. On a 2-vCPU
# host a product ran single-threaded at up to 320 rows (79 us) and on both
# cores from 340 rows (0.17-12 ms a call); from 16 to 320 rows a piece costs
# 0.26-0.32 us a row. 64 rows is 32 768 grid points, and their 256 kB
# product is still in cache when q is taken from it
_SCREEN_ROWS = 64

# the gate search's refine threshold and first screen level, in bits, and
# the margin for rounding between the |down down> bound and a scored residual
_SCREEN_LEVEL = 1e-2
_SCREEN_MARGIN = 1e-9

# points an escalated screen level scores before it first looks for a dip
_FIRST_BATCH = 32

# relative outward padding of a screen's q cut, against the screen's own
# rounding (see `_down_down_q`)
_CUT_PAD = 1e-6

# the most tau points one search may scan. A search holds about 26 bytes a
# point at its peak (tau, q and the padded scores), 65 where the screen
# admits every point: at most 270 MB. The screen itself holds 8 bytes a point.
# A default range has about 4000 * max|J| / min|J| points
_MAX_GRID_POINTS = 1 << 22

# whole gate searches the search cache holds: a table1 report makes 6
# distinct ones, the seed-0 R = 60 A, c = 0.3 % patch 182 for its 189 gates
_CACHE_SEARCHES = 256


# the gate trio's spins, and its basis rows with the control (spin 0) up and down
_TRIO = (("C", "control"), ("Q1", "qubit"), ("Q2", "qubit"))
_UP, _DOWN = slice(0, 4), slice(4, 8)

# its S0.S1, S0.S2 and S1.S2, and the projector onto its total spin 3/2
_S01, _S02, _S12 = (build_hamiltonian(SpinSystem(_TRIO, {pair: 1.0}))
                    for pair in ((0, 1), (0, 2), (1, 2)))
_EYE8 = np.eye(8)
_QUARTET = 0.5 * _EYE8 + (2.0 / 3.0) * (_S01 + _S02 + _S12)
_DOUBLETS = _EYE8 - _QUARTET

# the index pairs k < l of the trio's three levels
_LEVEL_PAIRS = np.triu_indices(3, 1)


def _trio_couplings(j1_mev: float, j2_mev: float) -> tuple:
    """The gate trio's two couplings as floats; each must be finite and
    nonzero, since the control couples both qubits."""
    for name, j in (("j1", j1_mev), ("j2", j2_mev)):
        if finite(j, name, PreconditionError) == 0.0:
            raise PreconditionError(f"{name} must be nonzero: the control "
                                    "couples both qubits")
    return float(j1_mev), float(j2_mev)


def _trio_levels(j1_mev: float, j2_mev: float) -> tuple:
    """The three levels (meV) of the gate trio, the control (spin 0) coupled
    to qubits 1 and 2, and the projector onto each.

    H = J1 S0.S1 + J2 S0.S2 has the quartet E_Q = (J1+J2)/4 and the two
    doublets E_+- = -(J1+J2)/4 +- gap/2, gap = sqrt(J1^2+J2^2-J1 J2). The
    quartet projector P_Q is fixed; H splits the doublet space 1 - P_Q as
    P_+ = (1 - P_Q)(H - E_-)/gap and P_- = (1 - P_Q) - P_+. Only the gap,
    at least max|J|/sqrt(2), is divided by, so the projectors hold to
    rounding however close E_Q comes to a doublet.
    """
    j1, j2 = _trio_couplings(j1_mev, j2_mev)
    H = j1 * _S01 + j2 * _S02
    e_q, gap = 0.25 * (j1 + j2), math.sqrt(j1 * j1 + j2 * j2 - j1 * j2)
    levels = np.array([e_q, 0.5 * gap - e_q, -0.5 * gap - e_q])
    upper = _DOUBLETS @ (H - levels[2] * _EYE8) / gap
    return levels, np.array([_QUARTET, upper, _DOUBLETS - upper])


def _phases(levels: np.ndarray, taus) -> np.ndarray:
    """exp(-i E_k tau/hbar) for each tau (leading axes) and level (last)."""
    return np.exp(-1j * np.multiply.outer(taus, levels) / HBAR_MEV_PS)


def _trio_propagator(levels: np.ndarray, projectors: np.ndarray,
                     tau_ps: float) -> np.ndarray:
    """U(tau) = sum_k exp(-i E_k tau/hbar) P_k over the trio's three levels."""
    return np.tensordot(_phases(levels, tau_ps), projectors, axes=1)


def _residual_bits(p_up: np.ndarray, p_down: np.ndarray, coh: np.ndarray,
                   work: np.ndarray) -> np.ndarray:
    """Worst control entropy, in bits, of each row over its probes (columns).

    The reduced state of populations p_up, p_down and squared coherence coh
    has eigenvalues (total +- disc)/2 with disc^2 = (p_up-p_down)^2 + 4 coh;
    its entropy falls as (disc/total)^2 rises, so the worst probe is the one
    with the smallest ratio, and the binary entropy is taken for it alone,
    from its two eigenvalue fractions. `coh` and the two arrays of `work`,
    each shaped (rows, probes) like p_up, are overwritten, so a scan can
    reuse them from chunk to chunk.
    """
    split, total = work
    np.subtract(p_up, p_down, out=split)
    np.square(split, out=split)
    np.add(split, np.multiply(4.0, coh, out=coh), out=split)
    np.add(p_up, p_down, out=total)
    ratio = np.divide(split, np.square(total, out=coh), out=coh)
    rows = np.arange(len(ratio))
    worst = np.argmin(ratio, axis=1)
    split, total = split[rows, worst], total[rows, worst]
    disc = np.sqrt(split)
    plus = np.minimum(np.maximum((total + disc) / 2.0 / total, 1e-300), 1.0)
    minus = np.minimum(np.maximum((total - disc) / 2.0 / total, 1e-300), 1.0)
    return -(plus * np.log2(plus) + minus * np.log2(minus))


def induced_qubit_block(j1_mev: float, j2_mev: float, tau_ps: float) -> np.ndarray:
    """Operator the qubits see when the control, starting up, is excited for
    tau: the control-up block of the propagator."""
    levels, projectors = _trio_levels(j1_mev, j2_mev)
    tau = finite(tau_ps, "tau_ps", PreconditionError)
    return _trio_propagator(levels, projectors, tau)[_UP, _UP]


def induced_qubit_operator(j1_mev: float, j2_mev: float, tau_ps: float) -> tuple:
    """`induced_qubit_block`, plus the residual control entanglement in bits
    (zero exactly when the block is unitary), from one build of the trio's
    levels and projectors."""
    levels, projectors = _trio_levels(j1_mev, j2_mev)
    tau = finite(tau_ps, "tau_ps", PreconditionError)
    return (_trio_propagator(levels, projectors, tau)[_UP, _UP],
            _residual_scan(levels, projectors).at(tau))


def _down_down_q(levels: np.ndarray, projectors: np.ndarray,
                 taus: np.ndarray) -> np.ndarray:
    """q = min(p, 1 - p) for the trio's |down down> probe at each tau of a
    uniform grid, tau_j = tau_0 + j * (tau_1 - tau_0).

    Probe |down down> (basis row 3 with the control up) stays in the S_z =
    -1/2 sector, so its control state has populations p and 1 - p and no
    coherence, with p = |U(tau)[3, 3]|^2 = |sum_k w_k exp(-i E_k tau/hbar)|^2
    and w_k = P_k[3, 3] real: p = sum_k w_k^2 + 2 sum_{k<l} w_k w_l
    cos((E_k - E_l) tau/hbar). Its entropy H2(q) is one probe's residual, so
    the worst over the probes is never below it.

    The grid is cut into blocks of `_SCAN_CHUNK` points, and each cosine is
    taken by angle addition, cos(a + b) = cos a cos b - sin a sin b, from the
    cosine and sine of its block's start a and of its offset b within the
    block. So p less its constant is one (blocks x 6) @ (6 x `_SCAN_CHUNK`)
    matrix product: each row holds cos a and -sin a of a block start's three
    angles, each column the weighted cos b and sin b of an offset's, so a
    search takes 6 * (blocks + `_SCAN_CHUNK`) transcendental calls and 6
    multiply-adds a point. The product is taken `_SCREEN_ROWS` block rows at
    a time, on one OpenBLAS thread, and each piece is turned into q in place
    while it is still in cache, so q is the only full-grid array.

    Against the cosine of each point's own angle, q moved by at most 2.7e-13
    over 600 random trios with default grids of up to 594 k points, and by
    less than 2e-13 on grids of up to 1e5 points; the error grows with the
    grid's last angle. Near the first level's cut (H2 = 1e-2, q = 8e-4)
    dH2/dq = log2((1 - q)/q) is below 11 and falls as the level rises, so
    the entropy this admits against moves by at most 3.0e-12 bits, far
    inside `_SCREEN_MARGIN`; `_entropy_cut` pads each cut by a further 8e-10
    or more in q.
    """
    w = projectors[:, 3, 3]
    k, l = _LEVEL_PAIRS
    rates = (levels[k] - levels[l]) / HBAR_MEV_PS
    weights = 2.0 * w[k] * w[l]
    n = len(taus)
    offsets = (taus[1] - taus[0] if n > 1 else 0.0) * np.arange(min(n, _SCAN_CHUNK))
    a = np.multiply.outer(taus[::_SCAN_CHUNK], rates)
    starts = np.stack((np.cos(a), -np.sin(a)), axis=-1).reshape(-1, 6)
    b = np.multiply.outer(rates, offsets)
    shifts = (weights[:, None, None]
              * np.stack((np.cos(b), np.sin(b)), axis=1)).reshape(6, -1)
    constant = float(np.sum(w * w))
    q = np.empty((len(starts), len(offsets)))
    term = np.empty((min(len(starts), _SCREEN_ROWS), len(offsets)))
    for row in range(0, len(starts), _SCREEN_ROWS):
        p = np.matmul(starts[row:row + _SCREEN_ROWS], shifts,
                      out=q[row:row + _SCREEN_ROWS])
        np.subtract(1.0 - constant, p, out=term[:len(p)])
        np.minimum(np.add(p, constant, out=p), term[:len(p)], out=p)
    return q.reshape(-1)[:n]


def _binary_entropy(q: float) -> float:
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q) if q > 0.0 else 0.0


# the levels' cuts recur in every search; a raised level's dip cuts do not
@functools.lru_cache(maxsize=8)
def _entropy_cut(bits: float) -> float:
    """A q such that every q' in [0, 1/2] with H2(q') < `bits` lies below it.

    H2 rises on [0, 1/2], so the cut is the root of H2(q) = bits, found by
    bisection to adjacent doubles, its upper end taken and padded outward by
    `_CUT_PAD` relative; +inf once `bits` exceeds H2's maximum, 1.
    """
    if bits > 1.0:
        return math.inf
    lo, hi = 0.0, 0.5
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _binary_entropy(mid) < bits:
            lo = mid
        else:
            hi = mid
    return hi * (1.0 + _CUT_PAD)


def _residual_scan(levels: np.ndarray, projectors: np.ndarray):
    """Residual control entropy of the trio, given its levels and
    projectors, as a function of an array of intervals.

    The control starts up, so with U(tau) = sum_k phi_k P_k its reduced
    state for probe psi has populations |A psi|^2, |B psi|^2 and coherence
    <B psi|A psi>, where A = sum_k phi_k A_k and B = sum_k phi_k B_k with
    A_k = P_k[up, up] probes and B_k = P_k[down, up] probes. Each moment is
    then a quadratic form in the three phases: p_up = sum_kl conj(phi_k)
    phi_l <A_k psi|A_l psi>, likewise p_down from B and the coherence from
    <B_k psi|A_l psi>. The three 9 x 36 Gram tables are built once; each
    chunk of intervals costs three (chunk x 9) @ (9 x 36) products, written
    with everything after them into work arrays allocated once per call.

    The returned function's `at(tau)` scores one interval, a float, from the
    same tables. It makes the same three products, on one (1 x 9) row, so
    they are matrix-vector products as on a one-row chunk, and then the
    same float operations as `_residual_bits`, on that row alone and with
    the worst probe's entropy taken from two scalars: it returns the
    one-row chunk's value bit for bit, without the chunk's work arrays and
    gathers.
    """
    A = projectors[:, _UP, _UP] @ _PROBES
    B = projectors[:, _DOWN, _UP] @ _PROBES

    def gram(X, Y):
        return np.einsum("krp,lrp->klp", X.conj(), Y).reshape(9, -1)

    g_up, g_down, g_coh = gram(A, A), gram(B, B), gram(B, A)

    def at(tau: float) -> float:
        phases = _phases(levels, tau)
        pairs = (phases.conj()[:, None] * phases).reshape(1, 9)
        up, down = (pairs @ g_up).real, (pairs @ g_down).real
        coh = np.square(np.abs(pairs @ g_coh))
        split = np.square(up - down)
        split += np.multiply(4.0, coh, out=coh)
        total = up + down
        worst = (split / np.square(total)).argmin()
        split, total = float(split[0, worst]), float(total[0, worst])
        disc = math.sqrt(split)
        plus = min(max((total + disc) / 2.0 / total, 1e-300), 1.0)
        minus = min(max((total - disc) / 2.0 / total, 1e-300), 1.0)
        lam = np.array([plus, minus])
        terms = lam * np.log2(lam)
        return -float(terms[0] + terms[1])

    def residuals(taus: np.ndarray) -> np.ndarray:
        out = np.empty(len(taus))
        rows = min(len(taus), _SCAN_CHUNK)
        moments = np.empty((3, rows, _PROBES.shape[1]), dtype=complex)
        coh = np.empty(moments.shape[1:])
        work = np.empty((2,) + coh.shape)
        for start in range(0, len(taus), _SCAN_CHUNK):
            chunk = taus[start:start + _SCAN_CHUNK]
            n = len(chunk)
            phases = _phases(levels, chunk)
            pairs = (phases.conj()[:, :, None] * phases[:, None, :]).reshape(-1, 9)
            up, down, cross = (np.matmul(pairs, g, out=m[:n])
                               for g, m in zip((g_up, g_down, g_coh), moments))
            np.square(np.abs(cross, out=coh[:n]), out=coh[:n])
            out[start:start + n] = _residual_bits(up.real, down.real,
                                                  coh[:n], work[:, :n])
        return out

    residuals.at = at
    return residuals


def _minimize_bounded(func, bounds: tuple, xatol: float) -> tuple:
    """(x, func(x)) at a local minimum of `func` on the closed `bounds`.

    Brent's bounded minimizer: golden-section steps, with a parabolic step
    whenever the last three points fit an acceptable parabola, until the
    bracket is within about `xatol` plus a relative term of the best point.
    A port of `_minimize_scalar_bounded` from SciPy's
    `scipy/optimize/_optimize.py` (BSD 3-clause license, Copyright (c)
    2001-2002 Enthought, Inc., 2003 SciPy Developers), which follows Forsythe,
    Malcolm & Moler, Computer Methods for Mathematical Computations (1977),
    `fmin`. It does the same float operations in the same order, so it
    returns the same x and value as `minimize_scalar(func, bounds=bounds,
    method="bounded", options={"xatol": xatol})`, bit for bit, within the
    same 500 evaluations.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = bounds
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # try a parabola through the last three points
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = -tol1 if xm - xf < 0 else tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        # a step of at least tol1, in the direction of rat (+ for rat = 0)
        x = xf - max(abs(rat), tol1) if rat < 0 else xf + max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx


def sfg_gate(j1_mev: float, j2_mev: float, tau_range: tuple = None, *,
             residual_threshold: float = 1e-6) -> GateReport:
    """Find an interval that disentangles the control and entangles the qubits.

    The trio is the control, spin 0, coupled to qubit 1 by `j1_mev` and to
    qubit 2 by `j2_mev` (both finite and nonzero), with no qubit-qubit and
    no Zeeman term. Scans tau over `tau_range` (default up to two of the
    slowest exchange periods) in steps of 1e-3 * pi*hbar/max|J|, or finer,
    so that even a narrow range gets 200 steps; refines every near-clean
    interval within one step either side with `_minimize_bounded`, a port
    of SciPy's bounded Brent minimizer, and returns the clean one with the
    largest entangling power.
    If none gets below `residual_threshold`, raises NoCleanGateError
    carrying the best candidate. `tau_range` must be two finite real bounds
    (lo, hi) with hi > max(lo, 0), and `residual_threshold` a finite real
    above 0; a string or a bool is neither, and PreconditionError is raised.

    The trio's levels and projectors are computed once per search. The
    coarse scan and the refine score tau through them: the control's
    populations and coherence are quadratic forms in the three level
    phases, tabulated once per search in `_residual_scan`'s Gram tables and
    shared by the scan's chunks and the refine, so each tau point is a
    9-term phase product per moment. Grid points are scored in fixed-size
    chunks, so memory stays bounded for any grid length, and the refine's
    points one at a time by the scan's lone scorer `at`. The reported gate
    is the control-up block of the same U(tau).

    Only screened points are scored. The |down down> probe's entropy H2(q),
    q = min(p, 1 - p), bounds the worst-probe residual from below at every
    grid point, in closed form. H2 rises with q, so "H2(q) below a level
    (plus 1e-9 for rounding)" is "q below a cut", found once per level by
    bisection; q comes by angle addition from the cosines of the grid's
    block starts and in-block offsets, as one small matrix product per
    search (`_down_down_q`). No cosine or log is taken per point, only 6
    multiply-adds. The angle addition moves the entropy by at most 3.0e-12
    bits, far inside the 1e-9 margin, and the cut is padded outward
    besides, so the screen admits every point the exact bound admits, and
    rarely a few more. The 36 probes are scored only at
    admitted points; the others stand as +inf. The level starts at 1e-2,
    the refine threshold: any point whose true residual is below it is
    scored, and an unscored neighbour's true residual is above it, so every
    dip below 1e-2 and every comparison with its neighbours comes out as on
    the fully scored grid. Dips are looked for among the admitted points
    only, since an unscored point is no dip below the level.

    While no dip lies below the level, it rises eightfold, and only the
    deepest dip will be refined. A raised level scores its newly admitted
    points best first: in increasing q, the order of their bound, 32 first
    and then every one whose q lies below the cut of the deepest dip below
    the level found so far, until none is left. A point left unscored then
    has a bound above that dip, so it is neither a deeper dip nor a lower
    neighbour of one, and the dip found is the fully scored grid's deepest,
    the first of equal ones included. With no dip below the level once every
    admitted point is scored, the level rises again. The selection is
    therefore that of the full grid, and so are the scored values: a lone
    point would take a matrix-vector product, which rounds apart from the
    matrix-matrix one of a chunk of the full grid, so it is scored as a
    doubled row. The refine's points, which no grid holds, take the
    matrix-vector product in `at`, row by row, and round as a one-row chunk
    of the scan would.

    A grid of more than `_MAX_GRID_POINTS` points raises PreconditionError
    before anything is allocated.

    The search is a pure function of its checked arguments, so whole
    searches are kept in an LRU of `_CACHE_SEARCHES` (256) calls,
    `_gate_search`, keyed by the Python floats (j1, j2, lo, hi,
    residual_threshold). `tau_range=None` and the default range given
    explicitly share one entry, and so do lo = -0.0 and lo = 0.0. The
    argument checks run on every call and nothing is cached for a call they
    refuse. The report returned, hit or miss, is the cached one, so its
    `qubit_unitary` is shared and read-only: copy it before writing to it. A
    search with no clean interval caches its best candidate, and every call
    raises a fresh NoCleanGateError whose message is built from the call's
    own range and threshold. Only a search repeated with equal arguments in
    one process gains; an LRU gets no hit on a cycle of more distinct
    searches than its bound.
    """
    j1, j2 = _trio_couplings(j1_mev, j2_mev)
    if tau_range is None:
        tau_range = (0.0, 4.0 * math.pi * HBAR_MEV_PS / min(abs(j1), abs(j2)))
    try:
        lo, hi = tau_range
    except (TypeError, ValueError):
        raise PreconditionError(
            f"tau range must be two bounds, got {tau_range!r}") from None
    lo = finite(lo, "tau range lower bound", PreconditionError)
    hi = finite(hi, "tau range upper bound", PreconditionError)
    if hi <= lo or hi <= 0:
        raise PreconditionError("tau range must be a forward interval")
    threshold = finite(residual_threshold, "residual_threshold", PreconditionError)
    if threshold <= 0:
        raise PreconditionError("residual_threshold must be positive")
    step = _grid_step(j1, j2, lo, hi)
    points = math.ceil((hi - max(lo, step)) / step)
    if points > _MAX_GRID_POINTS:
        raise PreconditionError(
            f"tau range ({lo:.4g}, {hi:.4g}) ps needs {points} grid points, "
            f"more than the limit of {_MAX_GRID_POINTS}")
    report, clean = _gate_search(j1, j2, lo, hi, threshold)
    if not clean:
        raise NoCleanGateError(
            f"no entangling interval in ({lo:.4g}, {hi:.4g}) ps brings the "
            f"control residual below {threshold:g} bits "
            f"(best {report.control_residual_entanglement:.3g} at "
            f"{report.duration_ps:.4g} ps)",
            best_candidate=report,
        )
    return report


def _grid_step(j1: float, j2: float, lo: float, hi: float) -> float:
    """The gate search's tau step over (lo, hi): 1e-3 * pi*hbar/max|J|, or
    finer, so that even a narrow range gets 200 steps."""
    return min(1e-3 * math.pi * HBAR_MEV_PS / max(abs(j1), abs(j2)), (hi - lo) / 200.0)


@functools.lru_cache(maxsize=_CACHE_SEARCHES)
def _gate_search(j1: float, j2: float, lo: float, hi: float, threshold: float) -> tuple:
    """`sfg_gate`'s search over its checked arguments: (the gate, True), or
    (the best candidate, False) when no interval is clean. Each report's
    unitary is read-only, since every hit shares it. lo = -0.0 and lo = 0.0
    share an entry: the sign of a zero lo reaches no bit of the search, whose
    grid starts one step up and never refines its first point when lo <= 0."""
    levels, projectors = _trio_levels(j1, j2)
    resolution_ps = _grid_step(j1, j2, lo, hi)
    start = max(lo, resolution_ps)
    residuals = _residual_scan(levels, projectors)
    taus = np.arange(start, hi, resolution_ps)
    if len(taus) == 0:
        taus = np.array([0.5 * (lo + hi)])

    # score only the points whose |down down> q admits them below the level;
    # the rest stand as +inf, between the two +inf pads of `padded`. A dip
    # below the level is then a dip of the full grid, so the level rises
    # only until the deepest dip lies below it
    q = _down_down_q(levels, projectors, taus)
    padded = np.full(len(taus) + 2, np.inf)
    coarse = padded[1:-1]

    def score(points):
        # a lone row would take the matrix-vector product, which rounds
        # apart from the matrix-matrix one of every other point: double it
        rows = np.repeat(points, 2) if len(points) == 1 else points
        coarse[points] = residuals(taus[rows])[:len(points)]

    def dips_among(at):
        values = coarse[at]
        dips = at[(values <= padded[at]) & (values <= padded[at + 2])]
        if lo <= 0.0 and len(dips) and dips[0] == 0:
            dips = dips[1:]  # the ramp out of the identity at tau -> 0, not a dip
        return dips

    level = _SCREEN_LEVEL
    while True:
        cut = _entropy_cut(level + _SCREEN_MARGIN)
        at = np.flatnonzero(q < cut)
        admit = at[np.isinf(coarse[at])]
        if level == _SCREEN_LEVEL:
            score(admit)
        else:
            # best first: in increasing q, the order of the points' bounds,
            # until no unscored point can lie below the deepest dip found
            order = admit[np.argsort(q[admit], kind="stable")]
            ranked = q[order]
            done, end = 0, min(_FIRST_BATCH, len(order))
            while end > done:
                score(order[done:end])
                done = end
                dips = dips_among(at)
                depths = coarse[dips]
                depths = depths[depths < level]
                bound = (_entropy_cut(float(np.min(depths)) + _SCREEN_MARGIN)
                         if len(depths) else math.inf)
                end = int(np.searchsorted(ranked, bound))
        dips = dips_among(at)
        if len(at) == len(taus):
            break
        dips = dips[coarse[dips] < level]
        if len(dips):
            break
        level *= 8.0

    # refine every dip that could plausibly reach the threshold; failing
    # that, at least the deepest one, so the best-candidate report is real
    refine = [int(k) for k in dips if coarse[k] < _SCREEN_LEVEL]
    if not refine and len(dips):
        refine = [int(dips[np.argmin(coarse[dips])])]

    candidates = []
    for k in refine:
        x, fx = _minimize_bounded(
            residuals.at,
            (max(lo, taus[k] - resolution_ps), min(hi, taus[k] + resolution_ps)),
            xatol=resolution_ps * 1e-9,
        )
        candidates.append((float(x), float(fx)))
    if not candidates:
        k = int(np.argmin(coarse))
        candidates.append((float(taus[k]), float(coarse[k])))

    def report_at(tau, residual):
        M = _trio_propagator(levels, projectors, tau)[_UP, _UP]
        # report the unitary part (polar projection); for a clean interval
        # this is M itself to machine precision, and the non-unitary part is
        # already accounted for by the residual entanglement field
        gate = unitary_part(M)
        gate.flags.writeable = False
        return GateReport(
            duration_ps=tau,
            qubit_unitary=gate,
            control_residual_entanglement=residual,
            entangling_power=entangling_power(gate),
        )

    reports = [report_at(tau, r) for tau, r in candidates]
    # the identity (tau -> 0, or a full revival) has zero residual but is
    # not a gate; a candidate has to actually entangle to qualify
    gates = [rep for rep in reports if rep.entangling_power > _EP_FLOOR]
    clean = [rep for rep in gates
             if rep.control_residual_entanglement < threshold]
    if not clean:
        pool = gates or reports
        return min(pool, key=lambda rep: rep.control_residual_entanglement), False
    # quantized so the shorter of two equal-power intervals wins the tie
    return max(clean, key=lambda rep: (round(rep.entangling_power, 9),
                                       -rep.duration_ps)), True
