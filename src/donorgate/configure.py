"""Simulated configuration of a gate cluster: the EPR-vs-optical scan,
adjacency inference from it, and gate-time calibration.

The measurement model: sweep an optical frequency; any control whose
transition lies within the homogeneous width of it is excited. While a
control is excited, every qubit EPR line coupled to it splits into two
components displaced by half the coupling (both signs, equal weight, so m
simultaneously excited couplings fan a line into 2^m components). Rows are
sums of unit-height Lorentzians over the EPR axis. The scan is rendered from
the controls' optical lines and the integrals stage's excited-state J, a
(controls x qubits) array in the scenario's placement order; every model
it is rendered with is the scenario's own (`scenario.spectral`,
`scenario.epr`), and the map carries the instrument settings it was taken
with: the EPR line position of each qubit label, the EPR linewidth and the
homogeneous width. Inference reads the map back
without touching ground truth: resonance positions from the rows whose
deviation from the baseline spectrum steps up, couplings from the splitting
of each vanished EPR line. Calibration times one control's gate from the
resonance the caller attributed to that control (the feasibility pipeline
gives each resonance to the control with the nearest line) and scores it
against that control's row of the true J.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DependencyError, InvalidSpecError, NoCleanGateError,
                     PreconditionError, finite, finite_matrix, sorted_pairs,
                     store_finite)
from .spins import (GateReport, gate_fidelity, induced_qubit_block, sfg_gate,
                    unitary_part)
# bench/tracing.py counts calls under this module's name; the calibration
# needs the block alone, so none are made from here
from .spins import induced_qubit_operator  # noqa: F401

# beyond this many simultaneously split couplings the 2^m fan is truncated
# to the strongest ones; far outside any configuration of interest
_MAX_SPLIT = 12

# s + s is finite, so (s + s)/2 == s, for every float s up to this
_HALF_MAX = float(np.finfo(float).max) / 2.0


@dataclass(frozen=True)
class EprModel:
    """EPR measurement parameters: Lorentzian linewidth (FWHM) and how the
    per-qubit Zeeman offsets are fixed (explicit values, or a Gaussian FWHM
    spread sampled by the owning scenario)."""

    linewidth_mev: float
    zeeman_offsets_mev: tuple = None  # ((label, meV), ...) explicit, by label
    zeeman_spread_fwhm_mev: float = None

    def __post_init__(self):
        store_finite(self, "linewidth_mev", "zeeman_spread_fwhm_mev")
        if self.linewidth_mev <= 0:
            raise InvalidSpecError("EPR linewidth must be positive")
        if self.zeeman_offsets_mev is None and self.zeeman_spread_fwhm_mev is None:
            raise InvalidSpecError("give explicit zeeman offsets or a spread")
        if self.zeeman_offsets_mev is not None:
            object.__setattr__(self, "zeeman_offsets_mev", sorted_pairs(
                self.zeeman_offsets_mev, lambda v: finite(v, "zeeman offset")))


@dataclass(frozen=True, eq=False)
class ScanMap:
    """EPR response versus optical excitation frequency, stamped with the
    instrument settings it was rendered with: `epr_lines_mev` is the
    ((qubit label, EPR line position), ...) table that names the lines, and
    the EPR linewidth and homogeneous width are FWHM in meV.

    A row depends only on which controls its frequency excites, so a scan
    has few distinct rows: each is stored once in `spectra` (one row per
    distinct spectrum, one column per EPR point) and `row_spectrum` gives the
    spectrum of each optical row. `response` builds the dense (optical, epr)
    map from them on demand.
    """

    optical_axis_mev: np.ndarray
    epr_axis_mev: np.ndarray
    spectra: np.ndarray
    row_spectrum: np.ndarray
    epr_lines_mev: tuple
    epr_linewidth_mev: float
    homogeneous_fwhm_mev: float

    def __post_init__(self):
        object.__setattr__(self, "optical_axis_mev",
                           np.asarray(self.optical_axis_mev, dtype=float))
        object.__setattr__(self, "epr_axis_mev",
                           np.asarray(self.epr_axis_mev, dtype=float))
        object.__setattr__(self, "spectra", np.asarray(self.spectra, dtype=float))
        index = np.asarray(self.row_spectrum)
        if index.size and index.dtype.kind not in "iu":
            raise InvalidSpecError("row_spectrum must hold integer indices")
        object.__setattr__(self, "row_spectrum", index.astype(np.intp))
        if (self.spectra.ndim != 2
                or self.spectra.shape[1] != len(self.epr_axis_mev)):
            raise InvalidSpecError("spectra shape must be (spectrum, epr)")
        if self.row_spectrum.shape != self.optical_axis_mev.shape:
            raise InvalidSpecError("row_spectrum needs one index per optical row")
        if np.any((self.row_spectrum < 0)
                  | (self.row_spectrum >= len(self.spectra))):
            raise InvalidSpecError("row_spectrum indexes past the spectra")
        # NaN fails no `<` test, so finiteness is checked first
        if not np.all(np.isfinite(self.spectra)):
            raise InvalidSpecError("response must be finite")
        if np.any(self.spectra < 0):
            raise InvalidSpecError("response must be non-negative")
        for axis in (self.optical_axis_mev, self.epr_axis_mev):
            if not np.all(np.isfinite(axis)):
                raise InvalidSpecError("axes must be finite")
            if len(axis) > 1 and np.any(np.diff(axis) <= 0):
                raise InvalidSpecError("axes must be strictly increasing")
        for position in dict(self.epr_lines_mev).values():
            finite(position, "EPR line position")
        store_finite(self, "epr_linewidth_mev", "homogeneous_fwhm_mev")
        if self.epr_linewidth_mev <= 0 or self.homogeneous_fwhm_mev <= 0:
            raise InvalidSpecError("EPR linewidth and homogeneous width must be positive")

    @property
    def response(self) -> np.ndarray:
        """The dense (optical, epr) map, built on each call; read-only."""
        dense = self.spectra[self.row_spectrum]
        dense.flags.writeable = False
        return dense

    def to_rows(self):
        """Header plus one row per optical frequency, for CSV export."""
        header = ["optical_mev"] + [f"epr_{v:.6g}" for v in self.epr_axis_mev]
        cells = [[f"{x:.9g}" for x in spectrum] for spectrum in self.spectra]
        rows = [[f"{f:.9g}"] + cells[k]
                for f, k in zip(self.optical_axis_mev, self.row_spectrum)]
        return header, rows


def _lorentzian(axis: np.ndarray, center: float, fwhm: float) -> np.ndarray:
    half = 0.5 * fwhm
    return half * half / ((axis - center) ** 2 + half * half)


def simulate_scan(scenario, lines, excited) -> ScanMap:
    """Render the two-dimensional configuration scan for a scenario.

    `lines` are the controls' optical lines (`TransitionLine`s) and
    `excited` is the excited-state exchange in meV as the integrals stage
    returns it: a (controls x qubits) array in `scenario.controls()` x
    `scenario.qubits()` order, 0 where a pair is uncoupled. Another array
    (see `errors.finite_matrix`) or a line that names no control raises
    PreconditionError. The spectral and EPR models and the qubits' EPR line
    positions come from the scenario. The optical axis covers every line
    within 4 homogeneous widths (step delta_h/4), the EPR axis every
    component within 8 linewidths (step linewidth/5); a qubit's couplings
    are summed in control label order.

    A row excites the controls whose line lies within delta_h of its
    frequency, |E - f| <= delta_h, taken for every row and line in one
    boolean (row, line) table. Each distinct row of that table, a set of
    excited controls, is rendered once into the map's `spectra`, numbered
    in the order the optical rows first reach it, and every optical row
    gets the index of its set's spectrum; the dense map is never allocated.
    """
    delta_h = scenario.spectral.homogeneous_fwhm_mev
    gamma = scenario.epr.linewidth_mev

    controls = [c for c, _ in scenario.controls()]
    qubits = [q for q, _ in scenario.qubits()]
    excited = finite_matrix(excited, (len(controls), len(qubits)), "exchange matrix")
    line_of = {line.gate_id: line.energy_mev for line in lines}
    if not line_of.keys() <= set(controls):
        raise PreconditionError(f"lines {sorted(line_of.keys() - set(controls))} name no control")
    epr_lines = scenario.qubit_epr_offsets()

    energies = [*line_of.values()] or [scenario.spectral.base_transition_mev]
    optical_axis = np.arange(min(energies) - 4.0 * delta_h,
                             max(energies) + 4.0 * delta_h, delta_h / 4.0)

    # each qubit's nonzero couplings as (control, J), in control label order
    column = dict(zip(qubits, excited.T.tolist()))
    coupled = [[(c, j) for c, j in sorted(zip(controls, column[q])) if j != 0.0]
               for q, _ in epr_lines]

    span = max((abs(off) + sum(abs(j) for _, j in pairs) / 2.0
                for (_, off), pairs in zip(epr_lines, coupled)), default=0.0) + 8.0 * gamma
    epr_axis = np.arange(-span, span, gamma / 5.0)

    def render(on):
        row = np.zeros_like(epr_axis)
        for (_, base), pairs in zip(epr_lines, coupled):
            split = sorted((j for c, j in pairs if c in on),
                           key=abs, reverse=True)[:_MAX_SPLIT]
            weight = 1.0 / (1 << len(split))
            for signs in itertools.product((0.5, -0.5), repeat=len(split)):
                shift = sum(s * j for s, j in zip(signs, split))
                row += weight * _lorentzian(epr_axis, base + shift, gamma)
        return row

    # a row depends only on which controls are excited, and most rows of a
    # scan share one of a few such sets: render each set once
    labels = list(line_of)
    lit = np.abs(np.array(list(line_of.values()), dtype=float)
                 - optical_axis[:, None]) <= delta_h
    sets, first, row_set = np.unique(lit, axis=0, return_index=True,
                                     return_inverse=True)
    # number the sets in the order the rows first reach them
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    row_spectrum = number[row_set.reshape(-1)]
    spectra = np.array([render({labels[c] for c in np.flatnonzero(s)})
                        for s in sets[order]]).reshape(len(sets), len(epr_axis))
    return ScanMap(optical_axis, epr_axis, spectra, row_spectrum, epr_lines,
                   gamma, delta_h)


@dataclass(frozen=True)
class ControlHypothesis:
    optical_energy_mev: float
    couplings: tuple  # ((qubit_label, J_mev), ...)
    ambiguous: bool = False


@dataclass(frozen=True)
class AdjacencyHypothesis:
    entries: tuple
    detection_threshold_mev: float


def _find_peaks(values: np.ndarray, height: float, prominence: float) -> np.ndarray:
    """Indices of the peaks of `values` at least `height` high and at least
    `prominence` prominent, in increasing order.

    The definitions are those of `scipy.signal.find_peaks(values,
    height=height, prominence=prominence)`, which returns the same indices.
    A peak is a run of equal samples higher than the samples on both sides
    of it, so a run at either end is not one; it is placed at the middle
    of the run, rounding down. Its prominence is its height above the
    higher of its two bases, each base the lowest sample between the peak
    and the nearest strictly higher sample on that side (or the end of
    the array). A peak's run and every sample higher than it are at least
    `height`, so only those samples are searched.
    """
    x = np.asarray(values, dtype=float)
    n = len(x)
    idx = np.flatnonzero(x >= height)
    v = x[idx]
    before = x[np.maximum(idx - 1, 0)]
    after = x[np.minimum(idx + 1, n - 1)]
    # the first and last sample of each run of equal samples, pairwise
    first = np.flatnonzero((idx == 0) | (before != v))
    last = np.flatnonzero((idx == n - 1) | (after != v))
    top = (before[first] < v[first]) & (after[last] < v[last])
    keep = []
    for k in (idx[first] + idx[last])[top] // 2:
        higher = idx[v > x[k]]
        j = np.searchsorted(higher, k)
        lo = higher[j - 1] + 1 if j else 0
        hi = higher[j] if j < len(higher) else n
        if x[k] - max(x[lo:k + 1].min(), x[k:hi].min()) >= prominence:
            keep.append(k)
    return np.array(keep, dtype=np.intp)


def _peak_positions(axis: np.ndarray, values: np.ndarray, floor: float) -> list:
    """Sub-sample peak centers by parabolic refinement of local maxima.

    A peak has a lower sample on each side, so it is never at either end.
    The refinement runs on Python floats: the same IEEE operations as on
    numpy scalars, so the same values, without their per-operation cost.
    """
    out = []
    for k in _find_peaks(values, floor, floor / 2.0).tolist():
        before, at, after = values[k - 1:k + 2].tolist()
        denom = before - 2.0 * at + after
        frac = 0.5 * (before - after) / denom if denom != 0 else 0.0
        out.append(float(axis[k]) + min(max(frac, -1.0), 1.0)
                   * (float(axis[1]) - float(axis[0])))
    return out


def _baseline(spectra: np.ndarray, row_spectrum: np.ndarray) -> tuple:
    """The elementwise median row of the map and each row's deviation from it.

    Equal to `np.median(response, axis=0)` and `np.sum(np.abs(response -
    baseline), axis=1)` on the dense map, bit for bit, for N optical rows
    and K distinct spectra of M points, taken in one of two ways.

    The majority rule, O(K * M): if one spectrum s is used by c rows with
    2c > N, it is the median. Its rows hold the c consecutive ranks b to
    b + c - 1 of each column, whatever the ties, with b <= N - c. The median
    reads ranks ceil(N/2) - 1 and floor(N/2) (one rank for odd N), and the
    block holds both: b <= N - c < N/2, and b + c - 1 >= c - 1 >= floor(N/2)
    as c > N/2. For even N the median is (s + s)/2, which is s exactly while
    s + s does not overflow, that is while s is at most half the largest
    float. The baseline is then a copy of s, its rows deviate by exactly 0,
    and only the other spectra are summed. This is the scan
    `infer_adjacency` expects, where most frequencies excite nothing:
    table1's scan uses its spectra 204, 8 and 8 times over 220 rows.

    Otherwise, 2c = N included, `_ranked_median` selects the median by rank
    counting in O(K^2 * M).
    """
    counts = np.bincount(row_spectrum, minlength=len(spectra))
    n_rows = len(row_spectrum)
    summed = np.flatnonzero(counts)
    major = int(np.argmax(counts)) if n_rows else None
    if (n_rows and 2 * counts[major] > n_rows
            and (n_rows % 2 or spectra[major].max() <= _HALF_MAX)):
        baseline = spectra[major].copy()
        summed = summed[summed != major]
    else:
        baseline = _ranked_median(spectra, counts, n_rows)
    # the baseline and one row's deviation are each a single row: 122 kB at
    # a table1 scan's 15 294 points, under glibc's 128 KiB mmap threshold,
    # so neither is mapped and page-faulted afresh on every call
    gap = np.empty(spectra.shape[1])
    deviation = np.zeros(len(spectra))
    for k in summed:
        deviation[k] = np.sum(np.abs(np.subtract(spectra[k], baseline, out=gap), out=gap))
    return baseline, deviation[row_spectrum]


def _ranked_median(spectra: np.ndarray, counts: np.ndarray, n_rows: int) -> np.ndarray:
    """The elementwise median of the rows, spectrum k used by `counts[k]`
    of the `n_rows` rows, by rank counting over the distinct spectra.

    Spectrum k, used by c_k rows, holds the ranks below_k to below_k + c_k
    - 1 of each column, where below_k counts the rows of the spectra j < k
    with s_j <= s_k and of the spectra j > k with s_j < s_k: the tie order a
    stable sort of the dense column gives. The median is the element of
    rank N//2 (the mean of ranks N//2-1 and N//2 for even N), so it is only
    selected.

    Each used spectrum is compared with each other one, so the cost grows
    as K^2 * M for K spectra of M points. A frequency sweep crosses two
    window edges per line, so a scan of L lines has at most 2L + 1 spectra.
    """
    used = np.flatnonzero(counts)
    ranks = (n_rows // 2,) if n_rows % 2 else (n_rows // 2 - 1, n_rows // 2)
    picked = [np.empty(spectra.shape[1]) for _ in ranks]
    for k in used:
        below = np.zeros(spectra.shape[1], dtype=np.intp)
        for j in used[used != k]:
            ahead = spectra[j] <= spectra[k] if j < k else spectra[j] < spectra[k]
            np.add(below, counts[j], out=below, where=ahead)
        for value, r in zip(picked, ranks):
            np.copyto(value, spectra[k], where=(below <= r) & (r < below + counts[k]))
    return picked[0] if n_rows % 2 else (picked[0] + picked[1]) / 2.0


def infer_adjacency(scan: ScanMap,
                    detection_threshold_mev: float) -> AdjacencyHypothesis:
    """Recover which optical resonances move which EPR lines, and by how much.

    Works purely from the map and the settings stamped on it: the baseline
    spectrum is the elementwise median row, taken over the map's distinct
    spectra weighted by how many rows use each. Most frequencies excite
    nothing, so one spectrum is usually used by more than half the rows;
    that spectrum holds both middle ranks of every column, whatever the
    ties, so it is the median and is taken in O(K * M) for K spectra of M
    points (`_baseline`). Without such a majority, exactly half included,
    the median is selected by rank counting in O(K^2 * M). Each control
    occupies a window of full width 2*delta_h in which rows deviate, so
    rising steps of the row deviation locate transitions at (step edge) +
    delta_h; the splitting of a vanished EPR line in the window's exclusive
    row is the coupling, labelled by the nearest stamped EPR line. Estimated
    couplings below the detection threshold are dropped. Resonances closer
    than delta_h to a neighbor are flagged ambiguous.
    """
    if finite(detection_threshold_mev, "detection threshold", PreconditionError) <= 0:
        raise PreconditionError("detection threshold must be positive")
    optical = scan.optical_axis_mev
    epr = scan.epr_axis_mev
    step_epr = epr[1] - epr[0] if len(epr) > 1 else 1.0
    gamma = scan.epr_linewidth_mev
    delta_h = scan.homogeneous_fwhm_mev
    epr_lines = dict(scan.epr_lines_mev)

    if not len(optical) or not len(epr):
        return AdjacencyHypothesis((), detection_threshold_mev)
    baseline, deviation = _baseline(scan.spectra, scan.row_spectrum)
    top = float(np.max(deviation))
    if top <= 0:
        return AdjacencyHypothesis((), detection_threshold_mev)

    # rising steps of the (piecewise-constant) deviation profile
    jumps = np.flatnonzero(np.diff(deviation) > 0.05 * top) + 1
    energies = [float(0.5 * (optical[k - 1] + optical[k]) + delta_h)
                for k in jumps]

    base_floor = 0.12 * float(np.max(baseline))
    base_peaks = _peak_positions(epr, baseline, base_floor)
    keep_tol = max(2.0 * step_epr, gamma / 2.0, detection_threshold_mev / 6.0)
    mid_tol = max(3.0 * step_epr, gamma / 2.0)

    entries = []
    for k, energy in enumerate(energies):
        row = scan.spectra[scan.row_spectrum[np.argmin(np.abs(optical - energy))]]
        row_peaks = _peak_positions(epr, row, 0.12 * float(np.max(row)))
        vanished = [z for z in base_peaks
                    if not any(abs(p - z) <= keep_tol for p in row_peaks)]
        new = [p for p in row_peaks
               if not any(abs(p - z) <= keep_tol for z in base_peaks)]

        couplings = []
        used = set()
        for z in vanished:
            pair = None
            best = mid_tol
            for a, b in itertools.combinations(
                    (p for p in new if p not in used), 2):
                lo, hi = min(a, b), max(a, b)
                err = abs(0.5 * (lo + hi) - z)
                if lo < z < hi and err < best:
                    best, pair = err, (lo, hi)
            if pair is not None:
                used.update(pair)
                coupling = pair[1] - pair[0]
            else:
                # split partner hidden under another line: use the near side
                free = [p for p in new if p not in used]
                if not free:
                    continue
                p = min(free, key=lambda p: abs(p - z))
                used.add(p)
                coupling = 2.0 * abs(p - z)
            if coupling >= detection_threshold_mev:
                couplings.append((z, coupling))

        labeled = [(min(epr_lines, key=lambda l: abs(epr_lines[l] - z)),
                    float(coupling)) for z, coupling in couplings]
        near = any(abs(energy - other) < delta_h
                   for m, other in enumerate(energies) if m != k)
        entries.append(ControlHypothesis(energy, tuple(sorted(labeled)),
                                         ambiguous=near))
    return AdjacencyHypothesis(tuple(entries), detection_threshold_mev)


def calibrate_gate_time(entry: ControlHypothesis, row, qubit_labels) -> GateReport:
    """Pick the gate interval from one inferred resonance and score it.

    `entry` is the resonance attributed to one control; its two strongest
    inferred couplings name the qubits and time the gate (what an
    experiment would know). `row` is that control's row of the true
    excited-state J, as `simulate_scan` takes it, and `qubit_labels` name
    its columns; a named qubit with no nonzero J there raises
    DependencyError. Fidelity is the overlap between the gate the true
    system realizes at the chosen interval and the gate it would realize if
    calibrated from the true couplings directly.
    """
    ranked = sorted(entry.couplings, key=lambda c: abs(c[1]), reverse=True)
    if len(ranked) < 2:
        raise PreconditionError(
            f"calibration needs two coupled qubits, inference found {len(ranked)}")
    (qa, ja_inferred), (qb, jb_inferred) = ranked[:2]
    try:
        inferred_report = sfg_gate(ja_inferred, jb_inferred)
    except NoCleanGateError as err:
        # generic coupling ratios have no exactly clean interval; run the
        # gate at the best dip, as the bench procedure would
        inferred_report = err.best_candidate
    tau = inferred_report.duration_ps

    true = dict(zip(qubit_labels, np.asarray(row, dtype=float).tolist()))
    ja_true, jb_true = true.get(qa, 0.0), true.get(qb, 0.0)
    if ja_true == 0.0 or jb_true == 0.0:
        raise DependencyError("ground-truth couplings missing for fidelity scoring")
    try:
        target_unitary = sfg_gate(ja_true, jb_true, (0.7 * tau, 1.3 * tau)).qubit_unitary
    except NoCleanGateError as err:
        target_unitary = err.best_candidate.qubit_unitary
    realized = induced_qubit_block(ja_true, jb_true, tau)
    # compare gates, not raw blocks: at a best-dip interval the induced block
    # carries a small non-unitary part that is not a calibration error
    realized_gate = unitary_part(realized)

    return replace(inferred_report,
                   fidelity_to_target=gate_fidelity(realized_gate, target_unitary),
                   qubit_labels=(qa, qb))
