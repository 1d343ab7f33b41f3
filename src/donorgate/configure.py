"""Simulated configuration of a gate cluster: the EPR-vs-optical scan,
adjacency inference from it, and gate-time calibration.

The measurement model: sweep an optical frequency; any control whose
transition lies within the homogeneous width of it is excited. While a
control is excited, every qubit EPR line coupled to it splits into two
components displaced by half the coupling (both signs, equal weight, so m
simultaneously excited couplings fan a line into 2^m components). Rows are
sums of unit-height Lorentzians over the EPR axis. The scan is rendered from
the controls' optical lines and the couplings keyed by (control label,
qubit label); every model it is rendered with is the scenario's own
(`scenario.spectral`, `scenario.epr`), and the map carries the instrument
settings it was taken with: the EPR line position of each qubit label, the
EPR linewidth and the homogeneous width. Inference reads the map back
without touching ground truth: resonance positions from the rows whose
deviation from the baseline spectrum steps up, couplings from the splitting
of each vanished EPR line. Calibration times one control's gate from the
resonance the caller attributed to that control (the feasibility pipeline
gives each resonance to the control with the nearest line) and scores it
against the true couplings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DependencyError, InvalidSpecError, NoCleanGateError,
                     PreconditionError, finite, sorted_pairs, store_finite)
from .spins import (GateReport, gate_fidelity, induced_qubit_block, sfg_gate,
                    unitary_part)
# bench/tracing.py counts calls under this module's name; the calibration
# needs the block alone, so none are made from here
from .spins import induced_qubit_operator  # noqa: F401

# beyond this many simultaneously split couplings the 2^m fan is truncated
# to the strongest ones; far outside any configuration of interest
_MAX_SPLIT = 12


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
        if np.any(self.spectra < 0):
            raise InvalidSpecError("response must be non-negative")
        for axis in (self.optical_axis_mev, self.epr_axis_mev):
            if len(axis) > 1 and np.any(np.diff(axis) <= 0):
                raise InvalidSpecError("axes must be strictly increasing")

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


def simulate_scan(scenario, lines, couplings) -> ScanMap:
    """Render the two-dimensional configuration scan for a scenario.

    `lines` are the controls' optical lines (`TransitionLine`s) and
    `couplings` maps (control label, qubit label) to the excited-state
    exchange in meV, as the pipeline's integrals stage keys it; pairs it
    omits are uncoupled. The spectral and EPR models and the qubits' EPR
    line positions come from the scenario. The optical axis covers every
    line within 4 homogeneous widths (step delta_h/4), the EPR axis every
    component within 8 linewidths (step linewidth/5). Each distinct set of
    excited controls is rendered once into the map's `spectra`, and every
    optical row gets the index of its set's spectrum; the dense map is
    never allocated.
    """
    delta_h = scenario.spectral.homogeneous_fwhm_mev
    gamma = scenario.epr.linewidth_mev

    line_of = {line.gate_id: line.energy_mev for line in lines}
    epr_lines = scenario.qubit_epr_offsets()
    offsets = dict(epr_lines)

    center = (min(line_of.values()), max(line_of.values())) if line_of else (
        scenario.spectral.base_transition_mev,) * 2
    optical_axis = np.arange(center[0] - 4.0 * delta_h,
                             center[1] + 4.0 * delta_h, delta_h / 4.0)

    per_qubit = {q: [] for q in offsets}
    for (c, q), j in sorted(couplings.items()):
        if q in per_qubit and j != 0.0:
            per_qubit[q].append((c, j))

    if offsets:
        reach = [abs(off) + sum(abs(j) for _, j in per_qubit[q]) / 2.0
                 for q, off in offsets.items()]
        span = max(reach) + 8.0 * gamma
    else:
        span = 8.0 * gamma
    epr_axis = np.arange(-span, span, gamma / 5.0)

    def render(excited):
        row = np.zeros_like(epr_axis)
        for q, base in offsets.items():
            split = sorted((j for c, j in per_qubit[q] if c in excited),
                           key=abs, reverse=True)[:_MAX_SPLIT]
            weight = 1.0 / (1 << len(split))
            for signs in itertools.product((0.5, -0.5), repeat=len(split)):
                shift = sum(s * j for s, j in zip(signs, split))
                row += weight * _lorentzian(epr_axis, base + shift, gamma)
        return row

    # a row depends only on which controls are excited, and most rows of a
    # scan share one of a few such sets: render each set once
    spectrum_of = {}
    row_spectrum = np.empty(len(optical_axis), dtype=np.intp)
    for i, freq in enumerate(optical_axis):
        excited = frozenset(c for c, e in line_of.items() if abs(e - freq) <= delta_h)
        row_spectrum[i] = spectrum_of.setdefault(excited, len(spectrum_of))
    spectra = np.array([render(excited) for excited in spectrum_of]).reshape(
        len(spectrum_of), len(epr_axis))
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
    """Sub-sample peak centers by parabolic refinement of local maxima."""
    idx = _find_peaks(values, floor, floor / 2.0)
    out = []
    for k in idx:
        if 0 < k < len(values) - 1:
            denom = values[k - 1] - 2.0 * values[k] + values[k + 1]
            frac = 0.5 * (values[k - 1] - values[k + 1]) / denom if denom != 0 else 0.0
            out.append(float(axis[k] + np.clip(frac, -1, 1) * (axis[1] - axis[0])))
        else:
            out.append(float(axis[k]))
    return out


def _baseline(spectra: np.ndarray, row_spectrum: np.ndarray) -> tuple:
    """The elementwise median row of the map and each row's deviation from it.

    Equal to `np.median(response, axis=0)` and `np.sum(np.abs(response -
    baseline), axis=1)` on the dense map, bit for bit, but taken over the
    distinct spectra: the median is the element of rank N//2 (the mean of
    ranks N//2-1 and N//2 for even N) of each column, with each spectrum
    counted once per row that uses it, and each spectrum's deviation is
    summed once.
    """
    n_rows = len(row_spectrum)
    order = np.argsort(spectra, axis=0, kind="stable")
    ranked = np.take_along_axis(spectra, order, axis=0)
    # rows at or below each ranked value, column by column
    seen = np.cumsum(np.bincount(row_spectrum, minlength=len(spectra))[order],
                     axis=0)
    columns = np.arange(spectra.shape[1])

    def at_rank(r):
        return ranked[np.sum(seen <= r, axis=0), columns]

    if n_rows % 2:
        baseline = at_rank(n_rows // 2)
    else:
        baseline = (at_rank(n_rows // 2 - 1) + at_rank(n_rows // 2)) / 2.0
    deviation = np.sum(np.abs(spectra - baseline), axis=1)[row_spectrum]
    return baseline, deviation


def infer_adjacency(scan: ScanMap,
                    detection_threshold_mev: float) -> AdjacencyHypothesis:
    """Recover which optical resonances move which EPR lines, and by how much.

    Works purely from the map and the settings stamped on it: the baseline
    spectrum is the elementwise median row (most frequencies excite
    nothing), taken over the map's distinct spectra weighted by how many
    rows use each; each control occupies a window of full width 2*delta_h in
    which rows deviate, so rising steps of the row deviation locate
    transitions at (step edge) + delta_h; the splitting of a vanished EPR
    line in the window's exclusive row is the coupling, labelled by the
    nearest stamped EPR line. Estimated couplings
    below the detection threshold are dropped. Resonances closer than delta_h
    to a neighbor are flagged ambiguous.
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


def calibrate_gate_time(entry: ControlHypothesis, control_id: str,
                        couplings: dict) -> GateReport:
    """Pick the gate interval from one inferred resonance and score it.

    `entry` is the resonance attributed to `control_id`; its two strongest
    inferred couplings name the qubits and time the gate (what an
    experiment would know). `couplings` holds the true excited-state
    exchange keyed by (control label, qubit label). Fidelity is the overlap
    between the gate the true system realizes at the chosen interval and
    the gate it would realize if calibrated from the true couplings directly.
    """
    ranked = sorted(entry.couplings, key=lambda c: abs(c[1]), reverse=True)
    if len(ranked) < 2:
        raise PreconditionError(
            f"control {control_id!r} needs two coupled qubits, "
            f"inference found {len(ranked)}")
    (qa, ja_inferred), (qb, jb_inferred) = ranked[:2]
    try:
        inferred_report = sfg_gate(ja_inferred, jb_inferred)
    except NoCleanGateError as err:
        # generic coupling ratios have no exactly clean interval; run the
        # gate at the best dip, as the bench procedure would
        inferred_report = err.best_candidate
    tau = inferred_report.duration_ps

    ja_true = couplings.get((control_id, qa), 0.0)
    jb_true = couplings.get((control_id, qb), 0.0)
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
