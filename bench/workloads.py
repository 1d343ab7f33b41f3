"""The three benchmark workloads: seeded inputs, one op each, and the check
applied to every op's output.

Each workload is a closed loop of one client: the next op starts when the
previous one has returned. Inputs come from the workload seed alone, so the
same seed gives the same op sequence; the program only sees the generated
inputs. Ops go through the public `donorgate` API.

- table1_report: the README quick start, `run_feasibility(table1)` plus
  `to_json()`. Almost all of its time is the `sfg_gate` search.
- curve_sweep: exchange and transfer curves for donor models drawn from
  continuous ranges, so every point misses the integral cache.
- patch_sweep: one random patch per op; the integral cache fills over the
  first patches and later patches run on cache hits.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("table1_report", "curve_sweep", "patch_sweep")

# the seed the reference outputs in reference/ were made with
DEFAULT_SEED = 0

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

EPSILON = 5.7
BINDING_EV = (0.35, 0.70)  # covers the fig2a (0.6 eV) and fig2b (0.4 eV) models
QUBIT_SCALE = (0.4, 1.0)
PATCH_CONCENTRATION = 0.003
PATCH_MIX = {"P": 0.4, "N": 0.6}

# floats in a checked output must match the reference this closely
REL_TOL = 1e-9
ABS_TOL = 1e-12


class Workload:
    """Inputs, op and output check of one workload.

    `inputs(seed)` yields op inputs forever. `run(inp)` is the timed op and
    returns the program's raw result. `normalize(inp, raw)` turns that into
    plain JSON data outside the timed region, and `problems(k, seed, inp,
    out)` lists what is wrong with op k's normalized output (empty when it
    passes).
    """

    def __init__(self, name: str, dg):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.dg = dg
        self._reference = None
        if name == "table1_report":
            self.scenario = dg.get_preset("table1")[1]
        elif name == "curve_sweep":
            self.exchange_grid = dg.get_preset("fig2a")[1].r_grid
            self.transfer_grid = dg.get_preset("fig3")[1].r_grid
        else:
            self.scenario = patch_scenario(dg)

    # -- inputs -----------------------------------------------------------

    def inputs(self, seed: int):
        """Op inputs: table1_report repeats one report seed, curve_sweep
        draws a donor pair per op and patch_sweep a patch seed per op."""
        rng = np.random.default_rng(seed)
        if self.name == "table1_report":
            report_seed = int(rng.integers(0, 2**31))
            while True:
                yield report_seed
        while True:
            if self.name == "curve_sweep":
                binding = float(rng.uniform(*BINDING_EV))
                scale = float(rng.uniform(*QUBIT_SCALE))
                yield donor_pair(self.dg, binding, scale)
            else:
                yield int(rng.integers(0, 2**31))

    # -- the timed op -----------------------------------------------------

    def run(self, inp):
        dg = self.dg
        if self.name == "table1_report":
            return dg.run_feasibility(self.scenario, seed=inp).to_json()
        if self.name == "curve_sweep":
            control, qubit = inp
            return (dg.exchange_curve(control, qubit, False, self.exchange_grid),
                    dg.exchange_curve(control, qubit, True, self.exchange_grid),
                    dg.transfer_splitting_curve(control, self.transfer_grid))
        return dg.patch_statistics(self.scenario, n_patches=1, seed=inp)

    # -- output -----------------------------------------------------------

    def normalize(self, inp, raw) -> dict:
        if self.name == "table1_report":
            return json.loads(raw)
        if self.name == "curve_sweep":
            control, qubit = inp
            ground, excited, transfer = raw
            return {
                "binding_ev": control.binding_energy_ev,
                "qubit_radius_a": qubit.ground_orbital_radius_a(),
                "ground": [_pair_row(p) for p in ground],
                "excited": [_pair_row(p) for p in excited],
                "transfer": [[float(t.separation_a), float(t.transfer_mev),
                              float(t.splitting_mev)] for t in transfer],
            }
        return raw.to_dict()

    def problems(self, k: int, seed: int, inp, out: dict) -> list:
        if self.name == "table1_report":
            found = [] if out.get("seed") == inp else [
                f"seed: {out.get('seed')!r} != {inp!r}"]
            body = {key: v for key, v in out.items() if key != "seed"}
            return found + compare(self.reference(), body)
        found = (curve_invariants(out, self.exchange_grid, self.transfer_grid)
                 if self.name == "curve_sweep" else patch_invariants(out, 1, inp))
        ref = self.reference()
        if seed == DEFAULT_SEED and k < len(ref):
            found += compare(ref[k], out, f"op{k}")
        return found

    def reference(self):
        if self._reference is None:
            self._reference = json.loads(
                (REFERENCE_DIR / f"{self.name}.json").read_text())
        return self._reference


def donor_pair(dg, binding_ev: float, qubit_scale: float):
    """(control, qubit) models as the fig2 presets build them, at any
    binding energy and qubit radius scale."""
    control = dg.model_from_ionization("P", binding_ev, EPSILON, role="control")
    qubit = dg.model_from_ionization("N", binding_ev, EPSILON, role="qubit",
                                     radius_scale_factor=qubit_scale, t1_s=1e-3)
    return control, qubit


def patch_scenario(dg):
    """table1's species placed at random: R = 40 A, c = 0.3 %, P:N = 0.4:0.6."""
    table1 = dg.get_preset("table1")[1]
    return dataclasses.replace(
        table1, name="patch_sweep", placements=None,
        lattice=dg.LatticeSpec(bounding_radius=40.0),
        random_placement=dg.RandomPlacementSpec(PATCH_CONCENTRATION, PATCH_MIX, 0))


def _pair_row(p) -> list:
    return [float(x) for x in (p.separation_a, p.overlap, p.transfer_mev, p.coulomb_mev,
                                p.exchange_integral_mev, p.exchange_splitting_mev)]


def digest(out: dict) -> str:
    """Short hash of a normalized output; equal outputs give equal hashes."""
    text = json.dumps(out, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def compare(ref, got, path: str = "") -> list:
    """Differences between two JSON values.

    Labels, booleans and integers must match exactly; floats within
    REL_TOL relative (ABS_TOL absolute, for values that are zero).
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return [f"{path}: keys differ"]
        return [d for key in sorted(ref) for d in compare(ref[key], got[key], f"{path}.{key}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{path}: length differs"]
        return [d for i, (r, g) in enumerate(zip(ref, got)) for d in compare(r, g, f"{path}[{i}]")]
    if isinstance(ref, float) and isinstance(got, (float, int)) and not isinstance(got, bool):
        if math.isclose(ref, got, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {got!r} != {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def curve_invariants(out: dict, exchange_grid, transfer_grid) -> list:
    """Checks that hold for any donor model."""
    found = []
    for branch in ("ground", "excited"):
        rows = out[branch]
        if [r[0] for r in rows] != list(exchange_grid):
            found.append(f"{branch}: separations differ from the grid")
        for r in rows:
            if not all(math.isfinite(x) for x in r):
                found.append(f"{branch} R={r[0]}: non-finite value")
            if not 0.0 < r[1] < 1.0:
                found.append(f"{branch} R={r[0]}: overlap {r[1]} outside (0, 1)")
    if [t[0] for t in out["transfer"]] != list(transfer_grid):
        found.append("transfer: separations differ from the grid")
    for r, t, split in out["transfer"]:
        if not (math.isfinite(split)
                and math.isclose(split, 2.0 * abs(t), rel_tol=REL_TOL, abs_tol=ABS_TOL)):
            found.append(f"transfer R={r}: splitting {split} != 2|{t}|")
    return found


def patch_invariants(out: dict, n_patches: int, seed: int) -> list:
    """Checks that hold for any patch seed."""
    found = []
    if out["n_patches"] != n_patches or out["seed"] != seed:
        found.append("n_patches or seed not echoed")
    for key in ("qubit_counts", "control_counts", "gate_counts"):
        if sum(out[key].values()) != n_patches:
            found.append(f"{key} tallies sum to {sum(out[key].values())}, not {n_patches}")
    if not 0.0 <= out["fraction_meeting_gate_target"] <= 1.0:
        found.append("fraction_meeting_gate_target outside [0, 1]")
    return found
