"""Every pinned output under tests/data, listed once: its file, its producer
and its form. A producer is a public call; or a `python -m donorgate.cli`
argv, one string or strings and Scenarios (each passed as the path of a file
it is saved to), run in a fresh interpreter so that the output cannot depend
on what the process priced before; or a dict of these. The form is the
output's bytes, or a JSON map of the sha256 digests of the byte strings it
holds. tests/test_pins.py checks every pin; `python tests/pins.py` rewrites
every file from src/, for a change meant to move a pinned byte, which says in
CHANGES.md which pins moved and why. `python tests/pins.py --diff OLD` makes
every output once and prints how it differs from the same file under the
directory OLD, rewriting nothing: each numeric field's largest relative
change and where it is, and each digest that changed."""

import argparse
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import numbers
import os
import re
import subprocess
import sys
import tempfile
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import donorgate as dg  # noqa: E402

DATA = Path(__file__).resolve().parent / "data"


def raw(out: bytes) -> bytes:
    """The bytes form: the file holds the output itself."""
    return out


Pin = namedtuple("Pin", "file produce form", defaults=(raw,))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_map(indent=2, end="\n"):
    """The sha256 form: the output as JSON with sorted keys, each of its
    byte strings written as its digest."""
    return lambda tree: (json.dumps(tree, indent=indent, sort_keys=True, default=_sha256)
                         + end).encode()


def sha256_rows(rows) -> bytes:
    """The sha256 form of a list of rows, one row a line."""
    lines = ("  " + json.dumps(row, default=_sha256) for row in rows)
    return ("[\n" + ",\n".join(lines) + "\n]\n").encode()


def _cli(argv) -> bytes:
    """What `python -m donorgate.cli argv` prints, or writes to the file a
    final --out names, in a fresh interpreter that imports the donorgate
    this process imported."""
    with tempfile.TemporaryDirectory() as tmp:
        args, path, out = [], Path(tmp, "scenario.json"), Path(tmp, "out")
        for piece in (argv,) if isinstance(argv, str) else argv:
            if isinstance(piece, dg.Scenario):
                dg.save_scenario(piece, path)
            args += piece.split() if isinstance(piece, str) else [str(path)]
        args += [str(out)] if args[-1] == "--out" else []
        proc = subprocess.run([sys.executable, "-m", "donorgate.cli", *args],
                              capture_output=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": str(Path(dg.__file__).parents[1])})
        if proc.returncode:
            raise RuntimeError(f"donorgate {' '.join(args)}: {proc.stderr.decode()}")
        return out.read_bytes() if out.exists() else proc.stdout


def output(producer):
    """What `producer` makes; the entries of a dict run two at a time."""
    if isinstance(producer, dict):
        with ThreadPoolExecutor(2) as pool:
            return dict(zip(producer, pool.map(output, producer.values())))
    return producer() if callable(producer) else _cli(producer)


def produced(name) -> bytes:
    return PINS[name].form(output(PINS[name].produce))


def pinned(name) -> bytes:
    return (DATA / PINS[name].file).read_bytes()


def moved(name) -> list:
    """Where pin `name`'s file differs from what its producer makes now: the
    paths `drift` names, or ["layout"] if only the bytes differ. Empty if
    none."""
    got, want = produced(name), pinned(name)
    return [] if got == want else list(drift(name, got, want)) or ["layout"]


def _leaves(tree, path=""):
    """(path, value) of each leaf of a JSON tree; a key is written .key, a
    list index [i]."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, tree


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _fields(name, data: bytes) -> dict:
    """The leaves of pin `name`'s file by path: a JSON tree's, or each CSV
    cell under [row].column, a cell that reads as a number as that number."""
    if not PINS[name].file.endswith(".csv"):
        return dict(_leaves(json.loads(data)))
    header, *rows = csv.reader(io.StringIO(data.decode()))
    return {f"[{i}].{column}": _number(cell)
            for i, row in enumerate(rows) for column, cell in zip(header, row)}


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def drift(name, new: bytes, old: bytes) -> dict:
    """How output `new` of pin `name` differs from `old`, as {path: change}.

    For a raw pin, each numeric field that moved (its path with the list
    indices dropped, so one field spans a list) gives the path where it
    moved most, mapped to that relative change |new - old| / |old| (inf
    from 0). Every other leaf that differs, or is on one side only, maps to
    None, as does each digest of a sha256 pin that changed. Empty if none.
    """
    new, old = _fields(name, new), _fields(name, old)
    absent, worst = object(), {}
    for path in sorted(new.keys() | old.keys()):
        a, b = new.get(path, absent), old.get(path, absent)
        # a NaN on both sides has not moved
        if a == b or a != a and b != b:
            continue
        if PINS[name].form is raw and _is_number(a) and _is_number(b):
            field = re.sub(r"\[\d+\]", "[]", path)
            change = abs(a - b) / abs(b) if b else math.inf
            if field not in worst or change > worst[field][1]:
                worst[field] = (path, change)
        else:
            worst[path] = (path, None)
    return dict(sorted(worst.values()))


def random_scenario(radius_a, concentration):
    """table1's species placed at random: P:N 0.4:0.6, placement seed 0."""
    return dataclasses.replace(
        dg.get_preset("table1")[1], placements=None, lattice=dg.LatticeSpec(radius_a),
        random_placement=dg.RandomPlacementSpec(concentration, {"P": 0.4, "N": 0.6}, seed=0))


def placements_r40():
    """The patch_sweep patch, R = 40 A, c = 0.3 %, doped at seeds 0-9."""
    return {str(seed): dg.place_dopants(dg.LatticeSpec(40.0), 3e-3, {"P": 0.4, "N": 0.6}, seed)
            for seed in range(10)}


def _random_corpus():
    """The full reports of 40 realized R = 15 A, c = 0.25 % patches of
    table1's species under a 40 meV Zeeman spread, placement seeds 0-39."""
    sc = dataclasses.replace(random_scenario(15.0, 2.5e-3),
                             epr=dg.EprModel(0.05, zeeman_spread_fwhm_mev=40.0))
    return {str(seed): dg.run_feasibility(dataclasses.replace(
                sc, random_placement=dataclasses.replace(sc.random_placement, seed=seed))
            ).to_json().encode() for seed in range(40)}


def _scans():
    """Of table1's resolved cluster and test_configure's random cases of
    seeds 0-9, the scan's arrays, its row index as int64 and its inferred
    entries as JSON."""
    from test_configure import _random_case

    cases = {"table1": dg.resolve_cluster(dg.get_preset("table1")[1])}
    cases.update((f"random_{seed}", _random_case(seed)) for seed in range(10))
    out = {}
    for name, (sc, lines, couplings) in cases.items():
        scan = dg.simulate_scan(sc, lines, couplings)
        hyp = dg.infer_adjacency(scan, sc.detection_threshold_mev)
        out[name] = {"optical_axis": scan.optical_axis_mev.tobytes(),
                     "epr_axis": scan.epr_axis_mev.tobytes(), "spectra": scan.spectra.tobytes(),
                     "row_spectrum": scan.row_spectrum.astype(np.int64).tobytes(),
                     "entries": json.dumps([dataclasses.asdict(e) for e in hyp.entries]).encode()}
    return out


PAIR_BLOCK_CASES = tuple(itertools.product(
    ("s1", "p2"), ("s1", "p2"), (0.35, 1.0, 2.5), (3, 6, 8), (False, True)))


def pair_block_grids(n_terms: int) -> dict:
    """The reduced grids the kernel pin prices: one point, fig2a's 25 and
    300 seeded ones, and 1500 more at n_terms = 3, whose one-electron chunks
    hold more than 300 separations."""
    _, fig2a = dg.get_preset("fig2a")
    grids = {"one": np.array([3.0]),
             "fig2a": np.array(fig2a.r_grid) / fig2a.control.ground_orbital_radius_a(),
             "seeded": np.sort(np.random.default_rng(0).uniform(0.05, 120.0, 300))}
    if n_terms == 3:
        grids["long"] = np.sort(np.random.default_rng(1).uniform(0.05, 120.0, 1500))
    return grids


def boys_x():
    """Boys arguments: the midpoints of the table's nodes, 0.01 apart up to
    x = 50 where the asymptote takes over, are the farthest a point takes its
    Taylor series; 1e-10 is where the erf form of F_0 gives way to its series."""
    edge = dg.integrals._BOYS_X_MAX
    return np.concatenate([[0.0], np.logspace(-14, 3, 171),
                           [np.nextafter(1e-10, 0.0), 1e-10, np.nextafter(1e-10, 1.0)],
                           (np.arange(0, 5000, 7) + 0.5) / 100.0,
                           [edge - 0.005, np.nextafter(edge, 0.0), edge,
                            np.nextafter(edge, np.inf), edge + 0.005]])


def _pair_blocks():
    """The bytes, so that a flipped sign of zero shows, of every block
    `_pair_blocks` returns in each case on each of its grids, one of which
    crosses a chunk boundary in each pass, and of each order of
    `_boys_array(nmax, boys_x())`, nmax = 0..6."""
    out = {}
    for kind_a, kind_b, ratio, n_terms, two_electron in PAIR_BLOCK_CASES:
        for grid, r in pair_block_grids(n_terms).items():
            blocks = dg.integrals._pair_blocks(kind_a, kind_b, ratio, r, n_terms, two_electron)
            key = f"{kind_a}-{kind_b} {ratio} {n_terms} {int(two_electron) + 1}e {grid}"
            out[key] = {block: values.tobytes() for block, values in blocks.items()}
    x = boys_x()
    for nmax in range(7):
        out[f"boys {nmax}"] = [fn.tobytes() for fn in dg.integrals._boys_array(nmax, x)]
    return out


def search_outcome(j1, j2, tau_range):
    """(clean, report) of `sfg_gate`; the best candidate when none is clean."""
    try:
        return True, dg.sfg_gate(j1, j2, tau_range)
    except dg.NoCleanGateError as err:
        return False, err.best_candidate


def _gate_searches_r60():
    """(j1, j2) of each gate search run_feasibility makes on the R = 60 A,
    c = 0.3 % patch, and of the searches over the default range and over the
    (0.7 tau, 1.3 tau) window, the clean flag, duration, residual and
    entangling power as JSON and the unitary's bytes."""
    rows = []
    for gate in dg.run_feasibility(random_scenario(60.0, 3e-3)).gates:
        j1, j2 = gate["j1_mev"], gate["j2_mev"]
        first = search_outcome(j1, j2, None)
        tau = first[1].duration_ps
        out = b""
        for clean, report in (first, search_outcome(j1, j2, (0.7 * tau, 1.3 * tau))):
            out += json.dumps([clean, report.duration_ps, report.control_residual_entanglement,
                               report.entangling_power]).encode() + report.qubit_unitary.tobytes()
        rows.append([j1, j2, out])
    return rows


PINS = {
    # the CSVs carry 6 significant digits, so a last-bit change in the
    # integral kernel shows only in the JSON curves of cli_sha256
    "exchange_curve_fig2a": Pin("exchange_curve_fig2a.csv", "exchange curve --preset fig2a"),
    "exchange_curve_fig2b": Pin("exchange_curve_fig2b.csv", "exchange curve --preset fig2b"),
    "splitting_curve_fig3": Pin("splitting_curve_fig3.csv", "splitting curve --preset fig3"),
    # the scan CSV is about 50 MB, too large to commit
    "cli_sha256": Pin("cli_sha256.json", {
        "exchange_curve_fig2a.json": "exchange curve --preset fig2a --format json",
        "exchange_curve_fig2b.json": "exchange curve --preset fig2b --format json",
        "splitting_curve_fig3.json": "splitting curve --preset fig3 --format json",
        "exchange_curve_4201.json": "exchange curve --r-min 4 --r-max 46 --r-step 0.01 "
                                    "--format json",
        "configure_scan_table1.csv": "configure scan --preset table1 --format csv",
        "configure_infer_table1.json": "configure infer --preset table1",
    }, sha256_map()),
    "table1_report": Pin("table1_report.json", "feasibility run --preset table1"),
    "table1_report_from_a_saved_scenario": Pin(
        "table1_report.json", ("feasibility run --scenario", dg.get_preset("table1")[1], "--out")),
    # a search that raises its screen level, on table1's C2 couplings
    "gate_run_table1_c2": Pin("gate_run_table1_c2.json", "gate run --j1 147.51734661265843 "
                              "--j2 20.91738401817267 --format json"),
    "random_patch_report": Pin("random_patch_report.json",
                               ("feasibility run --scenario", random_scenario(15.0, 2e-3))),
    **{f"patch_statistics_{tag}": Pin(f"patch_statistics_{tag}.json", (
        "feasibility patches --scenario", random_scenario(radius_a, concentration),
        f"--patches {patches} --seed {seed} --format json"))
       for tag, radius_a, concentration, patches, seed in (
           ("random", 15.0, 2e-3, 40, 1), ("r40", 40.0, 3e-3, 8, 7), ("r60", 60.0, 3e-3, 10, 3))},
    "place_dopants_r40": Pin("place_dopants_r40_sha256.json", lambda: {
        seed: region.sites.tobytes() + json.dumps(list(region.species)).encode()
        for seed, region in placements_r40().items()}, sha256_map()),
    "random_corpus": Pin("random_corpus_sha256.json", _random_corpus, sha256_map(end="")),
    "configure_scan": Pin("configure_scan_sha256.json", _scans, sha256_map()),
    "pair_blocks": Pin("pair_blocks_sha256.json", _pair_blocks, sha256_map(indent=1)),
    "gate_search_r60": Pin("gate_search_r60_sha256.json", _gate_searches_r60, sha256_rows),
}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--diff", metavar="OLD", type=Path,
                        help="compare each output with its file under OLD; write nothing")
    old_dir = parser.parse_args().diff
    for name, pin in PINS.items():
        if old_dir is None:
            # two pins of one file that disagree leave it failing the first one
            (DATA / pin.file).write_bytes(produced(name))
            print(f"{pin.file}: {name}")
        elif not (old_dir / pin.file).exists():
            print(f"{pin.file} ({name}): not under {old_dir}")
        else:
            changes = drift(name, produced(name), (old_dir / pin.file).read_bytes())
            print(f"{pin.file} ({name}): {len(changes)} moved" if changes else
                  f"{pin.file} ({name}): no change")
            for path, change in changes.items():
                print(f"  {path}: " + ("changed" if change is None else f"{change:.3g} relative"))
